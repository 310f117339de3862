//! Robustness extension experiment: deadline hit rates under worker
//! eviction storms and injected task faults.
//!
//! Not a figure in the paper — but the paper's §IV-A1 substrate
//! (HTCondor desktops "typically idle 90% of the day") makes preemption
//! the dominant failure mode, and Work Queue's elastic pool plus the
//! DTM's feedback loop are exactly the machinery that absorbs it. Two
//! sweeps quantify that:
//!
//! - [`run`] — the original eviction-storm sweep (static vs. PID);
//! - [`run_fault_sweep`] — the full robustness grid: eviction rate ×
//!   transient-fault rate × retry policy, reporting deadline hit rate
//!   and wasted work (failed-attempt time burned), static vs. PID.
//!
//! Both sweeps measure through [`ExecutionBackend`]: the default entry
//! points run the DES, and the `*_on` variants accept a backend factory
//! (e.g. a `ThreadedEngine` per grid cell) with no backend-specific
//! forks in the measurement itself. Retry and exhaustion counters come
//! from the trace store: each grid cell installs a fresh
//! [`EventStore`] recorder on its backend and reads the counts back
//! through the query layer, cross-checked against the scheduler's own
//! ledger in debug builds.

use sstd_control::{DtmConfig, DtmJob, DynamicTaskManager};
use sstd_obs::EventStore;
use sstd_runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobId, RetryPolicy,
};
use std::sync::Arc;

/// Task counters of one run, read back through the trace-store query
/// layer: `(retries, exhausted)`.
///
/// Every settled loss that still has retry budget re-queues the task
/// (one retry per non-terminal failure event), so `retries = failures −
/// exhausted`; the scheduler's own ledger agrees, which the sweeps
/// cross-check with a debug assertion.
fn store_task_counts(store: &EventStore) -> (u64, u64) {
    let failures = store.query().failures().count();
    let exhausted = store.query().tasks().label("exhausted").count();
    (failures - exhausted, exhausted)
}

/// One measured point: an allocation policy under an eviction rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Whether PID control was active.
    pub controlled: bool,
    /// Worker evictions injected over the run.
    pub num_evictions: usize,
    /// Fraction of jobs that met their deadline.
    pub job_hit_rate: f64,
    /// Tasks restarted after losing their worker.
    pub wasted_restarts: u64,
}

/// Standard job set: `n_jobs` equal jobs with a deadline sized so the
/// healthy static pool barely meets it — any loss of capacity shows.
fn job_set(n_jobs: u32) -> Vec<DtmJob> {
    (0..n_jobs).map(|i| DtmJob::new(JobId::new(i), 8_000.0, 7.5, 4)).collect()
}

/// The standard DES backend for one grid cell (the worker count is
/// overwritten by the DTM's config before the run).
fn des_backend() -> DesEngine {
    DesEngine::new(Cluster::homogeneous(32, 1.0), ExecutionModel::default(), 8)
}

/// The standard DTM for one grid cell.
fn dtm(controlled: bool, retry: RetryPolicy) -> DynamicTaskManager {
    let config = DtmConfig {
        control_enabled: controlled,
        initial_workers: 8,
        max_workers: 32,
        retry,
        ..DtmConfig::default()
    };
    DynamicTaskManager::new(config, Cluster::homogeneous(32, 1.0), ExecutionModel::default())
}

/// Runs the sweep on the DES: each eviction count × {static, controlled}.
///
/// Evictions are spread evenly over the first 10 virtual seconds — the
/// busy ramp-up phase where losing a worker hurts most.
///
/// # Examples
///
/// ```
/// use sstd_eval::exp::robustness;
///
/// let pts = robustness::run(&[0, 4]);
/// assert_eq!(pts.len(), 4);
/// ```
#[must_use]
pub fn run(eviction_counts: &[usize]) -> Vec<RobustnessPoint> {
    run_on(eviction_counts, des_backend)
}

/// Runs the eviction sweep on backends built by `make_backend` (one fresh
/// backend per grid cell).
#[must_use]
pub fn run_on<B, F>(eviction_counts: &[usize], mut make_backend: F) -> Vec<RobustnessPoint>
where
    B: ExecutionBackend,
    F: FnMut() -> B,
{
    let mut out = Vec::new();
    for &n in eviction_counts {
        let evictions: Vec<f64> = (0..n).map(|i| 1.0 + 9.0 * i as f64 / n.max(1) as f64).collect();
        for controlled in [false, true] {
            let mut backend = make_backend();
            let store = Arc::new(EventStore::new());
            backend.set_recorder(Some(store.clone()));
            let outcome = dtm(controlled, RetryPolicy::default())
                .run_on(&mut backend, &job_set(6), &evictions, None)
                .expect("valid config");
            let (restarts, _) = store_task_counts(&store);
            debug_assert_eq!(restarts, outcome.retries, "store must agree with the ledger");
            out.push(RobustnessPoint {
                controlled,
                num_evictions: n,
                job_hit_rate: outcome.job_hit_rate(),
                wasted_restarts: restarts,
            });
        }
    }
    out
}

/// Formats the sweep as two series.
#[must_use]
pub fn format(points: &[RobustnessPoint]) -> String {
    let mut out = String::from("Robustness — job deadline hit rate under worker evictions\n");
    for controlled in [true, false] {
        out.push_str(if controlled { "PID-controlled" } else { "static pool  " });
        for p in points.iter().filter(|p| p.controlled == controlled) {
            out.push_str(&format!(
                " {:>2} evictions: {:>5.1}% |",
                p.num_evictions,
                p.job_hit_rate * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

/// One measured point of the full fault sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepPoint {
    /// Whether PID control was active.
    pub controlled: bool,
    /// Worker evictions injected over the run.
    pub num_evictions: usize,
    /// Per-attempt transient-fault probability.
    pub transient_rate: f64,
    /// Name of the retry policy used.
    pub retry_label: &'static str,
    /// Fraction of jobs that met their deadline.
    pub job_hit_rate: f64,
    /// Virtual seconds burned in failed or aborted attempts.
    pub wasted_time: f64,
    /// Attempts re-queued after a loss.
    pub retries: u64,
    /// Tasks dropped after exhausting their retry budget.
    pub exhausted: u64,
}

/// Named retry policies for the sweep's third axis.
#[must_use]
pub fn retry_policies() -> Vec<(&'static str, RetryPolicy)> {
    vec![
        ("no-retry", RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }),
        ("default", RetryPolicy::default()),
        (
            "aggressive",
            RetryPolicy {
                max_attempts: 8,
                backoff_base: 0.01,
                backoff_cap: 0.5,
                ..RetryPolicy::default()
            },
        ),
    ]
}

/// Runs the full grid on the DES: eviction count × transient-fault rate ×
/// retry policy, each under static and PID-controlled allocation. Fault
/// schedules are seeded per grid point, so the sweep is deterministic.
#[must_use]
pub fn run_fault_sweep(
    eviction_counts: &[usize],
    transient_rates: &[f64],
    retries: &[(&'static str, RetryPolicy)],
) -> Vec<FaultSweepPoint> {
    run_fault_sweep_on(eviction_counts, transient_rates, retries, des_backend)
}

/// Runs the fault grid on backends built by `make_backend` (one fresh
/// backend per grid cell).
#[must_use]
pub fn run_fault_sweep_on<B, F>(
    eviction_counts: &[usize],
    transient_rates: &[f64],
    retries: &[(&'static str, RetryPolicy)],
    mut make_backend: F,
) -> Vec<FaultSweepPoint>
where
    B: ExecutionBackend,
    F: FnMut() -> B,
{
    let mut out = Vec::new();
    for &n in eviction_counts {
        let evictions: Vec<f64> = (0..n).map(|i| 1.0 + 9.0 * i as f64 / n.max(1) as f64).collect();
        for &rate in transient_rates {
            for &(label, retry) in retries {
                // Seed is a pure function of the grid point: re-running
                // the sweep replays the exact same fault schedule.
                let seed = 1_000 + n as u64 * 97 + (rate * 1_000.0) as u64;
                let plan = FaultPlan { seed, transient_rate: rate, ..FaultPlan::default() };
                for controlled in [false, true] {
                    let mut backend = make_backend();
                    let store = Arc::new(EventStore::new());
                    backend.set_recorder(Some(store.clone()));
                    let outcome = dtm(controlled, retry)
                        .run_on(&mut backend, &job_set(6), &evictions, Some(plan))
                        .expect("valid config");
                    debug_assert!(outcome.faults.reconciles(), "{}", outcome.faults);
                    let (retries, exhausted) = store_task_counts(&store);
                    debug_assert_eq!(retries, outcome.retries, "store vs ledger");
                    debug_assert_eq!(
                        exhausted, outcome.faults.exhausted_tasks,
                        "store vs fault stats"
                    );
                    out.push(FaultSweepPoint {
                        controlled,
                        num_evictions: n,
                        transient_rate: rate,
                        retry_label: label,
                        job_hit_rate: outcome.job_hit_rate(),
                        wasted_time: outcome.faults.wasted_time,
                        retries,
                        exhausted,
                    });
                }
            }
        }
    }
    out
}

/// Formats the fault sweep as a grid, one line per
/// (evictions, fault rate, retry policy), both allocation policies.
#[must_use]
pub fn format_fault_sweep(points: &[FaultSweepPoint]) -> String {
    let mut out = String::from(
        "Robustness — deadline hit rate and wasted work under faults\n\
         evictions  fault-rate  retry       static-hit  pid-hit  pid-wasted  pid-exhausted\n",
    );
    let mut i = 0;
    while i + 1 < points.len() {
        let (s, c) = (&points[i], &points[i + 1]);
        // Points come in (static, controlled) pairs per grid cell.
        if s.controlled || !c.controlled {
            i += 1;
            continue;
        }
        out.push_str(&format!(
            "{:>9}  {:>10.2}  {:<10}  {:>9.1}%  {:>6.1}%  {:>10.1}  {:>13}\n",
            s.num_evictions,
            s.transient_rate,
            s.retry_label,
            s.job_hit_rate * 100.0,
            c.job_hit_rate * 100.0,
            c.wasted_time,
            c.exhausted,
        ));
        i += 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_dominates_static_under_failures() {
        let pts = run(&[0, 6]);
        let rate = |controlled: bool, n: usize| {
            pts.iter()
                .find(|p| p.controlled == controlled && p.num_evictions == n)
                .map(|p| p.job_hit_rate)
                .unwrap()
        };
        // Healthy cluster: both fine.
        assert!(rate(true, 0) >= rate(false, 0));
        // Under a storm: control must not be worse, and must stay high.
        assert!(rate(true, 6) >= rate(false, 6));
        assert!(rate(true, 6) > 0.8, "controlled under storm: {}", rate(true, 6));
    }

    #[test]
    fn hit_rate_degrades_gracefully_for_static() {
        let pts = run(&[0, 8]);
        let static_healthy =
            pts.iter().find(|p| !p.controlled && p.num_evictions == 0).unwrap().job_hit_rate;
        let static_storm =
            pts.iter().find(|p| !p.controlled && p.num_evictions == 8).unwrap().job_hit_rate;
        assert!(static_storm <= static_healthy + 1e-9);
    }

    #[test]
    fn format_names_both_series() {
        let s = format(&run(&[0]));
        assert!(s.contains("PID-controlled"));
        assert!(s.contains("static"));
    }

    #[test]
    fn fault_sweep_covers_the_grid_and_reconciles() {
        let retries = retry_policies();
        let pts = run_fault_sweep(&[0, 4], &[0.0, 0.15], &retries);
        // 2 eviction counts × 2 rates × 3 policies × 2 allocations.
        assert_eq!(pts.len(), 24);
        // No faults, no evictions, default policy: nothing wasted.
        let clean = pts
            .iter()
            .find(|p| {
                p.num_evictions == 0
                    && p.transient_rate == 0.0
                    && p.retry_label == "default"
                    && p.controlled
            })
            .unwrap();
        assert_eq!(clean.retries, 0);
        assert!(clean.wasted_time.abs() < 1e-12);
    }

    #[test]
    fn pid_beats_static_under_faults_in_the_sweep() {
        // The acceptance scenario: ≥10% transient faults plus evictions.
        let retries = [("default", RetryPolicy::default())];
        let pts = run_fault_sweep(&[6], &[0.15], &retries);
        let hit = |controlled: bool| {
            pts.iter().find(|p| p.controlled == controlled).map(|p| p.job_hit_rate).unwrap()
        };
        assert!(hit(true) >= hit(false), "pid {} vs static {}", hit(true), hit(false));
        assert!(hit(true) > 0.8, "pid under faults: {}", hit(true));
        // Faults actually fired and were retried.
        assert!(pts.iter().all(|p| p.retries > 0));
    }

    #[test]
    fn retrying_beats_no_retry_on_hit_rate() {
        let retries = retry_policies();
        let pts = run_fault_sweep(&[0], &[0.25], &retries);
        let hit = |label: &str| {
            pts.iter()
                .find(|p| p.retry_label == label && p.controlled)
                .map(|p| p.job_hit_rate)
                .unwrap()
        };
        // Without retries every faulted task is lost, so its job misses.
        assert!(
            hit("default") >= hit("no-retry"),
            "default {} vs no-retry {}",
            hit("default"),
            hit("no-retry")
        );
        let no_retry_exhausted: u64 =
            pts.iter().filter(|p| p.retry_label == "no-retry").map(|p| p.exhausted).sum();
        assert!(no_retry_exhausted > 0, "rate 0.25 must exhaust no-retry tasks");
    }

    #[test]
    fn sweeps_run_on_real_threads() {
        // The same measurement code drives a ThreadedEngine per grid
        // cell: simulated durations compressed 500×. Wall-clock jitter
        // makes hit rates unstable, so assertions stick to structure and
        // fault accounting.
        use sstd_runtime::ThreadedEngine;
        let threaded = || {
            let mut engine: ThreadedEngine<()> = ThreadedEngine::new(8);
            engine.set_simulation(ExecutionModel::default(), 2.0e-3);
            engine
        };
        let pts = run_on(&[4], threaded);
        assert_eq!(pts.len(), 2, "one eviction count, both allocation policies");
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.job_hit_rate)));

        let fpts =
            run_fault_sweep_on(&[0], &[0.2], &[("default", RetryPolicy::default())], threaded);
        assert_eq!(fpts.len(), 2);
        assert!(fpts.iter().all(|p| p.retries > 0), "20% transient faults must retry: {fpts:?}");
        assert!(fpts.iter().all(|p| p.exhausted == 0), "default policy rescues every task");
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let retries = [("default", RetryPolicy::default())];
        let a = run_fault_sweep(&[2], &[0.1], &retries);
        let b = run_fault_sweep(&[2], &[0.1], &retries);
        assert_eq!(a, b);
    }

    #[test]
    fn fault_sweep_format_lists_every_cell() {
        let retries = [("default", RetryPolicy::default())];
        let pts = run_fault_sweep(&[0, 2], &[0.0, 0.1], &retries);
        let s = format_fault_sweep(&pts);
        assert_eq!(s.lines().count(), 2 + 4, "header + one line per grid cell");
        assert!(s.contains("default"));
    }
}
