//! Fig. 6: deadline hit rates of all schemes.
//!
//! The paper divides each trace into 100 equal intervals, treats each
//! interval's tweet volume as a workload with a soft deadline, and
//! reports the fraction of intervals whose processing finished in time.
//! Baselines run centralized (one node, no control); SSTD runs its
//! deadline-driven DTM over the DES cluster, where the PID controller can
//! raise priorities and grow the worker pool when an interval is
//! predicted to run late.
//!
//! Per-report costs combine a *measured* truth-discovery cost per scheme
//! (on the actual implementations, not assumed) with a scheme-independent
//! preprocessing cost per report (`prep_cost`): every deployment must
//! tokenize, cluster and score each tweet before any scheme sees it, and
//! in the paper's Python pipeline that work dominates. Baselines pay it
//! on one node; SSTD's DTM spreads it (plus its own TD cost) over the
//! worker pool under PID control — which is exactly why the paper's
//! Fig. 6 shows SSTD surviving tight deadlines the baselines miss.

use crate::timing::per_report_cost;
use crate::SchemeKind;
use sstd_control::{DtmConfig, DtmJob, DynamicTaskManager};
use sstd_data::{Scenario, TraceBuilder};
use sstd_runtime::{Cluster, ExecutionModel, JobId};

/// One measured point of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitRatePoint {
    /// Scheme measured.
    pub scheme: SchemeKind,
    /// Deadline applied to every interval (seconds).
    pub deadline: f64,
    /// Fraction of intervals meeting the deadline.
    pub hit_rate: f64,
}

/// Preprocessing cost per report (seconds): tokenizing, clustering and
/// scoring one tweet — identical for every scheme.
pub const PREP_COST: f64 = 1.0e-3;

/// Runs the deadline sweep on `scenario` at `scale`.
///
/// # Examples
///
/// ```
/// use sstd_data::Scenario;
/// use sstd_eval::exp::fig6;
///
/// let pts = fig6::run(Scenario::ParisShooting, 0.001, &[0.5, 5.0], 3);
/// assert_eq!(pts.len(), 2 * 7);
/// ```
#[must_use]
pub fn run(scenario: Scenario, scale: f64, deadlines: &[f64], seed: u64) -> Vec<HitRatePoint> {
    let trace = TraceBuilder::scenario(scenario).scale(scale).seed(seed).build();
    let volumes: Vec<f64> = (0..trace.timeline().num_intervals())
        .map(|iv| trace.reports_in_interval(iv).len() as f64)
        .collect();

    let mut out = Vec::new();
    for scheme in SchemeKind::paper_table() {
        let cost = PREP_COST + per_report_cost(scheme, &trace).as_secs_f64();
        for &deadline in deadlines {
            let hit_rate = if scheme == SchemeKind::Sstd {
                sstd_hit_rate(&volumes, cost, deadline)
            } else {
                baseline_hit_rate(&volumes, cost, deadline)
            };
            out.push(HitRatePoint { scheme, deadline, hit_rate });
        }
    }
    out
}

/// Centralized baseline: each interval runs on one node; hit iff
/// `volume × cost ≤ deadline`.
fn baseline_hit_rate(volumes: &[f64], cost_per_report: f64, deadline: f64) -> f64 {
    let hits = volumes.iter().filter(|&&v| v * cost_per_report <= deadline).count();
    hits as f64 / volumes.len() as f64
}

/// How SSTD's resources are allocated in the deadline experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SstdAllocator {
    /// The paper's PID feedback controller (LCK + GCK).
    Pid,
    /// The §VII-3 future-work exact integer search
    /// ([`IlpAllocator`](sstd_control::IlpAllocator)): pick workers and
    /// priorities up front from the WCET model, no runtime feedback.
    Ilp,
}

/// Like [`run`], but with the §VII-3 exact allocator steering SSTD
/// instead of the PID controller — the comparison the paper proposes as
/// future work.
#[must_use]
pub fn run_with_allocator(
    scenario: Scenario,
    scale: f64,
    deadlines: &[f64],
    seed: u64,
    allocator: SstdAllocator,
) -> Vec<HitRatePoint> {
    match allocator {
        SstdAllocator::Pid => run(scenario, scale, deadlines, seed),
        SstdAllocator::Ilp => {
            let trace = TraceBuilder::scenario(scenario).scale(scale).seed(seed).build();
            let volumes: Vec<f64> = (0..trace.timeline().num_intervals())
                .map(|iv| trace.reports_in_interval(iv).len() as f64)
                .collect();
            let cost = PREP_COST + per_report_cost(SchemeKind::Sstd, &trace).as_secs_f64();
            deadlines
                .iter()
                .map(|&deadline| HitRatePoint {
                    scheme: SchemeKind::Sstd,
                    deadline,
                    hit_rate: ilp_hit_rate(&volumes, cost, deadline),
                })
                .collect()
        }
    }
}

/// SSTD under the exact allocator: workers fixed up front per interval
/// by integer search over the WCET model; no runtime control.
fn ilp_hit_rate(volumes: &[f64], cost_per_report: f64, deadline: f64) -> f64 {
    use sstd_control::IlpAllocator;
    let model = ExecutionModel::new(0.005, cost_per_report, cost_per_report * 1.2);
    let allocator = IlpAllocator::new(model, 16);
    let mut hits = 0usize;
    for (iv, &v) in volumes.iter().enumerate() {
        let job = DtmJob::new(JobId::new(iv as u32), v.max(1.0), deadline, 4);
        let plan = allocator.allocate(&[job]);
        let config = DtmConfig {
            control_enabled: false,
            initial_workers: plan.workers,
            max_workers: plan.workers,
            ..DtmConfig::default()
        };
        let mut dtm = DynamicTaskManager::new(config, Cluster::homogeneous(16, 1.0), model);
        if dtm.run(&[job]).expect("valid config").job_hit_rate() >= 1.0 {
            hits += 1;
        }
    }
    hits as f64 / volumes.len() as f64
}

/// SSTD: each interval's volume becomes a DTM job over the DES cluster
/// with PID control (paper-tuned gains, 4 initial workers growable to
/// 16).
fn sstd_hit_rate(volumes: &[f64], cost_per_report: f64, deadline: f64) -> f64 {
    let model = ExecutionModel::new(0.005, cost_per_report, cost_per_report * 1.2);
    let config = DtmConfig { initial_workers: 4, max_workers: 16, ..DtmConfig::default() };
    let mut hits = 0usize;
    for (iv, &v) in volumes.iter().enumerate() {
        let mut dtm = DynamicTaskManager::new(config, Cluster::homogeneous(16, 1.0), model);
        let job = DtmJob::new(JobId::new(iv as u32), v.max(1.0), deadline, 4);
        let outcome = dtm.run(&[job]).expect("valid config");
        if outcome.job_hit_rate() >= 1.0 {
            hits += 1;
        }
    }
    hits as f64 / volumes.len() as f64
}

/// Formats points as one series per scheme.
#[must_use]
pub fn format(title: &str, points: &[HitRatePoint]) -> String {
    let mut out = format!("Fig. 6 — Deadline hit rates — {title}\n");
    for scheme in SchemeKind::paper_table() {
        let series: Vec<&HitRatePoint> = points.iter().filter(|p| p.scheme == scheme).collect();
        if series.is_empty() {
            continue;
        }
        out.push_str(&format!("{:<13}", scheme.name()));
        for p in series {
            out.push_str(&format!(" dl={:>6.2}s: {:>5.1}% |", p.deadline, p.hit_rate * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_monotone_in_deadline() {
        let pts = run(Scenario::ParisShooting, 0.001, &[0.001, 0.1, 10.0], 7);
        for scheme in SchemeKind::paper_table() {
            let series: Vec<f64> =
                pts.iter().filter(|p| p.scheme == scheme).map(|p| p.hit_rate).collect();
            assert!(
                series.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                "{}: {series:?}",
                scheme.name()
            );
        }
    }

    #[test]
    fn baseline_hit_rate_edges() {
        let volumes = vec![10.0, 100.0, 1000.0];
        assert_eq!(baseline_hit_rate(&volumes, 0.01, 1_000.0), 1.0);
        assert_eq!(baseline_hit_rate(&volumes, 0.01, 0.5), 1.0 / 3.0);
        assert_eq!(baseline_hit_rate(&volumes, 1.0, 0.001), 0.0);
    }

    #[test]
    fn ilp_allocator_variant_is_monotone_and_competitive() {
        let deadlines = [0.05, 0.5, 5.0];
        let ilp =
            run_with_allocator(Scenario::ParisShooting, 0.002, &deadlines, 7, SstdAllocator::Ilp);
        assert_eq!(ilp.len(), 3);
        let rates: Vec<f64> = ilp.iter().map(|p| p.hit_rate).collect();
        assert!(rates.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{rates:?}");
        assert!(rates[2] > 0.9, "a loose deadline should be nearly always met");
    }

    #[test]
    fn sstd_parallelism_beats_a_single_node_at_equal_cost() {
        // With identical per-report cost, the DTM's workers + control must
        // hit at least as many deadlines as one node.
        let volumes: Vec<f64> = (0..20).map(|i| 50.0 + 20.0 * i as f64).collect();
        let cost = 0.004;
        let deadline = 1.2;
        let single = baseline_hit_rate(&volumes, cost, deadline);
        let dtm = sstd_hit_rate(&volumes, cost, deadline);
        assert!(dtm >= single, "DTM {dtm} vs single node {single}");
        assert!(dtm > 0.5, "parallel pool should rescue most intervals: {dtm}");
    }
}
