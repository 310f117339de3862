//! CI regression gate for the trace-store query layer.
//!
//! Runs a seeded fault-injected DES workload with an [`EventStore`]
//! installed as the recorder, then audits the run *through the query
//! layer only*: completion counts, retry accounting cross-checked
//! against the scheduler ledger, causal [`sstd_obs::AttemptChain`]
//! reconstruction,
//! and tail latencies. A second pass replays the captured trace into a
//! bounded store to prove that whole-segment eviction keeps truthful
//! drop accounting under pressure.
//!
//! The gate is wired into CI (`.github/workflows/ci.yml`, `obs-sweep`
//! job): any violation makes the `trace_gate` binary exit non-zero, so a
//! regression in the store or the query layer fails the build rather
//! than silently skewing the evaluation sweeps that now read their
//! fault metrics from the same store.

use sstd_obs::{json_f64, EventStore, StoreConfig};
use sstd_runtime::prelude::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobId, RetryPolicy, TaskSpec,
};
use sstd_stats::exact_quantile;
use std::sync::Arc;

/// Default task count for the gate workload.
pub const DEFAULT_TASKS: u32 = 400;
/// Default worker count for the gate workload.
pub const DEFAULT_WORKERS: usize = 8;
/// Default fault-plan seed for the gate workload.
pub const DEFAULT_SEED: u64 = 7777;

/// Segment budget for the bounded replay: small enough that a
/// [`DEFAULT_TASKS`]-sized trace is guaranteed to overflow it.
const BOUNDED_REPLAY_EVENTS: usize = 256;

/// Everything the gate measured, plus the list of violated invariants
/// (empty on a clean run).
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Tasks submitted.
    pub tasks: u64,
    /// Events captured by the unbounded store.
    pub events: u64,
    /// Completions counted through the query layer.
    pub completed: u64,
    /// Retries derived from the store (failed attempts minus exhausted
    /// tasks).
    pub retries: u64,
    /// Attempt chains that record at least one retry.
    pub retry_chains: u64,
    /// Tasks that exhausted their retry budget (must be zero under the
    /// generous gate policy).
    pub exhausted: u64,
    /// P99 of per-attempt latency (dispatch → settle), seconds.
    pub p99_attempt_latency: f64,
    /// P99 of per-task turnaround (queue → final settle), seconds.
    pub p99_turnaround: f64,
    /// Events dropped by the unbounded store (must be zero).
    pub dropped_events: u64,
    /// Violated invariants; empty means the gate passed.
    pub violations: Vec<String>,
}

impl GateReport {
    /// `true` when every audited invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as a small JSON object (same hand-rolled style
    /// as the repo's other `BENCH_*.json` artifacts).
    #[must_use]
    pub fn to_json(&self) -> String {
        let violations = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\n",
                "  \"gate\": \"trace_store\",\n",
                "  \"tasks\": {},\n",
                "  \"events\": {},\n",
                "  \"completed\": {},\n",
                "  \"retries\": {},\n",
                "  \"retry_chains\": {},\n",
                "  \"exhausted\": {},\n",
                "  \"p99_attempt_latency\": {},\n",
                "  \"p99_turnaround\": {},\n",
                "  \"dropped_events\": {},\n",
                "  \"violations\": [{}]\n",
                "}}\n"
            ),
            self.tasks,
            self.events,
            self.completed,
            self.retries,
            self.retry_chains,
            self.exhausted,
            json_f64(self.p99_attempt_latency),
            json_f64(self.p99_turnaround),
            self.dropped_events,
            violations,
        )
    }

    /// Renders a human-readable summary for the CI log.
    #[must_use]
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("trace-store query gate\n");
        out.push_str(&format!(
            "  tasks {}  events {}  completed {}  retries {}  retry-chains {}\n",
            self.tasks, self.events, self.completed, self.retries, self.retry_chains
        ));
        out.push_str(&format!(
            "  p99 attempt latency {:.4}s  p99 turnaround {:.4}s  dropped {}\n",
            self.p99_attempt_latency, self.p99_turnaround, self.dropped_events
        ));
        if self.passed() {
            out.push_str("  PASS: all invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("  VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Runs the gate with its default workload.
#[must_use]
pub fn run() -> GateReport {
    run_with(DEFAULT_TASKS, DEFAULT_WORKERS, DEFAULT_SEED)
}

/// Runs the gate on a seeded fault-injected DES workload and audits the
/// captured trace through the query layer.
#[must_use]
pub fn run_with(tasks: u32, workers: usize, seed: u64) -> GateReport {
    let store = Arc::new(EventStore::new());
    let mut des: DesEngine = DesEngine::new(
        Cluster::homogeneous(workers, 1.0),
        ExecutionModel::new(0.0, 0.01, 0.01),
        workers,
    );
    des.set_fault_plan(FaultPlan {
        seed,
        transient_rate: 0.2,
        crash_rate: 0.05,
        worker_restart_delay: 0.05,
        ..FaultPlan::default()
    });
    des.set_retry_policy(RetryPolicy { max_attempts: 64, ..RetryPolicy::default() });
    des.set_recorder(Some(store.clone()));
    for i in 0..tasks {
        des.submit(TaskSpec::new(JobId::new(i % 3), 100.0));
    }
    let report = des.run_to_completion();

    let mut violations = Vec::new();
    let completed = store.query().tasks().label("completed").count();
    let failures = store.query().failures().count();
    let exhausted = store.query().tasks().label("exhausted").count();
    let retries = failures - exhausted;
    let chains = store.attempt_chains();
    let retry_chains = chains.iter().filter(|c| c.retries() > 0).count() as u64;

    let attempt_latencies: Vec<f64> =
        chains.iter().flat_map(|c| c.attempts.iter().filter_map(|a| a.latency())).collect();
    let turnarounds: Vec<f64> = chains.iter().filter_map(|c| c.turnaround()).collect();
    let p99_attempt_latency = if attempt_latencies.is_empty() {
        f64::NAN
    } else {
        exact_quantile(&attempt_latencies, 0.99)
    };
    let p99_turnaround =
        if turnarounds.is_empty() { f64::NAN } else { exact_quantile(&turnarounds, 0.99) };

    if completed != u64::from(tasks) {
        violations.push(format!("completed {completed} != submitted {tasks}"));
    }
    if report.completed.len() != tasks as usize {
        violations.push(format!(
            "backend report has {} completions, expected {tasks}",
            report.completed.len()
        ));
    }
    if retries != des.retries() {
        violations
            .push(format!("store-derived retries {retries} != ledger retries {}", des.retries()));
    }
    if exhausted != 0 {
        violations.push(format!("{exhausted} tasks exhausted a 64-attempt budget"));
    }
    if retry_chains == 0 {
        violations.push("no retry chains found despite injected faults".to_string());
    }
    if chains.len() != tasks as usize {
        violations.push(format!("{} attempt chains for {tasks} tasks", chains.len()));
    }
    if !(p99_attempt_latency.is_finite() && p99_attempt_latency > 0.0) {
        violations.push(format!("p99 attempt latency {p99_attempt_latency} is not positive"));
    } else if p99_attempt_latency > report.makespan {
        violations.push(format!(
            "p99 attempt latency {p99_attempt_latency} exceeds makespan {}",
            report.makespan
        ));
    }
    if !(p99_turnaround.is_finite() && p99_turnaround > 0.0) {
        violations.push(format!("p99 turnaround {p99_turnaround} is not positive"));
    } else if p99_turnaround > report.makespan + 1e-9 {
        violations
            .push(format!("p99 turnaround {p99_turnaround} exceeds makespan {}", report.makespan));
    }
    if store.dropped_events() != 0 {
        violations.push(format!("unbounded store dropped {} events", store.dropped_events()));
    }

    // Replay the trace into a deliberately tiny bounded store to prove
    // eviction fires and its accounting stays truthful under pressure.
    let bounded = EventStore::with_config(StoreConfig::bounded(BOUNDED_REPLAY_EVENTS))
        .expect("bounded gate config is valid");
    for event in store.events() {
        if let Some(t) = event.timeline_event() {
            bounded.record_task(t);
        }
    }
    if bounded.dropped_events() == 0 {
        violations.push("bounded replay evicted nothing; eviction path untested".to_string());
    }
    if bounded.total_appended() != bounded.len() as u64 + bounded.dropped_events() {
        violations.push(format!(
            "bounded store accounting broken: appended {} != len {} + dropped {}",
            bounded.total_appended(),
            bounded.len(),
            bounded.dropped_events()
        ));
    }

    GateReport {
        tasks: u64::from(tasks),
        events: store.len() as u64,
        completed,
        retries,
        retry_chains,
        exhausted,
        p99_attempt_latency,
        p99_turnaround,
        dropped_events: store.dropped_events(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_passes_on_a_quick_workload() {
        let report = run_with(120, 4, DEFAULT_SEED);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.completed, 120);
        assert!(report.retry_chains > 0);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn the_json_report_carries_every_field() {
        let report = run_with(60, 4, 11);
        let json = report.to_json();
        for key in [
            "\"gate\"",
            "\"tasks\"",
            "\"events\"",
            "\"completed\"",
            "\"retries\"",
            "\"retry_chains\"",
            "\"exhausted\"",
            "\"p99_attempt_latency\"",
            "\"p99_turnaround\"",
            "\"dropped_events\"",
            "\"violations\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
