//! Acceptance test for the observability subsystem (ISSUE 3): a DES run
//! and a threaded run of the same seeded `FaultPlan` produce structurally
//! identical task traces in the `EventStore`, the trace answers tail and
//! retry questions through `Query`, and sweeps export in the repository's
//! `BENCH_*.json`-compatible format.

use sstd::eval::exp::fig7;
use sstd::obs::{AttemptChain, EventStore};
use sstd::runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobId, RetryPolicy, TaskSpec,
    ThreadedEngine,
};
use sstd_testkit::{check, domain};
use std::sync::Arc;

const TASKS: u32 = 40;
const WORKERS: usize = 4;

fn plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        transient_rate: 0.15,
        crash_rate: 0.05,
        worker_restart_delay: 0.05,
        ..FaultPlan::default()
    }
}

fn model() -> ExecutionModel {
    ExecutionModel::new(0.0, 0.01, 0.01)
}

/// Runs the seeded workload on `backend` with a fresh store installed as
/// its recorder and returns the store.
fn run_instrumented<B: ExecutionBackend>(mut backend: B) -> Arc<EventStore> {
    let store = Arc::new(EventStore::new());
    backend.set_recorder(Some(store.clone()));
    for i in 0..TASKS {
        backend.submit(TaskSpec::new(JobId::new(i % 3), 100.0));
    }
    let report = backend.run_to_completion();
    assert_eq!(report.completed.len(), TASKS as usize, "no lost tasks");
    store
}

fn des_backend() -> DesEngine {
    DesEngine::new(Cluster::homogeneous(WORKERS, 1.0), model(), WORKERS)
}

fn threaded_backend() -> ThreadedEngine<()> {
    let mut engine: ThreadedEngine<()> = ThreadedEngine::new(WORKERS);
    // 1 engine-second per 100-tweet task compressed to 1ms real time.
    engine.set_simulation(model(), 1.0e-3);
    engine
}

fn des_store() -> Arc<EventStore> {
    let mut des = des_backend();
    des.set_fault_plan(plan(2024));
    run_instrumented(des)
}

fn threaded_store() -> Arc<EventStore> {
    let mut engine = threaded_backend();
    engine.set_fault_plan(plan(2024));
    run_instrumented(engine)
}

#[test]
fn des_and_threaded_timelines_are_structurally_identical() {
    let des = des_store();
    let threaded = threaded_store();

    // Fault verdicts are a pure function of (seed, task, attempt), so both
    // substrates walk every task through the same (attempt, phase)
    // sequence — only worker ids, timestamps and cross-task interleaving
    // may differ.
    assert!(
        des.structurally_equal(&threaded),
        "per-task sequences diverged:\nDES: {:?}\nthreaded: {:?}",
        des.task_sequences(),
        threaded.task_sequences(),
    );

    let seqs = des.task_sequences();
    assert_eq!(seqs.len(), TASKS as usize, "every task appears in the timeline");
    for seq in seqs.values() {
        assert_eq!(seq.first().unwrap(), &(0, "queued"));
        assert_eq!(seq.last().unwrap().1, "completed");
    }
    // The seeded plan exercises both injected fault kinds.
    let phases: Vec<&str> = seqs.values().flatten().map(|&(_, p)| p).collect();
    assert!(phases.contains(&"failed:transient"), "plan(2024) injects transients");
    assert!(phases.contains(&"failed:crash"), "plan(2024) injects crashes");
}

/// The same equivalence beyond one seed: generated transient plans (the
/// fixed seed above is the one that covers crashes). `TESTKIT_CASES`
/// overrides the case count.
#[test]
fn des_and_threaded_timelines_agree_for_generated_plans() {
    let name = "des_and_threaded_timelines_agree_for_generated_plans";
    check(name, 200, &domain::fault_plan_case(), |case| {
        // Generous, so that every task completes whatever the rates.
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let (mut des, mut threaded) = (des_backend(), threaded_backend());
        for backend in [&mut des as &mut dyn ExecutionBackend, &mut threaded] {
            backend.set_fault_plan(case.plan());
            backend.set_retry_policy(retry);
        }
        let (des, threaded) = (run_instrumented(des), run_instrumented(threaded));
        if des.structurally_equal(&threaded) {
            Ok(())
        } else {
            Err(format!(
                "per-task sequences diverged:\nDES: {:?}\nthreaded: {:?}",
                des.task_sequences(),
                threaded.task_sequences()
            ))
        }
    });
}

#[test]
fn store_backed_runs_are_structurally_identical_and_queryable() {
    let a = des_store();
    let b = des_store();
    assert!(a.structurally_equal(&b), "same seeded plan, same structure");
    assert_eq!(a.query().tasks().label("completed").count(), u64::from(TASKS));
    assert_eq!(a.query().tasks().label("exhausted").count(), 0);
    assert!(a.query().failures().count() > 0, "plan(2024) injects faults");
    assert_eq!(a.dropped_events(), 0, "unbounded store never drops");

    // Causal chains rebuild the retry structure: every chain completes,
    // and at least one retried under the seeded plan.
    let chains = a.attempt_chains();
    assert_eq!(chains.len(), TASKS as usize);
    assert!(chains.iter().all(AttemptChain::completed));
    assert!(chains.iter().any(|c| c.retries() > 0), "plan(2024) forces retries");

    // Tail latency through the query layer: finite, positive, ordered.
    let p50 = a
        .query()
        .tasks()
        .label("completed")
        .percentile(0.5, |e| e.timeline_event().map(|t| t.at))
        .expect("completions exist");
    let p99 = a
        .query()
        .tasks()
        .label("completed")
        .percentile(0.99, |e| e.timeline_event().map(|t| t.at))
        .expect("completions exist");
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} vs p99 {p99}");
}

#[test]
fn fig7_sweep_exports_a_bench_compatible_report() {
    let report = fig7::bench_report(&fig7::run(&[100_000], &[1, 2]));
    assert_eq!(report.len(), 2);
    let json = report.to_json();
    assert!(json.starts_with("{\"bench\":\"fig7_speedup\",\"points\":["), "{json}");
    assert!(json.contains("\"data_size\":100000"), "{json}");
    assert!(json.contains("\"workers\":2"), "{json}");
    assert!(json.ends_with("]}"), "{json}");
}
