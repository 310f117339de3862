//! Acceptance test for the fault-tolerance layer (ISSUE 1): with a seeded
//! `FaultPlan` injecting ≥10% transient task failures plus worker
//! crashes, both execution backends complete every submitted job with no
//! lost tasks, retries stay within the policy cap, the `ExecutionReport`
//! accounting reconciles, and everything replays deterministically.

use sstd::control::{DtmConfig, DtmJob, DynamicTaskManager};
use sstd::runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobBackend, JobId,
    RetryPolicy, TaskSpec, ThreadedEngine,
};
use std::sync::Arc;

const TRANSIENT_RATE: f64 = 0.12; // ≥10% per the acceptance criteria
const CRASH_RATE: f64 = 0.05;

fn plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        transient_rate: TRANSIENT_RATE,
        crash_rate: CRASH_RATE,
        worker_restart_delay: 0.05,
        ..FaultPlan::default()
    }
}

#[test]
fn des_backend_completes_all_jobs_under_faults() {
    let run = || {
        let mut des: DesEngine =
            DesEngine::new(Cluster::homogeneous(4, 1.0), ExecutionModel::new(0.0, 0.01, 0.01), 4);
        des.set_fault_plan(plan(2024));
        for i in 0..60 {
            des.submit(TaskSpec::new(JobId::new(i % 5), 100.0));
        }
        des.run_to_completion()
    };
    let report = run();
    assert_eq!(report.completed.len(), 60, "no lost tasks");
    let stats = report.faults;
    assert!(
        stats.transient_failures > 0 && stats.crash_failures > 0,
        "both fault kinds must fire: {stats}"
    );
    assert!(stats.reconciles(), "attempts must reconcile: {stats}");
    assert_eq!(stats.exhausted_tasks, 0, "retry cap never exceeded here");
    // Byte-for-byte determinism across two identical runs.
    let again = run();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn threaded_backend_completes_all_jobs_under_faults() {
    let run = || {
        let mut engine = ThreadedEngine::new(4);
        engine.set_fault_plan(plan(2024));
        engine.set_retry_policy(RetryPolicy {
            backoff_base: 0.0005,
            backoff_cap: 0.005,
            ..RetryPolicy::default()
        });
        for i in 0..60u32 {
            let spec = TaskSpec::new(JobId::new(i % 5), 1.0);
            engine.submit_job(spec, Arc::new(move || i * 3)).expect("threads refuse nothing");
        }
        let _ = engine.run_to_completion();
        let mut results = engine.drain_results();
        results.sort_by_key(|&(_, v)| v);
        (results, engine.fault_stats(), engine.failed().len())
    };
    let (results, stats, failed) = run();
    assert_eq!(results.len(), 60, "no lost tasks");
    assert_eq!(failed, 0);
    assert!(
        stats.transient_failures > 0 && stats.crash_failures > 0,
        "both fault kinds must fire: {stats}"
    );
    assert!(stats.reconciles(), "attempts must reconcile: {stats}");
    // The injected fault schedule is a pure function of the seed: counts
    // replay exactly even though thread timing differs.
    let (results2, stats2, _) = run();
    assert_eq!(results, results2);
    assert_eq!(stats.attempts, stats2.attempts);
    assert_eq!(stats.transient_failures, stats2.transient_failures);
    assert_eq!(stats.crash_failures, stats2.crash_failures);
}

#[test]
fn retries_stay_within_the_policy_cap() {
    let mut des: DesEngine =
        DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::new(0.0, 0.01, 0.01), 2);
    // Every attempt faults: each task burns exactly `max_attempts`.
    des.set_fault_plan(FaultPlan { seed: 5, transient_rate: 1.0, ..FaultPlan::default() });
    let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
    des.set_retry_policy(retry);
    for _ in 0..10 {
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
    }
    let report = des.run_to_completion();
    assert!(report.completed.is_empty());
    assert_eq!(report.faults.attempts, 40, "10 tasks × 4 capped attempts");
    assert_eq!(des.failed().len(), 10);
    assert!(report.faults.reconciles(), "{}", report.faults);
}

#[test]
fn pid_control_beats_static_allocation_under_faults() {
    let jobs: Vec<DtmJob> = (0..6).map(|i| DtmJob::new(JobId::new(i), 10_000.0, 28.0, 4)).collect();
    let evictions = [2.0, 3.5, 5.0];
    let run = |controlled: bool| {
        let cfg = DtmConfig { control_enabled: controlled, ..DtmConfig::default() };
        DynamicTaskManager::new(cfg, Cluster::homogeneous(64, 1.0), ExecutionModel::default())
            .run_with_faults(&jobs, &evictions, Some(plan(99)))
            .expect("valid config")
    };
    let pid = run(true);
    let static_pool = run(false);
    assert_eq!(pid.report.completed.len(), 24, "no job loses tasks");
    assert!(pid.faults.reconciles(), "{}", pid.faults);
    assert!(
        pid.job_hit_rate() >= static_pool.job_hit_rate(),
        "pid {} vs static {}",
        pid.job_hit_rate(),
        static_pool.job_hit_rate()
    );
    // Deterministic: an identical run replays the same outcome.
    assert_eq!(pid, run(true));
}
