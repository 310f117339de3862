//! Distributed-vs-centralized consistency: running SSTD's per-claim TD
//! jobs through the real threaded Work Queue must produce exactly the
//! estimates of the single-process engine — the property that makes the
//! claim-partitioned decomposition (paper §III-E) safe.
//!
//! Two further families of tests pin the unified execution substrate:
//!
//! - **backend conformance** — driving the DES and the threaded engine
//!   through one generic body over `JobBackend` with the same task set
//!   (bare specs and payload tasks), priorities and seeded fault plan must
//!   yield the same completed-task multiset, the same payload results and
//!   the same reconciled fault accounting;
//! - **claims-as-tasks** — `run_distributed` must reproduce the batch
//!   engine's estimates byte-for-byte on *both* backends, including under
//!   an injected fault load.

use sstd::core::{run_distributed, ClaimFit, SstdConfig, SstdEngine};
use sstd::data::{Scenario, TraceBuilder};
use sstd::runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, FaultStats, JobBackend, JobId,
    RetryPolicy, TaskSpec, ThreadedEngine,
};
use sstd::types::{ClaimId, TruthLabel};
use std::sync::Arc;

#[test]
fn threaded_engine_matches_central_engine() {
    let trace =
        Arc::new(TraceBuilder::scenario(Scenario::ParisShooting).scale(0.005).seed(21).build());
    let engine = SstdEngine::new(SstdConfig::default());

    // Centralized run.
    let central = engine.run(&trace);

    // Distributed run: one TD job per claim on 4 workers.
    let mut queue: ThreadedEngine<(ClaimId, Vec<TruthLabel>)> = ThreadedEngine::new(4);
    for claim in (0..trace.num_claims()).map(|c| ClaimId::new(c as u32)) {
        let trace = Arc::clone(&trace);
        let engine = engine.clone();
        let spec = TaskSpec::new(JobId::new(claim.index() as u32), 1.0);
        queue
            .submit_job(spec, Arc::new(move || (claim, engine.run_claim(&trace, claim))))
            .expect("threads refuse nothing");
    }
    let _ = queue.run_to_completion();
    let results = queue.drain_results();
    assert_eq!(results.len(), trace.num_claims());

    for (_, (claim, labels)) in results {
        assert_eq!(
            central.labels(claim).expect("claim estimated centrally"),
            labels.as_slice(),
            "claim {claim} diverged between distributed and centralized runs"
        );
    }
}

#[test]
fn job_priorities_do_not_change_results() {
    let trace = Arc::new(TraceBuilder::scenario(Scenario::Synthetic).scale(0.003).seed(8).build());
    let engine = SstdEngine::new(SstdConfig::default());
    let central = engine.run(&trace);

    let mut queue: ThreadedEngine<(ClaimId, Vec<TruthLabel>)> = ThreadedEngine::new(3);
    for claim in (0..trace.num_claims()).map(|c| ClaimId::new(c as u32)) {
        // Priority by data volume — what the DTM does with LCKs.
        let priority = (trace.reports_for_claim(claim).len() as f64).max(1.0);
        let job = JobId::new(claim.index() as u32);
        queue.set_job_priority(job, priority);
        let trace = Arc::clone(&trace);
        let engine = engine.clone();
        queue
            .submit_job(
                TaskSpec::new(job, 1.0),
                Arc::new(move || (claim, engine.run_claim(&trace, claim))),
            )
            .expect("threads refuse nothing");
    }
    let _ = queue.run_to_completion();
    for (_, (claim, labels)) in queue.drain_results() {
        assert_eq!(central.labels(claim).unwrap(), labels.as_slice());
    }
}

// ---------------------------------------------------------------------------
// Backend conformance: DES and threads agree through the trait object.
// ---------------------------------------------------------------------------

/// Everything a backend run produces that must be identical across
/// substrates: the completed `(task, job)` multiset, the payload results,
/// the terminally failed set, and the deterministic fault counters.
/// Timing quantities (wasted time, makespan) are backend-native and
/// deliberately excluded.
#[derive(Debug, PartialEq, Eq)]
struct ConformanceOutcome {
    completed: Vec<(usize, usize)>,
    results: Vec<(usize, u32)>,
    failed: Vec<(usize, usize, u32)>,
    attempts: u64,
    successes: u64,
    transient_failures: u64,
    crash_failures: u64,
    exhausted_tasks: u64,
    retries: u64,
}

/// Drives any backend through the traits with a fixed task set — every
/// other task a bare spec, the rest payloads returning their index — job
/// priorities, and a seeded fault plan. Fault decisions are a pure
/// function of `(seed, task, attempt)`, so every discrete outcome below
/// must match across backends regardless of clocks or thread timing.
fn drive_conformance<B: JobBackend<u32>>(backend: &mut B, plan: FaultPlan) -> ConformanceOutcome {
    backend.set_retry_policy(RetryPolicy {
        max_attempts: 4,
        backoff_base: 0.001,
        backoff_cap: 0.01,
        ..RetryPolicy::default()
    });
    backend.set_fault_plan(plan);
    for i in 0..24u32 {
        let spec = TaskSpec::new(JobId::new(i % 3), 50.0);
        if i % 2 == 0 {
            backend.submit(spec);
        } else {
            backend.submit_job(spec, Arc::new(move || i)).expect("spec fits the cluster");
        }
    }
    backend.set_job_priority(JobId::new(2), 3.0);
    let report = backend.run_to_completion();
    let stats: FaultStats = report.faults;
    assert!(stats.reconciles(), "books must balance on {}: {stats}", backend.backend_name());
    let mut completed: Vec<(usize, usize)> =
        report.completed.iter().map(|c| (c.task.index(), c.job.index())).collect();
    completed.sort_unstable();
    let mut failed: Vec<(usize, usize, u32)> =
        backend.failed().iter().map(|f| (f.task.index(), f.job.index(), f.attempts)).collect();
    failed.sort_unstable();
    let mut results: Vec<(usize, u32)> =
        backend.drain_results().into_iter().map(|(job, i)| (job.index(), i)).collect();
    results.sort_unstable();
    ConformanceOutcome {
        completed,
        results,
        failed,
        attempts: stats.attempts,
        successes: stats.successes,
        transient_failures: stats.transient_failures,
        crash_failures: stats.crash_failures,
        exhausted_tasks: stats.exhausted_tasks,
        retries: backend.retries(),
    }
}

fn conformance_backends() -> (DesEngine<u32>, ThreadedEngine<u32>) {
    let des =
        DesEngine::new(Cluster::homogeneous(3, 1.0), ExecutionModel::new(0.0, 0.002, 0.002), 3);
    let mut threaded = ThreadedEngine::new(3);
    // Compress simulated task time so the real run takes milliseconds.
    threaded.set_simulation(ExecutionModel::new(0.0, 0.002, 0.002), 0.05);
    (des, threaded)
}

#[test]
fn backends_conform_under_transient_faults() {
    let plan = FaultPlan { seed: 77, transient_rate: 0.25, ..FaultPlan::default() };
    let (mut des, mut threaded) = conformance_backends();
    let a = drive_conformance(&mut des, plan);
    let b = drive_conformance(&mut threaded, plan);
    assert!(a.transient_failures > 0, "rate 0.25 must fault: {a:?}");
    assert_eq!(a.results.len(), 12, "every payload task completed once: {a:?}");
    assert_eq!(a, b, "DES and threads disagree under the same fault plan");
}

#[test]
fn backends_conform_under_crashes_and_transients() {
    let plan = FaultPlan {
        seed: 42,
        transient_rate: 0.2,
        crash_rate: 0.08,
        worker_restart_delay: 0.02,
        ..FaultPlan::default()
    };
    let (mut des, mut threaded) = conformance_backends();
    let a = drive_conformance(&mut des, plan);
    let b = drive_conformance(&mut threaded, plan);
    assert!(a.crash_failures > 0, "rate 0.08 must crash: {a:?}");
    assert_eq!(a, b, "crash recovery diverged between backends");
}

#[test]
fn backends_conform_when_tasks_exhaust() {
    // Rate 1.0: every attempt of every task faults, so all tasks exhaust
    // their budget on both backends with identical attempt counts.
    let plan = FaultPlan { seed: 3, transient_rate: 1.0, ..FaultPlan::default() };
    let (mut des, mut threaded) = conformance_backends();
    let a = drive_conformance(&mut des, plan);
    let b = drive_conformance(&mut threaded, plan);
    assert_eq!(a.exhausted_tasks, 24, "{a:?}");
    assert!(a.completed.is_empty() && a.results.is_empty());
    assert_eq!(a.failed.len(), 24);
    assert_eq!(a, b, "exhaustion bookkeeping diverged between backends");
}

/// The Local Control Knob means the same on both backends: a priority is
/// the job's *share* of the workers' next picks (`P_u = T_u / ΣT`, what
/// the WCET formula assumes), not a strict order. One worker, jobs A and
/// B at priorities 3 and 1, eight tasks each queued behind one blocker:
/// both backends start them in the same order, and B is served long
/// before A runs dry.
#[test]
fn backends_conform_on_priority_shares() {
    fn start_order(backend: &mut dyn ExecutionBackend) -> Vec<usize> {
        let (a, b, blocker) = (JobId::new(0), JobId::new(1), JobId::new(2));
        backend.submit(TaskSpec::new(blocker, 2_000.0));
        while backend.running() == 0 {
            backend.run_until(backend.now() + 0.01);
        }
        backend.set_job_priority(a, 3.0);
        backend.set_job_priority(b, 1.0);
        for _ in 0..8 {
            backend.submit(TaskSpec::new(a, 100.0));
            backend.submit(TaskSpec::new(b, 100.0));
        }
        let mut completed = backend.run_to_completion().completed;
        assert_eq!(completed.len(), 17, "on {}", backend.backend_name());
        completed.sort_by(|x, y| x.started_at.partial_cmp(&y.started_at).unwrap());
        completed[1..].iter().map(|c| c.job.index()).collect()
    }
    let model = ExecutionModel::new(0.0, 0.002, 0.002);
    let mut des: DesEngine = DesEngine::new(Cluster::homogeneous(1, 1.0), model, 1);
    let mut threaded: ThreadedEngine<()> = ThreadedEngine::new(1);
    // 0.2 engine-seconds per task: 10 ms real, the blocker 200 ms.
    threaded.set_simulation(model, 0.05);
    let on_des = start_order(&mut des);
    let on_threads = start_order(&mut threaded);
    assert_eq!(on_des, on_threads, "the two backends disagree on what a priority means");
    assert_eq!(on_des[..8].iter().filter(|&&job| job == 0).count(), 6, "3 : 1 share: {on_des:?}");
    let first_b = on_des.iter().position(|&job| job == 1).unwrap();
    let last_a = on_des.iter().rposition(|&job| job == 0).unwrap();
    assert!(first_b < last_a, "B starved until A ran dry: {on_des:?}");
}

// ---------------------------------------------------------------------------
// Claims-as-tasks: run_distributed equals the batch engine on both
// backends, with and without an injected fault load.
// ---------------------------------------------------------------------------

#[test]
fn claims_as_tasks_match_batch_on_both_backends_under_faults() {
    let trace = TraceBuilder::scenario(Scenario::ParisShooting).scale(0.005).seed(21).build();
    let engine = SstdEngine::new(SstdConfig::default());
    let central = engine.run(&trace);
    let plan = FaultPlan { seed: 9, transient_rate: 0.3, ..FaultPlan::default() };
    let retry = RetryPolicy {
        max_attempts: 10,
        backoff_base: 0.001,
        backoff_cap: 0.01,
        ..RetryPolicy::default()
    };

    // DES substrate (each payload run once, at its completion event).
    let mut sim: DesEngine<ClaimFit> =
        DesEngine::new(Cluster::homogeneous(4, 1.0), ExecutionModel::default(), 4);
    sim.set_fault_plan(plan);
    sim.set_retry_policy(retry);
    let sim_run =
        run_distributed(&engine, &trace, &mut sim, JobId::new(0)).expect("retries rescue all");
    assert_eq!(sim_run.estimates, central, "DES-executed claims diverged from batch");
    assert!(sim_run.report.faults.transient_failures > 0, "{}", sim_run.report.faults);
    assert!(sim_run.report.faults.reconciles(), "{}", sim_run.report.faults);

    // Real threads (payloads re-executed on every faulted attempt).
    let mut threaded: ThreadedEngine<ClaimFit> = ThreadedEngine::new(4);
    threaded.set_fault_plan(plan);
    threaded.set_retry_policy(retry);
    let thr_run =
        run_distributed(&engine, &trace, &mut threaded, JobId::new(0)).expect("retries rescue all");
    assert_eq!(thr_run.estimates, central, "thread-executed claims diverged from batch");
    assert!(thr_run.report.faults.transient_failures > 0, "{}", thr_run.report.faults);
    assert!(thr_run.report.faults.reconciles(), "{}", thr_run.report.faults);

    // The two backends also agree with each other on what completed.
    assert_eq!(
        sim_run.report.completed.len(),
        thr_run.report.completed.len(),
        "same task count on both substrates"
    );
}
