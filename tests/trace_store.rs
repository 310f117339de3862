//! Differential property suite for the trace store (ISSUE 7): the
//! query layer checked against brute-force folds over the same event
//! vector, eviction accounting checked against exact arithmetic, and
//! causal chain reconstruction checked against a naive per-task replay
//! of real backend runs.
//!
//! Every failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact minimized counterexample.

use sstd::obs::{EventClass, EventStore, RecoveryEvent, StoreConfig, StreamTick};
use sstd::runtime::{
    Cluster, DesEngine, ExecutionModel, JobId, LossCause, RetryPolicy, TaskId, TaskPhase, TaskSpec,
    TimelineEvent, WorkerId,
};
use sstd_testkit::{check, domain, Gen};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cases per differential suite (override with `TESTKIT_CASES`).
const CASES: usize = 1_000;

/// One record in a generated mixed trace.
#[derive(Debug, Clone, Copy)]
enum Rec {
    Task(TimelineEvent),
    Stream(StreamTick),
    Recovery(RecoveryEvent),
}

/// A generated mixed trace: task events interleaved with stream ticks
/// and recovery events, in append order.
#[derive(Debug, Clone)]
struct TraceCase {
    records: Vec<Rec>,
}

impl TraceCase {
    /// Appends every record to `store` in order.
    fn fill(&self, store: &EventStore) {
        for r in &self.records {
            match r {
                Rec::Task(e) => {
                    store.record_task(e);
                }
                Rec::Stream(t) => {
                    store.record_stream(*t);
                }
                Rec::Recovery(e) => {
                    store.record_recovery(*e);
                }
            }
        }
    }

    /// The task events, in append order.
    fn task_events(&self) -> Vec<TimelineEvent> {
        self.records
            .iter()
            .filter_map(|r| if let Rec::Task(e) = r { Some(*e) } else { None })
            .collect()
    }
}

const PHASES: [TaskPhase; 5] = [
    TaskPhase::Queued,
    TaskPhase::Dispatched,
    TaskPhase::Failed(LossCause::Transient),
    TaskPhase::Failed(LossCause::Crash),
    TaskPhase::Completed,
];

/// Generates mixed traces of 0–120 records over a small id space, so
/// filters and group-bys see collisions. Shrinks by halving.
fn trace_case() -> Gen<TraceCase> {
    Gen::new(|rng| {
        let n = rng.usize_in(0, 120);
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let choice = rng.usize_in(0, 9);
            if choice < 7 {
                records.push(Rec::Task(TimelineEvent {
                    task: TaskId::new(rng.usize_in(0, 15) as u32),
                    job: JobId::new(rng.usize_in(0, 3) as u32),
                    attempt: rng.usize_in(0, 3) as u32,
                    worker: if rng.chance(0.8) {
                        Some(WorkerId::new(rng.usize_in(0, 5) as u32))
                    } else {
                        None
                    },
                    at: rng.f64_in(0.0, 100.0),
                    phase: *rng.pick(&PHASES),
                }));
            } else if choice < 9 {
                records.push(Rec::Stream(StreamTick {
                    interval: i as u64,
                    reports: rng.usize_in(0, 50) as u64,
                    active_claims: rng.usize_in(0, 8),
                    window_occupancy: rng.f64_in(0.0, 6.0),
                    decode_latency: rng.f64_in(0.0, 0.01),
                    decision_flips: rng.usize_in(0, 4),
                    late_reports: rng.usize_in(0, 3) as u64,
                    rejected_reports: rng.usize_in(0, 2) as u64,
                }));
            } else {
                records.push(Rec::Recovery(RecoveryEvent::CheckpointWritten {
                    interval: i,
                    journal_len: rng.usize_in(0, 40) as u64,
                    bytes: rng.usize_in(16, 4096),
                }));
            }
        }
        TraceCase { records }
    })
    .with_shrink(|case: &TraceCase| {
        let k = case.records.len();
        if k == 0 {
            return Vec::new();
        }
        vec![
            TraceCase { records: case.records[..k / 2].to_vec() },
            TraceCase { records: case.records[k / 2..].to_vec() },
        ]
    })
}

/// Inline type-7 quantile (R default): the oracle for
/// `Query::percentile`, implemented independently of `sstd_stats`.
fn type7_quantile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let h = (v.len() - 1) as f64 * p;
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if frac == 0.0 || lo + 1 >= v.len() {
        v[lo]
    } else {
        v[lo] + frac * (v[lo + 1] - v[lo])
    }
}

// ---------------------------------------------------------------------
// Query counts, sums and group-bys vs naive folds
// ---------------------------------------------------------------------

#[test]
fn query_counts_and_sums_match_naive_folds() {
    check("query_counts_and_sums_match_naive_folds", CASES, &trace_case(), |case| {
        let store = EventStore::new();
        case.fill(&store);
        let tasks = case.task_events();

        let q_tasks = store.query().tasks().count();
        if q_tasks != tasks.len() as u64 {
            return Err(format!("task count {} vs naive {}", q_tasks, tasks.len()));
        }
        let n_streams = case.records.iter().filter(|r| matches!(r, Rec::Stream(_))).count() as u64;
        if store.query().stream().count() != n_streams {
            return Err(format!(
                "stream count {} vs naive {n_streams}",
                store.query().stream().count()
            ));
        }

        let n_completed = tasks.iter().filter(|e| e.phase == TaskPhase::Completed).count() as u64;
        if store.query().tasks().label("completed").count() != n_completed {
            return Err("completed label count diverged".into());
        }
        let n_failures = tasks.iter().filter(|e| e.phase.is_failure()).count() as u64;
        if store.query().failures().count() != n_failures {
            return Err("failure count diverged".into());
        }

        let probe = TaskId::new(7);
        let n_probe = tasks.iter().filter(|e| e.task == probe).count() as u64;
        if store.query().task(probe).count() != n_probe {
            return Err("task filter count diverged".into());
        }

        let (t0, t1) = (25.0, 75.0);
        let n_window = tasks.iter().filter(|e| e.at >= t0 && e.at <= t1).count() as u64;
        if store.query().tasks().between(t0, t1).count() != n_window {
            return Err("time-window count diverged".into());
        }

        let naive_sum: f64 =
            tasks.iter().filter(|e| e.phase == TaskPhase::Completed).map(|e| e.at).sum();
        let q_sum =
            store.query().tasks().label("completed").sum(|e| e.timeline_event().map(|t| t.at));
        if (q_sum - naive_sum).abs() > 1e-9 {
            return Err(format!("sum {q_sum} vs naive {naive_sum}"));
        }

        let mut naive_by_task: BTreeMap<TaskId, u64> = BTreeMap::new();
        for e in &tasks {
            *naive_by_task.entry(e.task).or_default() += 1;
        }
        if store.query().tasks().group_count_by_task() != naive_by_task {
            return Err("group_count_by_task diverged".into());
        }

        let mut naive_sum_by_task: BTreeMap<TaskId, f64> = BTreeMap::new();
        for e in &tasks {
            *naive_sum_by_task.entry(e.task).or_default() += e.at;
        }
        let q_by_task =
            store.query().tasks().group_sum_by_task(|e| e.timeline_event().map(|t| t.at));
        if q_by_task.len() != naive_sum_by_task.len()
            || q_by_task.iter().any(|(k, v)| (naive_sum_by_task[k] - v).abs() > 1e-9)
        {
            return Err("group_sum_by_task diverged".into());
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Percentile vs an inline type-7 quantile oracle
// ---------------------------------------------------------------------

#[test]
fn query_percentile_matches_inline_type7_quantile() {
    check("query_percentile_matches_inline_type7_quantile", CASES, &trace_case(), |case| {
        let store = EventStore::new();
        case.fill(&store);
        let ats: Vec<f64> = case
            .task_events()
            .iter()
            .filter(|e| e.phase == TaskPhase::Completed)
            .map(|e| e.at)
            .collect();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let q = store
                .query()
                .tasks()
                .label("completed")
                .percentile(p, |e| e.timeline_event().map(|t| t.at));
            match (q, ats.is_empty()) {
                (None, true) => {}
                (Some(v), false) => {
                    let oracle = type7_quantile(&ats, p);
                    if (v - oracle).abs() > 1e-9 {
                        return Err(format!("p{p}: {v} vs oracle {oracle}"));
                    }
                }
                (q, _) => return Err(format!("p{p}: {q:?} for {} samples", ats.len())),
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Eviction accounting stays truthful under any bounded geometry
// ---------------------------------------------------------------------

#[test]
fn eviction_accounting_is_exact_for_any_bounded_geometry() {
    let gen = trace_case();
    check("eviction_accounting_is_exact_for_any_bounded_geometry", CASES, &gen, |case| {
        // Derive a small bounded geometry from the case itself so every
        // shape (capacity 1..8 × 1..4 segments) gets exercised.
        let seg = 1 + case.records.len() % 8;
        let max = 1 + case.records.len() % 4;
        let store =
            EventStore::with_config(StoreConfig { segment_capacity: seg, max_segments: max })
                .map_err(|e| e.to_string())?;
        case.fill(&store);

        let appended = store.total_appended();
        if appended != case.records.len() as u64 {
            return Err(format!("appended {appended} vs pushed {}", case.records.len()));
        }
        if appended != store.len() as u64 + store.dropped_events() {
            return Err(format!(
                "appended {appended} != len {} + dropped {}",
                store.len(),
                store.dropped_events()
            ));
        }
        if store.len() > seg * max {
            return Err(format!("retained {} above budget {}", store.len(), seg * max));
        }

        // Class totals count evicted events too.
        let n_tasks = case.task_events().len() as u64;
        if store.class_count(EventClass::Task) != n_tasks {
            return Err(format!(
                "task class_count {} vs appended {n_tasks}",
                store.class_count(EventClass::Task)
            ));
        }

        // Eviction drops whole segments from the front, so the retained
        // events are exactly the last `len()` records — queries must
        // agree with a naive fold over that suffix.
        let dropped = store.dropped_events() as usize;
        let retained_tasks =
            case.records[dropped..].iter().filter(|r| matches!(r, Rec::Task(_))).count() as u64;
        if store.query().tasks().count() != retained_tasks {
            return Err(format!(
                "retained task query {} vs suffix fold {retained_tasks}",
                store.query().tasks().count()
            ));
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Store projections vs naive folds, across real backend runs
// ---------------------------------------------------------------------

const TASKS: u32 = 12;
const WORKERS: usize = 3;

fn generous_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 64, ..RetryPolicy::default() }
}

fn run_des(case: &domain::FaultPlanCase) -> Arc<EventStore> {
    let store = Arc::new(EventStore::new());
    let mut des = DesEngine::new(
        Cluster::homogeneous(WORKERS, 1.0),
        ExecutionModel::new(0.0, 0.01, 0.01),
        WORKERS,
    );
    des.set_fault_plan(case.plan());
    des.set_retry_policy(generous_retry());
    des.set_recorder(Some(store.clone()));
    for i in 0..TASKS {
        des.submit(TaskSpec::new(JobId::new(i % 3), 100.0));
    }
    let _ = des.run_to_completion();
    store
}

#[test]
fn task_sequences_match_a_naive_fold_and_seeded_runs_agree() {
    check(
        "task_sequences_match_a_naive_fold_and_seeded_runs_agree",
        CASES,
        &domain::fault_plan_case(),
        |case| {
            let store = run_des(case);
            // The dense-bucket pass against a per-event map walk.
            let mut naive: BTreeMap<TaskId, Vec<(u32, &'static str)>> = BTreeMap::new();
            for e in store.events() {
                if let Some(t) = e.timeline_event() {
                    naive.entry(t.task).or_default().push((t.attempt, t.phase.label()));
                }
            }
            if naive != store.task_sequences() {
                return Err("naive per-task fold != store task_sequences".into());
            }
            // Determinism: a second run of the same seeded plan is
            // structurally identical through the store comparison.
            let again = run_des(case);
            if !store.structurally_equal(&again) {
                return Err("two identical seeded runs are structurally unequal".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Attempt chains vs naive per-task reconstruction
// ---------------------------------------------------------------------

#[test]
fn attempt_chains_match_a_naive_per_task_replay() {
    check(
        "attempt_chains_match_a_naive_per_task_replay",
        CASES,
        &domain::fault_plan_case(),
        |case| {
            let store = run_des(case);
            let chains = store.attempt_chains();
            let mut naive_dispatches: BTreeMap<TaskId, usize> = BTreeMap::new();
            let mut naive_last: BTreeMap<TaskId, &'static str> = BTreeMap::new();
            for e in store.events() {
                if let Some(t) = e.timeline_event() {
                    if t.phase == TaskPhase::Dispatched {
                        *naive_dispatches.entry(t.task).or_default() += 1;
                    }
                    naive_last.insert(t.task, t.phase.label());
                }
            }
            if chains.len() != naive_dispatches.len() {
                return Err(format!(
                    "{} chains vs {} dispatched tasks",
                    chains.len(),
                    naive_dispatches.len()
                ));
            }
            for chain in &chains {
                let expected = naive_dispatches.get(&chain.task).copied().unwrap_or(0);
                if chain.attempts.len() != expected {
                    return Err(format!(
                        "{}: chain has {} attempts, naive replay {expected}",
                        chain.task,
                        chain.attempts.len()
                    ));
                }
                if chain.retries() != expected.saturating_sub(1) {
                    return Err(format!("{}: retries diverged", chain.task));
                }
                let last = naive_last.get(&chain.task).copied().unwrap_or("queued");
                if chain.completed() != (last == "completed") {
                    return Err(format!(
                        "{}: outcome {} vs last phase {last}",
                        chain.task, chain.outcome
                    ));
                }
                if let Some(turnaround) = chain.turnaround() {
                    if turnaround < 0.0 {
                        return Err(format!("{}: negative turnaround", chain.task));
                    }
                }
                for a in &chain.attempts {
                    if let Some(l) = a.latency() {
                        if l < 0.0 {
                            return Err(format!("{}: negative attempt latency", chain.task));
                        }
                    }
                }
            }
            // Aggregate retry accounting: failures − exhausted, derived
            // entirely inside the query layer.
            let failures = store.query().failures().count();
            let exhausted = store.query().tasks().label("exhausted").count();
            let from_chains: u64 = chains.iter().map(|c| c.retries() as u64).sum();
            if from_chains != failures - exhausted {
                return Err(format!(
                    "chain retries {from_chains} vs failures-exhausted {}",
                    failures - exhausted
                ));
            }
            Ok(())
        },
    );
}
