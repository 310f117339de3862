//! Real master/worker execution backends on OS threads.
//!
//! This is the Work Queue programming model in miniature: a master submits
//! prioritized tasks (closures), an elastic pool of workers pulls and
//! executes them, and the master collects results. The DES backend shares
//! the same scheduling semantics for simulation; these backends prove the
//! design runs real computations (the streaming benchmarks use them to
//! execute actual truth-discovery jobs).
//!
//! [`ThreadedEngine`] is the fault-tolerant engine. Its retry, backoff,
//! quarantine, fast-abort and fault-accounting decisions are delegated
//! to the shared [`AttemptLedger`] (the same state machine the DES
//! uses), so this module only supplies the execution mechanism: threads,
//! condvars and the wall clock. A panicking task closure is caught
//! ([`std::panic::catch_unwind`]), counted as a transient failure and
//! retried; it never wedges `wait()` or `Drop` (the `parking_lot`
//! mutexes do not poison, and the worker thread survives to keep
//! draining). The engine implements [`ExecutionBackend`] and
//! [`JobBackend`], making it a drop-in for the DES in the control loop
//! and the evaluation experiments. Tasks submitted through the trait as
//! bare [`TaskSpec`]s run *simulated* (a sleep shaped by the engine's
//! [`ExecutionModel`], scaled by
//! [`set_simulation`](ThreadedEngine::set_simulation)); tasks submitted
//! with a payload execute the real closure.

use crate::telemetry::{LossCause, SharedRecorder, TaskPhase, TimelineEvent};
use crate::{
    AttemptLedger, AttemptLoss, CompletedTask, ExecutionBackend, ExecutionModel, ExecutionReport,
    FailedTask, FastAbort, FaultKind, FaultPlan, FaultStats, JobBackend, JobId, LossVerdict,
    RetryPolicy, TaskId, TaskPayload, TaskSpec, WorkerId,
};
use parking_lot::{Condvar, Mutex};
use sstd_types::error::SstdError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Renders a caught panic payload as a human-readable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "task panicked".to_string())
}

/// An attempt waiting in the ready heap.
struct ReadyAttempt {
    priority: f64,
    seq: u64,
    task: TaskId,
}

impl PartialEq for ReadyAttempt {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for ReadyAttempt {}
impl PartialOrd for ReadyAttempt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyAttempt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// An attempt currently executing on a worker.
struct RunningAttempt {
    worker: u32,
    /// Attempt ordinal from the ledger (1-based).
    attempt: u32,
    started: Instant,
    /// Start time in engine (virtual) seconds.
    started_s: f64,
}

/// Where, when and which attempt a loss happened — carried into
/// [`EngineState::settle_loss`] so the timeline records it.
struct LossContext {
    cause: LossCause,
    attempt: u32,
    worker: Option<WorkerId>,
    /// Engine time of the loss.
    at: f64,
}

/// What executing a task means: run a real closure, or model the task's
/// cost with a sleep (trait-submitted `TaskSpec`s without a payload).
enum TaskWork<R> {
    Payload(TaskPayload<R>),
    /// Nominal duration in engine (virtual) seconds.
    Simulated(f64),
}

impl<R> Clone for TaskWork<R> {
    fn clone(&self) -> Self {
        match self {
            Self::Payload(f) => Self::Payload(Arc::clone(f)),
            Self::Simulated(d) => Self::Simulated(*d),
        }
    }
}

struct TaskEntry<R> {
    job: JobId,
    priority: f64,
    work: TaskWork<R>,
    /// Submission time in engine (virtual) seconds.
    submitted_at: f64,
    deadline: Option<f64>,
    /// Attempts queued (ready or backing off) but not yet started.
    queued: u32,
    running: Vec<RunningAttempt>,
    done: bool,
    failed: bool,
}

struct EngineState<R> {
    tasks: BTreeMap<TaskId, TaskEntry<R>>,
    ready: BinaryHeap<ReadyAttempt>,
    /// Attempts waiting out a retry backoff, sorted by release instant.
    delayed: Vec<(Instant, TaskId)>,
    next_task: u32,
    next_seq: u64,
    next_worker: u32,
    alive_workers: usize,
    /// Workers the next acquire passes should retire (elastic shrink).
    retiring: usize,
    /// Tasks neither completed nor terminally failed.
    outstanding: usize,
    /// Attempts currently executing (across all tasks).
    running_attempts: usize,
    /// Workers told to exit after repeated faults.
    quarantined: BTreeSet<u32>,
    /// Workers removed by a scheduled eviction.
    evicted: BTreeSet<u32>,
    /// The shared attempt state machine: retries, backoff, quarantine
    /// decisions, fast-abort budget and all `FaultStats` accounting.
    ledger: AttemptLedger,
    results: Vec<(JobId, R)>,
    completed: Vec<CompletedTask>,
    timeout: Option<Duration>,
    /// Real seconds per engine second (default 1.0). Simulated durations,
    /// backoffs and restart delays are multiplied by this before
    /// sleeping; recorded times are divided by it.
    time_scale: f64,
    /// Cost model for simulated (payload-less) tasks.
    sim_model: ExecutionModel,
    /// Priorities installed via `set_job_priority` (default 1.0).
    job_priorities: BTreeMap<JobId, f64>,
    /// Pending eviction times in engine seconds, sorted ascending.
    evictions: Vec<f64>,
    /// Optional timeline sink; `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
}

impl<R> EngineState<R> {
    /// Enqueues one runnable attempt for `task`.
    fn enqueue_ready(&mut self, task: TaskId) {
        let Some(entry) = self.tasks.get_mut(&task) else { return };
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.queued += 1;
        self.ready.push(ReadyAttempt { priority: entry.priority, seq, task });
    }

    /// Schedules a retry after `delay` engine seconds of backoff.
    fn enqueue_delayed(&mut self, task: TaskId, delay: f64) {
        let Some(entry) = self.tasks.get_mut(&task) else { return };
        entry.queued += 1;
        let release = Instant::now() + Duration::from_secs_f64((delay * self.time_scale).max(0.0));
        self.delayed.push((release, task));
        self.delayed.sort_by_key(|&(at, id)| (at, id));
    }

    /// Moves attempts whose backoff expired into the ready heap.
    fn promote_due(&mut self, now: Instant) {
        while self.delayed.first().is_some_and(|&(at, _)| at <= now) {
            let (_, task) = self.delayed.remove(0);
            // `queued` stays: the attempt moves between queues.
            let Some(entry) = self.tasks.get_mut(&task) else { continue };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.ready.push(ReadyAttempt { priority: entry.priority, seq, task });
        }
    }

    /// Settles a lost attempt: account it in the ledger, then retry, give
    /// up, or defer to a still-running sibling attempt. `elapsed` is in
    /// engine seconds.
    fn settle_loss(
        &mut self,
        task: TaskId,
        loss: AttemptLoss,
        elapsed: f64,
        error: &str,
        ctx: &LossContext,
    ) {
        self.ledger.account_loss(loss, elapsed);
        let Some((job, settled, busy)) = self
            .tasks
            .get(&task)
            .map(|e| (e.job, e.done || e.failed, !e.running.is_empty() || e.queued > 0))
        else {
            return;
        };
        self.record(task, job, ctx.attempt, ctx.worker, ctx.at, TaskPhase::Failed(ctx.cause));
        if settled || busy {
            // Done/failed already, or a sibling attempt (speculative
            // duplicate or queued retry) will decide this task's fate.
            return;
        }
        match self.ledger.settle_loss(task, job, loss, error) {
            LossVerdict::Exhausted => {
                if let Some(e) = self.tasks.get_mut(&task) {
                    e.failed = true;
                }
                self.outstanding -= 1;
                let attempts = self.ledger.attempts_started(task);
                self.record(task, job, attempts, None, ctx.at, TaskPhase::Exhausted);
            }
            LossVerdict::Retry { delay } => {
                if delay <= 0.0 {
                    self.enqueue_ready(task);
                } else {
                    self.enqueue_delayed(task, delay);
                }
            }
        }
    }

    /// Forwards a timeline event to the installed recorder, if any.
    fn record(
        &self,
        task: TaskId,
        job: JobId,
        attempt: u32,
        worker: Option<WorkerId>,
        at: f64,
        phase: TaskPhase,
    ) {
        if let Some(rec) = &self.recorder {
            rec.record(&TimelineEvent { task, job, attempt, worker, at, phase });
        }
    }

    /// Attributes a fault to `worker` and quarantines it past the policy
    /// threshold (never the last worker standing). Returns whether the
    /// worker is now quarantined.
    fn note_worker_fault(&mut self, worker: u32) -> bool {
        if self.quarantined.contains(&worker) {
            return true;
        }
        if self.ledger.note_worker_fault(WorkerId::new(worker), self.alive_workers) {
            self.quarantined.insert(worker);
            self.alive_workers -= 1;
            return true;
        }
        false
    }

    /// The engine clock: real seconds since `epoch`, divided by the time
    /// scale.
    fn now_s(&self, epoch: Instant) -> f64 {
        epoch.elapsed().as_secs_f64() / self.time_scale
    }
}

struct EngineShared<R> {
    state: Mutex<EngineState<R>>,
    work_available: Condvar,
    /// Signaled on completions, failures and respawns; `wait` polls on it.
    progress: Condvar,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The fault-tolerant threaded Work Queue engine.
///
/// Closures are `Fn` (not `FnOnce`) so failed attempts can be re-executed.
/// Fault decisions come from a seeded [`FaultPlan`] — a pure function of
/// `(seed, task, attempt)` — so the *set* of injected faults is identical
/// across runs regardless of thread interleaving; real panics are caught
/// and treated as transient failures. All retry/quarantine/fast-abort
/// policy lives in the shared [`AttemptLedger`], identical to the DES.
///
/// Straggler mitigation is speculative: OS threads cannot be killed, so an
/// attempt running beyond the fast-abort threshold gets a duplicate
/// enqueued; the first completion wins and the loser is discarded and
/// accounted as an abort. Per-task wall-clock timeouts abandon an attempt
/// cooperatively — the result is discarded when the thread eventually
/// returns.
///
/// The engine implements [`ExecutionBackend`] and [`JobBackend`]: bare
/// [`TaskSpec`]s run simulated (a sleep shaped by the configured
/// [`ExecutionModel`], compressed by
/// [`set_simulation`](Self::set_simulation)), payload submissions run real
/// closures. All reported times are engine seconds (wall seconds divided
/// by the time scale), so reports are comparable with the DES.
///
/// # Examples
///
/// ```
/// use sstd_runtime::{FaultPlan, JobId, RetryPolicy, ThreadedEngine};
///
/// let engine = ThreadedEngine::new(2);
/// engine.set_fault_plan(FaultPlan::new(7).with_transient_rate(0.2));
/// engine.set_retry_policy(RetryPolicy { backoff_base: 0.001, ..RetryPolicy::default() });
/// for i in 0..10u32 {
///     engine.submit(JobId::new(i % 2), 1.0, move || i * 2);
/// }
/// let results = engine.wait();
/// assert_eq!(results.len(), 10, "every task completes despite faults");
/// assert!(engine.fault_stats().reconciles());
/// ```
pub struct ThreadedEngine<R: Send + 'static> {
    shared: Arc<EngineShared<R>>,
    epoch: Instant,
}

impl<R: Send + 'static> std::fmt::Debug for ThreadedEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("ThreadedEngine")
            .field("outstanding", &st.outstanding)
            .field("alive_workers", &st.alive_workers)
            .field("stats", &st.ledger.stats())
            .finish_non_exhaustive()
    }
}

impl<R: Send + 'static> ThreadedEngine<R> {
    /// Spawns `num_workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    #[must_use]
    pub fn new(num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState {
                tasks: BTreeMap::new(),
                ready: BinaryHeap::new(),
                delayed: Vec::new(),
                next_task: 0,
                next_seq: 0,
                next_worker: num_workers as u32,
                alive_workers: num_workers,
                retiring: 0,
                outstanding: 0,
                running_attempts: 0,
                quarantined: BTreeSet::new(),
                evicted: BTreeSet::new(),
                ledger: AttemptLedger::new(),
                results: Vec::new(),
                completed: Vec::new(),
                timeout: None,
                time_scale: 1.0,
                sim_model: ExecutionModel::default(),
                job_priorities: BTreeMap::new(),
                evictions: Vec::new(),
                recorder: None,
            }),
            work_available: Condvar::new(),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        });
        let epoch = Instant::now();
        {
            let mut handles = shared.handles.lock();
            for me in 0..num_workers as u32 {
                let shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || Self::worker_loop(&shared, me, epoch)));
            }
        }
        Self { shared, epoch }
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.shared.state.lock().ledger.set_plan(plan);
    }

    /// Sets the retry/backoff/quarantine policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`RetryPolicy::validate`]).
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        self.shared.state.lock().ledger.set_retry(retry);
    }

    /// Enables speculative straggler mitigation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FastAbort::validate`]).
    pub fn set_fast_abort(&self, fast_abort: FastAbort) {
        self.shared.state.lock().ledger.set_fast_abort(fast_abort);
    }

    /// Sets a per-attempt wall-clock timeout (real seconds, not scaled).
    /// An attempt exceeding it is abandoned (its eventual result is
    /// discarded) and retried under the normal policy.
    pub fn set_task_timeout(&self, timeout: Duration) {
        self.shared.state.lock().timeout = Some(timeout);
    }

    /// Installs (or clears) a timeline recorder. Every subsequent attempt
    /// transition is reported to it; `None` (the default) records nothing.
    pub fn set_recorder(&self, recorder: Option<SharedRecorder>) {
        self.shared.state.lock().recorder = recorder;
    }

    /// Configures how simulated (payload-less) tasks run: their nominal
    /// duration comes from `model` (Eq. 10 on a speed-1 worker) and every
    /// engine-second of simulated work, backoff or restart delay costs
    /// `time_scale` real seconds. `time_scale < 1` compresses a DES-scale
    /// workload into test-friendly wall time.
    ///
    /// # Panics
    ///
    /// Panics unless `time_scale` is finite and positive.
    pub fn set_simulation(&self, model: ExecutionModel, time_scale: f64) {
        assert!(time_scale.is_finite() && time_scale > 0.0, "time scale must be positive");
        let mut st = self.shared.state.lock();
        st.sim_model = model;
        st.time_scale = time_scale;
    }

    /// Submits a re-executable closure as a task of `job`. Returns the
    /// task's identity.
    ///
    /// # Panics
    ///
    /// Panics unless `priority` is finite.
    pub fn submit<F>(&self, job: JobId, priority: f64, f: F) -> TaskId
    where
        F: Fn() -> R + Send + Sync + 'static,
    {
        assert!(priority.is_finite(), "priority must be finite");
        self.insert_task(job, Some(priority), TaskWork::Payload(Arc::new(f)), None)
    }

    /// Submits a bare [`TaskSpec`] as a *simulated* task: its attempts
    /// sleep for the model time of the spec's data size (scaled), produce
    /// no result, and flow through the identical scheduling/fault path as
    /// payload tasks. This is what makes the engine a drop-in
    /// [`ExecutionBackend`] for the DES.
    pub fn submit_spec(&self, spec: TaskSpec) -> TaskId {
        let duration = {
            let st = self.shared.state.lock();
            st.sim_model.task_time(&spec)
        };
        self.insert_task(spec.job(), None, TaskWork::Simulated(duration), spec.deadline())
    }

    /// Inserts a task entry; `priority` falls back to the job's installed
    /// priority (default 1.0).
    fn insert_task(
        &self,
        job: JobId,
        priority: Option<f64>,
        work: TaskWork<R>,
        deadline: Option<f64>,
    ) -> TaskId {
        let id = {
            let mut st = self.shared.state.lock();
            let id = TaskId::new(st.next_task);
            st.next_task += 1;
            let priority =
                priority.unwrap_or_else(|| st.job_priorities.get(&job).copied().unwrap_or(1.0));
            let submitted_at = st.now_s(self.epoch);
            st.tasks.insert(
                id,
                TaskEntry {
                    job,
                    priority,
                    work,
                    submitted_at,
                    deadline,
                    queued: 0,
                    running: Vec::new(),
                    done: false,
                    failed: false,
                },
            );
            st.outstanding += 1;
            st.enqueue_ready(id);
            st.record(id, job, 0, None, submitted_at, TaskPhase::Queued);
            id
        };
        self.shared.work_available.notify_one();
        id
    }

    /// Sets a job's priority (Local Control Knob): applies to the job's
    /// live tasks (the ready heap is re-keyed) and to its future
    /// trait-submitted tasks.
    ///
    /// # Panics
    ///
    /// Panics unless `priority` is finite and positive.
    pub fn set_job_priority(&self, job: JobId, priority: f64) {
        assert!(priority.is_finite() && priority > 0.0, "priority must be positive");
        let mut st = self.shared.state.lock();
        st.job_priorities.insert(job, priority);
        let members: Vec<TaskId> =
            st.tasks.iter().filter(|(_, e)| e.job == job).map(|(&id, _)| id).collect();
        for id in &members {
            if let Some(e) = st.tasks.get_mut(id) {
                e.priority = priority;
            }
        }
        let old = std::mem::take(&mut st.ready);
        for ra in old {
            let priority = st.tasks.get(&ra.task).map_or(ra.priority, |e| e.priority);
            st.ready.push(ReadyAttempt { priority, ..ra });
        }
    }

    /// Elastically resizes the worker pool (Global Control Knob). Growing
    /// spawns new workers (cancelling pending retirements first);
    /// shrinking retires workers as they next look for work.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn set_num_workers(&self, n: usize) {
        assert!(n > 0, "need at least one worker");
        let to_spawn: Vec<u32> = {
            let mut st = self.shared.state.lock();
            let active = st.alive_workers;
            if n > active {
                let mut needed = n - active;
                let cancelled = st.retiring.min(needed);
                st.retiring -= cancelled;
                needed -= cancelled;
                st.alive_workers = n;
                (0..needed)
                    .map(|_| {
                        let id = st.next_worker;
                        st.next_worker += 1;
                        id
                    })
                    .collect()
            } else {
                if n < active {
                    st.retiring += active - n;
                    st.alive_workers = n;
                }
                Vec::new()
            }
        };
        for me in to_spawn {
            let shared = Arc::clone(&self.shared);
            let epoch = self.epoch;
            let handle = std::thread::spawn(move || Self::worker_loop(&shared, me, epoch));
            self.shared.handles.lock().push(handle);
        }
        // Wake parked workers so pending retirements take effect.
        self.shared.work_available.notify_all();
    }

    /// Schedules a worker eviction at engine time `t` — the HTCondor
    /// failure mode: the pool reclaims a machine, the worker vanishes
    /// (no replacement), and its in-flight attempt is lost and re-queued.
    /// Evictions target the busiest worker (earliest-started attempt);
    /// with all workers idle, an idle worker retires instead.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is finite and non-negative.
    pub fn schedule_eviction(&self, t: f64) {
        assert!(t.is_finite() && t >= 0.0, "eviction time must be non-negative");
        let mut st = self.shared.state.lock();
        st.evictions.push(t);
        st.evictions.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    }

    /// Tasks with a queued (not yet started) attempt, including those
    /// waiting out a retry backoff.
    #[must_use]
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock();
        st.tasks.values().filter(|e| !e.done && !e.failed && e.queued > 0).count()
    }

    /// Pending tasks of one job — the progress signal the PID controller
    /// samples.
    #[must_use]
    pub fn pending_of(&self, job: JobId) -> usize {
        let st = self.shared.state.lock();
        st.tasks.values().filter(|e| e.job == job && !e.done && !e.failed && e.queued > 0).count()
    }

    /// Tasks neither completed nor terminally failed.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.shared.state.lock().outstanding
    }

    /// Attempts currently executing.
    #[must_use]
    pub fn running(&self) -> usize {
        self.shared.state.lock().running_attempts
    }

    /// Workers currently alive (not crashed, quarantined or evicted).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.shared.state.lock().alive_workers
    }

    /// The engine clock in engine seconds (wall seconds since start,
    /// divided by the time scale).
    #[must_use]
    pub fn now(&self) -> f64 {
        let st = self.shared.state.lock();
        st.now_s(self.epoch)
    }

    /// Failed-attempt accounting so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.shared.state.lock().ledger.stats()
    }

    /// Tasks dropped after exhausting their retry budget.
    #[must_use]
    pub fn failed(&self) -> Vec<FailedTask> {
        self.shared.state.lock().ledger.failed().to_vec()
    }

    /// Tasks re-queued after losing an attempt (any cause).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.shared.state.lock().ledger.retries()
    }

    /// Blocks until every task has completed or terminally failed *and*
    /// all in-flight attempts have settled (so the books reconcile), then
    /// drains the collected `(job, result)` pairs. The master performs
    /// straggler, timeout and eviction supervision from inside this loop,
    /// Work Queue style.
    #[must_use]
    pub fn wait(&self) -> Vec<(JobId, R)> {
        self.wait_idle();
        std::mem::take(&mut self.shared.state.lock().results)
    }

    /// Drains the `(job, result)` pairs collected so far without waiting.
    #[must_use]
    pub fn drain_results(&self) -> Vec<(JobId, R)> {
        std::mem::take(&mut self.shared.state.lock().results)
    }

    /// Blocks until the engine is idle (supervising from the master loop),
    /// leaving results in place.
    fn wait_idle(&self) {
        let mut st = self.shared.state.lock();
        loop {
            if st.outstanding == 0 && st.running_attempts == 0 {
                return;
            }
            self.supervise(&mut st);
            // Workers parked without a deadline cannot see retries the
            // supervision pass just queued — poke them.
            self.shared.work_available.notify_all();
            // Re-check frequently: supervision deadlines (timeouts,
            // fast-abort thresholds, evictions) are not condvar-signaled.
            let _ = self.shared.progress.wait_for(&mut st, Duration::from_millis(2));
        }
    }

    /// Drives the engine until its clock reaches `t` engine seconds,
    /// supervising along the way.
    pub fn run_until(&self, t: f64) {
        let mut st = self.shared.state.lock();
        loop {
            let now_s = st.now_s(self.epoch);
            if now_s >= t {
                return;
            }
            self.supervise(&mut st);
            self.shared.work_available.notify_all();
            let remaining = Duration::from_secs_f64(((t - now_s) * st.time_scale).max(0.0));
            let nap = remaining.min(Duration::from_millis(2));
            let _ = self.shared.progress.wait_for(&mut st, nap);
        }
    }

    /// Runs until every submitted task has completed or terminally
    /// failed, returning the execution report (results stay available via
    /// [`drain_results`](Self::drain_results) / [`wait`](Self::wait)).
    #[must_use]
    pub fn run_to_completion(&self) -> ExecutionReport {
        self.wait_idle();
        self.report()
    }

    /// Builds an execution report from everything finished so far. Times
    /// are engine seconds since the engine started.
    #[must_use]
    pub fn report(&self) -> ExecutionReport {
        let st = self.shared.state.lock();
        let makespan = st.completed.iter().map(|c| c.finished_at).fold(0.0_f64, f64::max);
        ExecutionReport { completed: st.completed.clone(), makespan, faults: st.ledger.stats() }
    }

    /// One supervision pass: fire due evictions, abandon timed-out
    /// attempts, enqueue speculative duplicates for stragglers.
    fn supervise(&self, st: &mut EngineState<R>) {
        let now = Instant::now();
        // Evictions: kill the busiest worker at the scheduled instant.
        let now_s = st.now_s(self.epoch);
        while st.evictions.first().is_some_and(|&at| at <= now_s) {
            st.evictions.remove(0);
            self.fire_eviction(st, now_s);
        }
        // Timeouts: abandon attempts cooperatively. The worker keeps
        // running the closure (threads cannot be killed); its result is
        // discarded because the attempt is no longer in `running`.
        if let Some(timeout) = st.timeout {
            let mut lost: Vec<(TaskId, f64, u32, u32)> = Vec::new();
            for (&id, entry) in &mut st.tasks {
                if entry.done || entry.failed {
                    continue;
                }
                let mut i = 0;
                while i < entry.running.len() {
                    if now.duration_since(entry.running[i].started) > timeout {
                        let attempt = entry.running.remove(i);
                        lost.push((
                            id,
                            now.duration_since(attempt.started).as_secs_f64(),
                            attempt.worker,
                            attempt.attempt,
                        ));
                    } else {
                        i += 1;
                    }
                }
            }
            let scale = st.time_scale;
            for (id, elapsed, worker, attempt) in lost {
                st.running_attempts -= 1;
                let ctx = LossContext {
                    cause: LossCause::Timeout,
                    attempt,
                    worker: Some(WorkerId::new(worker)),
                    at: now_s,
                };
                st.settle_loss(
                    id,
                    AttemptLoss::Timeout,
                    elapsed / scale,
                    "wall-clock timeout",
                    &ctx,
                );
            }
        }
        // Stragglers: speculate once the running mean is warm.
        if let Some(threshold) = st.ledger.fast_abort_threshold() {
            let scale = st.time_scale;
            let mut speculate: Vec<TaskId> = Vec::new();
            for (&id, entry) in &st.tasks {
                if entry.done || entry.failed || entry.queued > 0 {
                    continue;
                }
                if !st.ledger.speculation_allowed(id) {
                    continue;
                }
                let lagging = entry
                    .running
                    .iter()
                    .any(|r| now.duration_since(r.started).as_secs_f64() / scale > threshold);
                if lagging {
                    speculate.push(id);
                }
            }
            for id in speculate {
                st.ledger.note_speculation(id);
                st.enqueue_ready(id);
                self.shared.work_available.notify_one();
            }
        }
    }

    /// Fires one eviction at engine time `now_s`: strip the
    /// earliest-started running attempt (most sunk work lost), settle it
    /// as a crash loss, and remove that worker from the pool — or retire
    /// an idle worker when nothing is running.
    fn fire_eviction(&self, st: &mut EngineState<R>, now_s: f64) {
        let victim: Option<(TaskId, u32, f64, u32)> = st
            .tasks
            .iter()
            .filter(|(_, e)| !e.done && !e.failed)
            .flat_map(|(&id, e)| {
                e.running.iter().map(move |r| (id, r.worker, r.started_s, r.attempt))
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(Ordering::Equal));
        if let Some((task, worker, started_s, attempt)) = victim {
            if let Some(entry) = st.tasks.get_mut(&task) {
                if let Some(pos) = entry.running.iter().position(|r| r.worker == worker) {
                    entry.running.remove(pos);
                    st.running_attempts -= 1;
                }
            }
            st.evicted.insert(worker);
            st.alive_workers = st.alive_workers.saturating_sub(1);
            let ctx = LossContext {
                cause: LossCause::Evicted,
                attempt,
                worker: Some(WorkerId::new(worker)),
                at: now_s,
            };
            st.settle_loss(task, AttemptLoss::Crash, (now_s - started_s).max(0.0), "evicted", &ctx);
        } else if st.alive_workers > 0 {
            st.retiring += 1;
            st.alive_workers -= 1;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn worker_loop(shared: &Arc<EngineShared<R>>, me: u32, epoch: Instant) {
        loop {
            // Acquire an attempt.
            let (task_id, work, fault, straggler_extra, scale) = {
                let mut st = shared.state.lock();
                let acquired = loop {
                    if shared.shutdown.load(AtomicOrdering::Acquire) {
                        return;
                    }
                    if st.quarantined.contains(&me) || st.evicted.contains(&me) {
                        return;
                    }
                    if st.retiring > 0 {
                        st.retiring -= 1;
                        return;
                    }
                    let now = Instant::now();
                    st.promote_due(now);
                    // Pop the highest-priority runnable attempt, skipping
                    // entries for tasks that finished meanwhile.
                    let mut popped = None;
                    while let Some(ra) = st.ready.pop() {
                        let Some(entry) = st.tasks.get_mut(&ra.task) else { continue };
                        entry.queued = entry.queued.saturating_sub(1);
                        if entry.done || entry.failed {
                            continue;
                        }
                        popped = Some(ra.task);
                        break;
                    }
                    if let Some(id) = popped {
                        break id;
                    }
                    match st.delayed.first().map(|&(at, _)| at) {
                        Some(release) => {
                            let dur = release
                                .saturating_duration_since(Instant::now())
                                .max(Duration::from_millis(1));
                            let _ = shared.work_available.wait_for(&mut st, dur);
                        }
                        None => shared.work_available.wait(&mut st),
                    }
                };
                let scale = st.time_scale;
                let mean =
                    (st.ledger.durations().count() > 0).then(|| st.ledger.durations().mean());
                let (attempt, fault) = st.ledger.begin_attempt(acquired);
                let started_s = st.now_s(epoch);
                let slowdown = st.ledger.plan().map(|p| p.straggler_slowdown());
                let entry = st.tasks.get_mut(&acquired).expect("popped task exists");
                entry.running.push(RunningAttempt {
                    worker: me,
                    attempt,
                    started: Instant::now(),
                    started_s,
                });
                let job = entry.job;
                let work = entry.work.clone();
                st.running_attempts += 1;
                st.record(
                    acquired,
                    job,
                    attempt,
                    Some(WorkerId::new(me)),
                    started_s,
                    TaskPhase::Dispatched,
                );
                // An injected straggler runs the real work, padded to
                // `slowdown ×` the mean task time (bounded so tests stay
                // fast even before the mean warms up).
                let straggler_extra = match (fault, slowdown) {
                    (Some(FaultKind::Straggler), Some(sd)) => {
                        let base = mean.unwrap_or(0.005);
                        (base * (sd - 1.0) * scale).clamp(0.002, 1.0)
                    }
                    _ => 0.0,
                };
                (acquired, work, fault, straggler_extra, scale)
            };

            // Execute outside the lock.
            enum Outcome<R> {
                Success(Option<R>),
                Panicked(String),
                Injected(FaultKind),
            }
            let started = Instant::now();
            let outcome = match fault {
                Some(kind @ (FaultKind::Transient | FaultKind::WorkerCrash)) => {
                    Outcome::Injected(kind)
                }
                Some(FaultKind::Straggler) | None => {
                    if straggler_extra > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(straggler_extra));
                    }
                    match &work {
                        TaskWork::Payload(f) => {
                            let f = Arc::clone(f);
                            match catch_unwind(AssertUnwindSafe(move || f())) {
                                Ok(r) => Outcome::Success(Some(r)),
                                Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
                            }
                        }
                        TaskWork::Simulated(d) => {
                            std::thread::sleep(Duration::from_secs_f64((d * scale).max(0.0)));
                            Outcome::Success(None)
                        }
                    }
                }
            };
            let elapsed = started.elapsed().as_secs_f64() / scale;

            // Settle under the lock.
            let mut crashed = false;
            {
                let mut st = shared.state.lock();
                let run = {
                    let Some(entry) = st.tasks.get_mut(&task_id) else { continue };
                    // If the master abandoned this attempt (timeout or
                    // eviction), it is gone from `running` and already
                    // accounted: discard the stale outcome.
                    let Some(pos) = entry.running.iter().position(|r| r.worker == me) else {
                        continue;
                    };
                    entry.running.remove(pos)
                };
                st.running_attempts -= 1;
                match outcome {
                    Outcome::Success(value) => {
                        let finished_s = st.now_s(epoch);
                        let entry = st.tasks.get_mut(&task_id).expect("entry exists");
                        let job = entry.job;
                        if entry.done {
                            // Lost a speculation race: wasted duplicate.
                            st.ledger.record_lost_duplicate(elapsed);
                            st.record(
                                task_id,
                                job,
                                run.attempt,
                                Some(WorkerId::new(me)),
                                finished_s,
                                TaskPhase::Failed(LossCause::Straggler),
                            );
                        } else {
                            entry.done = true;
                            let submitted_at = entry.submitted_at;
                            let deadline = entry.deadline;
                            st.ledger.record_success(task_id, elapsed);
                            if let Some(v) = value {
                                st.results.push((job, v));
                            }
                            st.completed.push(CompletedTask {
                                task: task_id,
                                job,
                                submitted_at,
                                started_at: run.started_s,
                                finished_at: finished_s,
                                worker: WorkerId::new(me),
                                deadline,
                            });
                            st.outstanding -= 1;
                            st.record(
                                task_id,
                                job,
                                run.attempt,
                                Some(WorkerId::new(me)),
                                finished_s,
                                TaskPhase::Completed,
                            );
                        }
                    }
                    Outcome::Panicked(msg) => {
                        let ctx = LossContext {
                            cause: LossCause::Transient,
                            attempt: run.attempt,
                            worker: Some(WorkerId::new(me)),
                            at: st.now_s(epoch),
                        };
                        st.settle_loss(
                            task_id,
                            AttemptLoss::Transient { panicked: true },
                            elapsed,
                            &msg,
                            &ctx,
                        );
                        let _ = st.note_worker_fault(me);
                    }
                    Outcome::Injected(FaultKind::Transient) => {
                        let ctx = LossContext {
                            cause: LossCause::Transient,
                            attempt: run.attempt,
                            worker: Some(WorkerId::new(me)),
                            at: st.now_s(epoch),
                        };
                        st.settle_loss(
                            task_id,
                            AttemptLoss::Transient { panicked: false },
                            elapsed,
                            "injected transient fault",
                            &ctx,
                        );
                        let _ = st.note_worker_fault(me);
                    }
                    Outcome::Injected(FaultKind::WorkerCrash) => {
                        let ctx = LossContext {
                            cause: LossCause::Crash,
                            attempt: run.attempt,
                            worker: Some(WorkerId::new(me)),
                            at: st.now_s(epoch),
                        };
                        st.settle_loss(task_id, AttemptLoss::Crash, elapsed, "worker crash", &ctx);
                        st.alive_workers -= 1;
                        crashed = true;
                    }
                    Outcome::Injected(FaultKind::Straggler) => {
                        unreachable!("stragglers execute; handled as Success")
                    }
                }
            }
            shared.work_available.notify_all();
            shared.progress.notify_all();
            if crashed {
                Self::respawn_after_crash(shared, epoch);
                return;
            }
        }
    }

    /// A crashed worker's parting act: spawn its replacement, which joins
    /// the pool after the plan's restart delay (engine seconds, scaled).
    fn respawn_after_crash(shared: &Arc<EngineShared<R>>, epoch: Instant) {
        let (new_id, delay) = {
            let mut st = shared.state.lock();
            let id = st.next_worker;
            st.next_worker += 1;
            let delay = st.ledger.plan().map_or(0.05, |p| p.worker_restart_delay()) * st.time_scale;
            (id, delay)
        };
        let spawned = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs_f64(delay);
            while Instant::now() < deadline {
                if spawned.shutdown.load(AtomicOrdering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                spawned.state.lock().alive_workers += 1;
            }
            spawned.progress.notify_all();
            Self::worker_loop(&spawned, new_id, epoch);
        });
        shared.handles.lock().push(handle);
    }
}

impl<R: Send + 'static> ExecutionBackend for ThreadedEngine<R> {
    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.submit_spec(spec)
    }
    fn set_job_priority(&mut self, job: JobId, priority: f64) {
        ThreadedEngine::set_job_priority(self, job, priority);
    }
    fn set_num_workers(&mut self, n: usize) {
        ThreadedEngine::set_num_workers(self, n);
    }
    fn num_workers(&self) -> usize {
        ThreadedEngine::num_workers(self)
    }
    fn pending(&self) -> usize {
        ThreadedEngine::pending(self)
    }
    fn pending_of(&self, job: JobId) -> usize {
        ThreadedEngine::pending_of(self, job)
    }
    fn running(&self) -> usize {
        ThreadedEngine::running(self)
    }
    fn now(&self) -> f64 {
        ThreadedEngine::now(self)
    }
    fn run_until(&mut self, t: f64) {
        ThreadedEngine::run_until(self, t);
    }
    fn run_to_completion(&mut self) -> ExecutionReport {
        ThreadedEngine::run_to_completion(self)
    }
    fn schedule_eviction(&mut self, t: f64) {
        ThreadedEngine::schedule_eviction(self, t);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        ThreadedEngine::set_fault_plan(self, plan);
    }
    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        ThreadedEngine::set_retry_policy(self, retry);
    }
    fn set_fast_abort(&mut self, fast_abort: FastAbort) {
        ThreadedEngine::set_fast_abort(self, fast_abort);
    }
    fn retries(&self) -> u64 {
        ThreadedEngine::retries(self)
    }
    fn fault_stats(&self) -> FaultStats {
        ThreadedEngine::fault_stats(self)
    }
    fn failed(&self) -> Vec<FailedTask> {
        ThreadedEngine::failed(self)
    }
    fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        ThreadedEngine::set_recorder(self, recorder);
    }
    fn backend_name(&self) -> &'static str {
        "threaded"
    }
}

impl<R: Send + 'static> JobBackend<R> for ThreadedEngine<R> {
    fn submit_job(&mut self, spec: TaskSpec, work: TaskPayload<R>) -> Result<TaskId, SstdError> {
        Ok(self.insert_task(spec.job(), None, TaskWork::Payload(work), spec.deadline()))
    }

    fn drain_results(&mut self) -> Vec<(JobId, R)> {
        ThreadedEngine::drain_results(self)
    }
}

impl<R: Send + 'static> Drop for ThreadedEngine<R> {
    fn drop(&mut self) {
        // Raise the flag while holding `state`: a worker checks it under
        // that lock before it waits, so it either sees the flag or is
        // already parked when the notify below arrives.
        {
            let _st = self.shared.state.lock();
            self.shared.shutdown.store(true, AtomicOrdering::Release);
        }
        self.shared.work_available.notify_all();
        // Respawn threads may still push handles while we join; drain
        // until the list stays empty.
        loop {
            let handles = std::mem::take(&mut *self.shared.handles.lock());
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A retry policy with sub-millisecond backoffs so tests run fast.
    fn fast_retry() -> RetryPolicy {
        RetryPolicy { backoff_base: 0.0005, backoff_cap: 0.005, ..RetryPolicy::default() }
    }

    /// Regression: `drop` used to raise `shutdown` without holding
    /// `state`, so a worker between its check and its wait missed the
    /// notify and `join` hung.
    #[test]
    fn dropping_a_fresh_engine_never_hangs() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                drop(ThreadedEngine::<()>::new(4));
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a worker missed the shutdown wake-up and drop hung");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: ThreadedEngine<()> = ThreadedEngine::new(0);
    }

    #[test]
    fn results_carry_job_ids_and_the_engine_is_reusable_after_wait() {
        let engine = ThreadedEngine::new(2);
        assert!(engine.wait().is_empty(), "waiting on an idle engine returns immediately");
        let first = engine.submit(JobId::new(7), 1.0, || "seven");
        let second = engine.submit(JobId::new(8), 1.0, || "eight");
        assert_ne!(first, second, "submissions get distinct task ids");
        let mut results = engine.wait();
        results.sort_by_key(|&(j, _)| j);
        assert_eq!(results, vec![(JobId::new(7), "seven"), (JobId::new(8), "eight")]);
        engine.submit(JobId::new(9), 1.0, || "nine");
        assert_eq!(engine.wait(), vec![(JobId::new(9), "nine")]);
    }

    #[test]
    fn priority_orders_queued_work() {
        // Single worker; first task blocks briefly so the rest queue up.
        let engine = ThreadedEngine::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let o = Arc::clone(&order);
            engine.submit(JobId::new(0), 1.0, move || {
                std::thread::sleep(Duration::from_millis(50));
                o.lock().push(0u32);
            });
        }
        // Give the worker a moment to take the blocking task.
        std::thread::sleep(Duration::from_millis(10));
        for (i, prio) in [(1u32, 1.0), (2, 5.0), (3, 3.0)] {
            let o = Arc::clone(&order);
            engine.submit(JobId::new(i), prio, move || o.lock().push(i));
        }
        let _ = engine.wait();
        let seen = order.lock().clone();
        assert_eq!(seen, vec![0, 2, 3, 1], "high priority first after the head task");
    }

    #[test]
    fn single_worker_survives_repeated_panics() {
        let engine = ThreadedEngine::new(1);
        engine.set_retry_policy(RetryPolicy { max_attempts: 1, ..fast_retry() });
        for i in 0..10u32 {
            engine.submit(JobId::new(i), 1.0, move || {
                assert!(i % 2 == 0, "odd tasks fail");
                i
            });
        }
        assert_eq!(engine.wait().len(), 5, "the lone worker outlives every panic");
        assert_eq!(engine.failed().len(), 5);
        assert_eq!(engine.outstanding(), 0);
    }

    #[test]
    fn executes_all_tasks_without_faults() {
        let engine = ThreadedEngine::new(3);
        for i in 0..40u32 {
            engine.submit(JobId::new(i % 4), 1.0, move || i);
        }
        let results = engine.wait();
        assert_eq!(results.len(), 40);
        let stats = engine.fault_stats();
        assert_eq!(stats.attempts, 40);
        assert_eq!(stats.successes, 40);
        assert!(stats.reconciles(), "{stats}");
        let report = engine.report();
        assert_eq!(report.completed.len(), 40);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        let engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan::new(11).with_transient_rate(0.25));
        engine.set_retry_policy(fast_retry());
        for i in 0..40u32 {
            engine.submit(JobId::new(i % 2), 1.0, move || i);
        }
        let results = engine.wait();
        assert_eq!(results.len(), 40, "no task lost to transient faults");
        let stats = engine.fault_stats();
        assert!(stats.transient_failures > 0, "rate 0.25 must fault: {stats}");
        assert!(stats.reconciles(), "{stats}");
        assert!(engine.failed().is_empty());
        assert!(engine.retries() > 0, "every transient loss re-queues");
    }

    #[test]
    fn panics_count_as_transient_failures_and_retry() {
        let engine = ThreadedEngine::new(2);
        engine.set_retry_policy(fast_retry());
        let flaky_calls = Arc::new(AtomicU32::new(0));
        let calls = Arc::clone(&flaky_calls);
        engine.submit(JobId::new(0), 1.0, move || {
            // First attempt panics; the retry succeeds.
            assert!(calls.fetch_add(1, AtomicOrdering::SeqCst) > 0, "first attempt dies");
            99u32
        });
        engine.submit(JobId::new(1), 1.0, || 1u32);
        let results = engine.wait();
        assert_eq!(results.len(), 2);
        let stats = engine.fault_stats();
        assert!(stats.panics >= 1, "{stats}");
        assert!(stats.transient_failures >= 1);
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn hopeless_tasks_exhaust_and_are_reported() {
        let engine: ThreadedEngine<u32> = ThreadedEngine::new(2);
        engine.set_retry_policy(RetryPolicy { max_attempts: 2, ..fast_retry() });
        engine.submit(JobId::new(3), 1.0, || panic!("always broken"));
        engine.submit(JobId::new(4), 1.0, || 7u32);
        let results = engine.wait();
        assert_eq!(results.len(), 1, "healthy task still completes");
        let failed = engine.failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].job, JobId::new(3));
        assert_eq!(failed[0].attempts, 2, "retries stay within the cap");
        assert!(failed[0].error.contains("always broken"));
        let stats = engine.fault_stats();
        assert_eq!(stats.exhausted_tasks, 1);
        assert_eq!(stats.panics, 2);
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn worker_crashes_respawn_and_work_survives() {
        let engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan::new(9).with_crash_rate(0.15).with_restart_delay(0.01));
        engine.set_retry_policy(fast_retry());
        for i in 0..30u32 {
            engine.submit(JobId::new(i % 3), 1.0, move || i);
        }
        let results = engine.wait();
        assert_eq!(results.len(), 30, "crashes never lose tasks");
        let stats = engine.fault_stats();
        assert!(stats.crash_failures > 0, "rate 0.15 must crash: {stats}");
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn timeout_abandons_a_hung_attempt() {
        let engine = ThreadedEngine::new(2);
        engine.set_retry_policy(fast_retry());
        engine.set_task_timeout(Duration::from_millis(40));
        let slow_calls = Arc::new(AtomicU32::new(0));
        let calls = Arc::clone(&slow_calls);
        engine.submit(JobId::new(0), 1.0, move || {
            if calls.fetch_add(1, AtomicOrdering::SeqCst) == 0 {
                // First attempt hangs well past the timeout.
                std::thread::sleep(Duration::from_millis(250));
            }
            5u32
        });
        let results = engine.wait();
        assert_eq!(results.len(), 1, "the retry rescued the task");
        let stats = engine.fault_stats();
        assert!(stats.timeout_aborts >= 1, "{stats}");
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn fast_abort_speculates_past_stragglers() {
        let engine = ThreadedEngine::new(2);
        engine.set_retry_policy(fast_retry());
        engine.set_fast_abort(FastAbort { multiplier: 4.0, min_samples: 4, max_speculations: 2 });
        // Warm the running mean with quick tasks.
        for i in 0..8u32 {
            engine.submit(JobId::new(0), 2.0, move || {
                std::thread::sleep(Duration::from_millis(3));
                i
            });
        }
        let _ = engine.wait();
        // One task straggles on its first attempt only; the speculative
        // duplicate finishes fast and wins.
        let straggler_calls = Arc::new(AtomicU32::new(0));
        let calls = Arc::clone(&straggler_calls);
        engine.submit(JobId::new(1), 1.0, move || {
            if calls.fetch_add(1, AtomicOrdering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(400));
            } else {
                std::thread::sleep(Duration::from_millis(3));
            }
            42u32
        });
        let results = engine.wait();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1, 42);
        let stats = engine.fault_stats();
        assert!(
            stats.straggler_aborts >= 1,
            "the losing attempt is discarded and accounted: {stats}"
        );
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn quarantine_retires_flaky_workers() {
        let engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan::new(21).with_transient_rate(0.5));
        engine.set_retry_policy(RetryPolicy {
            quarantine_threshold: 3,
            max_attempts: 50,
            ..fast_retry()
        });
        for i in 0..40u32 {
            engine.submit(JobId::new(i % 2), 1.0, move || i);
        }
        let results = engine.wait();
        assert_eq!(results.len(), 40);
        let stats = engine.fault_stats();
        assert!(stats.reconciles(), "{stats}");
        assert!(engine.num_workers() >= 1, "never quarantines the last worker");
        if stats.quarantined_workers > 0 {
            assert!(engine.num_workers() < 3);
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_across_runs() {
        // Without speculation/timeouts, the per-task attempt sequence is
        // a pure function of the plan, so injected-fault counts match
        // exactly across runs despite real thread scheduling.
        let run = || {
            let engine = ThreadedEngine::new(4);
            engine.set_fault_plan(
                FaultPlan::new(33)
                    .with_transient_rate(0.2)
                    .with_crash_rate(0.05)
                    .with_restart_delay(0.005),
            );
            engine.set_retry_policy(fast_retry());
            for i in 0..30u32 {
                engine.submit(JobId::new(i % 3), 1.0, move || i);
            }
            let n = engine.wait().len();
            let s = engine.fault_stats();
            (n, s.attempts, s.transient_failures, s.crash_failures)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault schedule must not depend on thread timing");
        assert_eq!(a.0, 30);
    }

    #[test]
    fn report_reconciles_under_mixed_fault_load() {
        let engine = ThreadedEngine::new(3);
        engine.set_fault_plan(
            FaultPlan::new(55)
                .with_transient_rate(0.15)
                .with_crash_rate(0.05)
                .with_stragglers(0.1, 4.0)
                .with_restart_delay(0.01),
        );
        engine.set_retry_policy(fast_retry());
        engine.set_fast_abort(FastAbort { min_samples: 4, ..FastAbort::default() });
        for i in 0..40u32 {
            engine.submit(JobId::new(i % 4), 1.0, move || {
                std::thread::sleep(Duration::from_millis(2));
                i
            });
        }
        let results = engine.wait();
        assert_eq!(results.len(), 40, "all jobs complete under a mixed fault load");
        let report = engine.report();
        assert_eq!(report.completed.len(), 40);
        assert!(report.faults.reconciles(), "{}", report.faults);
        assert!(report.faults.fault_ratio() > 0.0);
    }

    #[test]
    fn simulated_specs_run_through_the_trait() {
        let mut engine: ThreadedEngine<()> = ThreadedEngine::new(2);
        engine.set_simulation(ExecutionModel::new(0.0, 0.01, 0.01), 0.01);
        let backend: &mut dyn ExecutionBackend = &mut engine;
        for i in 0..6u32 {
            // 1 engine-second each => 10ms real at scale 0.01.
            let _ = backend.submit(TaskSpec::new(JobId::new(i % 2), 100.0));
        }
        backend.set_job_priority(JobId::new(0), 2.0);
        let report = backend.run_to_completion();
        assert_eq!(report.completed.len(), 6);
        assert!(report.makespan >= 1.0, "three rounds of 1s tasks on two workers");
        assert_eq!(backend.backend_name(), "threaded");
        assert!(backend.fault_stats().reconciles());
    }

    #[test]
    fn elastic_resize_grows_and_shrinks_the_pool() {
        let engine: ThreadedEngine<u32> = ThreadedEngine::new(2);
        engine.set_num_workers(4);
        assert_eq!(engine.num_workers(), 4);
        engine.set_num_workers(1);
        assert_eq!(engine.num_workers(), 1);
        // The shrunken pool still drains work.
        for i in 0..8u32 {
            engine.submit(JobId::new(0), 1.0, move || i);
        }
        assert_eq!(engine.wait().len(), 8);
        // And can grow back afterwards.
        engine.set_num_workers(3);
        assert_eq!(engine.num_workers(), 3);
        for i in 0..6u32 {
            engine.submit(JobId::new(0), 1.0, move || i);
        }
        assert_eq!(engine.wait().len(), 6);
    }

    #[test]
    fn eviction_kills_a_worker_and_requeues_its_task() {
        let engine: ThreadedEngine<()> = ThreadedEngine::new(2);
        engine.set_simulation(ExecutionModel::new(0.0, 0.01, 0.01), 0.01);
        engine.set_retry_policy(fast_retry());
        for _ in 0..4 {
            let _ = engine.submit_spec(TaskSpec::new(JobId::new(0), 100.0));
        }
        // Tasks take 1 engine-second (10ms real): at t = 0.5 both workers
        // are mid-attempt, so the eviction strips a running attempt.
        engine.schedule_eviction(0.5);
        let report = engine.run_to_completion();
        assert_eq!(report.completed.len(), 4, "the interrupted task is re-queued");
        assert_eq!(engine.num_workers(), 1, "the pool shrinks for good");
        let stats = engine.fault_stats();
        assert_eq!(stats.crash_failures, 1, "{stats}");
        assert!(stats.reconciles(), "{stats}");
    }
}
