//! Real master/worker execution backend on OS threads.
//!
//! This is the Work Queue programming model in miniature: a master submits
//! prioritized tasks (closures), an elastic pool of workers pulls and
//! executes them, and the master collects results. It proves the design
//! runs real computations (the streaming benchmarks use it to execute
//! actual truth-discovery jobs).
//!
//! [`ThreadedEngine`] is one of the two drivers of the shared
//! task-lifecycle state machine (`sched.rs`), the DES being the other:
//! the ready queue (stride shares by job priority), retries, backoff,
//! evictions, respawns, the elastic pool and the fault accounting are
//! the machine's, behind this engine's state lock. What
//! is left here is what is physical — threads, two condvars, the wall
//! clock converted to engine seconds, and running a closure. A panicking
//! task closure is caught ([`std::panic::catch_unwind`]), reported as a
//! transient failure and retried; it never wedges `run_to_completion` or
//! `Drop`
//! (a lock a panic poisoned is taken back with
//! [`PoisonError::into_inner`], and the worker thread survives to keep
//! draining). The machine's timers (backoff releases,
//! respawns, evictions) fire whenever a worker looks for work or the
//! master waits. The engine implements [`ExecutionBackend`] and
//! [`JobBackend`], making it a drop-in for the DES in the control loop
//! and the evaluation experiments. Tasks submitted through the trait as
//! bare [`TaskSpec`]s run *simulated* (a sleep shaped by the engine's
//! [`ExecutionModel`], scaled by
//! [`set_simulation`](ThreadedEngine::set_simulation)); tasks submitted
//! with a payload execute the real closure.

use crate::sched::{Acquire, Ended, Master};
use crate::telemetry::SharedRecorder;
use crate::{
    ExecutionBackend, ExecutionModel, ExecutionReport, FailedTask, FaultKind, FaultPlan,
    FaultStats, JobBackend, JobId, RetryPolicy, TaskId, TaskPayload, TaskSpec, WorkerId,
};
use sstd_types::error::SstdError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// Takes `m`, also after a panic poisoned it: every critical section
/// leaves the state consistent, and task closures run outside the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`], recovering a poisoned lock as [`lock`] does.
fn wait_timeout<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, dur: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur).unwrap_or_else(PoisonError::into_inner).0
}

struct EngineState<R> {
    /// The shared task lifecycle; this backend drives it from the wall
    /// clock and real workers.
    master: Master,
    /// What executing each task means, indexed by [`TaskId`]: a real
    /// closure, or `None` for a bare [`TaskSpec`], whose cost is modelled
    /// with a sleep.
    payloads: Vec<Option<TaskPayload<R>>>,
    results: Vec<(JobId, R)>,
    /// Real seconds per engine second (default 1.0). Simulated durations
    /// are multiplied by this before sleeping; the engine clock is the
    /// wall clock divided by it.
    time_scale: f64,
    /// Cost model for simulated (payload-less) tasks.
    sim_model: ExecutionModel,
}

impl<R> EngineState<R> {
    /// The engine clock: real seconds since `epoch`, divided by the time
    /// scale.
    fn now_s(&self, epoch: Instant) -> f64 {
        epoch.elapsed().as_secs_f64() / self.time_scale
    }
}

struct EngineShared<R> {
    state: Mutex<EngineState<R>>,
    work_available: Condvar,
    /// Signaled on completions, failures and respawns; `wait_idle` polls on
    /// it.
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
/// and treated as transient failures. Scheduling and all retry policy
/// live in the lifecycle state machine this engine shares with the DES:
/// job priorities are stride shares (`P_u = T_u / ΣT`) here exactly as
/// there.
///
/// OS threads cannot be killed: when an eviction takes a busy worker,
/// its thread finishes the attempt, the machine discards the stale
/// result, and the thread retires.
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
/// use sstd_runtime::{
///     ExecutionBackend, FaultPlan, JobBackend, JobId, RetryPolicy, TaskSpec, ThreadedEngine,
/// };
/// use std::sync::Arc;
///
/// let mut engine = ThreadedEngine::new(2);
/// engine.set_fault_plan(FaultPlan { seed: 7, transient_rate: 0.2, ..FaultPlan::default() });
/// engine.set_retry_policy(RetryPolicy { backoff_base: 0.001, ..RetryPolicy::default() });
/// for i in 0..10u32 {
///     let spec = TaskSpec::new(JobId::new(i % 2), 1.0);
///     engine.submit_job(spec, Arc::new(move || i * 2)).expect("threads refuse nothing");
/// }
/// let report = engine.run_to_completion();
/// assert_eq!(engine.drain_results().len(), 10, "every task completes despite faults");
/// assert!(report.faults.reconciles());
/// ```
pub struct ThreadedEngine<R: Send + 'static> {
    shared: Arc<EngineShared<R>>,
    epoch: Instant,
}

impl<R: Send + 'static> std::fmt::Debug for ThreadedEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("ThreadedEngine")
            .field("outstanding", &st.master.live())
            .field("alive_workers", &st.master.num_workers())
            .field("stats", &st.master.stats())
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
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState {
                master: Master::new(num_workers),
                payloads: Vec::new(),
                results: Vec::new(),
                time_scale: 1.0,
                sim_model: ExecutionModel::default(),
            }),
            work_available: Condvar::new(),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        });
        let epoch = Instant::now();
        Self::spawn_workers(&shared, (0..num_workers as u32).map(WorkerId::new), epoch);
        Self { shared, epoch }
    }

    /// Starts one thread per worker that joined the pool.
    fn spawn_workers(
        shared: &Arc<EngineShared<R>>,
        workers: impl IntoIterator<Item = WorkerId>,
        epoch: Instant,
    ) {
        for me in workers {
            let for_worker = Arc::clone(shared);
            let handle = std::thread::spawn(move || Self::worker_loop(&for_worker, me, epoch));
            lock(&shared.handles).push(handle);
        }
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
    pub fn set_simulation(&mut self, model: ExecutionModel, time_scale: f64) {
        assert!(time_scale.is_finite() && time_scale > 0.0, "time scale must be positive");
        let mut st = lock(&self.shared.state);
        st.sim_model = model;
        st.time_scale = time_scale;
    }

    /// [`ExecutionBackend::retries`], callable without the trait in
    /// scope: the benchmark crate (`crates/benchmark/src/batch.rs`) calls
    /// it that way.
    #[must_use]
    pub fn retries(&self) -> u64 {
        ExecutionBackend::retries(self)
    }

    /// [`ExecutionBackend::fault_stats`], callable without the trait in
    /// scope, for the same caller as [`retries`](Self::retries).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        ExecutionBackend::fault_stats(self)
    }

    fn insert_task(&mut self, spec: TaskSpec, payload: Option<TaskPayload<R>>) -> TaskId {
        let id = {
            let mut st = lock(&self.shared.state);
            let now = st.now_s(self.epoch);
            let id = st.master.submit(spec, now);
            debug_assert_eq!(id.index(), st.payloads.len(), "task ids are dense");
            st.payloads.push(payload);
            id
        };
        self.shared.work_available.notify_one();
        id
    }

    /// Blocks until every task has completed or terminally failed *and*
    /// all in-flight attempts have settled (so the books reconcile). The
    /// master fires its due timers from inside this loop, Work Queue
    /// style.
    fn wait_idle(&self) {
        let mut st = lock(&self.shared.state);
        loop {
            if st.master.live() == 0 && st.master.running() == 0 {
                return;
            }
            self.supervise(&mut st);
            // Workers parked without a deadline cannot see retries the
            // supervision pass just queued — poke them.
            self.shared.work_available.notify_all();
            // Re-check frequently: a timer that falls due while no idle
            // worker waits on it (an eviction of a busy worker, say) fires
            // only on a tick, and no condvar signals it.
            st = wait_timeout(&self.shared.progress, st, Duration::from_millis(2));
        }
    }

    /// One supervision pass: fire the machine's due timers (evictions,
    /// respawns, backoff releases).
    fn supervise(&self, st: &mut EngineState<R>) {
        let joined = st.master.tick(st.now_s(self.epoch));
        Self::spawn_workers(&self.shared, joined, self.epoch);
    }

    fn worker_loop(shared: &Arc<EngineShared<R>>, me: WorkerId, epoch: Instant) {
        loop {
            // Acquire an attempt.
            let (fault, payload, sleep_s) = {
                let mut st = lock(&shared.state);
                let attempt = loop {
                    if shared.shutdown.load(AtomicOrdering::Acquire) {
                        return;
                    }
                    let now = st.now_s(epoch);
                    let joined = st.master.tick(now);
                    Self::spawn_workers(shared, joined, epoch);
                    match st.master.acquire(me, now) {
                        Acquire::Run(attempt) => break attempt,
                        Acquire::Retire => return,
                        Acquire::Idle(Some(wake)) => {
                            let nap = ((wake - now) * st.time_scale).clamp(0.001, 3600.0);
                            let nap = Duration::from_secs_f64(nap);
                            st = wait_timeout(&shared.work_available, st, nap);
                        }
                        Acquire::Idle(None) => {
                            st = shared
                                .work_available
                                .wait(st)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                };
                let payload = st.payloads[attempt.task.index()].clone();
                let sleep_s = match payload {
                    Some(_) => 0.0,
                    None => st.sim_model.task_time(&attempt.spec) * st.time_scale,
                };
                (attempt.fault, payload, sleep_s)
            };

            // Execute outside the lock.
            let mut value = None;
            let message;
            let ended = match fault {
                Some(FaultKind::Transient) => Ended::Transient,
                Some(FaultKind::WorkerCrash) => Ended::Crashed,
                None => {
                    if sleep_s > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(sleep_s));
                    }
                    match payload.map(|f| catch_unwind(AssertUnwindSafe(move || f()))) {
                        Some(Err(panic)) => {
                            message = panic_message(panic.as_ref());
                            Ended::Panicked(&message)
                        }
                        Some(Ok(v)) => {
                            value = Some(v);
                            Ended::Success
                        }
                        None => Ended::Success,
                    }
                }
            };

            // Report under the lock. If an eviction took this worker
            // meanwhile, the machine ignores the stale outcome and its
            // result is dropped with it.
            {
                let mut st = lock(&shared.state);
                let now = st.now_s(epoch);
                if let (Some(done), Some(v)) = (st.master.attempt_ended(me, ended, now), value) {
                    st.results.push((done.job, v));
                }
            }
            shared.work_available.notify_all();
            shared.progress.notify_all();
        }
    }
}

impl<R: Send + 'static> ExecutionBackend for ThreadedEngine<R> {
    /// Submits a bare [`TaskSpec`] as a *simulated* task: its attempts
    /// sleep for the model time of the spec's data size (scaled), produce
    /// no result, and flow through the identical scheduling/fault path as
    /// payload tasks.
    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.insert_task(spec, None)
    }

    /// Sets a job's priority (Local Control Knob): its share of the
    /// workers' next picks, from now on.
    ///
    /// # Panics
    ///
    /// Panics unless `priority` is finite and positive.
    fn set_job_priority(&mut self, job: JobId, priority: f64) {
        lock(&self.shared.state).master.set_priority(job, priority);
    }

    /// Elastically resizes the worker pool (Global Control Knob). Growing
    /// spawns new workers (reprieving draining ones first); shrinking
    /// drains the newest workers after their current task.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn set_num_workers(&mut self, n: usize) {
        let joined = lock(&self.shared.state).master.resize(n);
        Self::spawn_workers(&self.shared, joined, self.epoch);
        // Wake parked workers so the ones that left the pool retire.
        self.shared.work_available.notify_all();
    }

    /// Workers currently alive (not crashed, evicted or draining).
    fn num_workers(&self) -> usize {
        lock(&self.shared.state).master.num_workers()
    }

    fn pending(&self) -> usize {
        lock(&self.shared.state).master.pending()
    }

    fn pending_of(&self, job: JobId) -> usize {
        lock(&self.shared.state).master.pending_of(job)
    }

    fn running(&self) -> usize {
        lock(&self.shared.state).master.running()
    }

    /// The engine clock in engine seconds (wall seconds since start,
    /// divided by the time scale).
    fn now(&self) -> f64 {
        lock(&self.shared.state).now_s(self.epoch)
    }

    /// Drives the engine until its clock reaches `t` engine seconds,
    /// supervising along the way.
    fn run_until(&mut self, t: f64) {
        let mut st = lock(&self.shared.state);
        loop {
            let now_s = st.now_s(self.epoch);
            if now_s >= t {
                return;
            }
            self.supervise(&mut st);
            self.shared.work_available.notify_all();
            let remaining = Duration::from_secs_f64(((t - now_s) * st.time_scale).max(0.0));
            let nap = remaining.min(Duration::from_millis(2));
            st = wait_timeout(&self.shared.progress, st, nap);
        }
    }

    /// Blocks until every submitted task has completed or terminally
    /// failed and every attempt has settled, then reports everything
    /// finished so far; results stay available through
    /// [`drain_results`](JobBackend::drain_results). Times are engine
    /// seconds since the engine started.
    fn run_to_completion(&mut self) -> ExecutionReport {
        self.wait_idle();
        let st = lock(&self.shared.state);
        let completed = st.master.completed().to_vec();
        let makespan = completed.iter().map(|c| c.finished_at).fold(0.0_f64, f64::max);
        ExecutionReport { completed, makespan, faults: st.master.stats() }
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
    fn schedule_eviction(&mut self, t: f64) {
        lock(&self.shared.state).master.schedule_eviction(t);
    }

    /// Installs a deterministic fault-injection schedule.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`FaultPlan::validate`]).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        lock(&self.shared.state).master.set_plan(plan);
    }

    /// Sets the retry/backoff policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`RetryPolicy::validate`]).
    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        lock(&self.shared.state).master.set_retry(retry);
    }

    fn retries(&self) -> u64 {
        lock(&self.shared.state).master.retries()
    }

    fn fault_stats(&self) -> FaultStats {
        lock(&self.shared.state).master.stats()
    }

    fn failed(&self) -> Vec<FailedTask> {
        lock(&self.shared.state).master.failed().to_vec()
    }

    fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        lock(&self.shared.state).master.set_recorder(recorder);
    }

    fn backend_name(&self) -> &'static str {
        "threaded"
    }
}

impl<R: Send + 'static> JobBackend<R> for ThreadedEngine<R> {
    /// Submits a task whose attempts run `work` on a worker thread; never
    /// refuses.
    fn submit_job(&mut self, spec: TaskSpec, work: TaskPayload<R>) -> Result<TaskId, SstdError> {
        Ok(self.insert_task(spec, Some(work)))
    }

    fn drain_results(&mut self) -> Vec<(JobId, R)> {
        std::mem::take(&mut lock(&self.shared.state).results)
    }
}

impl<R: Send + 'static> Drop for ThreadedEngine<R> {
    fn drop(&mut self) {
        // Raise the flag while holding `state`: a worker checks it under
        // that lock before it waits, so it either sees the flag or is
        // already parked when the notify below arrives.
        {
            let _st = lock(&self.shared.state);
            self.shared.shutdown.store(true, AtomicOrdering::Release);
        }
        self.shared.work_available.notify_all();
        // Respawn threads may still push handles while we join; drain
        // until the list stays empty.
        loop {
            let handles = std::mem::take(&mut *lock(&self.shared.handles));
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

    /// Submits a payload task of `job`.
    fn submit<R: Send + 'static>(
        engine: &mut ThreadedEngine<R>,
        job: JobId,
        f: impl Fn() -> R + Send + Sync + 'static,
    ) -> TaskId {
        engine.submit_job(TaskSpec::new(job, 0.0), Arc::new(f)).expect("threads refuse nothing")
    }

    /// Runs to completion and drains the results.
    fn wait<R: Send + 'static>(engine: &mut ThreadedEngine<R>) -> Vec<(JobId, R)> {
        let _ = engine.run_to_completion();
        engine.drain_results()
    }

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
        let mut engine = ThreadedEngine::new(2);
        assert!(wait(&mut engine).is_empty(), "waiting on an idle engine returns immediately");
        let first = submit(&mut engine, JobId::new(7), || "seven");
        let second = submit(&mut engine, JobId::new(8), || "eight");
        assert_ne!(first, second, "submissions get distinct task ids");
        let mut results = wait(&mut engine);
        results.sort_by_key(|&(j, _)| j);
        assert_eq!(results, vec![(JobId::new(7), "seven"), (JobId::new(8), "eight")]);
        submit(&mut engine, JobId::new(9), || "nine");
        assert_eq!(wait(&mut engine), vec![(JobId::new(9), "nine")]);
    }

    #[test]
    fn priority_shares_queued_work() {
        // Single worker; the head task blocks briefly so the rest queue up.
        let mut engine = ThreadedEngine::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        submit(&mut engine, JobId::new(9), || std::thread::sleep(Duration::from_millis(50)));
        // Give the worker a moment to take the blocking task.
        std::thread::sleep(Duration::from_millis(10));
        engine.set_job_priority(JobId::new(0), 3.0);
        for _ in 0..8 {
            for job in [0u32, 1] {
                let o = Arc::clone(&order);
                submit(&mut engine, JobId::new(job), move || o.lock().unwrap().push(job));
            }
        }
        let _ = wait(&mut engine);
        let seen = order.lock().unwrap().clone();
        // The Local Control Knob is a share (`P_u = T_u / ΣT`), not a strict
        // order: job 0 gets three picks in four while both have work, and
        // job 1 is never starved.
        let job0_in_first_8 = seen[..8].iter().filter(|&&j| j == 0).count();
        assert_eq!(job0_in_first_8, 6, "3 : 1 share while both jobs are queued: {seen:?}");
        let first_job1 = seen.iter().position(|&j| j == 1).unwrap();
        let last_job0 = seen.iter().rposition(|&j| j == 0).unwrap();
        assert!(first_job1 < last_job0, "job 1 is served before job 0 runs dry: {seen:?}");
    }

    #[test]
    fn single_worker_survives_repeated_panics() {
        let mut engine = ThreadedEngine::new(1);
        engine.set_retry_policy(RetryPolicy { max_attempts: 1, ..fast_retry() });
        for i in 0..10u32 {
            submit(&mut engine, JobId::new(i), move || {
                assert!(i % 2 == 0, "odd tasks fail");
                i
            });
        }
        assert_eq!(wait(&mut engine).len(), 5, "the lone worker outlives every panic");
        assert_eq!(engine.failed().len(), 5);
    }

    #[test]
    fn executes_all_tasks_without_faults() {
        let mut engine = ThreadedEngine::new(3);
        for i in 0..40u32 {
            submit(&mut engine, JobId::new(i % 4), move || i);
        }
        let results = wait(&mut engine);
        assert_eq!(results.len(), 40);
        let stats = engine.fault_stats();
        assert_eq!(stats.attempts, 40);
        assert_eq!(stats.successes, 40);
        assert!(stats.reconciles(), "{stats}");
        let report = engine.run_to_completion();
        assert_eq!(report.completed.len(), 40);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        let mut engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan { seed: 11, transient_rate: 0.25, ..FaultPlan::default() });
        engine.set_retry_policy(fast_retry());
        for i in 0..40u32 {
            submit(&mut engine, JobId::new(i % 2), move || i);
        }
        let results = wait(&mut engine);
        assert_eq!(results.len(), 40, "no task lost to transient faults");
        let stats = engine.fault_stats();
        assert!(stats.transient_failures > 0, "rate 0.25 must fault: {stats}");
        assert!(stats.reconciles(), "{stats}");
        assert!(engine.failed().is_empty());
        assert!(engine.retries() > 0, "every transient loss re-queues");
    }

    #[test]
    fn panics_count_as_transient_failures_and_retry() {
        let mut engine = ThreadedEngine::new(2);
        engine.set_retry_policy(fast_retry());
        let flaky_calls = Arc::new(AtomicU32::new(0));
        let calls = Arc::clone(&flaky_calls);
        submit(&mut engine, JobId::new(0), move || {
            // First attempt panics; the retry succeeds.
            assert!(calls.fetch_add(1, AtomicOrdering::SeqCst) > 0, "first attempt dies");
            99u32
        });
        submit(&mut engine, JobId::new(1), || 1u32);
        let results = wait(&mut engine);
        assert_eq!(results.len(), 2);
        let stats = engine.fault_stats();
        assert!(stats.panics >= 1, "{stats}");
        assert!(stats.transient_failures >= 1);
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn hopeless_tasks_exhaust_and_are_reported() {
        let mut engine: ThreadedEngine<u32> = ThreadedEngine::new(2);
        engine.set_retry_policy(RetryPolicy { max_attempts: 2, ..fast_retry() });
        submit(&mut engine, JobId::new(3), || panic!("always broken"));
        submit(&mut engine, JobId::new(4), || 7u32);
        let results = wait(&mut engine);
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
        let mut engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan {
            seed: 9,
            crash_rate: 0.15,
            worker_restart_delay: 0.01,
            ..FaultPlan::default()
        });
        engine.set_retry_policy(fast_retry());
        for i in 0..30u32 {
            submit(&mut engine, JobId::new(i % 3), move || i);
        }
        let results = wait(&mut engine);
        assert_eq!(results.len(), 30, "crashes never lose tasks");
        let stats = engine.fault_stats();
        assert!(stats.crash_failures > 0, "rate 0.15 must crash: {stats}");
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn fault_decisions_are_deterministic_across_runs() {
        // The per-task attempt sequence is a pure function of the plan,
        // so injected-fault counts match exactly across runs despite real
        // thread scheduling.
        let run = || {
            let mut engine = ThreadedEngine::new(4);
            engine.set_fault_plan(FaultPlan {
                seed: 33,
                transient_rate: 0.2,
                crash_rate: 0.05,
                worker_restart_delay: 0.005,
                ..FaultPlan::default()
            });
            engine.set_retry_policy(fast_retry());
            for i in 0..30u32 {
                submit(&mut engine, JobId::new(i % 3), move || i);
            }
            let n = wait(&mut engine).len();
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
        let mut engine = ThreadedEngine::new(3);
        engine.set_fault_plan(FaultPlan {
            seed: 55,
            transient_rate: 0.15,
            crash_rate: 0.05,
            worker_restart_delay: 0.01,
            ..FaultPlan::default()
        });
        engine.set_retry_policy(fast_retry());
        for i in 0..40u32 {
            submit(&mut engine, JobId::new(i % 4), move || {
                std::thread::sleep(Duration::from_millis(2));
                i
            });
        }
        let results = wait(&mut engine);
        assert_eq!(results.len(), 40, "all jobs complete under a mixed fault load");
        let report = engine.run_to_completion();
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
        let mut engine: ThreadedEngine<u32> = ThreadedEngine::new(2);
        engine.set_num_workers(4);
        assert_eq!(engine.num_workers(), 4);
        engine.set_num_workers(1);
        assert_eq!(engine.num_workers(), 1);
        // The shrunken pool still drains work.
        for i in 0..8u32 {
            submit(&mut engine, JobId::new(0), move || i);
        }
        assert_eq!(wait(&mut engine).len(), 8);
        // And can grow back afterwards.
        engine.set_num_workers(3);
        assert_eq!(engine.num_workers(), 3);
        for i in 0..6u32 {
            submit(&mut engine, JobId::new(0), move || i);
        }
        assert_eq!(wait(&mut engine).len(), 6);
    }

    #[test]
    fn eviction_kills_a_worker_and_requeues_its_task() {
        let mut engine: ThreadedEngine<()> = ThreadedEngine::new(2);
        engine.set_simulation(ExecutionModel::new(0.0, 0.01, 0.01), 0.01);
        engine.set_retry_policy(fast_retry());
        for _ in 0..4 {
            let _ = engine.submit(TaskSpec::new(JobId::new(0), 100.0));
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
