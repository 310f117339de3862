//! The task-lifecycle state machine both execution backends drive.
//!
//! A Work Queue master does the same bookkeeping whatever executes the
//! tasks: queue them by job priority, hand the next one to a free worker,
//! decide what a lost attempt costs (retry now, back off, give up),
//! replace crashed workers, shrink and grow the pool, and keep
//! [`FaultStats`] balanced. [`Master`] is that bookkeeping, written once.
//! It owns the task table, the one ready queue ([`TaskPool`], so job
//! priorities are stride shares on every backend), the timer queue
//! (backoff releases, respawns, evictions), the worker set with each
//! slot's running attempt, the fault plan and retry policy, the recorder
//! and the completed list. A task has at most one attempt running.
//!
//! The machine has no clock and executes nothing. A driver passes the
//! time (engine seconds) into every call and supplies the physics:
//! [`crate::DesEngine`] turns an [`Attempt`] into a virtual end time,
//! [`crate::ThreadedEngine`] runs it on an OS thread. The driver reports
//! how the attempt ended ([`Master::attempt_ended`]) and calls
//! [`Master::tick`] when [`Master::next_wake`] falls due. Every lost
//! attempt, whether its worker reports it or an eviction takes it, is
//! settled by the one private `settle_loss`.

use crate::telemetry::{LossCause, SharedRecorder, TaskPhase, TimelineEvent};
use crate::{
    CompletedTask, FailedTask, FaultKind, FaultPlan, FaultStats, JobId, RetryPolicy, TaskId,
    TaskPool, TaskSpec, WorkerId,
};
use sstd_stats::mix64;

/// An attempt the machine handed to a worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) task: TaskId,
    pub(crate) spec: TaskSpec,
    /// The fault the plan injects into this attempt, if any.
    pub(crate) fault: Option<FaultKind>,
}

/// The machine's answer to a worker asking for work.
#[derive(Debug)]
pub(crate) enum Acquire {
    /// Execute this attempt, then report it with [`Master::attempt_ended`].
    Run(Attempt),
    /// The worker is no longer part of the pool (drained, crashed or
    /// evicted): stop.
    Retire,
    /// Nothing is runnable; a timer falls due at the given time, if any.
    Idle(Option<f64>),
}

/// How an attempt ended on its worker.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ended<'a> {
    Success,
    /// The injected transient fault manifested.
    Transient,
    /// The injected worker crash manifested: the worker is gone.
    Crashed,
    /// The task closure panicked with this message (threads only).
    Panicked(&'a str),
}

#[derive(Debug, Clone, Copy)]
struct Running {
    task: TaskId,
    attempt: u32,
    started_at: f64,
}

#[derive(Debug)]
struct Slot {
    id: WorkerId,
    running: Option<Running>,
    /// A draining worker finishes its attempt and accepts no more (how
    /// the Global Control Knob shrinks the pool). A draining slot without
    /// a running attempt does not exist.
    draining: bool,
}

#[derive(Debug)]
struct TaskEntry {
    spec: TaskSpec,
    submitted_at: f64,
    /// Attempts started (also the next attempt's zero-based index).
    attempts: u32,
}

/// What the timer queue holds; at equal times backoff releases fire
/// before respawns and respawns before evictions.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum Timer {
    Release(TaskId),
    Respawn,
    Evict,
}

/// The clock-agnostic Work Queue master (see the module docs).
///
/// Invariant: every attempt [`acquire`](Self::acquire) starts is closed
/// exactly once — as the task's success or by `settle_loss` — which is
/// what keeps [`FaultStats::reconciles`] true. An attempt that ends after
/// an eviction took its worker away is recognised by its missing slot and
/// ignored.
#[derive(Debug)]
pub(crate) struct Master {
    pool: TaskPool,
    /// Indexed by [`TaskId`]: the pool mints ids densely.
    tasks: Vec<TaskEntry>,
    /// Sorted by `(time, timer)`.
    timers: Vec<(f64, Timer)>,
    /// Sorted by id: ids only grow, and removal keeps the order.
    workers: Vec<Slot>,
    next_worker: u32,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    stats: FaultStats,
    completed: Vec<CompletedTask>,
    failed: Vec<FailedTask>,
    retries: u64,
    /// Tasks neither completed nor exhausted.
    live: usize,
    /// Attempts executing across all workers.
    running: usize,
    recorder: Option<SharedRecorder>,
}

impl Master {
    pub(crate) fn new(num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        let mut master = Self {
            pool: TaskPool::new(),
            tasks: Vec::new(),
            timers: Vec::new(),
            workers: Vec::new(),
            next_worker: 0,
            plan: None,
            retry: RetryPolicy::default(),
            stats: FaultStats::default(),
            completed: Vec::new(),
            failed: Vec::new(),
            retries: 0,
            live: 0,
            running: 0,
            recorder: None,
        };
        for _ in 0..num_workers {
            master.add_worker();
        }
        master
    }

    /// Panics if the plan is invalid, like [`set_retry`](Self::set_retry).
    pub(crate) fn set_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.plan = Some(plan);
    }

    /// Panics if the policy is invalid: the engines call this on an
    /// already-constructed backend and cannot propagate.
    pub(crate) fn set_retry(&mut self, retry: RetryPolicy) {
        if let Err(e) = retry.validate() {
            panic!("invalid retry policy: {e}");
        }
        self.retry = retry;
    }

    pub(crate) fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// Sets a job's stride share (Local Control Knob); panics unless
    /// `priority` is finite and positive.
    pub(crate) fn set_priority(&mut self, job: JobId, priority: f64) {
        self.pool.set_priority(job, priority);
    }

    /// Workers accepting tasks (draining ones no longer do).
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.iter().filter(|s| !s.draining).count()
    }

    /// Worker slots, draining ones included.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.workers.len()
    }

    /// Tasks waiting for a worker, in the pool or backing off.
    pub(crate) fn pending(&self) -> usize {
        self.pool.len() + self.timers.iter().filter(|(_, t)| matches!(t, Timer::Release(_))).count()
    }

    pub(crate) fn pending_of(&self, job: JobId) -> usize {
        let backing_off = self.timers.iter().filter(|(_, t)| {
            matches!(t, Timer::Release(task) if self.tasks[task.index()].spec.job() == job)
        });
        self.pool.pending_of(job) + backing_off.count()
    }

    pub(crate) const fn running(&self) -> usize {
        self.running
    }

    /// Tasks neither completed nor exhausted.
    pub(crate) const fn live(&self) -> usize {
        self.live
    }

    pub(crate) const fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn completed(&self) -> &[CompletedTask] {
        &self.completed
    }

    pub(crate) fn failed(&self) -> &[FailedTask] {
        &self.failed
    }

    pub(crate) const fn retries(&self) -> u64 {
        self.retries
    }

    /// The spec [`acquire`](Self::acquire) would hand out next.
    pub(crate) fn peek(&self) -> Option<TaskSpec> {
        self.pool.peek().map(|&(_, spec)| spec)
    }

    /// Workers without a running attempt, oldest first.
    pub(crate) fn idle_workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.workers.iter().filter(|s| s.running.is_none()).map(|s| s.id)
    }

    /// Whether `worker` is in the pool and executing an attempt.
    pub(crate) fn is_busy(&self, worker: WorkerId) -> bool {
        self.position(worker).is_ok_and(|pos| self.workers[pos].running.is_some())
    }

    fn position(&self, worker: WorkerId) -> Result<usize, usize> {
        self.workers.binary_search_by_key(&worker, |s| s.id)
    }

    fn add_worker(&mut self) -> WorkerId {
        let id = WorkerId::new(self.next_worker);
        self.next_worker += 1;
        self.workers.push(Slot { id, running: None, draining: false });
        id
    }

    fn remove_worker(&mut self, worker: WorkerId) {
        if let Ok(pos) = self.position(worker) {
            self.workers.remove(pos);
        }
    }

    fn take_running(&mut self, worker: WorkerId) -> Option<Running> {
        let pos = self.position(worker).ok()?;
        self.workers[pos].running.take()
    }

    /// The draining rule: a draining slot goes the moment its attempt has
    /// ended, whichever way it ended.
    fn drop_if_drained(&mut self, worker: WorkerId) {
        if let Ok(pos) = self.position(worker) {
            if self.workers[pos].draining && self.workers[pos].running.is_none() {
                self.workers.remove(pos);
            }
        }
    }

    fn schedule(&mut self, at: f64, timer: Timer) {
        let pos = self.timers.partition_point(|entry| *entry <= (at, timer));
        self.timers.insert(pos, (at, timer));
    }

    fn record(
        &self,
        task: TaskId,
        attempt: u32,
        worker: Option<WorkerId>,
        at: f64,
        phase: TaskPhase,
    ) {
        if let Some(rec) = &self.recorder {
            let job = self.tasks[task.index()].spec.job();
            rec.record(&TimelineEvent { task, job, attempt, worker, at, phase });
        }
    }

    pub(crate) fn submit(&mut self, spec: TaskSpec, now: f64) -> TaskId {
        let id = self.pool.submit(spec);
        debug_assert_eq!(id.index(), self.tasks.len(), "the pool mints dense ids");
        self.tasks.push(TaskEntry { spec, submitted_at: now, attempts: 0 });
        self.live += 1;
        self.record(id, 0, None, now, TaskPhase::Queued);
        id
    }

    /// `worker` asks for work. A worker calls this only after reporting
    /// its previous attempt.
    pub(crate) fn acquire(&mut self, worker: WorkerId, now: f64) -> Acquire {
        let Ok(pos) = self.position(worker) else { return Acquire::Retire };
        debug_assert!(self.workers[pos].running.is_none(), "{worker} already runs an attempt");
        let Some((task, spec)) = self.pool.pop() else { return Acquire::Idle(self.next_wake()) };
        let entry = &mut self.tasks[task.index()];
        let attempt = entry.attempts;
        entry.attempts += 1;
        self.running += 1;
        self.stats.attempts += 1;
        self.workers[pos].running = Some(Running { task, attempt, started_at: now });
        self.record(task, attempt, Some(worker), now, TaskPhase::Dispatched);
        let fault = self.plan.and_then(|p| p.decide(task, attempt));
        Acquire::Run(Attempt { task, spec, fault })
    }

    /// The attempt on `worker` ended by itself. Returns the task's record
    /// when this was the success that completed it.
    pub(crate) fn attempt_ended(
        &mut self,
        worker: WorkerId,
        ended: Ended<'_>,
        now: f64,
    ) -> Option<CompletedTask> {
        let run = self.take_running(worker)?;
        match ended {
            Ended::Success => return Some(self.succeed(worker, run, now)),
            Ended::Transient => {
                let error = "transient-fault retries exhausted";
                self.settle_loss(worker, run, LossCause::Transient, false, error, now);
            }
            Ended::Crashed => {
                let error = "worker-crash retries exhausted";
                self.settle_loss(worker, run, LossCause::Crash, false, error, now);
            }
            Ended::Panicked(message) => {
                self.settle_loss(worker, run, LossCause::Transient, true, message, now);
            }
        }
        None
    }

    fn succeed(&mut self, worker: WorkerId, run: Running, now: f64) -> CompletedTask {
        self.running -= 1;
        let entry = &self.tasks[run.task.index()];
        let done = CompletedTask {
            task: run.task,
            job: entry.spec.job(),
            submitted_at: entry.submitted_at,
            started_at: run.started_at,
            finished_at: now,
            worker,
            deadline: entry.spec.deadline(),
        };
        self.live -= 1;
        self.stats.successes += 1;
        self.completed.push(done);
        self.record(run.task, run.attempt, Some(worker), now, TaskPhase::Completed);
        self.drop_if_drained(worker);
        done
    }

    /// Settles a lost attempt — the only place that does. Accounts the
    /// loss, decides the task's fate, then applies the worker's side of
    /// the loss.
    ///
    /// The task: crash and eviction losses are not its fault, re-queue at
    /// once and are bounded only by the generous hard cap; transient
    /// failures burn the `max_attempts` budget and wait out an exponential
    /// backoff with deterministic jitter.
    ///
    /// The worker: a crashed worker is replaced after the plan's restart
    /// delay; an evicted one is not.
    fn settle_loss(
        &mut self,
        worker: WorkerId,
        run: Running,
        cause: LossCause,
        panicked: bool,
        error: &str,
        now: f64,
    ) {
        self.stats.wasted_time += now - run.started_at;
        match cause {
            LossCause::Transient => {
                self.stats.transient_failures += 1;
                self.stats.panics += u64::from(panicked);
            }
            LossCause::Crash | LossCause::Evicted => self.stats.crash_failures += 1,
        }
        self.record(run.task, run.attempt, Some(worker), now, TaskPhase::Failed(cause));
        self.running -= 1;
        let entry = &self.tasks[run.task.index()];
        let started = entry.attempts;
        let cap = match cause {
            LossCause::Crash | LossCause::Evicted => self.retry.hard_attempt_cap(),
            LossCause::Transient => self.retry.max_attempts,
        };
        if started >= cap {
            self.live -= 1;
            self.stats.exhausted_tasks += 1;
            self.failed.push(FailedTask {
                task: run.task,
                job: entry.spec.job(),
                attempts: started,
                error: error.to_string(),
            });
            self.record(run.task, started, None, now, TaskPhase::Exhausted);
        } else {
            self.retries += 1;
            if cause == LossCause::Transient {
                let seed = self.plan.map_or(0, |p| p.seed);
                let salt = mix64(seed ^ run.task.index() as u64);
                let release = now + self.retry.backoff(started, salt);
                self.schedule(release, Timer::Release(run.task));
            } else {
                self.pool.requeue(run.task, entry.spec);
            }
        }
        match cause {
            LossCause::Transient => {}
            LossCause::Crash => {
                self.remove_worker(worker);
                let delay = self.plan.map_or(1.0, |p| p.worker_restart_delay);
                self.schedule(now + delay, Timer::Respawn);
            }
            LossCause::Evicted => self.remove_worker(worker),
        }
        self.drop_if_drained(worker);
    }

    /// When the machine next needs a [`tick`](Self::tick): the earliest
    /// timer.
    pub(crate) fn next_wake(&self) -> Option<f64> {
        self.timers.first().map(|&(at, _)| at)
    }

    /// Fires every timer due at `now`, in `(time, kind)` order — backoff
    /// releases, then respawns, then evictions. Returns the workers that
    /// joined the pool.
    pub(crate) fn tick(&mut self, now: f64) -> Vec<WorkerId> {
        let mut joined = Vec::new();
        while self.timers.first().is_some_and(|&(at, _)| at <= now) {
            match self.timers.remove(0).1 {
                Timer::Release(task) => self.pool.requeue(task, self.tasks[task.index()].spec),
                Timer::Respawn => joined.push(self.add_worker()),
                Timer::Evict => self.evict(now),
            }
        }
        joined
    }

    /// Schedules a worker eviction (HTCondor preemption) at time `t`; one
    /// scheduled in the past fires on the next tick. Panics unless `t` is
    /// finite and non-negative.
    pub(crate) fn schedule_eviction(&mut self, t: f64) {
        assert!(t.is_finite() && t >= 0.0, "eviction time must be non-negative");
        self.schedule(t, Timer::Evict);
    }

    /// Fires one eviction: the pool reclaims a machine and replaces
    /// nothing. The victim is the busy worker whose attempt started
    /// earliest (most sunk work lost — the adversarial case), or the
    /// oldest worker when all are idle.
    fn evict(&mut self, now: f64) {
        let busy = self.workers.iter().filter_map(|s| Some((s.running?.started_at, s.id)));
        let victim = busy.min_by(|a, b| a.0.total_cmp(&b.0)).map(|(_, id)| id);
        let Some(worker) = victim.or(self.workers.first().map(|s| s.id)) else { return };
        match self.take_running(worker) {
            Some(run) => self.settle_loss(worker, run, LossCause::Evicted, false, "evicted", now),
            None => self.remove_worker(worker),
        }
    }

    /// Elastically resizes the pool (Global Control Knob) to `n` accepting
    /// workers. Growing first reprieves draining workers, newest first,
    /// then adds new ones, which it returns; shrinking drains the newest
    /// workers, and an idle one leaves at once. Panics if `n` is zero.
    pub(crate) fn resize(&mut self, n: usize) -> Vec<WorkerId> {
        assert!(n > 0, "need at least one worker");
        let active = self.num_workers();
        let mut change = n.abs_diff(active);
        let grow = n > active;
        // Newest first: growing un-drains draining slots, shrinking drains
        // accepting ones.
        for slot in self.workers.iter_mut().rev().filter(|s| s.draining == grow) {
            if change == 0 {
                break;
            }
            slot.draining = !grow;
            change -= 1;
        }
        self.workers.retain(|s| !(s.draining && s.running.is_none()));
        if grow {
            (0..change).map(|_| self.add_worker()).collect()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_stats::SplitMix64;
    use std::collections::BTreeSet;
    use std::panic::AssertUnwindSafe;

    fn spec(job: u32) -> TaskSpec {
        TaskSpec::new(JobId::new(job), 100.0)
    }

    fn worker(index: u32) -> WorkerId {
        WorkerId::new(index)
    }

    /// A machine with `tasks` queued tasks of job 0.
    fn master(workers: usize, tasks: usize) -> Master {
        let mut m = Master::new(workers);
        for _ in 0..tasks {
            m.submit(spec(0), 0.0);
        }
        m
    }

    fn start(m: &mut Master, on: u32, now: f64) -> Attempt {
        match m.acquire(worker(on), now) {
            Acquire::Run(attempt) => attempt,
            other => panic!("worker {on} got no attempt: {other:?}"),
        }
    }

    /// Advances to the next timer and fires it.
    fn fire_next_timer(m: &mut Master) -> (f64, Vec<WorkerId>) {
        let at = m.next_wake().expect("a timer is pending");
        (at, m.tick(at))
    }

    #[test]
    fn attempts_reconcile_across_outcomes() {
        let mut m = master(1, 2);
        assert_eq!(start(&mut m, 0, 0.0).task, TaskId::new(0));
        assert!(m.attempt_ended(worker(0), Ended::Success, 1.0).is_some());
        let _ = start(&mut m, 0, 1.0);
        assert!(m.attempt_ended(worker(0), Ended::Transient, 1.5).is_none());
        assert!(m.stats().reconciles(), "{}", m.stats());
        assert_eq!((m.retries(), m.pending(), m.live()), (1, 1, 1), "the lost task backs off");
        assert!(m.peek().is_none(), "not runnable until its backoff is served");
    }

    #[test]
    fn transient_losses_exhaust_at_max_attempts() {
        let mut m = master(1, 1);
        m.set_retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
        let _ = start(&mut m, 0, 0.0);
        m.attempt_ended(worker(0), Ended::Panicked("boom"), 0.1);
        assert!(m.failed().is_empty());
        let (at, _) = fire_next_timer(&mut m);
        let _ = start(&mut m, 0, at);
        m.attempt_ended(worker(0), Ended::Panicked("boom"), at + 0.1);
        assert_eq!(m.failed().len(), 1);
        assert_eq!((m.failed()[0].attempts, m.failed()[0].error.as_str()), (2, "boom"));
        assert_eq!((m.stats().exhausted_tasks, m.stats().panics, m.live()), (1, 2, 0));
        assert!(m.stats().reconciles(), "{}", m.stats());
    }

    #[test]
    fn crash_losses_retry_immediately_under_the_hard_cap() {
        let mut m = master(1, 1);
        m.set_retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
        let (mut on, mut now) = (0, 0.0);
        // Far past max_attempts, but crashes only hit the hard cap.
        for _ in 0..10 {
            let _ = start(&mut m, on, now);
            m.attempt_ended(worker(on), Ended::Crashed, now + 0.2);
            assert!(m.peek().is_some(), "re-queued at once, no backoff");
            assert_eq!(m.num_workers(), 0, "the crashed worker is gone");
            let (at, joined) = fire_next_timer(&mut m);
            assert_eq!(joined, vec![worker(on + 1)], "and replaced after the restart delay");
            (on, now) = (on + 1, at);
        }
        assert_eq!((m.stats().crash_failures, m.retries()), (10, 10));
        assert!(m.failed().is_empty() && m.stats().reconciles());
    }

    #[test]
    fn backoff_is_deterministic_per_task() {
        let release = |seed: u64| {
            let mut m = master(1, 1);
            m.set_plan(FaultPlan { seed, ..FaultPlan::default() });
            let _ = start(&mut m, 0, 0.0);
            m.attempt_ended(worker(0), Ended::Transient, 1.0);
            m.next_wake().unwrap()
        };
        assert_eq!(release(9), release(9), "same seed and task must yield the same backoff");
        assert!(release(9) > 1.0);
    }

    /// Regression (draining zombie): a draining worker leaves the moment
    /// its attempt ends — not only when it ends in success.
    #[test]
    fn a_draining_slot_goes_however_its_attempt_ended() {
        let ends: [fn(&mut Master); 4] = [
            |m| assert!(m.attempt_ended(worker(1), Ended::Success, 1.0).is_some()),
            |m| assert!(m.attempt_ended(worker(1), Ended::Transient, 1.0).is_none()),
            |m| assert!(m.attempt_ended(worker(1), Ended::Panicked("boom"), 1.0).is_none()),
            |m| assert!(m.attempt_ended(worker(1), Ended::Crashed, 1.0).is_none()),
        ];
        for end in ends {
            let mut m = master(2, 6);
            let _ = (start(&mut m, 0, 0.0), start(&mut m, 1, 0.0));
            assert!(m.resize(1).is_empty());
            assert_eq!((m.slots(), m.num_workers()), (2, 1), "worker 1 drains its attempt");
            end(&mut m);
            assert_eq!((m.slots(), m.num_workers()), (1, 1), "and is gone when it ends");
            assert!(matches!(m.acquire(worker(1), 1.0), Acquire::Retire));
            assert_eq!(m.resize(2), vec![worker(2)], "growing adds a new worker, not worker 1");
        }
    }

    /// What the script driver knows about a worker thread it "runs".
    #[derive(Default)]
    struct Script {
        /// Workers the script was ever told about.
        known: BTreeSet<WorkerId>,
        /// Workers physically executing something — possibly an attempt
        /// whose worker was evicted since (so its end will be stale).
        executing: BTreeSet<WorkerId>,
        /// Workers seen to have left the pool.
        gone: BTreeSet<WorkerId>,
        submitted: usize,
    }

    impl Script {
        fn pick(set: &BTreeSet<WorkerId>, index: usize) -> Option<WorkerId> {
            set.iter().nth(index % set.len().max(1)).copied()
        }

        /// The invariants that must hold after every step.
        fn check(&mut self, m: &Master) {
            let stats = m.stats();
            // Books balance once the attempts still in flight are added.
            let closed = stats.successes + stats.failures();
            assert_eq!(stats.attempts, closed + m.running() as u64, "{stats}");
            // Every task is pending, covered by a running attempt, or
            // terminal exactly once.
            let terminal: Vec<TaskId> = m
                .completed()
                .iter()
                .map(|c| c.task)
                .chain(m.failed().iter().map(|f| f.task))
                .collect();
            assert_eq!(terminal.iter().collect::<BTreeSet<_>>().len(), terminal.len());
            assert_eq!(self.submitted, m.live() + terminal.len());
            assert!(m.pending() <= m.live());
            assert!(m.live() - m.pending() <= m.running(), "a live task is queued or running");
            // A worker that left never comes back.
            let present: BTreeSet<WorkerId> = m.workers.iter().map(|s| s.id).collect();
            self.gone.extend(self.known.difference(&present));
            assert!(present.is_disjoint(&self.gone), "revived: {present:?} ∩ {:?}", self.gone);
            assert!(m.workers.iter().all(|s| !s.draining || s.running.is_some()), "idle drainer");
        }
    }

    /// `sstd_testkit::check`'s seeding, for a property over this crate's
    /// private state (the testkit links its own copy of this crate): case
    /// `i` draws from `SplitMix64::new(TESTKIT_SEED + i)`, and a failure
    /// prints the line that replays it alone.
    fn for_each_case(default_cases: u64, mut case: impl FnMut(&mut SplitMix64)) {
        let env = |var| std::env::var(var).ok().and_then(|v| v.parse::<u64>().ok());
        let root = env("TESTKIT_SEED").unwrap_or(2017);
        for i in 0..env("TESTKIT_CASES").unwrap_or(default_cases) {
            let seed = root.wrapping_add(i);
            let run =
                std::panic::catch_unwind(AssertUnwindSafe(|| case(&mut SplitMix64::new(seed))));
            if let Err(panic) = run {
                eprintln!("case {i} failed; reproduce: TESTKIT_SEED={seed} TESTKIT_CASES=1");
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Random interleavings of everything a driver can do, including the
    /// transition no DES run reaches: a *stale* end — an attempt ending
    /// after an eviction took its worker away.
    #[test]
    fn any_script_keeps_the_books() {
        for_each_case(1_000, |rng| {
            let seed = rng.usize_in(0, 999_999) as u64;
            let ops: Vec<(u8, usize, u32)> = (0..rng.usize_in(1, 159))
                .map(|_| {
                    (rng.usize_in(0, 11) as u8, rng.usize_in(0, 15), rng.usize_in(0, 39) as u32)
                })
                .collect();
            let mut m = Master::new(3);
            m.set_plan(FaultPlan { seed, ..FaultPlan::default() });
            m.set_retry(RetryPolicy { max_attempts: 3, ..Default::default() });
            let mut script = Script { known: (0..3).map(worker).collect(), ..Script::default() };
            let mut now = 0.0;
            for (op, index, amount) in ops {
                now += f64::from(amount) * 0.01;
                let busy = Script::pick(&script.executing, index);
                match op {
                    0 | 1 => {
                        m.submit(spec(amount % 3), now);
                        script.submitted += 1;
                    }
                    // Any thread not executing may ask for work — also one
                    // whose worker has left the pool.
                    2..=4 => {
                        let idle: BTreeSet<WorkerId> =
                            script.known.difference(&script.executing).copied().collect();
                        if let Some(w) = Script::pick(&idle, index) {
                            let in_pool = m.position(w).is_ok();
                            match m.acquire(w, now) {
                                Acquire::Run(_) => {
                                    assert!(in_pool && !script.gone.contains(&w), "{w} left");
                                    script.executing.insert(w);
                                }
                                Acquire::Retire => assert!(!in_pool),
                                Acquire::Idle(_) => assert!(in_pool && m.peek().is_none()),
                            }
                        }
                    }
                    // A thread reports its end — stale if an eviction took
                    // its worker away meanwhile.
                    5..=8 => {
                        if let Some(w) = busy {
                            let ended = [
                                Ended::Success,
                                Ended::Transient,
                                Ended::Crashed,
                                Ended::Panicked("boom"),
                            ][usize::from(op - 5)];
                            let stale = !m.is_busy(w);
                            let before = m.stats();
                            let done = m.attempt_ended(w, ended, now);
                            assert!(!stale || (done.is_none() && m.stats() == before));
                            script.executing.remove(&w);
                        }
                    }
                    9 => script.known.extend(m.tick(now)),
                    10 => script.known.extend(m.resize(1 + index % 5)),
                    _ => m.schedule_eviction(now + f64::from(amount) * 0.05),
                }
                script.check(&m);
            }
            // Drain: every thread reports success, capacity returns, and
            // whatever is left runs to an end.
            for w in std::mem::take(&mut script.executing) {
                let _ = m.attempt_ended(w, Ended::Success, now);
            }
            m.timers.retain(|(_, timer)| *timer != Timer::Evict);
            for _ in 0..10_000 {
                if m.live() == 0 {
                    break;
                }
                now += 10.0;
                let _ = m.tick(now);
                let _ = m.resize(2);
                for w in m.idle_workers().collect::<Vec<_>>() {
                    if let Acquire::Run(_) = m.acquire(w, now) {
                        let _ = m.attempt_ended(w, Ended::Success, now + 0.5);
                    }
                }
            }
            script.check(&m);
            assert_eq!((m.live(), m.running(), m.pending()), (0, 0, 0));
            assert!(m.stats().reconciles(), "{}", m.stats());
        });
    }
}
