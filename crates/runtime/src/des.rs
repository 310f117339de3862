//! Discrete-event simulation backend.
//!
//! The paper's cluster experiments ran on the Notre Dame HTCondor pool.
//! `DesEngine` reproduces the scheduling dynamics — queueing, priority
//! shares, heterogeneous worker speeds, init overhead, elastic worker
//! pools — under a virtual clock, so the cluster-scale figures (execution
//! time vs. data size, deadline hit rates, speedup curves) regenerate
//! deterministically on a single machine.
//!
//! The engine is one of the two drivers of the shared task-lifecycle
//! state machine (`sched.rs`): queueing, retries, backoff, evictions,
//! respawns and the elastic pool are the machine's. What is
//! left here is what is virtual — the clock, which node a worker sits on
//! (its speed, and whether a task fits), how long an attempt takes and
//! how it ends, and the event loop that advances the clock to whichever
//! comes first, an attempt's end or a machine timer. A seeded
//! [`FaultPlan`] decides every injected fault as a pure function of the
//! seed, so fault runs replay byte-for-byte.

use crate::fault::FAIL_POINT;
use crate::sched::{Acquire, Attempt, Ended, Master};
use crate::telemetry::SharedRecorder;
use crate::{
    Cluster, CompletedTask, ExecutionBackend, ExecutionModel, ExecutionReport, FailedTask,
    FaultKind, FaultPlan, FaultStats, JobBackend, JobId, NodeSpec, RetryPolicy, TaskId,
    TaskPayload, TaskSpec, WorkerId,
};
use sstd_types::error::{BackendError, SstdError};
use std::collections::BTreeMap;

/// How a virtual attempt ends; at equal times a fault fires before a
/// completion.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum End {
    /// The injected transient fault or worker crash manifests.
    Fail,
    Complete,
}

/// The virtual execution of one attempt: when it ends, and how.
#[derive(Debug, Clone, Copy)]
struct Flight {
    ends_at: f64,
    end: End,
    /// Whether the injected fault takes the worker down with it.
    crashes_worker: bool,
}

/// Event-driven simulator of a Work Queue master over a cluster.
///
/// Scheduling, faults and retries play out under the virtual clock. A
/// task submitted with a payload ([`JobBackend::submit_job`]) has it run
/// exactly once, when the simulator dispatches the task's completion, so
/// results match a real run while wasted (faulted) attempts cost only
/// virtual time; `R` is the payloads' result type.
///
/// # Examples
///
/// ```
/// use sstd_runtime::{Cluster, DesEngine, ExecutionBackend, ExecutionModel, JobId, TaskSpec};
///
/// let cluster = Cluster::homogeneous(2, 1.0);
/// let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::default(), 2);
/// des.submit(TaskSpec::new(JobId::new(0), 1_000.0));
/// des.submit(TaskSpec::new(JobId::new(0), 1_000.0));
/// let report = des.run_to_completion();
/// // Two equal tasks on two workers finish together.
/// assert!((report.makespan - report.completed[0].finished_at).abs() < 1e-9);
/// ```
///
/// Injecting a deterministic fault schedule:
///
/// ```
/// use sstd_runtime::{
///     Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobId, TaskSpec,
/// };
///
/// let cluster = Cluster::homogeneous(2, 1.0);
/// let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::default(), 2);
/// des.set_fault_plan(FaultPlan { seed: 42, transient_rate: 0.2, ..FaultPlan::default() });
/// for _ in 0..20 {
///     des.submit(TaskSpec::new(JobId::new(0), 100.0));
/// }
/// let report = des.run_to_completion();
/// assert_eq!(report.completed.len(), 20, "faults are retried, not lost");
/// assert!(report.faults.reconciles());
/// ```
pub struct DesEngine<R = ()> {
    cluster: Cluster,
    model: ExecutionModel,
    clock: f64,
    /// The shared task lifecycle; this backend drives it from `clock`.
    master: Master,
    /// The attempts in flight, by the worker executing them. Ids order
    /// workers by age, which is the tie-break between simultaneous ends.
    flights: BTreeMap<WorkerId, Flight>,
    /// Each task's payload, indexed by [`TaskId`] until its completion
    /// runs it; `None` for a bare [`TaskSpec`].
    payloads: Vec<Option<TaskPayload<R>>>,
    results: Vec<(JobId, R)>,
}

impl<R> std::fmt::Debug for DesEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesEngine")
            .field("cluster", &self.cluster)
            .field("model", &self.model)
            .field("clock", &self.clock)
            .field("master", &self.master)
            .field("flights", &self.flights)
            .field("undrained_results", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl<R> DesEngine<R> {
    /// Creates a simulator with `num_workers` workers placed round-robin
    /// on `cluster`'s nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    #[must_use]
    pub fn new(cluster: Cluster, model: ExecutionModel, num_workers: usize) -> Self {
        Self {
            cluster,
            model,
            clock: 0.0,
            master: Master::new(num_workers),
            flights: BTreeMap::new(),
            payloads: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Queues a task at the current virtual time and starts what fits.
    fn insert_task(&mut self, spec: TaskSpec, payload: Option<TaskPayload<R>>) -> TaskId {
        let id = self.master.submit(spec, self.clock);
        debug_assert_eq!(id.index(), self.payloads.len(), "task ids are dense");
        self.payloads.push(payload);
        self.assign_idle_workers();
        id
    }

    /// The node a worker sits on: workers land round-robin on the
    /// cluster's nodes (how Work Queue workers land on HTCondor slots).
    fn node(&self, worker: WorkerId) -> &NodeSpec {
        &self.cluster.nodes()[worker.index() % self.cluster.len()]
    }

    /// Starts pool tasks on idle workers, oldest worker first. A task
    /// whose resource requirements fit no idle worker's node stays queued
    /// (and holds back the tasks behind it) until one frees up.
    fn assign_idle_workers(&mut self) {
        while let Some(spec) = self.master.peek() {
            let fits = |w: &WorkerId| spec.requirements().fits_in(self.node(*w).capacity());
            let Some(worker) = self.master.idle_workers().find(fits) else { return };
            let Acquire::Run(attempt) = self.master.acquire(worker, self.clock) else { return };
            self.launch(worker, &attempt);
        }
    }

    /// Turns an attempt into its virtual end: the model's time on the
    /// worker's node, cut short at [`FAIL_POINT`] of it by an injected
    /// fault.
    fn launch(&mut self, worker: WorkerId, attempt: &Attempt) {
        let duration = self.model.task_time_on(&attempt.spec, self.node(worker).speed());
        let flight = match attempt.fault {
            Some(kind) => Flight {
                ends_at: self.clock + duration * FAIL_POINT,
                end: End::Fail,
                crashes_worker: kind == FaultKind::WorkerCrash,
            },
            None => {
                Flight { ends_at: self.clock + duration, end: End::Complete, crashes_worker: false }
            }
        };
        self.flights.insert(worker, flight);
    }

    /// The earliest pending event: `None` for a machine timer, or the
    /// worker whose attempt ends. At equal times machine timers fire
    /// first, then attempt ends in [`End`] order, oldest worker first.
    fn next_event(&self) -> Option<(f64, Option<WorkerId>)> {
        let flight = self
            .flights
            .iter()
            .map(|(&worker, f)| (f.ends_at, f.end, worker))
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"));
        match (self.master.next_wake(), flight) {
            (Some(wake), Some((t, ..))) if wake <= t => Some((wake, None)),
            (_, Some((t, _, worker))) => Some((t, Some(worker))),
            (wake, None) => wake.map(|t| (t, None)),
        }
    }

    /// Advances the clock to `t` and handles the event there; returns the
    /// finished task when the event was a completion.
    fn dispatch(&mut self, t: f64, who: Option<WorkerId>) -> Option<CompletedTask> {
        self.clock = self.clock.max(t);
        let done = match who {
            None => {
                let _ = self.master.tick(self.clock);
                // An eviction killed its victim's attempt with it.
                self.flights.retain(|&worker, _| self.master.is_busy(worker));
                None
            }
            Some(worker) => {
                let flight =
                    self.flights.remove(&worker).expect("the selected attempt is in flight");
                match flight.end {
                    End::Complete => self.master.attempt_ended(worker, Ended::Success, t),
                    End::Fail if flight.crashes_worker => {
                        self.master.attempt_ended(worker, Ended::Crashed, t)
                    }
                    End::Fail => self.master.attempt_ended(worker, Ended::Transient, t),
                }
            }
        };
        if let Some(done) = done {
            if let Some(work) = self.payloads[done.task.index()].take() {
                self.results.push((done.job, work()));
            }
        }
        self.assign_idle_workers();
        done
    }

    /// Advances to the next completion event, if any, firing scheduled
    /// evictions, faults, backoff releases and respawns that occur first.
    /// Returns the finished task.
    fn step(&mut self) -> Option<CompletedTask> {
        loop {
            let (t, who) = self.next_event()?;
            if let Some(done) = self.dispatch(t, who) {
                return Some(done);
            }
        }
    }
}

impl<R> ExecutionBackend for DesEngine<R> {
    /// Submits a task at the current virtual time.
    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.insert_task(spec, None)
    }

    /// Sets a job's priority (Local Control Knob).
    ///
    /// # Panics
    ///
    /// Panics unless `priority` is finite and positive.
    fn set_job_priority(&mut self, job: JobId, priority: f64) {
        self.master.set_priority(job, priority);
    }

    /// Elastically resizes the worker pool (Global Control Knob). Growing
    /// adds workers immediately; shrinking drains the newest workers after
    /// their current task.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn set_num_workers(&mut self, n: usize) {
        let _ = self.master.resize(n);
        self.assign_idle_workers();
    }

    fn num_workers(&self) -> usize {
        self.master.num_workers()
    }

    fn pending(&self) -> usize {
        self.master.pending()
    }

    fn pending_of(&self, job: JobId) -> usize {
        self.master.pending_of(job)
    }

    fn running(&self) -> usize {
        self.master.running()
    }

    /// Current virtual time.
    fn now(&self) -> f64 {
        self.clock
    }

    /// Processes every event up to virtual time `t`, then sets the clock
    /// to `t`. Used by the feedback-control sampling loop.
    fn run_until(&mut self, t: f64) {
        while let Some((time, who)) = self.next_event() {
            if time > t {
                break;
            }
            let _ = self.dispatch(time, who);
        }
        self.clock = self.clock.max(t);
    }

    /// Runs until the pool, backoff queue and all workers are empty,
    /// returning the report.
    fn run_to_completion(&mut self) -> ExecutionReport {
        while self.step().is_some() {}
        ExecutionReport {
            completed: self.master.completed().to_vec(),
            makespan: self.clock,
            faults: self.master.stats(),
        }
    }

    /// Schedules a worker eviction at virtual time `t` — the HTCondor
    /// failure mode: the pool reclaims a machine, the worker vanishes,
    /// and its in-flight task (if any) is lost and must be re-queued.
    /// Evictions target the busiest worker at the eviction instant; with
    /// all workers idle, an idle worker leaves instead. Evictions
    /// scheduled in the past fire immediately on the next event step.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is finite and non-negative.
    fn schedule_eviction(&mut self, t: f64) {
        self.master.schedule_eviction(t);
    }

    /// Installs a deterministic fault-injection schedule.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`FaultPlan::validate`]).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.master.set_plan(plan);
    }

    /// Sets the retry/backoff policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`RetryPolicy::validate`]).
    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.master.set_retry(retry);
    }

    fn retries(&self) -> u64 {
        self.master.retries()
    }

    fn fault_stats(&self) -> FaultStats {
        self.master.stats()
    }

    fn failed(&self) -> Vec<FailedTask> {
        self.master.failed().to_vec()
    }

    fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.master.set_recorder(recorder);
    }

    fn backend_name(&self) -> &'static str {
        "des"
    }
}

impl<R> JobBackend<R> for DesEngine<R> {
    /// Submits a task whose payload runs when the simulator dispatches
    /// its completion.
    ///
    /// # Errors
    ///
    /// [`SstdError::Backend`] when the spec fits no node of the cluster:
    /// the DES has no node churn that could ever place it, so it would
    /// otherwise hang `run_to_completion`.
    fn submit_job(&mut self, spec: TaskSpec, work: TaskPayload<R>) -> Result<TaskId, SstdError> {
        let fits_somewhere =
            self.cluster.nodes().iter().any(|node| spec.requirements().fits_in(node.capacity()));
        if !fits_somewhere {
            return Err(BackendError::new(
                "submit",
                format!(
                    "task requirements {:?} fit no node of the simulated cluster",
                    spec.requirements()
                ),
            )
            .into());
        }
        Ok(self.insert_task(spec, Some(work)))
    }

    fn drain_results(&mut self) -> Vec<(JobId, R)> {
        std::mem::take(&mut self.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceVector;

    fn engine(workers: usize) -> DesEngine {
        job_engine(workers)
    }

    fn job_engine<R>(workers: usize) -> DesEngine<R> {
        DesEngine::new(
            Cluster::homogeneous(workers.max(1), 1.0),
            ExecutionModel::new(0.0, 0.01, 0.01),
            workers,
        )
    }

    #[test]
    fn single_task_timing() {
        let mut des = engine(1);
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        let report = des.run_to_completion();
        assert!((report.makespan - 1.0).abs() < 1e-9);
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].started_at, 0.0);
    }

    #[test]
    fn two_workers_halve_makespan() {
        let mk = |w: usize| {
            let mut des = engine(w);
            for _ in 0..8 {
                des.submit(TaskSpec::new(JobId::new(0), 100.0));
            }
            des.run_to_completion().makespan
        };
        assert!((mk(1) - 8.0).abs() < 1e-9);
        assert!((mk(2) - 4.0).abs() < 1e-9);
        assert!((mk(4) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fast_nodes_finish_first() {
        let cluster = Cluster::new(vec![
            crate::NodeSpec::new(2.0, ResourceVector::new(4, 8192, 10_000)),
            crate::NodeSpec::new(1.0, ResourceVector::new(4, 8192, 10_000)),
        ]);
        let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::new(0.0, 0.01, 0.01), 2);
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        des.submit(TaskSpec::new(JobId::new(1), 100.0));
        let report = des.run_to_completion();
        let times: Vec<f64> = report.completed.iter().map(|c| c.finished_at).collect();
        assert!((times[0] - 0.5).abs() < 1e-9, "fast worker: {times:?}");
        assert!((times[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn priority_job_finishes_earlier() {
        let run = |hi_prio: bool| {
            let mut des = engine(1);
            for _ in 0..10 {
                des.submit(TaskSpec::new(JobId::new(0), 100.0));
                des.submit(TaskSpec::new(JobId::new(1), 100.0));
            }
            if hi_prio {
                des.set_job_priority(JobId::new(0), 8.0);
            }
            let report = des.run_to_completion();
            report.job_completion_times()[&JobId::new(0)]
        };
        assert!(run(true) < run(false), "priority should accelerate job 0");
    }

    #[test]
    fn init_overhead_is_charged_per_task() {
        let cluster = Cluster::homogeneous(1, 1.0);
        let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::new(1.0, 0.0, 0.0), 1);
        for _ in 0..3 {
            des.submit(TaskSpec::new(JobId::new(0), 0.0));
        }
        let report = des.run_to_completion();
        assert!((report.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn elastic_growth_mid_run() {
        let mut des = engine(1);
        for _ in 0..10 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0)); // 1s each
        }
        des.run_until(2.0); // 2 done on 1 worker
        des.set_num_workers(4);
        let report = des.run_to_completion();
        // Remaining 8 tasks on 4 workers: 2 more seconds.
        assert!((report.makespan - 4.0).abs() < 1e-9, "makespan {}", report.makespan);
    }

    #[test]
    fn shrink_drains_gracefully() {
        let mut des = engine(4);
        for _ in 0..8 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        des.set_num_workers(1);
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 8, "no task lost on shrink");
        assert_eq!(des.num_workers(), 1);
    }

    /// Regression: a draining worker whose attempt ended in a transient
    /// fault used to stay behind as an idle slot that a later grow
    /// revived.
    #[test]
    fn drained_workers_are_gone_however_their_attempt_ended() {
        let mut des = engine(2);
        des.set_fault_plan(FaultPlan { transient_rate: 0.5, ..FaultPlan::default() });
        des.set_retry_policy(RetryPolicy { max_attempts: 64, ..RetryPolicy::default() });
        for _ in 0..6 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        des.set_num_workers(1);
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 6);
        assert!(report.faults.transient_failures > 0, "{}", report.faults);
        assert_eq!(des.num_workers(), 1);
        assert_eq!(des.master.slots(), des.num_workers(), "no drained slot lingers");
        // Growing back adds a new worker; it does not revive worker 1.
        des.set_num_workers(2);
        for _ in 0..4 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        let report = des.run_to_completion();
        let late: std::collections::BTreeSet<WorkerId> =
            report.completed[6..].iter().map(|c| c.worker).collect();
        assert!(late.contains(&WorkerId::new(2)) && !late.contains(&WorkerId::new(1)), "{late:?}");
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut des = engine(1);
        des.run_until(5.0);
        assert_eq!(des.now(), 5.0);
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        let report = des.run_to_completion();
        assert!((report.completed[0].submitted_at - 5.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_task_waits_for_fitting_node() {
        let cluster = Cluster::new(vec![
            crate::NodeSpec::new(1.0, ResourceVector::new(1, 256, 100)),
            crate::NodeSpec::new(1.0, ResourceVector::new(16, 65_536, 100_000)),
        ]);
        let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::new(0.0, 0.01, 0.01), 2);
        // Needs the big node.
        des.submit(
            TaskSpec::new(JobId::new(0), 100.0)
                .with_requirements(ResourceVector::new(8, 32_768, 1_000)),
        );
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].worker.index() % 2, 1, "ran on the big node");
    }

    #[test]
    fn deadlines_recorded() {
        let mut des = engine(1);
        des.submit(TaskSpec::new(JobId::new(0), 100.0).with_deadline(0.5)); // 1s task, misses
        des.submit(TaskSpec::new(JobId::new(0), 100.0).with_deadline(10.0)); // hits
        let report = des.run_to_completion();
        assert!((report.deadline_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn payloads_run_once_per_completion_despite_faults() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let mut des: DesEngine<u32> = job_engine(2);
        des.set_fault_plan(FaultPlan { seed: 11, transient_rate: 0.3, ..FaultPlan::default() });
        des.set_retry_policy(RetryPolicy::default());
        let calls = Arc::new(AtomicU32::new(0));
        for i in 0..20u32 {
            let calls = Arc::clone(&calls);
            des.submit_job(
                TaskSpec::new(JobId::new(i % 2), 100.0),
                Arc::new(move || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                }),
            )
            .expect("spec fits the cluster");
        }
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 20);
        assert!(report.faults.transient_failures > 0, "{}", report.faults);
        let results = des.drain_results();
        assert_eq!(results.len(), 20);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            20,
            "payloads run once per completion, not per attempt"
        );
        let in_completion_order: Vec<JobId> = report.completed.iter().map(|c| c.job).collect();
        assert_eq!(results.iter().map(|&(job, _)| job).collect::<Vec<_>>(), in_completion_order);
        assert_eq!(des.backend_name(), "des");
    }

    #[test]
    fn results_follow_incremental_run_until() {
        let mut des: DesEngine<u32> = job_engine(1);
        for i in 0..4u32 {
            des.submit_job(TaskSpec::new(JobId::new(0), 100.0), std::sync::Arc::new(move || i))
                .expect("spec fits the cluster");
        }
        des.run_until(2.5); // 1s per task on one worker: 2 done
        assert_eq!(des.drain_results(), vec![(JobId::new(0), 0), (JobId::new(0), 1)]);
        let _ = des.run_to_completion();
        assert_eq!(des.drain_results().len(), 2, "the remaining two ran");
    }

    #[test]
    fn oversized_submissions_are_refused_not_stranded() {
        let mut des: DesEngine<u32> = job_engine(2);
        let spec = TaskSpec::new(JobId::new(0), 100.0).with_requirements(ResourceVector::new(
            1024,
            u64::MAX,
            u64::MAX,
        ));
        let err =
            des.submit_job(spec, std::sync::Arc::new(|| 1)).expect_err("no node can fit this");
        assert!(err.as_backend().is_some(), "{err}");
        assert!(err.to_string().contains("fit no node"), "{err}");
        // The engine stays usable for sane work.
        des.submit_job(TaskSpec::new(JobId::new(0), 100.0), std::sync::Arc::new(|| 2))
            .expect("normal spec fits");
        assert_eq!(des.run_to_completion().completed.len(), 1);
        assert_eq!(des.drain_results(), vec![(JobId::new(0), 2)]);
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;

    fn engine(workers: usize) -> DesEngine {
        DesEngine::new(
            Cluster::homogeneous(workers.max(1), 1.0),
            ExecutionModel::new(0.0, 0.01, 0.01),
            workers,
        )
    }

    #[test]
    fn eviction_requeues_the_running_task() {
        let mut des = engine(1);
        des.submit(TaskSpec::new(JobId::new(0), 100.0)); // 1s task
        des.schedule_eviction(0.5);
        des.set_num_workers(2); // replacement capacity arrives
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 1, "no task lost");
        assert_eq!(des.retries(), 1);
        // The task restarted from scratch after the eviction.
        assert!(report.makespan >= 1.5 - 1e-9, "makespan {}", report.makespan);
        // Latency is measured from the original submission.
        assert!((report.completed[0].submitted_at - 0.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_preserves_task_identity() {
        let mut des = engine(1);
        let id = des.submit(TaskSpec::new(JobId::new(0), 100.0));
        des.schedule_eviction(0.5);
        des.set_num_workers(2);
        let report = des.run_to_completion();
        assert_eq!(report.completed[0].task, id, "requeue keeps the original id");
        // The interrupted attempt is accounted as a crash failure.
        assert_eq!(report.faults.crash_failures, 1);
        assert!(report.faults.reconciles(), "{}", report.faults);
    }

    #[test]
    fn eviction_of_idle_worker_shrinks_the_pool() {
        let mut des = engine(3);
        des.schedule_eviction(0.5);
        des.run_until(1.0); // fires while every worker is idle
        assert_eq!(des.num_workers(), 2);
        assert_eq!(des.retries(), 0, "idle eviction interrupts nothing");
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 1);
    }

    #[test]
    fn run_until_fires_due_evictions() {
        let mut des = engine(2);
        des.submit(TaskSpec::new(JobId::new(0), 10_000.0)); // 100s task
        des.schedule_eviction(1.0);
        des.run_until(2.0);
        assert_eq!(des.num_workers(), 1, "eviction inside the window fired");
        assert_eq!(des.retries(), 1);
        assert_eq!(des.now(), 2.0);
    }

    #[test]
    fn eviction_targets_the_longest_running_task() {
        let mut des = engine(2);
        let a = des.submit(TaskSpec::new(JobId::new(0), 1_000.0)); // 10s, starts at 0
        des.run_until(0.5);
        let b = des.submit(TaskSpec::new(JobId::new(1), 1_000.0)); // starts at 0.5
        des.schedule_eviction(1.0);
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 2);
        // Task `a` (earliest start) was interrupted; `b` ran through.
        let b_done = report.completed.iter().find(|c| c.job == JobId::new(1)).unwrap();
        assert!((b_done.finished_at - 10.5).abs() < 1e-9, "b at {}", b_done.finished_at);
        let _ = (a, b);
    }

    #[test]
    fn losing_every_worker_strands_pending_tasks() {
        let mut des = engine(1);
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        des.schedule_eviction(0.2);
        let report = des.run_to_completion();
        // The cluster died: nothing completes, tasks remain queued.
        assert!(report.completed.is_empty());
        assert_eq!(des.pending(), 2);
        // Capacity returns → work drains.
        des.set_num_workers(1);
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 2);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::event_log_tests::Tape;
    use super::*;
    use std::sync::Arc;

    fn engine(workers: usize) -> DesEngine {
        DesEngine::new(
            Cluster::homogeneous(workers.max(1), 1.0),
            ExecutionModel::new(0.0, 0.01, 0.01),
            workers,
        )
    }

    #[test]
    #[should_panic(
        expected = "invalid fault plan: invalid `crash_rate`: combined fault rates must not exceed 1"
    )]
    fn an_invalid_fault_plan_is_refused() {
        engine(1).set_fault_plan(FaultPlan {
            transient_rate: 0.7,
            crash_rate: 0.5,
            ..FaultPlan::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid retry policy: invalid `max_attempts`")]
    fn an_invalid_retry_policy_is_refused() {
        engine(1).set_retry_policy(RetryPolicy { max_attempts: 0, ..RetryPolicy::default() });
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        let mut des = engine(2);
        des.set_fault_plan(FaultPlan { seed: 11, transient_rate: 0.3, ..FaultPlan::default() });
        for i in 0..30 {
            des.submit(TaskSpec::new(JobId::new(i % 3), 100.0));
        }
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 30, "faulted tasks are retried, not lost");
        let stats = report.faults;
        assert!(stats.transient_failures > 0, "the plan injected faults: {stats}");
        assert!(stats.reconciles(), "{stats}");
        assert!(stats.wasted_time > 0.0);
        assert_eq!(stats.successes, 30);
        assert!(des.retries() >= stats.transient_failures);
    }

    #[test]
    fn backoff_delays_the_retry() {
        let mut des = engine(1);
        // Rate 1 on attempt 0 only is impossible to express directly, so
        // use a plan where the first task faults (seed chosen by search
        // is fragile — instead assert the general property: any faulted
        // run's completions all land after the pure-compute makespan).
        des.set_fault_plan(FaultPlan { seed: 5, transient_rate: 0.5, ..FaultPlan::default() });
        des.set_retry_policy(RetryPolicy {
            backoff_base: 0.5,
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        for _ in 0..10 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0)); // 1s each
        }
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 10);
        let faults = report.faults.transient_failures;
        assert!(faults > 0, "rate 0.5 over 10 tasks must fault: {}", report.faults);
        // Each fault burns fail_point × 1s of worker time; on a single
        // worker that waste is serial, so it adds straight to the
        // makespan. (Backoff delays only the faulted task — the worker
        // runs other tasks meanwhile — so it is not additive here.)
        let wasted = report.faults.wasted_time;
        assert!((wasted - 0.5 * faults as f64).abs() < 1e-9, "wasted {wasted} for {faults} faults");
        assert!(
            report.makespan > 10.0 + wasted - 1e-9,
            "makespan {} with {} faults",
            report.makespan,
            faults
        );
    }

    #[test]
    fn certain_faults_exhaust_the_retry_budget() {
        let mut des = engine(2);
        des.set_fault_plan(FaultPlan { seed: 3, transient_rate: 1.0, ..FaultPlan::default() });
        des.set_retry_policy(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
        for _ in 0..5 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        let report = des.run_to_completion();
        assert!(report.completed.is_empty(), "every attempt faults");
        assert_eq!(des.failed().len(), 5, "all tasks reported failed");
        let stats = report.faults;
        assert_eq!(stats.exhausted_tasks, 5);
        assert_eq!(stats.attempts, 15, "exactly max_attempts per task");
        assert!(stats.reconciles(), "{stats}");
        for f in des.failed() {
            assert_eq!(f.attempts, 3);
            assert!(f.error.contains("exhausted"));
        }
    }

    #[test]
    fn worker_crashes_respawn_and_the_work_survives() {
        let mut des = engine(3);
        des.set_fault_plan(FaultPlan {
            seed: 9,
            crash_rate: 0.2,
            worker_restart_delay: 0.5,
            ..FaultPlan::default()
        });
        for i in 0..24 {
            des.submit(TaskSpec::new(JobId::new(i % 2), 100.0));
        }
        let report = des.run_to_completion();
        assert_eq!(report.completed.len(), 24, "crashes never lose tasks");
        let stats = report.faults;
        assert!(stats.crash_failures > 0, "the plan injected crashes: {stats}");
        assert!(stats.reconciles(), "{stats}");
        // One respawn per crash: with every timer fired, the pool is
        // back at full strength.
        assert_eq!(des.num_workers(), 3);
    }

    #[test]
    fn fault_runs_replay_byte_for_byte() {
        let run = || {
            let mut des = engine(3);
            des.set_fault_plan(FaultPlan {
                seed: 77,
                transient_rate: 0.15,
                crash_rate: 0.05,
                ..FaultPlan::default()
            });
            des.schedule_eviction(2.0);
            let tape = Arc::new(Tape::default());
            des.set_recorder(Some(tape.clone()));
            for i in 0..25 {
                des.submit(TaskSpec::new(JobId::new(i % 3), 120.0));
            }
            let report = des.run_to_completion();
            (format!("{:?}", tape.events()), format!("{report:?}"), des.retries())
        };
        let (events_a, report_a, retries_a) = run();
        let (events_b, report_b, retries_b) = run();
        assert_eq!(events_a, events_b, "event logs must be identical");
        assert_eq!(report_a, report_b, "reports must be identical");
        assert_eq!(retries_a, retries_b);
    }

    #[test]
    fn pending_includes_backoff_queue() {
        let mut des = engine(1);
        des.set_fault_plan(FaultPlan { seed: 5, transient_rate: 1.0, ..FaultPlan::default() });
        des.set_retry_policy(RetryPolicy {
            max_attempts: 10,
            backoff_base: 100.0,
            backoff_cap: 100.0,
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        des.submit(TaskSpec::new(JobId::new(0), 100.0));
        // Step to the first fault: the task sits in the backoff queue.
        des.run_until(1.0);
        assert_eq!(des.pending(), 1, "backing-off task still counts as pending");
        assert_eq!(des.pending_of(JobId::new(0)), 1);
        assert_eq!(des.running(), 0);
    }
}

#[cfg(test)]
mod event_log_tests {
    use super::*;
    use crate::telemetry::{LossCause, Recorder, TaskPhase, TimelineEvent};
    use std::sync::{Arc, Mutex};

    /// A recorder that keeps every event, in order.
    #[derive(Debug, Default)]
    pub(super) struct Tape(Mutex<Vec<TimelineEvent>>);

    impl Tape {
        pub(super) fn events(&self) -> Vec<TimelineEvent> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Recorder for Tape {
        fn record(&self, event: &TimelineEvent) {
            self.0.lock().unwrap().push(*event);
        }
    }

    fn taped(workers: usize, model: ExecutionModel) -> (DesEngine, Arc<Tape>) {
        let mut des: DesEngine = DesEngine::new(Cluster::homogeneous(workers, 1.0), model, workers);
        let tape = Arc::new(Tape::default());
        des.set_recorder(Some(tape.clone()));
        (des, tape)
    }

    #[test]
    fn starts_precede_completions_per_task() {
        let (mut des, tape) = taped(2, ExecutionModel::new(0.0, 0.01, 0.01));
        for _ in 0..6 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        let _ = des.run_to_completion();
        let mut started = std::collections::BTreeSet::new();
        let mut completed = 0;
        for e in tape.events() {
            match e.phase {
                TaskPhase::Dispatched => {
                    started.insert(e.task);
                }
                TaskPhase::Completed => {
                    assert!(started.contains(&e.task), "completion before start for {}", e.task);
                    completed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(completed, 6);
    }

    #[test]
    fn evictions_appear_in_the_log() {
        let (mut des, tape) = taped(2, ExecutionModel::new(0.0, 0.01, 0.01));
        des.submit(TaskSpec::new(JobId::new(0), 1_000.0));
        des.schedule_eviction(1.0);
        let report = des.run_to_completion();
        let evictions: Vec<TimelineEvent> = tape
            .events()
            .into_iter()
            .filter(|e| e.phase == TaskPhase::Failed(LossCause::Evicted))
            .collect();
        assert_eq!(evictions.len(), 1);
        assert!(evictions[0].worker.is_some(), "busy worker was interrupted");
        assert!((evictions[0].at - 1.0).abs() < 1e-9);
        assert_eq!(report.faults.crash_failures, 1, "{}", report.faults);
    }

    #[test]
    fn event_times_are_monotone() {
        let (mut des, tape) = taped(3, ExecutionModel::default());
        for i in 0..9 {
            des.submit(TaskSpec::new(JobId::new(i % 2), 50.0 * f64::from(i + 1)));
        }
        let _ = des.run_to_completion();
        let times: Vec<f64> = tape.events().iter().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{times:?}");
    }

    #[test]
    fn fault_events_carry_attempt_numbers() {
        let (mut des, tape) = taped(2, ExecutionModel::new(0.0, 0.01, 0.01));
        des.set_fault_plan(FaultPlan { seed: 13, transient_rate: 0.5, ..FaultPlan::default() });
        for _ in 0..10 {
            des.submit(TaskSpec::new(JobId::new(0), 100.0));
        }
        let _ = des.run_to_completion();
        let mut seen_fault = false;
        for e in tape.events().iter().filter(|e| e.phase.is_failure()) {
            seen_fault = true;
            assert_eq!(e.phase, TaskPhase::Failed(LossCause::Transient));
            assert!(e.attempt < RetryPolicy::default().max_attempts);
        }
        assert!(seen_fault, "rate 0.5 over 10 tasks should fault somewhere");
    }
}
