//! The unified execution-substrate abstraction.
//!
//! [`ExecutionBackend`] is the contract shared by the virtual-clock
//! simulator ([`DesEngine`]) and the OS-thread backend
//! ([`crate::ThreadedEngine`]): submit prioritized tasks, tune the fault
//! machinery (plan / retry / fast-abort / worker count), drive time
//! forward, and drain an [`ExecutionReport`]. Everything above the runtime
//! — the DTM control loop, the evaluation experiments, the benchmarks —
//! is written against this trait, so either backend is a drop-in for the
//! other.
//!
//! [`JobBackend`] extends the contract with *real* work: tasks carry a
//! re-executable closure payload whose results are drained after the run.
//! The threaded engine executes payloads natively; [`SimBackend`] adapts
//! the DES by executing each completed task's payload at harvest time, so
//! the claims-as-tasks bridge (`sstd_core::distributed`) runs unchanged on
//! both substrates.

use crate::telemetry::SharedRecorder;
use crate::{
    DesEngine, ExecutionReport, FailedTask, FastAbort, FaultPlan, FaultStats, JobId, TaskId,
    TaskSpec,
};
use sstd_types::error::{BackendError, SstdError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A unit of real work attached to a task. `Fn` (not `FnOnce`) and shared,
/// so a faulted attempt can be re-executed.
pub type TaskPayload<R> = Arc<dyn Fn() -> R + Send + Sync + 'static>;

/// The common surface of an execution substrate: a Work Queue-style
/// master that accepts prioritized tasks, survives faults under a seeded
/// plan, and reports reconciled execution statistics.
///
/// The trait is object-safe: control loops can hold `&mut dyn
/// ExecutionBackend` and drive simulation or real threads identically.
/// Time is backend-native — virtual seconds in the DES, scaled wall-clock
/// seconds in the threaded engine — but the *semantics* of every method
/// match across backends (same retry policy, same fault accounting, same
/// completed-task multiset under a given [`FaultPlan`]).
///
/// # Examples
///
/// ```
/// use sstd_runtime::{Cluster, DesEngine, ExecutionBackend, ExecutionModel, JobId, TaskSpec};
///
/// fn drive(backend: &mut dyn ExecutionBackend) -> usize {
///     for _ in 0..4 {
///         backend.submit(TaskSpec::new(JobId::new(0), 100.0));
///     }
///     backend.set_job_priority(JobId::new(0), 2.0);
///     backend.run_to_completion().completed.len()
/// }
///
/// let mut des = DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
/// assert_eq!(drive(&mut des), 4, "all tasks complete through the trait object");
/// ```
pub trait ExecutionBackend {
    /// Submits a task for execution, returning its identity.
    fn submit(&mut self, spec: TaskSpec) -> TaskId;

    /// Sets a job's priority (Local Control Knob): its share
    /// `P_u = T_u / ΣT` of the workers' next picks, on every backend.
    fn set_job_priority(&mut self, job: JobId, priority: f64);

    /// Elastically resizes the worker pool (Global Control Knob).
    fn set_num_workers(&mut self, n: usize);

    /// Workers currently accepting tasks.
    fn num_workers(&self) -> usize;

    /// Pending (not yet started) tasks, including those waiting out a
    /// retry backoff.
    fn pending(&self) -> usize;

    /// Pending tasks of one job — the progress signal the PID controller
    /// samples.
    fn pending_of(&self, job: JobId) -> usize;

    /// Task attempts currently executing.
    fn running(&self) -> usize;

    /// The backend's current time in backend-native seconds.
    fn now(&self) -> f64;

    /// Drives the backend until its clock reaches `t` (backend-native
    /// seconds), performing any supervision due in the window.
    fn run_until(&mut self, t: f64);

    /// Runs until every submitted task has completed or terminally
    /// failed, returning the execution report.
    fn run_to_completion(&mut self) -> ExecutionReport;

    /// Schedules a worker eviction (HTCondor preemption) at time `t`.
    fn schedule_eviction(&mut self, t: f64);

    /// Installs a deterministic fault-injection schedule.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// Sets the retry/backoff/quarantine policy.
    fn set_retry_policy(&mut self, retry: crate::RetryPolicy);

    /// Enables straggler fast-abort.
    fn set_fast_abort(&mut self, fast_abort: FastAbort);

    /// Tasks re-queued after losing an attempt (any cause).
    fn retries(&self) -> u64;

    /// Failed-attempt accounting for the run so far.
    fn fault_stats(&self) -> FaultStats;

    /// Tasks dropped after exhausting their retry budget.
    fn failed(&self) -> Vec<FailedTask>;

    /// Installs (or, with `None`, removes) a timeline [`Recorder`]: the
    /// backend emits one [`TimelineEvent`] per task-lifecycle step —
    /// queued, dispatched, failed/evicted, exhausted, completed — with
    /// worker ids and backend-native timestamps. Recording defaults to
    /// off and costs one branch per event site when disabled.
    ///
    /// [`Recorder`]: crate::telemetry::Recorder
    /// [`TimelineEvent`]: crate::telemetry::TimelineEvent
    fn set_recorder(&mut self, recorder: Option<SharedRecorder>);

    /// A short human-readable backend label (for experiment output).
    fn backend_name(&self) -> &'static str;
}

/// An [`ExecutionBackend`] whose tasks carry real payloads: each submitted
/// task owns a re-executable closure, and the `(job, result)` pairs of
/// completed tasks are drained after the run. This is the surface the
/// claims-as-tasks bridge builds on.
pub trait JobBackend<R>: ExecutionBackend {
    /// Submits a task whose attempts execute `work`; the result of the
    /// winning attempt is collected for [`drain_results`].
    ///
    /// # Errors
    ///
    /// [`SstdError::Backend`] when the backend cannot honor the
    /// submission — e.g. the spec's resource requirements fit no node of
    /// the simulated cluster, which would otherwise queue the task
    /// forever.
    ///
    /// [`drain_results`]: JobBackend::drain_results
    fn submit_job(&mut self, spec: TaskSpec, work: TaskPayload<R>) -> Result<TaskId, SstdError>;

    /// Drains the `(job, result)` pairs collected so far, in completion
    /// order.
    fn drain_results(&mut self) -> Vec<(JobId, R)>;
}

/// Adapts the [`DesEngine`] into a [`JobBackend`]: scheduling, faults and
/// retries play out under the virtual clock, and each task's payload is
/// executed exactly once — when the simulator records the task's
/// completion — so results match a real run while wasted (faulted)
/// attempts cost only virtual time.
pub struct SimBackend<R> {
    des: DesEngine,
    payloads: BTreeMap<TaskId, TaskPayload<R>>,
    results: Vec<(JobId, R)>,
    /// Index into `des.completed()` up to which payloads have run.
    harvested: usize,
}

impl<R> std::fmt::Debug for SimBackend<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBackend")
            .field("des", &self.des)
            .field("pending_payloads", &self.payloads.len())
            .field("harvested", &self.harvested)
            .finish_non_exhaustive()
    }
}

impl<R> SimBackend<R> {
    /// Wraps a configured simulator.
    #[must_use]
    pub fn new(des: DesEngine) -> Self {
        Self { des, payloads: BTreeMap::new(), results: Vec::new(), harvested: 0 }
    }

    /// The wrapped simulator.
    #[must_use]
    pub const fn des(&self) -> &DesEngine {
        &self.des
    }

    /// Executes the payloads of tasks the simulator completed since the
    /// last harvest, in completion order.
    fn harvest(&mut self) {
        while self.harvested < self.des.completed().len() {
            let done = self.des.completed()[self.harvested];
            self.harvested += 1;
            if let Some(work) = self.payloads.remove(&done.task) {
                self.results.push((done.job, work()));
            }
        }
    }
}

impl<R> ExecutionBackend for SimBackend<R> {
    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.des.submit(spec)
    }
    fn set_job_priority(&mut self, job: JobId, priority: f64) {
        self.des.set_job_priority(job, priority);
    }
    fn set_num_workers(&mut self, n: usize) {
        self.des.set_num_workers(n);
    }
    fn num_workers(&self) -> usize {
        self.des.num_workers()
    }
    fn pending(&self) -> usize {
        self.des.pending()
    }
    fn pending_of(&self, job: JobId) -> usize {
        self.des.pending_of(job)
    }
    fn running(&self) -> usize {
        self.des.running()
    }
    fn now(&self) -> f64 {
        self.des.now()
    }
    fn run_until(&mut self, t: f64) {
        self.des.run_until(t);
        self.harvest();
    }
    fn run_to_completion(&mut self) -> ExecutionReport {
        let report = self.des.run_to_completion();
        self.harvest();
        report
    }
    fn schedule_eviction(&mut self, t: f64) {
        self.des.schedule_eviction(t);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.des.set_fault_plan(plan);
    }
    fn set_retry_policy(&mut self, retry: crate::RetryPolicy) {
        self.des.set_retry_policy(retry);
    }
    fn set_fast_abort(&mut self, fast_abort: FastAbort) {
        self.des.set_fast_abort(fast_abort);
    }
    fn retries(&self) -> u64 {
        self.des.retries()
    }
    fn fault_stats(&self) -> FaultStats {
        self.des.fault_stats()
    }
    fn failed(&self) -> Vec<FailedTask> {
        self.des.failed()
    }
    fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.des.set_recorder(recorder);
    }
    fn backend_name(&self) -> &'static str {
        "des"
    }
}

impl<R> JobBackend<R> for SimBackend<R> {
    fn submit_job(&mut self, spec: TaskSpec, work: TaskPayload<R>) -> Result<TaskId, SstdError> {
        // A spec that fits no node would sit in the pool forever (the DES
        // has no node churn that could ever place it): refuse it up front
        // instead of hanging `run_to_completion`.
        let fits_somewhere = self
            .des
            .cluster()
            .nodes()
            .iter()
            .any(|node| spec.requirements().fits_in(node.capacity()));
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
        let id = self.des.submit(spec);
        self.payloads.insert(id, work);
        Ok(id)
    }

    fn drain_results(&mut self) -> Vec<(JobId, R)> {
        self.harvest();
        std::mem::take(&mut self.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ExecutionModel, RetryPolicy};

    fn des(workers: usize) -> DesEngine {
        DesEngine::new(
            Cluster::homogeneous(workers, 1.0),
            ExecutionModel::new(0.0, 0.01, 0.01),
            workers,
        )
    }

    #[test]
    fn sim_backend_executes_each_payload_exactly_once_despite_faults() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut backend = SimBackend::new(des(2));
        backend.set_fault_plan(FaultPlan::new(11).with_transient_rate(0.3));
        backend.set_retry_policy(RetryPolicy::default());
        let calls = Arc::new(AtomicU32::new(0));
        for i in 0..20u32 {
            let calls = Arc::clone(&calls);
            backend
                .submit_job(
                    TaskSpec::new(JobId::new(i % 2), 100.0),
                    Arc::new(move || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        i
                    }),
                )
                .expect("spec fits the cluster");
        }
        let report = backend.run_to_completion();
        assert_eq!(report.completed.len(), 20);
        assert!(report.faults.transient_failures > 0, "{}", report.faults);
        let results = backend.drain_results();
        assert_eq!(results.len(), 20);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            20,
            "payloads run once per completion, not per attempt"
        );
    }

    #[test]
    fn harvest_follows_incremental_run_until() {
        let mut backend = SimBackend::new(des(1));
        for i in 0..4u32 {
            backend
                .submit_job(TaskSpec::new(JobId::new(0), 100.0), Arc::new(move || i))
                .expect("spec fits the cluster");
        }
        backend.run_until(2.5); // 1s per task on one worker: 2 done
        assert_eq!(backend.drain_results().len(), 2);
        let _ = backend.run_to_completion();
        assert_eq!(backend.drain_results().len(), 2, "remaining two harvested");
    }

    #[test]
    fn oversized_submissions_are_refused_not_stranded() {
        use crate::ResourceVector;
        let mut backend: SimBackend<u32> = SimBackend::new(des(2));
        let spec = TaskSpec::new(JobId::new(0), 100.0).with_requirements(ResourceVector::new(
            1024,
            u64::MAX,
            u64::MAX,
        ));
        let err = backend.submit_job(spec, Arc::new(|| 1)).expect_err("no node can fit this");
        assert!(err.as_backend().is_some(), "{err}");
        assert!(err.to_string().contains("fit no node"), "{err}");
        // The backend stays usable for sane work.
        backend
            .submit_job(TaskSpec::new(JobId::new(0), 100.0), Arc::new(|| 2))
            .expect("normal spec fits");
        assert_eq!(backend.run_to_completion().completed.len(), 1);
    }

    #[test]
    fn backend_names_distinguish_substrates() {
        let backend: SimBackend<()> = SimBackend::new(des(1));
        assert_eq!(backend.backend_name(), "des");
    }
}
