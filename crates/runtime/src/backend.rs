//! The unified execution-substrate abstraction.
//!
//! [`ExecutionBackend`] is the contract shared by the virtual-clock
//! simulator ([`DesEngine`](crate::DesEngine)) and the OS-thread backend
//! ([`crate::ThreadedEngine`]): submit prioritized tasks, tune the fault
//! machinery (plan / retry / evictions / worker count), drive time
//! forward, and drain an [`ExecutionReport`]. Everything above the runtime
//! — the DTM control loop, the evaluation experiments, the benchmarks —
//! is written against this trait, so either backend is a drop-in for the
//! other.
//!
//! [`JobBackend`] extends the contract with *real* work: tasks carry a
//! re-executable closure payload whose results are drained after the run.
//! Each engine keeps its own payload table beside its driver of the task
//! lifecycle: the threaded engine runs a payload on the worker thread
//! that executes each attempt, the DES runs it once, when it
//! dispatches the task's completion. So the claims-as-tasks bridge
//! (`sstd_core::distributed`) runs unchanged on both substrates.
//!
//! The traits are the engines' only surface for these operations: each
//! is defined once per engine, in its trait impl.

use crate::telemetry::SharedRecorder;
use crate::{ExecutionReport, FailedTask, FaultPlan, FaultStats, JobId, TaskId, TaskSpec};
use sstd_types::error::SstdError;
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
/// let cluster = Cluster::homogeneous(2, 1.0);
/// let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::default(), 2);
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

    /// Sets the retry/backoff policy.
    fn set_retry_policy(&mut self, retry: crate::RetryPolicy);

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
    /// successful attempt is collected for [`drain_results`].
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
