//! A Work Queue / HTCondor–style distributed execution substrate
//! (paper §IV).
//!
//! The SSTD system runs truth-discovery (TD) jobs as bags of tasks on an
//! elastic worker pool scheduled over a heterogeneous cluster. This crate
//! reproduces that machinery:
//!
//! - [`NodeSpec`] / [`Cluster`] — the HTCondor pool model: machines with
//!   per-node resource capacities and speed factors;
//! - [`TaskSpec`] / [`JobId`] — TD jobs split into tasks with data sizes,
//!   resource requirements and job priorities (the paper's
//!   `P_u = T_u / ΣT` Local Control Knob);
//! - [`TaskPool`] — deterministic stride scheduling proportional to job
//!   priority ("each task has the same probability of being processed by
//!   the worker", weighted by job priority);
//! - [`ExecutionModel`] — the execution-time and WCET model of paper
//!   Eq. 10–12 (`ET = TI + D·θ₁`, `WCET ≈ D·θ₂ / (WK·P_u)`);
//! - [`DesEngine`] — a discrete-event simulation backend with a virtual
//!   clock. The paper evaluates on a 1,900-machine HTCondor pool; the DES
//!   reproduces its queueing/scheduling dynamics deterministically on one
//!   machine (see DESIGN.md §3 for the substitution argument);
//! - [`ThreadedEngine`] — the real master/worker backend on OS threads:
//!   the same lifecycle state machine executing real closures;
//! - [`FaultPlan`] / [`RetryPolicy`] — a unified fault model shared by
//!   both backends: seeded deterministic injection of transient failures
//!   and worker crashes, scheduled evictions, and retry with exponential
//!   backoff, with [`FaultStats`] accounting that always reconciles (see
//!   DESIGN.md "Fault model & recovery"). Each is public fields over
//!   `Default`, checked by its `validate()` where an engine takes it;
//! - one task-lifecycle state machine (`sched.rs`, crate-private) that
//!   both engines drive — the ready queue, retries and backoff,
//!   evictions, respawns, the elastic pool and the fault accounting exist
//!   exactly once; an engine supplies only its clock and its way of
//!   executing an attempt;
//! - [`ExecutionBackend`] / [`JobBackend`] — the unified substrate traits
//!   every layer above the runtime programs against, and the engines' only
//!   surface for submitting, tuning, driving and draining: both engines
//!   carry real task payloads, the DES running each once when it
//!   dispatches the task's completion.
//!
//! # Examples
//!
//! Simulate four workers executing two jobs with different priorities:
//!
//! ```
//! use sstd_runtime::{Cluster, DesEngine, ExecutionBackend, ExecutionModel, JobId, TaskSpec};
//!
//! let cluster = Cluster::homogeneous(4, 1.0);
//! let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::default(), 4);
//! for i in 0..8 {
//!     des.submit(TaskSpec::new(JobId::new(i % 2), 100.0));
//! }
//! des.set_job_priority(JobId::new(0), 3.0);
//! let report = des.run_to_completion();
//! assert_eq!(report.completed.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod backend;
mod cluster;
mod des;
mod fault;
mod ids;
mod pool;
mod report;
mod resources;
mod sched;
mod task;
pub mod telemetry;
mod threaded;
mod wcet;

pub use backend::{ExecutionBackend, JobBackend, TaskPayload};
pub use cluster::{Cluster, NodeSpec};
pub use des::DesEngine;
pub use fault::{FailedTask, FaultKind, FaultPlan, FaultStats, IngestFault, RetryPolicy};
pub use ids::{JobId, TaskId, WorkerId};
pub use pool::TaskPool;
pub use report::{CompletedTask, ExecutionReport};
pub use resources::ResourceVector;
pub use task::TaskSpec;
pub use telemetry::{LossCause, Recorder, SharedRecorder, TaskPhase, TimelineEvent};
pub use threaded::ThreadedEngine;
pub use wcet::ExecutionModel;

/// The one-import surface for programming against the execution substrate:
/// the backend traits, both engines, the id/spec vocabulary, the unified
/// fault model, and the timeline-telemetry types.
///
/// # Examples
///
/// ```
/// use sstd_runtime::prelude::*;
///
/// let cluster = Cluster::homogeneous(2, 1.0);
/// let mut des: DesEngine = DesEngine::new(cluster, ExecutionModel::default(), 2);
/// des.set_fault_plan(FaultPlan { seed: 7, transient_rate: 0.1, ..FaultPlan::default() });
/// des.submit(TaskSpec::new(JobId::new(0), 100.0));
/// assert_eq!(des.run_to_completion().completed.len(), 1);
/// ```
pub mod prelude {
    pub use crate::backend::{ExecutionBackend, JobBackend, TaskPayload};
    pub use crate::cluster::{Cluster, NodeSpec};
    pub use crate::des::DesEngine;
    pub use crate::fault::{
        FailedTask, FaultKind, FaultPlan, FaultStats, IngestFault, RetryPolicy,
    };
    pub use crate::ids::{JobId, TaskId, WorkerId};
    pub use crate::report::{CompletedTask, ExecutionReport};
    pub use crate::resources::ResourceVector;
    pub use crate::task::TaskSpec;
    pub use crate::telemetry::{LossCause, Recorder, SharedRecorder, TaskPhase, TimelineEvent};
    pub use crate::threaded::ThreadedEngine;
    pub use crate::wcet::ExecutionModel;
}
