//! Deadline-driven feedback control (paper §IV-C).
//!
//! The Dynamic Task Manager (DTM) monitors the execution of every
//! truth-discovery job and keeps jobs on schedule with a
//! Proportional–Integral–Derivative controller per job (paper Eq. 9):
//!
//! - the **error** is the gap between a job's predicted finish time (via
//!   the WCET model) and its deadline;
//! - the **Local Control Knob** (LCK) scales the job's priority by `θ₃`
//!   when it falls behind;
//! - the **Global Control Knob** (GCK) scales the worker pool by `θ₄`
//!   when the system as a whole falls behind.
//!
//! The paper's tuned gains (`Kp = 1.2, Ki = 0.3, Kd = 0.2`) and knob
//! factors (`θ₃ = 2, θ₄ = 1.5`) are the defaults of [`DtmConfig`], whose
//! public fields are set by struct literal and checked by
//! [`DtmConfig::validate`] when a run starts.
//!
//! [`IlpAllocator`] implements the paper's §VII-3 future-work idea — an
//! exact integer search over worker counts and priority assignments — as
//! a comparison point for the PID heuristic.
//!
//! # Examples
//!
//! ```
//! use sstd_control::{DtmConfig, DtmJob, DynamicTaskManager};
//! use sstd_runtime::{Cluster, ExecutionModel, JobId};
//!
//! let jobs = vec![
//!     DtmJob::new(JobId::new(0), 4_000.0, 8.0, 4),
//!     DtmJob::new(JobId::new(1), 1_000.0, 12.0, 4),
//! ];
//! // The paper's tuned gains, on a pool that starts at two workers.
//! let config = DtmConfig { initial_workers: 2, max_workers: 16, ..DtmConfig::default() };
//! config.validate().expect("a valid configuration");
//! let mut dtm = DynamicTaskManager::new(
//!     config,
//!     Cluster::homogeneous(8, 1.0),
//!     ExecutionModel::default(),
//! );
//! let outcome = dtm.run(&jobs).expect("valid config");
//! assert_eq!(outcome.report.completed.len(), 8);
//! assert!(!outcome.control.is_empty(), "every sampling epoch is recorded");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod dtm;
mod ilp;
mod knobs;
mod pid;

pub use dtm::{DtmConfig, DtmJob, DtmOutcome, DynamicTaskManager};
pub use ilp::IlpAllocator;
pub use knobs::{GlobalKnob, LocalKnob};
pub use pid::PidController;
pub use sstd_obs::ControlTick;
