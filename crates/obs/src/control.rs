//! Control-loop telemetry: the per-PID-tick sample the Dynamic Task
//! Manager records with
//! [`EventStore::record_control`](crate::EventStore::record_control) and
//! readers reduce through [`Query::control`](crate::Query::control).

use sstd_runtime::JobId;

/// One sample of the Dynamic Task Manager's control loop (paper §IV-C):
/// what the PID saw and what it did, for one job at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlTick {
    /// Backend time of the sample (engine seconds).
    pub t: f64,
    /// The job being controlled.
    pub job: JobId,
    /// The setpoint the controller steers toward (the job deadline).
    pub setpoint: f64,
    /// The measured process variable (the WCET-predicted finish time).
    pub measured: f64,
    /// `measured - setpoint`, the PID input: positive when the job is
    /// predicted to miss its deadline.
    pub error: f64,
    /// The raw PID output before actuation clamping.
    pub signal: f64,
    /// The job priority after applying the Local Control Knob.
    pub priority: f64,
    /// The worker-pool size after applying the Global Control Knob.
    pub workers: usize,
    /// Pending tasks of the job after actuation.
    pub pending: usize,
}
