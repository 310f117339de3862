//! The execution-time and WCET model of paper Eq. 10–12.

use crate::TaskSpec;

/// Cost model mapping data sizes to execution times.
///
/// - Task execution time (Eq. 10): `ET = TI + D·θ₁`, where `TI` is the
///   per-task initialization time;
/// - Job worst-case execution time (Eq. 12, after the small-task-count
///   simplification): `WCET ≈ D·θ₂ / (WK · P_u)` for a job with data `D`,
///   `WK` workers and priority share `P_u`.
///
/// # Examples
///
/// ```
/// use sstd_runtime::{ExecutionModel, JobId, TaskSpec};
///
/// let m = ExecutionModel::new(0.5, 0.01, 0.012);
/// let t = TaskSpec::new(JobId::new(0), 100.0);
/// assert!((m.task_time(&t) - 1.5).abs() < 1e-12);
/// assert!(m.job_wcet(1000.0, 4, 0.5) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionModel {
    /// Per-task initialization time `TI` (seconds).
    init_time: f64,
    /// Per-data-unit processing cost `θ₁` (seconds/unit).
    theta1: f64,
    /// Per-data-unit cost in the WCET bound `θ₂` (seconds/unit); `θ₂ ≥ θ₁`
    /// because the bound absorbs scheduling and transfer slack.
    theta2: f64,
}

impl Default for ExecutionModel {
    fn default() -> Self {
        Self { init_time: 0.2, theta1: 0.001, theta2: 0.0015 }
    }
}

impl ExecutionModel {
    /// Creates a model from `TI`, `θ₁` and `θ₂`.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are finite and non-negative and
    /// `theta2 >= theta1`.
    #[must_use]
    pub fn new(init_time: f64, theta1: f64, theta2: f64) -> Self {
        assert!(init_time.is_finite() && init_time >= 0.0, "TI must be non-negative");
        assert!(theta1.is_finite() && theta1 >= 0.0, "theta1 must be non-negative");
        assert!(theta2.is_finite() && theta2 >= theta1, "theta2 must be at least theta1");
        Self { init_time, theta1, theta2 }
    }

    /// Per-task initialization time `TI`.
    #[must_use]
    pub const fn init_time(&self) -> f64 {
        self.init_time
    }

    /// Reference execution time of a task (Eq. 10) on a speed-1 worker.
    #[must_use]
    pub fn task_time(&self, task: &TaskSpec) -> f64 {
        self.init_time + task.data_size() * self.theta1
    }

    /// Execution time on a worker with the given speed factor: the
    /// reference time scaled by the worker's speed.
    ///
    /// # Panics
    ///
    /// Panics unless `speed` is positive.
    #[must_use]
    pub fn task_time_on(&self, task: &TaskSpec, speed: f64) -> f64 {
        assert!(speed > 0.0, "worker speed must be positive");
        self.task_time(task) / speed
    }

    /// Worst-case execution time of a whole job (Eq. 12): data volume
    /// `data`, `workers` in the pool, and priority share `priority`
    /// (`P_u ∈ (0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics unless `workers > 0` and `priority ∈ (0, 1]`.
    #[must_use]
    pub fn job_wcet(&self, data: f64, workers: usize, priority: f64) -> f64 {
        assert!(workers > 0, "need at least one worker");
        assert!(priority > 0.0 && priority <= 1.0, "priority share must be in (0, 1]");
        data * self.theta2 / (workers as f64 * priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobId;

    #[test]
    fn eq10_linear_in_data() {
        let m = ExecutionModel::new(1.0, 0.1, 0.1);
        let small = TaskSpec::new(JobId::new(0), 10.0);
        let large = TaskSpec::new(JobId::new(0), 100.0);
        assert!((m.task_time(&small) - 2.0).abs() < 1e-12);
        assert!((m.task_time(&large) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn faster_workers_finish_sooner() {
        let m = ExecutionModel::default();
        let t = TaskSpec::new(JobId::new(0), 1000.0);
        assert!(m.task_time_on(&t, 2.0) < m.task_time_on(&t, 1.0));
        assert!((m.task_time_on(&t, 2.0) * 2.0 - m.task_time(&t)).abs() < 1e-12);
    }

    #[test]
    fn wcet_inverse_in_workers_and_priority() {
        let m = ExecutionModel::default();
        let base = m.job_wcet(10_000.0, 1, 0.5);
        assert!((m.job_wcet(10_000.0, 2, 0.5) - base / 2.0).abs() < 1e-9);
        assert!((m.job_wcet(10_000.0, 1, 1.0) - base / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "theta2")]
    fn theta2_below_theta1_rejected() {
        let _ = ExecutionModel::new(0.0, 0.2, 0.1);
    }

    #[test]
    #[should_panic(expected = "priority share")]
    fn bad_priority_rejected() {
        let _ = ExecutionModel::default().job_wcet(1.0, 1, 0.0);
    }
}
