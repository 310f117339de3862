//! The PID controller of paper Eq. 9.

/// The anti-windup clamp on the PID integral term.
const INTEGRAL_LIMIT: f64 = 100.0;

/// A discrete PID controller:
/// `y(k) = Kp·e(k) + Ki·Σ e(k)·Δt + Kd·Δe(k)/Δt`.
///
/// The integral term is clamped to ±100 (anti-windup) so a long period of
/// saturation — e.g. a hopelessly tight deadline — does not poison later
/// control decisions.
///
/// # Examples
///
/// ```
/// use sstd_control::PidController;
///
/// let mut pid = PidController::new(1.2, 0.3, 0.2);
/// let y1 = pid.update(2.0, 1.0);
/// let y2 = pid.update(1.0, 1.0); // error shrinking → derivative negative
/// assert!(y1 > 0.0);
/// assert!(y2 < y1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PidController {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    last_error: Option<f64>,
}

impl PidController {
    /// Creates a controller with the given gains.
    ///
    /// # Panics
    ///
    /// Panics unless every gain is finite and non-negative.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        for (name, g) in [("Kp", kp), ("Ki", ki), ("Kd", kd)] {
            assert!(g.is_finite() && g >= 0.0, "{name} must be finite and non-negative");
        }
        Self { kp, ki, kd, integral: 0.0, last_error: None }
    }

    /// The paper's tuned gains: `Kp = 1.2, Ki = 0.3, Kd = 0.2` (§V-A3).
    #[must_use]
    pub fn paper_tuned() -> Self {
        Self::new(1.2, 0.3, 0.2)
    }

    /// Feeds one error sample taken `dt` seconds after the previous one
    /// and returns the control signal.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is finite and positive.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        self.integral = (self.integral + error * dt).clamp(-INTEGRAL_LIMIT, INTEGRAL_LIMIT);
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        self.kp * error + self.ki * self.integral + self.kd * derivative
    }

    /// Clears all accumulated state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    /// The accumulated integral term (for observability in tests/metrics).
    #[must_use]
    pub const fn integral(&self) -> f64 {
        self.integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_tracks_error() {
        let mut pid = PidController::new(2.0, 0.0, 0.0);
        assert_eq!(pid.update(3.0, 1.0), 6.0);
        assert_eq!(pid.update(-1.5, 1.0), -3.0);
    }

    #[test]
    fn integral_accumulates_persistent_error() {
        let mut pid = PidController::new(0.0, 1.0, 0.0);
        assert_eq!(pid.update(1.0, 1.0), 1.0);
        assert_eq!(pid.update(1.0, 1.0), 2.0);
        assert_eq!(pid.update(1.0, 1.0), 3.0);
    }

    #[test]
    fn integral_is_clamped() {
        let mut pid = PidController::new(0.0, 1.0, 0.0);
        for _ in 0..30 {
            let _ = pid.update(5.0, 1.0);
        }
        assert_eq!(pid.integral(), 100.0);
        for _ in 0..60 {
            let _ = pid.update(-5.0, 1.0);
        }
        assert_eq!(pid.integral(), -100.0);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = PidController::new(0.0, 0.0, 1.0);
        assert_eq!(pid.update(1.0, 1.0), 0.0, "no previous sample");
        assert_eq!(pid.update(3.0, 1.0), 2.0);
        assert_eq!(pid.update(3.0, 0.5), 0.0, "steady error has zero derivative");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = PidController::paper_tuned();
        let _ = pid.update(4.0, 1.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // After reset, the derivative term starts over.
        let y = pid.update(1.0, 1.0);
        assert!((y - (1.2 + 0.3)).abs() < 1e-12);
    }

    #[test]
    fn zero_error_settles_to_zero_signal() {
        let mut pid = PidController::new(1.0, 0.0, 1.0);
        let _ = pid.update(2.0, 1.0);
        let _ = pid.update(0.0, 1.0);
        let y = pid.update(0.0, 1.0);
        assert_eq!(y, 0.0);
    }

    #[test]
    #[should_panic(expected = "Kp must be")]
    fn negative_gain_rejected() {
        let _ = PidController::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let mut pid = PidController::paper_tuned();
        let _ = pid.update(1.0, 0.0);
    }
}
