//! The emission model: how the two hidden states generate ACS values.

use sstd_stats::dist::DistError;

/// `ln N(x; mean, std²)` given `ln_std = std.ln()`: the arithmetic of
/// `sstd_stats::Normal::log_pdf` in its order, with the logarithm taken
/// by the caller. `ln σ` and `½ ln 2π` stay two subtrahends — summing
/// them first rounds differently.
#[inline]
fn normal_log_pdf(x: f64, mean: f64, std: f64, ln_std: f64) -> f64 {
    let z = (x - mean) / std;
    -0.5 * z * z - ln_std - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

/// Sign-symmetric two-state Gaussian emission: state 0 emits
/// `N(+μ, σ²)`, state 1 emits `N(−μ, σ²)` with a shared σ.
///
/// This is the emission model the SSTD truth HMM trains: the constraint
/// encodes the domain semantics (positive aggregated evidence ⇔ the claim
/// is true), so Baum–Welch adapts the evidence *scale* `μ` and noise `σ`
/// without drifting into modeling evidence intensity with both states on
/// the same side of zero — the failure mode of unconstrained 2-state EM
/// on sparse, bursty ACS sequences.
///
/// # Examples
///
/// ```
/// use sstd_hmm::SymmetricGaussianEmission;
///
/// let e = SymmetricGaussianEmission::new(3.0, 1.0).unwrap();
/// assert!(e.log_prob(0, 3.0) > e.log_prob(1, 3.0));
/// assert_eq!(e.log_prob(0, 1.0), e.log_prob(1, -1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricGaussianEmission {
    mu: f64,
    std: f64,
    /// `std.ln()`, kept beside `std` by its two writers so no read takes
    /// a logarithm.
    ln_std: f64,
    min_std: f64,
}

impl SymmetricGaussianEmission {
    /// Default lower bound on the shared standard deviation; stops EM
    /// from shrinking σ to zero on a sequence the two means fit exactly.
    pub const DEFAULT_MIN_STD: f64 = 1e-3;

    /// Creates the emission with separation `±mu` and shared `std`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless `mu` is finite and `std` is finite
    /// and positive.
    pub fn new(mu: f64, std: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::invalid("symmetric-gaussian", "mu must be finite"));
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(DistError::invalid("symmetric-gaussian", "std must be positive"));
        }
        Ok(Self { mu, std, ln_std: std.ln(), min_std: Self::DEFAULT_MIN_STD })
    }

    /// Sets the floor applied to σ during re-estimation.
    ///
    /// # Panics
    ///
    /// Panics unless `min_std` is finite and positive.
    #[must_use]
    pub fn with_min_std(mut self, min_std: f64) -> Self {
        assert!(min_std.is_finite() && min_std > 0.0, "min_std must be positive");
        self.min_std = min_std;
        self
    }

    /// The separation parameter `μ` (state 0 mean; state 1 mean is `−μ`).
    #[must_use]
    pub const fn mu(&self) -> f64 {
        self.mu
    }

    /// The shared standard deviation.
    #[must_use]
    pub const fn std(&self) -> f64 {
        self.std
    }

    /// Mean of a state (`+μ` for state 0, `−μ` for state 1).
    ///
    /// # Panics
    ///
    /// Panics if `state > 1`.
    #[must_use]
    pub fn mean(&self, state: usize) -> f64 {
        match state {
            0 => self.mu,
            1 => -self.mu,
            _ => panic!("symmetric emission has exactly two states"),
        }
    }

    /// Log-density of observing `obs` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state > 1`.
    #[must_use]
    pub fn log_prob(&self, state: usize, obs: f64) -> f64 {
        normal_log_pdf(obs, self.mean(state), self.std, self.ln_std)
    }

    /// Fills one log-emission row per observation:
    /// `table[t][state] = log_prob(state, observations[t])`, bit for bit,
    /// with `ln σ` read once.
    pub(crate) fn log_probs_into(&self, observations: &[f64], table: &mut [[f64; 2]]) {
        for (row, &x) in table.iter_mut().zip(observations) {
            row[0] = normal_log_pdf(x, self.mu, self.std, self.ln_std);
            row[1] = normal_log_pdf(x, -self.mu, self.std, self.ln_std);
        }
    }

    /// Re-estimates `(μ, σ)` from `observations` weighted by the
    /// forward–backward posteriors `gamma[t][state]`: one row per
    /// observation, each row summing to 1. No-op on an empty sequence.
    pub(crate) fn reestimate_gamma(&mut self, observations: &[f64], gamma: &[[f64; 2]]) {
        if observations.is_empty() {
            return;
        }
        assert_eq!(gamma.len(), observations.len());
        let n = observations.len() as f64;
        let rows = || gamma.iter().zip(observations);
        // μ maximizes the constrained likelihood:
        // μ = Σ_t (γ₀(t) − γ₁(t))·x_t / Σ_t (γ₀(t) + γ₁(t)).
        let mu: f64 = rows().map(|(g, &x)| (g[0] - g[1]) * x).sum::<f64>() / n;
        // Shared σ² over both states' residuals.
        let var: f64 = rows()
            .map(|(g, &x)| g[0] * (x - mu) * (x - mu) + g[1] * (x + mu) * (x + mu))
            .sum::<f64>()
            / n;
        self.mu = mu;
        self.std = var.sqrt().max(self.min_std);
        self.ln_std = self.std.ln();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_log_probs_mirror() {
        let e = SymmetricGaussianEmission::new(2.0, 0.5).unwrap();
        for &x in &[-3.0, -0.5, 0.0, 1.0, 4.0] {
            assert!((e.log_prob(0, x) - e.log_prob(1, -x)).abs() < 1e-12);
        }
        assert_eq!(e.log_prob(0, 0.0), e.log_prob(1, 0.0), "zero evidence is neutral");
    }

    #[test]
    fn log_probs_into_is_log_prob_per_state() {
        let e = SymmetricGaussianEmission::new(2.0, 1.5).unwrap();
        let obs = [-3.0, 0.0, 0.5, 4.0];
        let mut table = [[0.0; 2]; 4];
        e.log_probs_into(&obs, &mut table);
        for (row, &x) in table.iter().zip(&obs) {
            assert_eq!(row[0].to_bits(), e.log_prob(0, x).to_bits());
            assert_eq!(row[1].to_bits(), e.log_prob(1, x).to_bits());
        }
    }

    #[test]
    fn reestimate_recovers_separation_under_hard_assignment() {
        let mut e = SymmetricGaussianEmission::new(1.0, 1.0).unwrap();
        let obs = vec![5.0, 5.2, -4.8, -5.4];
        let post = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]];
        e.reestimate_gamma(&obs, &post);
        assert!((e.mu() - 5.1).abs() < 0.01, "mu = {}", e.mu());
        assert!(e.std() >= SymmetricGaussianEmission::DEFAULT_MIN_STD);
    }

    #[test]
    fn reestimate_keeps_states_mirrored() {
        let mut e = SymmetricGaussianEmission::new(1.0, 1.0).unwrap();
        let obs = vec![2.0, -2.0, 3.0];
        let post = [[0.7, 0.3], [0.2, 0.8], [0.9, 0.1]];
        e.reestimate_gamma(&obs, &post);
        assert!((e.mean(0) + e.mean(1)).abs() < 1e-12);
    }

    #[test]
    fn empty_reestimate_is_noop() {
        let mut e = SymmetricGaussianEmission::new(1.5, 0.7).unwrap();
        let before = e.clone();
        e.reestimate_gamma(&[], &[]);
        assert_eq!(e, before);
    }

    #[test]
    fn log_prob_prefers_own_mean() {
        let e = SymmetricGaussianEmission::new(1.0, 0.5).unwrap();
        assert!(e.log_prob(0, 1.0) > e.log_prob(0, -1.0));
        assert!(e.log_prob(1, -1.0) > e.log_prob(1, 1.0));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SymmetricGaussianEmission::new(f64::NAN, 1.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, 0.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, -1.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, f64::INFINITY).is_err());
    }
}
