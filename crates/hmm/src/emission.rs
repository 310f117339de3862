//! Emission models: how hidden states generate observations.

use crate::mat::Mat;
use sstd_stats::dist::DistError;

/// A per-state observation distribution.
///
/// The SSTD truth model uses [`SymmetricGaussianEmission`] over windowed
/// ACS values; the emission ablation also runs a [`CategoricalEmission`]
/// over binned symbols.
pub trait Emission {
    /// The observation type consumed by [`log_prob`](Emission::log_prob).
    type Obs: Copy;

    /// Number of hidden states this emission model covers.
    fn num_states(&self) -> usize;

    /// Log-probability (density or mass) of observing `obs` in `state`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `state >= num_states()`.
    fn log_prob(&self, state: usize, obs: Self::Obs) -> f64;

    /// Fills the row-major `T×N` log-emission table of a whole sequence:
    /// `table[t * N + state] = log_prob(state, observations[t])`, bit for
    /// bit. Forward–backward asks for the table in this one call so an
    /// implementation can hoist what does not depend on `t`.
    fn log_probs_into(&self, observations: &[Self::Obs], table: &mut [f64]) {
        let rows = table.chunks_exact_mut(self.num_states());
        for (row, &obs) in rows.zip(observations) {
            for (state, slot) in row.iter_mut().enumerate() {
                *slot = self.log_prob(state, obs);
            }
        }
    }
}

/// An [`Emission`] whose parameters can be re-estimated from state
/// posteriors — the M-step contract used by Baum–Welch.
pub trait TrainableEmission: Emission {
    /// Re-estimates parameters from `observations` weighted by the
    /// forward–backward posteriors `gamma[(t, state)]`: one row per
    /// observation, each row summing to 1.
    fn reestimate_gamma(&mut self, observations: &[Self::Obs], gamma: &Mat);
}

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
/// use sstd_hmm::{Emission, SymmetricGaussianEmission};
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
}

impl Emission for SymmetricGaussianEmission {
    type Obs = f64;

    fn num_states(&self) -> usize {
        2
    }

    fn log_prob(&self, state: usize, obs: f64) -> f64 {
        normal_log_pdf(obs, self.mean(state), self.std, self.ln_std)
    }

    fn log_probs_into(&self, observations: &[f64], table: &mut [f64]) {
        for (row, &x) in table.chunks_exact_mut(2).zip(observations) {
            row[0] = normal_log_pdf(x, self.mu, self.std, self.ln_std);
            row[1] = normal_log_pdf(x, -self.mu, self.std, self.ln_std);
        }
    }
}

impl TrainableEmission for SymmetricGaussianEmission {
    fn reestimate_gamma(&mut self, observations: &[f64], gamma: &Mat) {
        if observations.is_empty() {
            return;
        }
        assert_eq!((gamma.rows(), gamma.cols()), (observations.len(), 2));
        let n = observations.len() as f64;
        let rows = || gamma.as_slice().chunks_exact(2).zip(observations);
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

/// Categorical emission: each state emits one of `K` discrete symbols.
///
/// Symbol probabilities are stored flat row-major with the element-wise
/// log table cached at construction, so [`log_prob`](Emission::log_prob)
/// is a table lookup instead of an `ln` per call.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{CategoricalEmission, Emission};
///
/// let e = CategoricalEmission::new(vec![
///     vec![0.9, 0.1],
///     vec![0.2, 0.8],
/// ]).unwrap();
/// assert!(e.log_prob(0, 0) > e.log_prob(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalEmission {
    /// `probs[(state, symbol)]`, each row stochastic.
    probs: Mat,
    /// Cached `ln probs[(state, symbol)]`; refreshed per row whenever the
    /// row is re-estimated.
    log_probs: Mat,
    floor: f64,
}

impl CategoricalEmission {
    /// Probability floor applied after re-estimation so no symbol becomes
    /// impossible (which would make unseen symbols `-∞` forever).
    pub const DEFAULT_FLOOR: f64 = 1e-6;

    /// Creates a categorical emission from per-state symbol probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if rows are empty, ragged, contain negative
    /// values, or do not sum to 1 (within 1e-9).
    pub fn new(probs: Vec<Vec<f64>>) -> Result<Self, DistError> {
        if probs.is_empty() || probs[0].is_empty() {
            return Err(DistError::invalid("categorical", "need ≥1 state and ≥1 symbol"));
        }
        let k = probs[0].len();
        for row in &probs {
            if row.len() != k {
                return Err(DistError::invalid("categorical", "ragged probability rows"));
            }
            if row.iter().any(|&p| !p.is_finite() || p < 0.0) {
                return Err(DistError::invalid("categorical", "probabilities must be in [0,1]"));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(DistError::invalid("categorical", "rows must sum to 1"));
            }
        }
        let probs = Mat::from_rows(&probs);
        let mut log_probs = Mat::zeros(probs.rows(), probs.cols());
        for s in 0..probs.rows() {
            for (d, &p) in log_probs.row_mut(s).iter_mut().zip(probs.row(s)) {
                *d = p.ln();
            }
        }
        Ok(Self { probs, log_probs, floor: Self::DEFAULT_FLOOR })
    }

    /// Number of distinct symbols.
    #[must_use]
    pub fn num_symbols(&self) -> usize {
        self.probs.cols()
    }

    /// Probability of `symbol` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn prob(&self, state: usize, symbol: usize) -> f64 {
        self.probs[(state, symbol)]
    }

    /// Recomputes the cached log row after `probs.row(s)` changed.
    fn refresh_log_row(&mut self, s: usize) {
        let src = self.probs.row(s);
        let dst = self.log_probs.row_mut(s);
        for (d, &p) in dst.iter_mut().zip(src) {
            *d = p.ln();
        }
    }
}

impl Emission for CategoricalEmission {
    type Obs = usize;

    fn num_states(&self) -> usize {
        self.probs.rows()
    }

    fn log_prob(&self, state: usize, obs: usize) -> f64 {
        assert!(obs < self.num_symbols(), "symbol {obs} out of range");
        self.log_probs[(state, obs)]
    }
}

impl TrainableEmission for CategoricalEmission {
    /// Accumulates into each row in place, floors, renormalizes and
    /// refreshes the log cache.
    fn reestimate_gamma(&mut self, observations: &[usize], gamma: &Mat) {
        assert_eq!((gamma.rows(), gamma.cols()), (observations.len(), self.probs.rows()));
        let n = self.probs.rows();
        for s in 0..n {
            let g = || gamma.as_slice().chunks_exact(n).map(|row| row[s]);
            let weight: f64 = g().sum();
            if weight <= f64::EPSILON {
                continue;
            }
            let row = self.probs.row_mut(s);
            row.fill(0.0);
            for (g, &o) in g().zip(observations) {
                row[o] += g;
            }
            // Floor and renormalize.
            let mut total = 0.0;
            for p in row.iter_mut() {
                *p = (*p / weight).max(self.floor);
                total += *p;
            }
            for p in row.iter_mut() {
                *p /= total;
            }
            self.refresh_log_row(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_validates_rows() {
        assert!(CategoricalEmission::new(vec![]).is_err());
        assert!(CategoricalEmission::new(vec![vec![0.5, 0.6]]).is_err());
        assert!(CategoricalEmission::new(vec![vec![0.5, 0.5], vec![1.0]]).is_err());
        assert!(CategoricalEmission::new(vec![vec![-0.1, 1.1]]).is_err());
    }

    #[test]
    fn categorical_log_prob() {
        let e = CategoricalEmission::new(vec![vec![0.25, 0.75]]).unwrap();
        assert!((e.log_prob(0, 1) - 0.75f64.ln()).abs() < 1e-12);
        assert_eq!(e.num_symbols(), 2);
        assert_eq!(e.prob(0, 0), 0.25);
    }

    #[test]
    fn categorical_log_prob_is_cached_ln_of_prob() {
        let mut e =
            CategoricalEmission::new(vec![vec![0.7, 0.2, 0.1], vec![0.1, 0.1, 0.8]]).unwrap();
        for s in 0..2 {
            for k in 0..3 {
                assert_eq!(e.log_prob(s, k), e.prob(s, k).ln(), "({s},{k})");
            }
        }
        // The cache must track re-estimation too.
        e.reestimate_gamma(&[0, 0, 2], &Mat::from_rows(&vec![vec![0.9, 0.1]; 3]));
        for s in 0..2 {
            for k in 0..3 {
                assert_eq!(e.log_prob(s, k), e.prob(s, k).ln(), "post-reestimate ({s},{k})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn categorical_rejects_unknown_symbol() {
        let e = CategoricalEmission::new(vec![vec![1.0]]).unwrap();
        let _ = e.log_prob(0, 5);
    }

    #[test]
    fn categorical_reestimate_floors_unseen_symbols() {
        let mut e = CategoricalEmission::new(vec![vec![0.5, 0.5]]).unwrap();
        let obs = vec![0, 0, 0];
        let post = vec![vec![1.0]; 3];
        e.reestimate_gamma(&obs, &Mat::from_rows(&post));
        assert!(e.prob(0, 1) > 0.0, "unseen symbol keeps floor probability");
        let sum: f64 = (0..2).map(|k| e.prob(0, k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod symmetric_tests {
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
    fn reestimate_recovers_separation_under_hard_assignment() {
        let mut e = SymmetricGaussianEmission::new(1.0, 1.0).unwrap();
        let obs = vec![5.0, 5.2, -4.8, -5.4];
        let post = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 1.0]];
        e.reestimate_gamma(&obs, &Mat::from_rows(&post));
        assert!((e.mu() - 5.1).abs() < 0.01, "mu = {}", e.mu());
        assert!(e.std() >= SymmetricGaussianEmission::DEFAULT_MIN_STD);
    }

    #[test]
    fn reestimate_keeps_states_mirrored() {
        let mut e = SymmetricGaussianEmission::new(1.0, 1.0).unwrap();
        let obs = vec![2.0, -2.0, 3.0];
        let post = vec![vec![0.7, 0.3], vec![0.2, 0.8], vec![0.9, 0.1]];
        e.reestimate_gamma(&obs, &Mat::from_rows(&post));
        assert!((e.mean(0) + e.mean(1)).abs() < 1e-12);
    }

    #[test]
    fn empty_reestimate_is_noop() {
        let mut e = SymmetricGaussianEmission::new(1.5, 0.7).unwrap();
        let before = e.clone();
        e.reestimate_gamma(&[], &Mat::new());
        assert_eq!(e, before);
    }

    #[test]
    fn log_prob_prefers_own_mean() {
        let e = SymmetricGaussianEmission::new(1.0, 0.5).unwrap();
        assert!(e.log_prob(0, 1.0) > e.log_prob(0, -1.0));
        assert!(e.log_prob(1, -1.0) > e.log_prob(1, 1.0));
        assert_eq!(e.num_states(), 2);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SymmetricGaussianEmission::new(f64::NAN, 1.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, 0.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, -1.0).is_err());
        assert!(SymmetricGaussianEmission::new(1.0, f64::INFINITY).is_err());
    }
}
