//! The HMM parameter container `λ = (A, B, π)` (paper §III-C).

use crate::emission::SymmetricGaussianEmission;
use std::error::Error;
use std::fmt;

/// Error returned when HMM parameters are malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmmError {
    reason: String,
}

impl HmmError {
    fn new(reason: impl Into<String>) -> Self {
        Self { reason: reason.into() }
    }
}

impl fmt::Display for HmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid HMM parameters: {}", self.reason)
    }
}

impl Error for HmmError {}

/// The two-state truth HMM `λ = (A, B, π)` of paper §III: state 0 is
/// "the claim is true", state 1 "the claim is false", and `B` is a
/// [`SymmetricGaussianEmission`] over ACS values.
///
/// Invariants enforced at construction: `π` is a probability vector of
/// two entries and `A` a row-stochastic `2×2` matrix.
///
/// The type parameter has one value, its default, and only
/// `Hmm<SymmetricGaussianEmission>` has methods; it stays while the
/// frozen benchmark names that type, and goes when the benchmark is
/// re-cut (ROADMAP item 8).
///
/// # Examples
///
/// ```
/// use sstd_hmm::{Hmm, SymmetricGaussianEmission};
///
/// let hmm = Hmm::new(
///     vec![0.6, 0.4],
///     vec![vec![0.95, 0.05], vec![0.10, 0.90]],
///     SymmetricGaussianEmission::new(2.0, 1.0).unwrap(),
/// )?;
/// assert_eq!(hmm.trans()[0][1], 0.05);
/// # Ok::<(), sstd_hmm::HmmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm<E = SymmetricGaussianEmission> {
    init: [f64; 2],
    trans: [[f64; 2]; 2],
    /// Cached `ln A[i][j]` — the quantity the Viterbi recurrences
    /// actually consume; recomputed whenever `trans` changes.
    log_trans: [[f64; 2]; 2],
    emission: E,
}

impl Hmm {
    /// Creates and validates an HMM from a 2-entry `π` and the two rows
    /// of `A`. It takes vectors because the frozen benchmark calls it so;
    /// the signature goes with it when the benchmark is re-cut (ROADMAP
    /// item 8).
    ///
    /// # Errors
    ///
    /// Returns [`HmmError`] unless `π` has two entries and `A` two rows of
    /// two, every probability is finite and non-negative, and each of
    /// them sums to 1 (within 1e-9).
    pub fn new(
        init: Vec<f64>,
        trans: Vec<Vec<f64>>,
        emission: SymmetricGaussianEmission,
    ) -> Result<Self, HmmError> {
        let init: [f64; 2] = init.try_into().map_err(|init: Vec<f64>| {
            HmmError::new(format!("initial distribution has {} entries, expected 2", init.len()))
        })?;
        Self::check_stochastic("initial distribution", &init)?;
        if trans.len() != 2 {
            return Err(HmmError::new(format!(
                "transition matrix has {} rows, expected 2",
                trans.len()
            )));
        }
        let mut rows = [[0.0; 2]; 2];
        for (i, (row, dst)) in trans.iter().zip(&mut rows).enumerate() {
            *dst = row
                .as_slice()
                .try_into()
                .map_err(|_| HmmError::new(format!("transition row {i} has wrong length")))?;
            Self::check_stochastic(format_args!("transition row {i}"), row)?;
        }
        let mut model = Self { init, trans: rows, log_trans: [[0.0; 2]; 2], emission };
        model.refresh_log_trans();
        Ok(model)
    }

    /// Recomputes the cached `ln A` table from `trans`.
    pub(crate) fn refresh_log_trans(&mut self) {
        for (dst, src) in self.log_trans.iter_mut().zip(&self.trans) {
            for (d, &p) in dst.iter_mut().zip(src) {
                *d = p.ln();
            }
        }
    }

    /// Hands the trainer simultaneous mutable access to `(π, A, B)` for
    /// the in-place M-step. The caller must keep every row stochastic and
    /// call [`refresh_log_trans`](Self::refresh_log_trans) afterwards.
    pub(crate) fn m_step_mut(
        &mut self,
    ) -> (&mut [f64; 2], &mut [[f64; 2]; 2], &mut SymmetricGaussianEmission) {
        (&mut self.init, &mut self.trans, &mut self.emission)
    }

    /// `what` is only formatted when the row is rejected: every refit and
    /// every new claim constructs a model, and none of them fails here.
    fn check_stochastic(what: impl fmt::Display, row: &[f64]) -> Result<(), HmmError> {
        if row.iter().any(|&p| !p.is_finite() || p < 0.0) {
            return Err(HmmError::new(format!("{what} has invalid probabilities")));
        }
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(HmmError::new(format!("{what} sums to {sum}, expected 1")));
        }
        Ok(())
    }

    /// Initial state distribution `π`.
    #[must_use]
    pub const fn init(&self) -> &[f64; 2] {
        &self.init
    }

    /// Transition matrix `A` (row-stochastic): `trans()[from][to]`.
    #[must_use]
    pub const fn trans(&self) -> &[[f64; 2]; 2] {
        &self.trans
    }

    /// Cached element-wise `ln A` — what the log-space decoders consume.
    pub(crate) const fn log_trans(&self) -> &[[f64; 2]; 2] {
        &self.log_trans
    }

    /// The emission model `B`.
    #[must_use]
    pub const fn emission(&self) -> &SymmetricGaussianEmission {
        &self.emission
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emission2() -> SymmetricGaussianEmission {
        SymmetricGaussianEmission::new(1.0, 1.0).unwrap()
    }

    #[test]
    fn valid_model_constructs() {
        let hmm =
            Hmm::new(vec![0.5, 0.5], vec![vec![0.7, 0.3], vec![0.4, 0.6]], emission2()).unwrap();
        assert_eq!(hmm.trans()[0][1], 0.3);
        assert_eq!(hmm.init(), &[0.5, 0.5]);
    }

    #[test]
    fn rejects_wrong_init_length() {
        let err = Hmm::new(vec![1.0], vec![vec![1.0]], emission2()).unwrap_err();
        assert!(err.to_string().contains("initial distribution"));
    }

    #[test]
    fn rejects_a_third_state() {
        let third = vec![vec![0.8, 0.1, 0.1]; 3];
        let err = Hmm::new(vec![0.4, 0.3, 0.3], third.clone(), emission2()).unwrap_err();
        assert!(err.to_string().contains("initial distribution has 3 entries"), "{err}");
        let err = Hmm::new(vec![0.5, 0.5], third, emission2()).unwrap_err();
        assert!(err.to_string().contains("3 rows"), "{err}");
    }

    #[test]
    fn rejects_nonstochastic_init() {
        let err = Hmm::new(vec![0.5, 0.6], vec![vec![0.7, 0.3], vec![0.4, 0.6]], emission2())
            .unwrap_err();
        assert!(err.to_string().contains("sums to"));
    }

    #[test]
    fn rejects_nonstochastic_transition_row() {
        let err = Hmm::new(vec![0.5, 0.5], vec![vec![0.7, 0.2], vec![0.4, 0.6]], emission2())
            .unwrap_err();
        assert!(err.to_string().contains("transition row 0"));
    }

    #[test]
    fn rejects_negative_probability() {
        let err = Hmm::new(vec![1.5, -0.5], vec![vec![0.7, 0.3], vec![0.4, 0.6]], emission2())
            .unwrap_err();
        assert!(err.to_string().contains("invalid probabilities"));
    }

    #[test]
    fn rejects_ragged_transition() {
        let err =
            Hmm::new(vec![0.5, 0.5], vec![vec![1.0], vec![0.4, 0.6]], emission2()).unwrap_err();
        assert!(err.to_string().contains("wrong length"));
    }

    #[test]
    fn log_trans_is_cached_elementwise_ln() {
        let hmm =
            Hmm::new(vec![0.5, 0.5], vec![vec![0.7, 0.3], vec![0.4, 0.6]], emission2()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(hmm.log_trans()[i][j], hmm.trans()[i][j].ln(), "({i},{j})");
            }
        }
    }
}
