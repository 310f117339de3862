//! The HMM parameter container `λ = (A, B, π)` (paper §III-C).

use crate::emission::Emission;
use crate::mat::Mat;
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

/// A hidden Markov model `λ = (A, B, π)` with `N` hidden states and a
/// pluggable emission model `B`.
///
/// Invariants enforced at construction:
/// - `π` is a probability vector of length `N`;
/// - `A` is an `N×N` row-stochastic matrix;
/// - the emission model covers exactly `N` states.
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
/// assert_eq!(hmm.num_states(), 2);
/// # Ok::<(), sstd_hmm::HmmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm<E> {
    init: Vec<f64>,
    /// Transition matrix `A`, flat row-major (`N×N`).
    trans: Mat,
    /// Cached `ln A[i][j]` — the quantity the Viterbi recurrences
    /// actually consume; recomputed whenever `trans` changes.
    log_trans: Mat,
    emission: E,
}

impl<E: Emission> Hmm<E> {
    /// Creates and validates an HMM.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError`] if the shapes disagree, any probability is
    /// negative/non-finite, or any row does not sum to 1 (within 1e-9).
    pub fn new(init: Vec<f64>, trans: Vec<Vec<f64>>, emission: E) -> Result<Self, HmmError> {
        let n = emission.num_states();
        if n == 0 {
            return Err(HmmError::new("emission model has zero states"));
        }
        if init.len() != n {
            return Err(HmmError::new(format!(
                "initial distribution has {} entries, emission has {n} states",
                init.len()
            )));
        }
        Self::check_stochastic("initial distribution", &init)?;
        if trans.len() != n {
            return Err(HmmError::new(format!(
                "transition matrix has {} rows, expected {n}",
                trans.len()
            )));
        }
        for (i, row) in trans.iter().enumerate() {
            if row.len() != n {
                return Err(HmmError::new(format!("transition row {i} has wrong length")));
            }
            Self::check_stochastic(format_args!("transition row {i}"), row)?;
        }
        let trans = Mat::from_rows(&trans);
        let mut model = Self { init, trans, log_trans: Mat::new(), emission };
        model.refresh_log_trans();
        Ok(model)
    }

    /// Recomputes the cached `ln A` table from `trans` (no allocation once
    /// the table holds `N×N` entries).
    pub(crate) fn refresh_log_trans(&mut self) {
        let n = self.trans.rows();
        self.log_trans.resize(n, n);
        for i in 0..n {
            let src = self.trans.row(i);
            let dst = self.log_trans.row_mut(i);
            for (d, &p) in dst.iter_mut().zip(src) {
                *d = p.ln();
            }
        }
    }

    /// Hands the trainer simultaneous mutable access to `(π, A, B)` for
    /// the in-place M-step. The caller must keep every row stochastic and
    /// call [`refresh_log_trans`](Self::refresh_log_trans) afterwards.
    pub(crate) fn m_step_mut(&mut self) -> (&mut [f64], &mut Mat, &mut E) {
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

    /// Number of hidden states `N`.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.init.len()
    }

    /// Initial state distribution `π`.
    #[must_use]
    pub fn init(&self) -> &[f64] {
        &self.init
    }

    /// Transition matrix `A` (row-stochastic), stored flat row-major.
    ///
    /// [`Mat::iter`] yields rows as slices, so row-wise consumers keep the
    /// `for row in hmm.trans().iter()` shape they had against nested
    /// vectors.
    #[must_use]
    pub fn trans(&self) -> &Mat {
        &self.trans
    }

    /// Cached element-wise `ln A` — what the log-space decoders consume.
    #[must_use]
    pub fn log_trans(&self) -> &Mat {
        &self.log_trans
    }

    /// Transition probability `A[from][to]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn trans_prob(&self, from: usize, to: usize) -> f64 {
        self.trans[(from, to)]
    }

    /// The emission model `B`.
    #[must_use]
    pub fn emission(&self) -> &E {
        &self.emission
    }

    /// Log-probability of emitting `obs` from `state`.
    #[must_use]
    pub fn log_emit(&self, state: usize, obs: E::Obs) -> f64 {
        self.emission.log_prob(state, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;

    fn emission2() -> SymmetricGaussianEmission {
        SymmetricGaussianEmission::new(1.0, 1.0).unwrap()
    }

    #[test]
    fn valid_model_constructs() {
        let hmm =
            Hmm::new(vec![0.5, 0.5], vec![vec![0.7, 0.3], vec![0.4, 0.6]], emission2()).unwrap();
        assert_eq!(hmm.num_states(), 2);
        assert_eq!(hmm.trans_prob(0, 1), 0.3);
        assert_eq!(hmm.init(), &[0.5, 0.5]);
    }

    #[test]
    fn rejects_wrong_init_length() {
        let err = Hmm::new(vec![1.0], vec![vec![1.0]], emission2()).unwrap_err();
        assert!(err.to_string().contains("initial distribution"));
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
                assert_eq!(hmm.log_trans()[(i, j)], hmm.trans_prob(i, j).ln(), "({i},{j})");
            }
        }
    }
}
