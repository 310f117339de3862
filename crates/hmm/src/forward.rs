//! Scaled forward–backward inference.
//!
//! This is the E-step machinery behind Baum–Welch: it computes, for a
//! model `λ` and observation sequence `O`, the log-likelihood `ln P(O|λ)`
//! and the per-timestep state posteriors `γ_t(i) = P(s_t = i | O, λ)` and
//! pairwise posteriors `ξ_t(i,j)`.
//!
//! Rabiner-style scaling keeps every quantity in `f64` range for
//! arbitrarily long sequences (raw forward probabilities underflow after a
//! few hundred steps).
//!
//! [`forward_backward_into`] writes every table into a caller-owned
//! [`EmWorkspace`] and allocates nothing once the workspace has warmed up
//! to the sequence shape.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::mat::Mat;
use crate::{Emission, Hmm};

/// Reusable scratch tables for forward–backward and Baum–Welch.
///
/// Holds the emission table, `α`/`β`/`γ` lattices, scale factors and
/// `ξ` accumulators as flat [`Mat`] buffers. The first call at a given
/// `(T, N)` shape sizes them; subsequent calls at the same (or smaller)
/// shape perform **zero heap allocations** — the property the per-claim
/// EM loop and the per-worker task loop rely on.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{forward_backward_into, EmWorkspace, GaussianEmission, Hmm};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     GaussianEmission::new(vec![(5.0, 1.0), (-5.0, 1.0)]).unwrap(),
/// ).unwrap();
/// let mut ws = EmWorkspace::new();
/// let ll = forward_backward_into(&hmm, &[5.0, 5.2, -4.9], &mut ws);
/// assert!(ll < 0.0);
/// assert!(ws.gamma()[(0, 0)] > 0.99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmWorkspace {
    /// Scaled linear-space emission table (`T×N`), each row max-shifted.
    emit: Mat,
    /// Per-timestep max log-emission (the shift restored into the LL).
    logmax: Vec<f64>,
    alpha: Mat,
    beta: Mat,
    gamma: Mat,
    /// Summed pairwise posteriors (`N×N`).
    xi_sum: Mat,
    /// Per-timestep `ξ_t` scratch (`N×N`).
    xi_t: Mat,
    scale: Vec<f64>,
}

impl EmWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// State posteriors of the most recent [`forward_backward_into`]
    /// call (`T×N`): `γ[(t, i)] = P(s_t = i | O, λ)`; each row sums to 1.
    #[must_use]
    pub fn gamma(&self) -> &Mat {
        &self.gamma
    }

    /// Summed pairwise posteriors `Σ_t ξ_t(i,j)` of the most recent
    /// [`forward_backward_into`] call (`N×N`) — exactly the statistic the
    /// Baum–Welch transition update needs. (Keeping only the sum avoids
    /// materializing `T·N²` floats.)
    #[must_use]
    pub fn xi_sum(&self) -> &Mat {
        &self.xi_sum
    }

    /// Sizes every table for a `T`-step, `N`-state problem.
    fn ensure(&mut self, t_len: usize, n: usize) {
        self.emit.resize(t_len, n);
        self.logmax.resize(t_len, 0.0);
        self.alpha.resize(t_len, n);
        self.beta.resize(t_len, n);
        self.gamma.resize(t_len, n);
        self.xi_sum.resize(n, n);
        self.xi_t.resize(n, n);
        self.scale.resize(t_len, 0.0);
    }
}

/// Runs scaled forward–backward on `observations`, storing `γ` and
/// `Σ ξ_t` in `ws` and returning the log-likelihood `ln P(O | λ)`.
///
/// Every table lives in the caller-owned workspace: after the first call
/// at a given sequence shape, the hot path performs no heap allocation at
/// all.
///
/// Returns `0.0` (and a zeroed `ξ` table, an empty `γ`) for an empty
/// observation sequence — the natural neutral element: no evidence.
pub fn forward_backward_into<E: Emission>(
    hmm: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut EmWorkspace,
) -> f64 {
    let n = hmm.num_states();
    let t_len = observations.len();
    ws.ensure(t_len, n);
    ws.xi_sum.fill(0.0);
    if t_len == 0 {
        return 0.0;
    }

    // Emission probabilities are computed once, in linear (scaled) space.
    // Each row is divided by its max to avoid underflow before scaling.
    for (t, &obs) in observations.iter().enumerate() {
        let row = ws.emit.row_mut(t);
        for i in 0..n {
            row[i] = hmm.log_emit(i, obs);
        }
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ws.logmax[t] = max;
        for i in 0..n {
            row[i] = if max.is_finite() { (row[i] - max).exp() } else { 1.0 };
        }
    }

    // Forward pass with per-step scaling.
    {
        let first = ws.alpha.row_mut(0);
        let emit0 = ws.emit.row(0);
        for i in 0..n {
            first[i] = hmm.init()[i] * emit0[i];
        }
        ws.scale[0] = normalize(first);
    }
    for t in 1..t_len {
        let (prev, cur) = ws.alpha.adjacent_rows_mut(t - 1);
        let emit_t = ws.emit.row(t);
        for j in 0..n {
            let mut acc = 0.0;
            for i in 0..n {
                acc += prev[i] * hmm.trans_prob(i, j);
            }
            cur[j] = acc * emit_t[j];
        }
        ws.scale[t] = normalize(cur);
    }

    // Backward pass using the same scale factors.
    ws.beta.row_mut(t_len - 1).fill(1.0);
    for t in (0..t_len - 1).rev() {
        let (cur, next) = ws.beta.adjacent_rows_mut(t);
        let emit_next = ws.emit.row(t + 1);
        let denom = ws.scale[t + 1].max(f64::MIN_POSITIVE);
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += hmm.trans_prob(i, j) * emit_next[j] * next[j];
            }
            cur[i] = acc / denom;
        }
    }

    // Posteriors.
    for t in 0..t_len {
        let g = ws.gamma.row_mut(t);
        let a = ws.alpha.row(t);
        let b = ws.beta.row(t);
        for i in 0..n {
            g[i] = a[i] * b[i];
        }
        normalize(g);
    }

    for t in 0..t_len - 1 {
        let mut total = 0.0;
        let alpha_t = ws.alpha.row(t);
        let beta_next = ws.beta.row(t + 1);
        let emit_next = ws.emit.row(t + 1);
        for i in 0..n {
            let xi_row = ws.xi_t.row_mut(i);
            for j in 0..n {
                let v = alpha_t[i] * hmm.trans_prob(i, j) * emit_next[j] * beta_next[j];
                xi_row[j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for i in 0..n {
                let src = ws.xi_t.row(i);
                let dst = ws.xi_sum.row_mut(i);
                for j in 0..n {
                    dst[j] += src[j] / total;
                }
            }
        }
    }

    // ln P(O|λ) = Σ ln(scale_t) + Σ max-shifts. The per-row max shift on
    // `emit` cancels in all posteriors but must be restored here.
    let mut log_likelihood: f64 =
        ws.scale[..t_len].iter().map(|&c| c.max(f64::MIN_POSITIVE).ln()).sum();
    for t in 0..t_len {
        if ws.logmax[t].is_finite() {
            log_likelihood += ws.logmax[t];
        }
    }
    log_likelihood
}

pub(crate) fn normalize(row: &mut [f64]) -> f64 {
    let sum: f64 = row.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for x in row.iter_mut() {
            *x /= sum;
        }
        sum
    } else {
        let u = 1.0 / row.len() as f64;
        for x in row.iter_mut() {
            *x = u;
        }
        0.0_f64.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::{CategoricalEmission, GaussianEmission};
    use crate::exhaustive;

    fn coin_hmm() -> Hmm<CategoricalEmission> {
        // Fair/biased coin switcher.
        Hmm::new(
            vec![0.7, 0.3],
            vec![vec![0.8, 0.2], vec![0.3, 0.7]],
            CategoricalEmission::new(vec![vec![0.5, 0.5], vec![0.9, 0.1]]).unwrap(),
        )
        .unwrap()
    }

    /// Forward–backward in a fresh workspace.
    fn fresh<E: Emission>(hmm: &Hmm<E>, obs: &[E::Obs]) -> (EmWorkspace, f64) {
        let mut ws = EmWorkspace::new();
        let log_likelihood = forward_backward_into(hmm, obs, &mut ws);
        (ws, log_likelihood)
    }

    #[test]
    fn gamma_rows_sum_to_one() {
        let hmm = coin_hmm();
        let obs = vec![0usize, 1, 0, 0, 1, 0, 0, 0];
        let (ws, _) = fresh(&hmm, &obs);
        for row in ws.gamma().iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(ws.gamma().rows(), obs.len());
    }

    #[test]
    fn log_likelihood_matches_brute_force() {
        let hmm = coin_hmm();
        let obs = vec![0usize, 1, 0, 0, 1];
        let (_, ll) = fresh(&hmm, &obs);
        let brute = exhaustive::log_likelihood(&hmm, &obs);
        assert!((ll - brute).abs() < 1e-9, "fb = {ll}, brute = {brute}");
    }

    #[test]
    fn gamma_matches_brute_force() {
        let hmm = coin_hmm();
        let obs = vec![1usize, 0, 0, 1];
        let (ws, _) = fresh(&hmm, &obs);
        let brute = exhaustive::posteriors(&hmm, &obs);
        for (t, (a, b)) in ws.gamma().iter().zip(&brute).enumerate() {
            for i in 0..2 {
                assert!((a[i] - b[i]).abs() < 1e-9, "t = {t}, i = {i}");
            }
        }
    }

    #[test]
    fn long_sequence_does_not_underflow() {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            GaussianEmission::new(vec![(3.0, 1.0), (-3.0, 1.0)]).unwrap(),
        )
        .unwrap();
        let obs: Vec<f64> =
            (0..10_000).map(|t| if (t / 500) % 2 == 0 { 3.0 } else { -3.0 }).collect();
        let (ws, ll) = fresh(&hmm, &obs);
        assert!(ll.is_finite());
        assert!(ws.gamma().as_slice().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn xi_sum_total_is_t_minus_one() {
        let hmm = coin_hmm();
        let obs = vec![0usize, 0, 1, 0, 1, 1];
        let (ws, _) = fresh(&hmm, &obs);
        let total: f64 = ws.xi_sum().as_slice().iter().sum();
        assert!((total - (obs.len() as f64 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn strong_evidence_dominates_posterior() {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            GaussianEmission::new(vec![(10.0, 0.5), (-10.0, 0.5)]).unwrap(),
        )
        .unwrap();
        let (ws, _) = fresh(&hmm, &[10.0, -10.0]);
        assert!(ws.gamma()[(0, 0)] > 0.999);
        assert!(ws.gamma()[(1, 1)] > 0.999);
    }

    #[test]
    fn workspace_reuse_across_shapes_is_consistent() {
        // One workspace reused across different lengths must give the
        // same answers as a fresh one each time.
        let hmm = coin_hmm();
        let mut ws = EmWorkspace::new();
        for obs in [vec![0usize, 1, 0, 0, 1, 0, 1, 1], vec![1usize, 0], vec![0usize, 0, 1, 0, 1, 1]]
        {
            let ll = forward_backward_into(&hmm, &obs, &mut ws);
            let (clean, clean_ll) = fresh(&hmm, &obs);
            assert_eq!(ll, clean_ll);
            assert_eq!(ws.gamma(), clean.gamma());
            assert_eq!(ws.xi_sum(), clean.xi_sum());
        }
    }

    #[test]
    fn workspace_empty_sequence_resets_tables() {
        let hmm = coin_hmm();
        let mut ws = EmWorkspace::new();
        let _ = forward_backward_into(&hmm, &[0usize, 1, 0], &mut ws);
        let ll = forward_backward_into(&hmm, &[], &mut ws);
        assert_eq!(ll, 0.0);
        assert_eq!(ws.gamma().rows(), 0);
        assert!(ws.xi_sum().as_slice().iter().all(|&v| v == 0.0));
    }
}
