//! Scaled forward–backward inference.
//!
//! This is the E-step machinery behind Baum–Welch: it computes, for a
//! model `λ` and observation sequence `O`, the log-likelihood `ln P(O|λ)`
//! and the per-timestep state posteriors `γ_t(i) = P(s_t = i | O, λ)` —
//! all the emission-only M-step reads.
//!
//! Rabiner-style scaling keeps every quantity in `f64` range for
//! arbitrarily long sequences (raw forward probabilities underflow after a
//! few hundred steps).
//!
//! [`forward_backward_into`] writes every table into a caller-owned
//! [`EmWorkspace`] and allocates nothing once the workspace has warmed up
//! to the sequence shape.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, time t) and mirroring
// the paper's notation beats iterator chains for auditability.
#![allow(clippy::needless_range_loop)]

use crate::Hmm;

/// Reusable scratch tables for forward–backward and Baum–Welch.
///
/// Holds the emission table, `α`/`γ` lattices (one `[f64; 2]` row per
/// time step) and scale factors. The first call at
/// a given length `T` sizes them; subsequent calls at the same (or
/// smaller) length perform **zero heap allocations** — the property the
/// per-claim EM loop and the per-worker task loop rely on.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{forward_backward_into, EmWorkspace, Hmm, SymmetricGaussianEmission};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     SymmetricGaussianEmission::new(5.0, 1.0).unwrap(),
/// ).unwrap();
/// let mut ws = EmWorkspace::new();
/// let ll = forward_backward_into(&hmm, &[5.0, 5.2, -4.9], &mut ws);
/// assert!(ll < 0.0);
/// assert!(ws.gamma()[0][0] > 0.99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmWorkspace {
    /// Scaled linear-space emission table, each row max-shifted.
    emit: Vec<[f64; 2]>,
    /// Per-timestep max log-emission (the shift restored into the LL).
    logmax: Vec<f64>,
    alpha: Vec<[f64; 2]>,
    gamma: Vec<[f64; 2]>,
    scale: Vec<f64>,
}

impl EmWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// State posteriors of the most recent [`forward_backward_into`]
    /// call, one row per observation: `γ[t][i] = P(s_t = i | O, λ)`; each
    /// row sums to 1.
    #[must_use]
    pub fn gamma(&self) -> &[[f64; 2]] {
        &self.gamma
    }

    /// Sizes every table for a `T`-step problem.
    fn ensure(&mut self, t_len: usize) {
        self.emit.resize(t_len, [0.0; 2]);
        self.logmax.resize(t_len, 0.0);
        self.alpha.resize(t_len, [0.0; 2]);
        self.gamma.resize(t_len, [0.0; 2]);
        self.scale.resize(t_len, 0.0);
    }
}

/// Runs scaled forward–backward on `observations`, storing `γ` in `ws`
/// and returning the log-likelihood `ln P(O | λ)`.
///
/// Every table lives in the caller-owned workspace: after the first call
/// at a given sequence length, the hot path performs no heap allocation
/// at all.
///
/// Returns `0.0` (and an empty `γ`) for an empty observation sequence —
/// the natural neutral element: no evidence.
pub fn forward_backward_into(hmm: &Hmm, observations: &[f64], ws: &mut EmWorkspace) -> f64 {
    let t_len = observations.len();
    ws.ensure(t_len);
    if t_len == 0 {
        return 0.0;
    }
    hmm.emission().log_probs_into(observations, &mut ws.emit);
    sweep(hmm.init(), hmm.trans(), ws)
}

/// The forward–backward loop body; `ws.emit` holds the log-emission
/// table on entry. Operation order per accumulator is the specification
/// (DESIGN.md §12): `oracle::hmm` in `sstd-testkit` keeps the loops this
/// replaced and the two are held bit-identical.
///
/// Two sweeps, each carrying whatever work is off its recurrence and
/// does not care about direction: ascending (row to linear space, `α`,
/// `ln scale`) and descending (`β`, `γ`); the max-shifts are then added
/// to the likelihood in step order.
#[inline(always)]
fn sweep(init: &[f64; 2], trans: &[[f64; 2]; 2], ws: &mut EmWorkspace) -> f64 {
    let t_len = ws.scale.len();
    let emit = &mut ws.emit[..t_len];
    let alpha = &mut ws.alpha[..t_len];
    let gamma = &mut ws.gamma[..t_len];
    let (logmax, scale) = (&mut ws.logmax[..t_len], &mut ws.scale[..t_len]);

    // Forward pass with per-step scaling. Each emission row goes to
    // linear space on the way, divided by its max to avoid underflow; the
    // state that attains the max is `exp(x − x) = exp(0) = 1` exactly, so
    // it skips the call.
    let mut log_scale = 0.0;
    for t in 0..t_len {
        let emit_t = &mut emit[t];
        let max = emit_t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        logmax[t] = max;
        for e in emit_t.iter_mut() {
            *e = if !max.is_finite() || *e == max { 1.0 } else { (*e - max).exp() };
        }
        let (done, rest) = alpha.split_at_mut(t);
        let cur = &mut rest[0];
        if t == 0 {
            for i in 0..2 {
                cur[i] = init[i] * emit_t[i];
            }
        } else {
            let prev = &done[t - 1];
            for j in 0..2 {
                let mut acc = 0.0;
                for i in 0..2 {
                    acc += prev[i] * trans[i][j];
                }
                cur[j] = acc * emit_t[j];
            }
        }
        scale[t] = normalize(cur);
        log_scale += scale[t].max(f64::MIN_POSITIVE).ln();
    }

    // Backward pass using the same scale factors. Each β row reads only
    // the row after it and γ, which depends on no other row, is taken as
    // soon as its β row exists, so β is one row carried down the pass.
    let mut beta = [1.0; 2];
    for t in (0..t_len).rev() {
        if t + 1 < t_len {
            let (next, emit_next) = (beta, &emit[t + 1]);
            let denom = scale[t + 1].max(f64::MIN_POSITIVE);
            for i in 0..2 {
                let mut acc = 0.0;
                for j in 0..2 {
                    acc += trans[i][j] * emit_next[j] * next[j];
                }
                beta[i] = acc / denom;
            }
        }
        let (a, g) = (&alpha[t], &mut gamma[t]);
        for i in 0..2 {
            g[i] = a[i] * beta[i];
        }
        normalize(g);
    }

    // ln P(O|λ) = Σ ln(scale_t) + Σ max-shifts: the per-row max shift on
    // `emit` cancels in all posteriors but must be restored in the
    // likelihood, after the scales and in step order.
    logmax.iter().filter(|m| m.is_finite()).fold(log_scale, |ll, m| ll + m)
}

#[inline]
fn normalize(row: &mut [f64]) -> f64 {
    let sum: f64 = row.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for x in row.iter_mut() {
            *x /= sum;
        }
        sum
    } else {
        uniform(row)
    }
}

/// [`normalize`]'s answer for a row with no usable mass. Out of line and
/// cold so the caller branches around it: compiled as a select, the test
/// sits between one step of a recurrence and the next.
#[cold]
#[inline(never)]
fn uniform(row: &mut [f64]) -> f64 {
    row.fill(1.0 / row.len() as f64);
    f64::MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;

    fn asymmetric_hmm() -> Hmm {
        Hmm::new(
            vec![0.7, 0.3],
            vec![vec![0.8, 0.2], vec![0.3, 0.7]],
            SymmetricGaussianEmission::new(1.0, 1.5).unwrap(),
        )
        .unwrap()
    }

    /// Forward–backward in a fresh workspace.
    fn fresh(hmm: &Hmm, obs: &[f64]) -> (EmWorkspace, f64) {
        let mut ws = EmWorkspace::new();
        let log_likelihood = forward_backward_into(hmm, obs, &mut ws);
        (ws, log_likelihood)
    }

    #[test]
    fn gamma_rows_sum_to_one() {
        let hmm = asymmetric_hmm();
        let obs = [0.5, -1.0, 0.2, 2.0, -0.3, 1.1, 0.0, 0.4];
        let (ws, _) = fresh(&hmm, &obs);
        for row in ws.gamma() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(ws.gamma().len(), obs.len());
    }

    #[test]
    fn log_likelihood_matches_the_sum_over_all_four_paths() {
        let hmm = asymmetric_hmm();
        let obs = [0.5, -1.2];
        let (ws, ll) = fresh(&hmm, &obs);
        let b = |s: usize, x: f64| hmm.emission().log_prob(s, x).exp();
        let (pi, a) = (hmm.init(), hmm.trans());
        let mut total = 0.0;
        let mut first_true = 0.0;
        for i in 0..2 {
            for j in 0..2 {
                let p = pi[i] * b(i, obs[0]) * a[i][j] * b(j, obs[1]);
                total += p;
                if i == 0 {
                    first_true += p;
                }
            }
        }
        assert!((ll - total.ln()).abs() < 1e-12, "fb = {ll}, paths = {}", total.ln());
        assert!((ws.gamma()[0][0] - first_true / total).abs() < 1e-12);
    }

    #[test]
    fn long_sequence_does_not_underflow() {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            SymmetricGaussianEmission::new(3.0, 1.0).unwrap(),
        )
        .unwrap();
        let obs: Vec<f64> =
            (0..10_000).map(|t| if (t / 500) % 2 == 0 { 3.0 } else { -3.0 }).collect();
        let (ws, ll) = fresh(&hmm, &obs);
        assert!(ll.is_finite());
        assert!(ws.gamma().iter().flatten().all(|p| p.is_finite()));
    }

    #[test]
    fn strong_evidence_dominates_posterior() {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            SymmetricGaussianEmission::new(10.0, 0.5).unwrap(),
        )
        .unwrap();
        let (ws, _) = fresh(&hmm, &[10.0, -10.0]);
        assert!(ws.gamma()[0][0] > 0.999);
        assert!(ws.gamma()[1][1] > 0.999);
    }

    #[test]
    fn workspace_reuse_across_shapes_is_consistent() {
        // One workspace reused across different lengths must give the
        // same answers as a fresh one each time.
        let hmm = asymmetric_hmm();
        let mut ws = EmWorkspace::new();
        for obs in [vec![0.5, -1.0, 0.2, 2.0, -0.3, 1.1, 0.0, 0.4], vec![1.0, -2.0], vec![0.7; 6]] {
            let ll = forward_backward_into(&hmm, &obs, &mut ws);
            let (clean, clean_ll) = fresh(&hmm, &obs);
            assert_eq!(ll, clean_ll);
            assert_eq!(ws.gamma(), clean.gamma());
        }
    }

    #[test]
    fn workspace_empty_sequence_resets_tables() {
        let hmm = asymmetric_hmm();
        let mut ws = EmWorkspace::new();
        let _ = forward_backward_into(&hmm, &[0.5, -1.0, 0.2], &mut ws);
        let ll = forward_backward_into(&hmm, &[], &mut ws);
        assert_eq!(ll, 0.0);
        assert!(ws.gamma().is_empty());
    }
}
