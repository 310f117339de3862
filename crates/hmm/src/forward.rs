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
    hmm.emission().log_probs_into(observations, ws.emit.as_mut_slice());
    // One loop body, two instantiations: with the literal the compiler
    // unrolls every state loop of the two-state truth model.
    if n == 2 {
        sweep(hmm.init(), hmm.trans().as_slice(), ws, 2)
    } else {
        sweep(hmm.init(), hmm.trans().as_slice(), ws, n)
    }
}

/// The forward–backward loop body over flat `T×n` slices; `ws.emit` holds
/// the log-emission table on entry. Operation order per accumulator is
/// the specification (DESIGN.md §12): `oracle::hmm` in `sstd-testkit`
/// keeps the loops this replaced and the two are held bit-identical.
///
/// Three sweeps, each carrying whatever work is off its recurrence and
/// does not care about direction: ascending (row to linear space, `α`,
/// `ln scale`), descending (`β`, `γ`), ascending (`Σξ`, the max-shifts).
#[inline(always)]
fn sweep(init: &[f64], trans: &[f64], ws: &mut EmWorkspace, n: usize) -> f64 {
    let t_len = ws.scale.len();
    let (init, trans) = (&init[..n], &trans[..n * n]);
    let emit = &mut ws.emit.as_mut_slice()[..t_len * n];
    let alpha = &mut ws.alpha.as_mut_slice()[..t_len * n];
    let beta = &mut ws.beta.as_mut_slice()[..t_len * n];
    let gamma = &mut ws.gamma.as_mut_slice()[..t_len * n];
    let xi_sum = &mut ws.xi_sum.as_mut_slice()[..n * n];
    let xi_t = &mut ws.xi_t.as_mut_slice()[..n * n];
    let (logmax, scale) = (&mut ws.logmax[..t_len], &mut ws.scale[..t_len]);

    // Forward pass with per-step scaling. Each emission row goes to
    // linear space on the way, divided by its max to avoid underflow; the
    // state that attains the max is `exp(x − x) = exp(0) = 1` exactly, so
    // it skips the call.
    let mut log_scale = 0.0;
    for t in 0..t_len {
        let emit_t = &mut emit[t * n..(t + 1) * n];
        let max = emit_t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        logmax[t] = max;
        for e in emit_t.iter_mut() {
            *e = if !max.is_finite() || *e == max { 1.0 } else { (*e - max).exp() };
        }
        let (done, rest) = alpha.split_at_mut(t * n);
        let cur = &mut rest[..n];
        if t == 0 {
            for i in 0..n {
                cur[i] = init[i] * emit_t[i];
            }
        } else {
            let prev = &done[(t - 1) * n..];
            for j in 0..n {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += prev[i] * trans[i * n + j];
                }
                cur[j] = acc * emit_t[j];
            }
        }
        scale[t] = normalize(cur);
        log_scale += scale[t].max(f64::MIN_POSITIVE).ln();
    }

    // Backward pass using the same scale factors. A γ row depends on no
    // other row, so it is taken as soon as its β row exists.
    for t in (0..t_len).rev() {
        let (head, tail) = beta.split_at_mut((t + 1) * n);
        let cur = &mut head[t * n..];
        if t + 1 == t_len {
            cur.fill(1.0);
        } else {
            let (next, emit_next) = (&tail[..n], &emit[(t + 1) * n..(t + 2) * n]);
            let denom = scale[t + 1].max(f64::MIN_POSITIVE);
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += trans[i * n + j] * emit_next[j] * next[j];
                }
                cur[i] = acc / denom;
            }
        }
        let (a, g) = (&alpha[t * n..(t + 1) * n], &mut gamma[t * n..(t + 1) * n]);
        for i in 0..n {
            g[i] = a[i] * cur[i];
        }
        normalize(g);
    }

    // Σξ adds up in step order, so it cannot ride the descending pass. It
    // shares this one with the rest of ln P(O|λ) = Σ ln(scale_t) +
    // Σ max-shifts: the per-row max shift on `emit` cancels in all
    // posteriors but must be restored in the likelihood.
    let mut log_likelihood = log_scale;
    for t in 0..t_len {
        if logmax[t].is_finite() {
            log_likelihood += logmax[t];
        }
        if t + 1 == t_len {
            break;
        }
        let a = &alpha[t * n..(t + 1) * n];
        let (emit_next, beta_next) =
            (&emit[(t + 1) * n..(t + 2) * n], &beta[(t + 1) * n..(t + 2) * n]);
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                let v = a[i] * trans[i * n + j] * emit_next[j] * beta_next[j];
                xi_t[i * n + j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for (dst, src) in xi_sum.iter_mut().zip(xi_t.iter()) {
                *dst += src / total;
            }
        }
    }
    log_likelihood
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
    use crate::emission::{CategoricalEmission, SymmetricGaussianEmission};
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
            SymmetricGaussianEmission::new(3.0, 1.0).unwrap(),
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
            SymmetricGaussianEmission::new(10.0, 0.5).unwrap(),
        )
        .unwrap();
        let (ws, _) = fresh(&hmm, &[10.0, -10.0]);
        assert!(ws.gamma()[(0, 0)] > 0.999);
        assert!(ws.gamma()[(1, 1)] > 0.999);
    }

    #[test]
    fn generic_and_two_state_instantiations_agree() {
        // `black_box` hides the literal, so the second run takes the
        // loop body as an N-state model gets it.
        let hmm = coin_hmm();
        let obs = vec![0usize, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let run = |n: usize| {
            let mut ws = EmWorkspace::new();
            ws.ensure(obs.len(), 2);
            ws.xi_sum.fill(0.0);
            hmm.emission().log_probs_into(&obs, ws.emit.as_mut_slice());
            let log_likelihood = sweep(hmm.init(), hmm.trans().as_slice(), &mut ws, n);
            (log_likelihood.to_bits(), ws.gamma, ws.xi_sum)
        };
        assert_eq!(run(2), run(std::hint::black_box(2)));
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
