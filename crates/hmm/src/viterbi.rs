//! Viterbi decoding (paper Eq. 6–8): the most likely hidden-state sequence.
//!
//! [`viterbi_into`] runs the DP against a caller-owned
//! [`DecodeWorkspace`] (no allocation after warm-up, cached `ln A` from
//! the model); [`viterbi`] is the allocating convenience wrapper.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::{Emission, Hmm};

/// Reusable scratch buffers for Viterbi decoding: the `δ` score rows, the
/// flat `T×N` backpointer lattice `ψ`, and the decoded path itself.
///
/// The first decode at a given `(T, N)` shape sizes the buffers; later
/// decodes at the same (or smaller) shape allocate nothing.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{viterbi_into, DecodeWorkspace, Hmm, SymmetricGaussianEmission};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     SymmetricGaussianEmission::new(4.0, 1.0).unwrap(),
/// ).unwrap();
/// let mut ws = DecodeWorkspace::new();
/// assert_eq!(viterbi_into(&hmm, &[4.0, 4.1, -3.9], &mut ws), &[0, 0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodeWorkspace {
    delta: Vec<f64>,
    delta_next: Vec<f64>,
    /// Flat `T×N` backpointers: `psi[t * n + j]` is the argmax predecessor
    /// of state `j` at time `t`.
    psi: Vec<usize>,
    path: Vec<usize>,
}

impl DecodeWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decodes the maximum a posteriori state sequence into `ws` and returns
/// the decoded path as a slice borrowed from the workspace.
///
/// Identical decisions to [`viterbi`] (it *is* the implementation): ties
/// break toward the lower state index, an empty observation sequence
/// yields an empty path.
pub fn viterbi_into<'w, E: Emission>(
    hmm: &Hmm<E>,
    observations: &[E::Obs],
    ws: &'w mut DecodeWorkspace,
) -> &'w [usize] {
    let n = hmm.num_states();
    let t_len = observations.len();
    ws.path.clear();
    if t_len == 0 {
        return &ws.path;
    }

    // δ_t(i): best log-prob ending in state i at time t (paper Eq. 7).
    ws.delta.resize(n, 0.0);
    ws.delta_next.resize(n, 0.0);
    initial_scores(hmm, observations[0], &mut ws.delta);
    // ψ_t(i): argmax predecessor, flat row-major.
    ws.psi.resize(t_len * n, 0);
    ws.psi[..n].fill(0);

    for t in 1..t_len {
        let back = &mut ws.psi[t * n..(t + 1) * n];
        max_product_step(hmm, &ws.delta, &mut ws.delta_next, observations[t], Some(back));
        std::mem::swap(&mut ws.delta, &mut ws.delta_next);
    }

    // Backtrack from the best terminal state (paper Eq. 8).
    let mut state = argmax(&ws.delta);
    ws.path.resize(t_len, 0);
    ws.path[t_len - 1] = state;
    for t in (1..t_len).rev() {
        state = ws.psi[t * n + state];
        ws.path[t - 1] = state;
    }
    &ws.path
}

/// Decodes the maximum a posteriori state sequence for `observations`
/// (paper Eq. 6–8, solved in log space).
///
/// Allocating wrapper over [`viterbi_into`]. Ties break toward the lower
/// state index, deterministically. Returns an empty path for an empty
/// observation sequence.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{viterbi, Hmm, SymmetricGaussianEmission};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     SymmetricGaussianEmission::new(4.0, 1.0).unwrap(),
/// ).unwrap();
/// assert_eq!(viterbi(&hmm, &[4.0, 4.1, -3.9]), vec![0, 0, 1]);
/// ```
#[must_use]
pub fn viterbi<E: Emission>(hmm: &Hmm<E>, observations: &[E::Obs]) -> Vec<usize> {
    let mut ws = DecodeWorkspace::new();
    viterbi_into(hmm, observations, &mut ws).to_vec()
}

/// `δ₀(i) = ln π_i + ln b_i(o₀)`: the scores the recursion starts from.
#[inline]
pub(crate) fn initial_scores<E: Emission>(hmm: &Hmm<E>, obs: E::Obs, delta: &mut [f64]) {
    for i in 0..hmm.num_states() {
        delta[i] = hmm.init()[i].ln() + hmm.log_emit(i, obs);
    }
}

/// One max-product step of the Viterbi recursion (paper Eq. 7), shared by
/// [`viterbi_into`] and [`StreamingViterbi::push`](crate::StreamingViterbi::push):
/// `next[j] = max_i (delta[i] + ln A_ij) + ln b_j(obs)`, the maximum taken
/// in index order so ties go to the lower `i`. When `back` is given,
/// `back[j]` receives that `i`.
#[inline]
pub(crate) fn max_product_step<E: Emission>(
    hmm: &Hmm<E>,
    delta: &[f64],
    next: &mut [f64],
    obs: E::Obs,
    mut back: Option<&mut [usize]>,
) {
    let n = hmm.num_states();
    let log_trans = hmm.log_trans().as_slice();
    for j in 0..n {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0;
        for i in 0..n {
            let v = delta[i] + log_trans[i * n + j];
            if v > best {
                best = v;
                arg = i;
            }
        }
        next[j] = best + hmm.log_emit(j, obs);
        if let Some(back) = back.as_deref_mut() {
            back[j] = arg;
        }
    }
}

/// The index of the largest entry, the lowest one on ties.
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = f64::NEG_INFINITY;
    let mut arg = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > best {
            best = x;
            arg = i;
        }
    }
    arg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;

    fn sticky_hmm(p_stay: f64) -> Hmm<SymmetricGaussianEmission> {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![p_stay, 1.0 - p_stay], vec![1.0 - p_stay, p_stay]],
            SymmetricGaussianEmission::new(2.0, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn empty_observations_empty_path() {
        assert!(viterbi(&sticky_hmm(0.9), &[]).is_empty());
    }

    #[test]
    fn clean_signal_decodes_exactly() {
        let hmm = sticky_hmm(0.9);
        let obs = vec![2.0, 2.1, 2.0, -2.0, -2.2, -1.9, 2.0];
        assert_eq!(viterbi(&hmm, &obs), vec![0, 0, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn sticky_transitions_smooth_single_outlier() {
        // One noisy observation should not flip a very sticky chain.
        let hmm = sticky_hmm(0.999);
        let obs = vec![2.0, 2.0, -0.4, 2.0, 2.0];
        assert_eq!(viterbi(&hmm, &obs), vec![0; 5]);
    }

    #[test]
    fn loose_transitions_follow_the_data() {
        let hmm = sticky_hmm(0.5);
        let obs = vec![2.0, -2.0, 2.0, -2.0];
        assert_eq!(viterbi(&hmm, &obs), vec![0, 1, 0, 1]);
    }

    #[test]
    fn workspace_reuse_across_lengths_matches_fresh_decode() {
        let hmm = sticky_hmm(0.8);
        let mut ws = DecodeWorkspace::new();
        for obs in [
            vec![2.0, -2.0, 2.0, 2.0, -2.0, -2.0, 2.0],
            vec![-2.0, -2.0],
            vec![2.0, 2.0, -2.0, 2.0],
        ] {
            assert_eq!(viterbi_into(&hmm, &obs, &mut ws), viterbi(&hmm, &obs).as_slice());
        }
        assert!(viterbi_into(&hmm, &[], &mut ws).is_empty());
    }
}
