//! Viterbi decoding (paper Eq. 6–8): the most likely hidden-state sequence.
//!
//! [`viterbi_into`] runs the DP against a caller-owned
//! [`DecodeWorkspace`] (no allocation after warm-up, cached `ln A` from
//! the model).

use crate::Hmm;

/// Reusable scratch buffers for Viterbi decoding: the backpointer lattice
/// `ψ` (one `[usize; 2]` row per time step) and the decoded path itself.
///
/// The first decode at a given length `T` sizes the buffers; later
/// decodes at the same (or smaller) length allocate nothing.
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
    /// `psi[t][j]` is the argmax predecessor of state `j` at time `t`.
    psi: Vec<[usize; 2]>,
    path: Vec<usize>,
}

impl DecodeWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decodes the maximum a posteriori state sequence for `observations`
/// (paper Eq. 6–8, solved in log space) into `ws` and returns the path as
/// a slice borrowed from the workspace.
///
/// Ties break toward the lower state index, deterministically. An empty
/// observation sequence yields an empty path.
pub fn viterbi_into<'w>(
    hmm: &Hmm,
    observations: &[f64],
    ws: &'w mut DecodeWorkspace,
) -> &'w [usize] {
    let t_len = observations.len();
    ws.path.clear();
    if t_len == 0 {
        return &ws.path;
    }

    // δ_t(i): best log-prob ending in state i at time t (paper Eq. 7).
    let mut delta = initial_scores(hmm, observations[0]);
    // ψ_t(i): argmax predecessor (row 0 is never read).
    ws.psi.resize(t_len, [0; 2]);

    for (&obs, back) in observations[1..].iter().zip(&mut ws.psi[1..]) {
        delta = max_product_step(hmm, &delta, obs, Some(back));
    }

    // Backtrack from the best terminal state (paper Eq. 8).
    let mut state = argmax(&delta);
    ws.path.resize(t_len, 0);
    ws.path[t_len - 1] = state;
    for t in (1..t_len).rev() {
        state = ws.psi[t][state];
        ws.path[t - 1] = state;
    }
    &ws.path
}

/// `δ₀(i) = ln π_i + ln b_i(o₀)`: the scores the recursion starts from.
#[inline]
pub(crate) fn initial_scores(hmm: &Hmm, obs: f64) -> [f64; 2] {
    std::array::from_fn(|i| hmm.init()[i].ln() + hmm.emission().log_prob(i, obs))
}

/// One max-product step of the Viterbi recursion (paper Eq. 7), shared by
/// [`viterbi_into`] and [`StreamingViterbi::push`](crate::StreamingViterbi::push):
/// `next[j] = max_i (delta[i] + ln A_ij) + ln b_j(obs)`, the maximum taken
/// in index order so ties go to the lower `i`. When `back` is given,
/// `back[j]` receives that `i`.
#[inline]
pub(crate) fn max_product_step(
    hmm: &Hmm,
    delta: &[f64; 2],
    obs: f64,
    mut back: Option<&mut [usize; 2]>,
) -> [f64; 2] {
    let log_trans = hmm.log_trans();
    let mut next = [0.0; 2];
    for j in 0..2 {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0;
        for i in 0..2 {
            let v = delta[i] + log_trans[i][j];
            if v > best {
                best = v;
                arg = i;
            }
        }
        next[j] = best + hmm.emission().log_prob(j, obs);
        if let Some(back) = back.as_deref_mut() {
            back[j] = arg;
        }
    }
    next
}

/// The index of the larger entry, 0 on ties.
pub(crate) fn argmax(xs: &[f64; 2]) -> usize {
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

    fn sticky_hmm(p_stay: f64) -> Hmm {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![p_stay, 1.0 - p_stay], vec![1.0 - p_stay, p_stay]],
            SymmetricGaussianEmission::new(2.0, 1.0).unwrap(),
        )
        .unwrap()
    }

    fn viterbi(hmm: &Hmm, obs: &[f64]) -> Vec<usize> {
        viterbi_into(hmm, obs, &mut DecodeWorkspace::new()).to_vec()
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
    fn argmax_breaks_ties_toward_state_zero() {
        assert_eq!(argmax(&[1.0, 1.0]), 0);
        assert_eq!(argmax(&[1.0, 2.0]), 1);
        assert_eq!(argmax(&[f64::NAN, 2.0]), 1);
        assert_eq!(argmax(&[2.0, f64::NAN]), 0);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 0);
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
