//! Online Viterbi decoding for streaming truth discovery.
//!
//! The batch [`viterbi`](crate::viterbi) decoder needs the whole
//! observation sequence before it can emit anything. A streaming truth
//! discovery job cannot wait: it must output the current truth estimate as
//! each ACS observation arrives (paper §III-E). [`StreamingViterbi`]
//! maintains the Viterbi lattice incrementally and uses *path coalescence*
//! to commit decisions: once every surviving path shares the same ancestor
//! at some past time step, that prefix is final regardless of future
//! observations and can be emitted and dropped from memory.
//!
//! The decoder recycles its own storage: backpointer columns cycle through
//! a free pool as the pending window slides, and the δ recurrence runs
//! against a persistent scratch row, so steady-state `push` calls touch the
//! heap only when the pending window outgrows every column ever pooled.

use crate::{Emission, Hmm};
use std::collections::VecDeque;

/// Incremental Viterbi decoder over a fixed model.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{GaussianEmission, Hmm, StreamingViterbi};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     GaussianEmission::new(vec![(4.0, 1.0), (-4.0, 1.0)]).unwrap(),
/// ).unwrap();
/// let mut dec = StreamingViterbi::new(hmm);
/// assert_eq!(dec.push(4.2), 0);    // current best state
/// assert_eq!(dec.push(-4.0), 1);
/// let full = dec.current_path();
/// assert_eq!(full, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingViterbi<E: Emission> {
    hmm: Hmm<E>,
    /// Best log-prob per state at the current time.
    delta: Vec<f64>,
    /// Scratch row for the δ recurrence, swapped with `delta` each step.
    delta_next: Vec<f64>,
    /// Backpointer columns for the uncommitted suffix. `pending[k][j]` is
    /// the predecessor of state `j` at uncommitted step `k`.
    pending: VecDeque<Vec<usize>>,
    /// Retired backpointer columns, recycled by later pushes.
    pool: Vec<Vec<usize>>,
    /// Scratch for the coalescence ancestor walk.
    ancestors: Vec<usize>,
    /// States committed by path coalescence.
    committed: Vec<usize>,
    /// Total observations consumed.
    len: usize,
    /// Forced-commit bound on the pending window (`None` = unbounded).
    max_pending: Option<usize>,
}

impl<E: Emission> StreamingViterbi<E> {
    /// Creates a decoder with no observations consumed.
    #[must_use]
    pub fn new(hmm: Hmm<E>) -> Self {
        let n = hmm.num_states();
        Self {
            hmm,
            delta: vec![0.0; n],
            delta_next: vec![0.0; n],
            pending: VecDeque::new(),
            pool: Vec::new(),
            ancestors: Vec::new(),
            committed: Vec::new(),
            len: 0,
            max_pending: None,
        }
    }

    /// Bounds the uncommitted window to `max` steps (fixed-lag decoding).
    ///
    /// Coalescence usually commits long before the bound; on adversarial
    /// streams where paths never merge (say, an evidence-free claim whose
    /// observations are all zeros), the decoder *force-commits* the
    /// oldest step along the currently-best path once the window hits
    /// `max`. This trades the exact-Viterbi guarantee on those steps for
    /// O(`max`) memory — the standard fixed-lag compromise.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    #[must_use]
    pub fn with_max_pending(mut self, max: usize) -> Self {
        assert!(max > 0, "pending bound must be positive");
        self.max_pending = Some(max);
        self
    }

    /// Restarts decoding against `hmm`, as if freshly constructed — except
    /// the pending-window bound and the recycled column pool are kept, so
    /// a refit (new model, replayed history) reuses the old allocations.
    pub fn reset(&mut self, hmm: Hmm<E>) {
        let n = hmm.num_states();
        self.hmm = hmm;
        self.delta.clear();
        self.delta.resize(n, 0.0);
        self.delta_next.clear();
        self.delta_next.resize(n, 0.0);
        while let Some(col) = self.pending.pop_front() {
            self.pool.push(col);
        }
        self.committed.clear();
        self.len = 0;
    }

    /// The model being decoded against.
    #[must_use]
    pub fn model(&self) -> &Hmm<E> {
        &self.hmm
    }

    /// The forward row δ: the best log-probability of any state path
    /// ending in each state at the current time (all zeros before the
    /// first observation). Together with the model it is everything the
    /// filtering decisions of later [`push`](Self::push) calls depend on,
    /// so a snapshot that carries it can resume a decoder that has
    /// consumed an unbounded stream — see
    /// [`with_forward_row`](Self::with_forward_row).
    #[must_use]
    pub fn forward_row(&self) -> &[f64] {
        &self.delta
    }

    /// Resumes decoding from a [`forward_row`](Self::forward_row) exported
    /// by a decoder over the same model that had consumed `len`
    /// observations: every later [`push`](Self::push) returns bit-for-bit
    /// what the exporting decoder would have returned.
    ///
    /// The committed prefix and the pending window are *not* carried
    /// over: [`committed`](Self::committed) and
    /// [`current_path`](Self::current_path) of the resumed decoder cover
    /// only the observations pushed after the import.
    ///
    /// # Panics
    ///
    /// Panics if `delta` does not have one entry per state or `len` is
    /// zero (a decoder that has seen nothing has no forward row to
    /// import; use [`new`](Self::new)).
    #[must_use]
    pub fn with_forward_row(mut self, delta: &[f64], len: usize) -> Self {
        assert_eq!(delta.len(), self.hmm.num_states(), "forward row needs one entry per state");
        assert!(len > 0, "an empty decoder has no forward row");
        self.delta.copy_from_slice(delta);
        self.len = len;
        self
    }

    /// Number of observations consumed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any observation has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A backpointer column sized for `n` states, recycled when possible.
    fn take_col(&mut self, n: usize) -> Vec<usize> {
        let mut col = self.pool.pop().unwrap_or_default();
        col.clear();
        col.resize(n, 0);
        col
    }

    /// Consumes one observation and returns the *current* most likely
    /// state (the filtering decision the streaming engine reports).
    pub fn push(&mut self, obs: E::Obs) -> usize {
        let n = self.hmm.num_states();
        if self.len == 0 {
            for i in 0..n {
                self.delta[i] = self.hmm.init()[i].ln() + self.hmm.log_emit(i, obs);
            }
            let mut col = self.take_col(n);
            for (j, p) in col.iter_mut().enumerate() {
                *p = j; // self-pointers for t = 0
            }
            self.pending.push_back(col);
        } else {
            let mut back = self.take_col(n);
            let log_trans = self.hmm.log_trans().as_slice();
            for j in 0..n {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0;
                for i in 0..n {
                    let v = self.delta[i] + log_trans[i * n + j];
                    if v > best {
                        best = v;
                        arg = i;
                    }
                }
                self.delta_next[j] = best + self.hmm.log_emit(j, obs);
                back[j] = arg;
            }
            std::mem::swap(&mut self.delta, &mut self.delta_next);
            self.pending.push_back(back);
            self.coalesce();
            if let Some(max) = self.max_pending {
                while self.pending.len() > max {
                    self.force_commit_oldest();
                }
            }
        }
        self.len += 1;
        // Rescale to keep deltas bounded over unbounded streams; a common
        // shift leaves every argmax unchanged.
        let max = self.delta.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() && max.abs() > 1e6 {
            for d in &mut self.delta {
                *d -= max;
            }
        }
        self.best_state()
    }

    /// The most likely current state.
    #[must_use]
    pub fn best_state(&self) -> usize {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0;
        for (i, &d) in self.delta.iter().enumerate() {
            if d > best {
                best = d;
                arg = i;
            }
        }
        arg
    }

    /// The prefix of the decoded sequence that is already final: no future
    /// observation can change it.
    #[must_use]
    pub fn committed(&self) -> &[usize] {
        &self.committed
    }

    /// The full current best path (committed prefix + best pending
    /// suffix). Equivalent to batch Viterbi over everything seen so far.
    #[must_use]
    pub fn current_path(&self) -> Vec<usize> {
        let mut path = self.committed.clone();
        if self.pending.is_empty() {
            return path;
        }
        // Backtrack through the pending window from the best final state.
        let mut suffix = vec![0usize; self.pending.len()];
        let mut state = self.best_state();
        for (k, col) in self.pending.iter().enumerate().rev() {
            suffix[k] = state;
            state = col[state];
        }
        path.extend(suffix);
        path
    }

    /// Number of uncommitted trailing steps held in memory.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Force-commits the oldest pending step along the current best path
    /// (fixed-lag decision) when the window bound is hit.
    fn force_commit_oldest(&mut self) {
        if self.pending.len() <= 1 {
            return;
        }
        // Backtrack the current best path to the oldest pending column.
        let mut state = self.best_state();
        for col in self.pending.iter().skip(1).rev() {
            state = col[state];
        }
        self.committed.push(state);
        if let Some(removed) = self.pending.pop_front() {
            self.pool.push(removed);
        }
        if let Some(oldest) = self.pending.front_mut() {
            oldest.fill(0);
        }
    }

    /// Commits every pending column whose surviving paths have coalesced
    /// to a single ancestor.
    fn coalesce(&mut self) {
        let n = self.hmm.num_states();
        loop {
            if self.pending.len() <= 1 {
                return;
            }
            // Walk each surviving path back to the oldest pending column.
            self.ancestors.clear();
            self.ancestors.extend(0..n);
            for col in self.pending.iter().skip(1).rev() {
                // ancestors currently refer to states at this column's
                // time; map them one step back.
                for a in &mut self.ancestors {
                    *a = col[*a];
                }
            }
            let first = self.ancestors[0];
            if self.ancestors.iter().all(|&a| a == first) {
                self.committed.push(first);
                if let Some(removed) = self.pending.pop_front() {
                    self.pool.push(removed);
                }
                // Rebase the new oldest column: its entries pointed at
                // states of the removed column; after removal the oldest
                // column's backpointers become self-referential roots.
                if let Some(oldest) = self.pending.front_mut() {
                    oldest.fill(0); // ancestry below the commit point is fixed
                }
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::{CategoricalEmission, GaussianEmission};
    use crate::viterbi;
    use proptest::prelude::*;

    fn gaussian_hmm(stay: f64) -> Hmm<GaussianEmission> {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]],
            GaussianEmission::new(vec![(3.0, 1.0), (-3.0, 1.0)]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn new_decoder_is_empty() {
        let dec = StreamingViterbi::new(gaussian_hmm(0.9));
        assert!(dec.is_empty());
        assert_eq!(dec.len(), 0);
        assert!(dec.committed().is_empty());
        assert!(dec.current_path().is_empty());
    }

    #[test]
    fn filtering_decisions_track_strong_signal() {
        let mut dec = StreamingViterbi::new(gaussian_hmm(0.8));
        assert_eq!(dec.push(3.0), 0);
        assert_eq!(dec.push(3.1), 0);
        assert_eq!(dec.push(-3.0), 1);
        assert_eq!(dec.push(-2.9), 1);
        assert_eq!(dec.len(), 4);
    }

    #[test]
    fn current_path_matches_batch_viterbi() {
        let hmm = gaussian_hmm(0.9);
        let obs = vec![3.0, 2.8, -0.2, -3.1, -2.9, 3.0, 3.2, -3.0];
        let mut dec = StreamingViterbi::new(hmm.clone());
        for &o in &obs {
            dec.push(o);
        }
        assert_eq!(dec.current_path(), viterbi(&hmm, &obs));
    }

    #[test]
    fn committed_prefix_is_a_prefix_of_the_batch_path() {
        let hmm = gaussian_hmm(0.85);
        let obs: Vec<f64> = (0..60).map(|t| if (t / 12) % 2 == 0 { 3.0 } else { -3.0 }).collect();
        let mut dec = StreamingViterbi::new(hmm.clone());
        for &o in &obs {
            dec.push(o);
        }
        let batch = viterbi(&hmm, &obs);
        let committed = dec.committed();
        assert!(!committed.is_empty(), "strong evidence should coalesce paths");
        assert_eq!(&batch[..committed.len()], committed);
    }

    #[test]
    fn memory_stays_bounded_on_decisive_streams() {
        let mut dec = StreamingViterbi::new(gaussian_hmm(0.9));
        for t in 0..5_000 {
            let o = if (t / 100) % 2 == 0 { 3.0 } else { -3.0 };
            dec.push(o);
            assert!(dec.pending_len() <= 64, "pending window grew to {}", dec.pending_len());
        }
        assert!(dec.committed().len() > 4_900);
    }

    #[test]
    fn rescaling_keeps_deltas_finite() {
        let mut dec = StreamingViterbi::new(gaussian_hmm(0.99));
        for _ in 0..200_000 {
            dec.push(3.0);
        }
        assert_eq!(dec.best_state(), 0);
        assert_eq!(dec.len(), 200_000);
    }

    #[test]
    fn reset_decoder_matches_fresh_decoder() {
        let obs = vec![3.0, -3.1, 2.9, 3.0, -2.8, -3.0];
        let mut reused = StreamingViterbi::new(gaussian_hmm(0.7)).with_max_pending(4);
        for &o in &obs {
            reused.push(o);
        }
        reused.reset(gaussian_hmm(0.9));
        let mut fresh = StreamingViterbi::new(gaussian_hmm(0.9)).with_max_pending(4);
        for &o in &obs {
            assert_eq!(reused.push(o), fresh.push(o));
        }
        assert_eq!(reused.current_path(), fresh.current_path());
        assert_eq!(reused.committed(), fresh.committed());
        assert_eq!(reused.len(), fresh.len());
    }

    #[test]
    fn imported_forward_row_continues_bit_identically() {
        // The live decoder carries a pending window the resumed one
        // lacks: decisions must agree regardless. Observations this large
        // trigger the common-shift rescale, which must carry across too.
        let obs: Vec<f64> = (0..400)
            .map(|t| match t % 7 {
                0..=2 => 3.0e5,
                3 => 0.0,
                _ => -2.5e5,
            })
            .collect();
        for cut in [1usize, 2, 65, 200, 399] {
            let mut live = StreamingViterbi::new(gaussian_hmm(0.9)).with_max_pending(64);
            for &o in &obs[..cut] {
                live.push(o);
            }
            let mut resumed = StreamingViterbi::new(gaussian_hmm(0.9))
                .with_max_pending(64)
                .with_forward_row(live.forward_row(), live.len());
            assert_eq!(resumed.len(), cut);
            assert_eq!(resumed.best_state(), live.best_state());
            for &o in &obs[cut..] {
                assert_eq!(resumed.push(o), live.push(o), "cut {cut}");
                let (a, b) = (resumed.forward_row(), live.forward_row());
                assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()), "cut {cut}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one entry per state")]
    fn forward_row_of_the_wrong_width_is_rejected() {
        let _ = StreamingViterbi::new(gaussian_hmm(0.9)).with_forward_row(&[0.0], 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn streaming_equals_batch_on_random_symbol_streams(
            obs in prop::collection::vec(0usize..2, 1..40),
            stay in 0.1f64..0.9,
        ) {
            let hmm = Hmm::new(
                vec![0.5, 0.5],
                vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]],
                CategoricalEmission::new(vec![
                    vec![0.8, 0.2],
                    vec![0.25, 0.75],
                ]).unwrap(),
            ).unwrap();
            let mut dec = StreamingViterbi::new(hmm.clone());
            for &o in &obs {
                dec.push(o);
            }
            // The streaming path must achieve the same joint probability as
            // batch Viterbi (paths may differ only on exact ties).
            let batch = viterbi(&hmm, &obs);
            let a = crate::exhaustive::log_joint(&hmm, &obs, &dec.current_path());
            let b = crate::exhaustive::log_joint(&hmm, &obs, &batch);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod bounded_tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;

    fn neutral_hmm() -> Hmm<SymmetricGaussianEmission> {
        // Symmetric emission: a zero observation is equally likely in both
        // states, so surviving paths never coalesce.
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            SymmetricGaussianEmission::new(3.0, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn unbounded_window_grows_on_neutral_streams() {
        let mut dec = StreamingViterbi::new(neutral_hmm());
        for _ in 0..500 {
            dec.push(0.0);
        }
        assert!(dec.pending_len() > 100, "neutral evidence never coalesces");
    }

    #[test]
    fn bounded_window_stays_bounded() {
        let mut dec = StreamingViterbi::new(neutral_hmm()).with_max_pending(32);
        for _ in 0..5_000 {
            dec.push(0.0);
        }
        assert!(dec.pending_len() <= 32);
        assert_eq!(dec.committed().len() + dec.pending_len(), 5_000);
    }

    #[test]
    fn bound_does_not_change_decisive_decoding() {
        let obs: Vec<f64> = (0..200).map(|t| if (t / 40) % 2 == 0 { 3.0 } else { -3.0 }).collect();
        let mut bounded = StreamingViterbi::new(neutral_hmm()).with_max_pending(16);
        let mut unbounded = StreamingViterbi::new(neutral_hmm());
        for &o in &obs {
            bounded.push(o);
            unbounded.push(o);
        }
        assert_eq!(bounded.current_path(), unbounded.current_path());
    }

    #[test]
    #[should_panic(expected = "pending bound")]
    fn zero_bound_rejected() {
        let _ = StreamingViterbi::new(neutral_hmm()).with_max_pending(0);
    }
}
