//! Online Viterbi filtering for streaming truth discovery.
//!
//! The batch [`viterbi_into`](crate::viterbi_into) decoder needs the whole
//! observation sequence before it can emit anything. A streaming truth
//! discovery job cannot wait: it must output the current truth estimate as
//! each ACS observation arrives (paper §III-E). [`StreamingViterbi`] runs
//! the batch decoder's max-product step one observation at a time and
//! reports the state with the best score, which is the last state of the
//! batch Viterbi path over everything pushed so far. It keeps no
//! backpointers: the streaming engine emits one decision per closed
//! interval and never revises it, so the path behind the current state is
//! never read. Its memory is one score per state, whatever the stream's
//! length.

use crate::viterbi::{argmax, initial_scores, max_product_step};
use crate::Hmm;

/// Online Viterbi filter over a fixed model.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{Hmm, StreamingViterbi, SymmetricGaussianEmission};
///
/// let hmm = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
///     SymmetricGaussianEmission::new(4.0, 1.0).unwrap(),
/// ).unwrap();
/// let mut dec = StreamingViterbi::new(hmm);
/// assert_eq!(dec.push(4.2), 0); // current best state
/// assert_eq!(dec.push(-4.0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingViterbi {
    hmm: Hmm,
    /// Best log-score per state at the current time; `None` until the
    /// first observation.
    delta: Option<[f64; 2]>,
}

impl StreamingViterbi {
    /// Creates a decoder with no observations consumed.
    #[must_use]
    pub fn new(hmm: Hmm) -> Self {
        Self { hmm, delta: None }
    }

    /// Returns the decoder unchanged. The filter keeps no lattice, so
    /// there is no window to bound; the method stays only while the
    /// frozen benchmark calls it, and goes when that is re-cut (ROADMAP
    /// item 8).
    #[must_use]
    pub fn with_max_pending(self, _max: usize) -> Self {
        self
    }

    /// Restarts decoding against `hmm`, as if freshly constructed, so a
    /// refit (new model, replayed history) allocates nothing.
    pub fn reset(&mut self, hmm: Hmm) {
        self.hmm = hmm;
        self.delta = None;
    }

    /// Consumes one observation and returns the *current* most likely
    /// state (the filtering decision the streaming engine reports).
    pub fn push(&mut self, obs: f64) -> usize {
        let mut delta = match &self.delta {
            None => initial_scores(&self.hmm, obs),
            Some(delta) => max_product_step(&self.hmm, delta, obs, None),
        };
        // Rescale to keep deltas bounded over unbounded streams; a common
        // shift leaves every argmax unchanged.
        let max = delta.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() && max.abs() > 1e6 {
            for d in &mut delta {
                *d -= max;
            }
        }
        self.delta = Some(delta);
        argmax(&delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;

    fn gaussian_hmm(stay: f64) -> Hmm {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]],
            SymmetricGaussianEmission::new(3.0, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn filtering_decisions_track_strong_signal() {
        let mut dec = StreamingViterbi::new(gaussian_hmm(0.8));
        assert_eq!(dec.push(3.0), 0);
        assert_eq!(dec.push(3.1), 0);
        assert_eq!(dec.push(-3.0), 1);
        assert_eq!(dec.push(-2.9), 1);
    }

    #[test]
    fn rescaling_keeps_deltas_finite() {
        // A narrow emission costs about 46 per step in the best state, so
        // the scores pass the rescale threshold every ~22 000 pushes.
        let mut dec = StreamingViterbi::new(
            Hmm::new(
                vec![0.5, 0.5],
                vec![vec![0.99, 0.01], vec![0.01, 0.99]],
                SymmetricGaussianEmission::new(3.0, 0.01).unwrap(),
            )
            .unwrap(),
        );
        for _ in 0..200_000 {
            assert_eq!(dec.push(2.9), 0);
        }
        // Scores that had run off to −∞ would pin the decision for ever.
        assert!((0..10).map(|_| dec.push(-2.9)).any(|state| state == 1));
    }

    #[test]
    fn reset_decoder_matches_fresh_decoder() {
        let obs = vec![3.0, -3.1, 2.9, 3.0, -2.8, -3.0];
        let mut reused = StreamingViterbi::new(gaussian_hmm(0.7));
        for &o in &obs {
            reused.push(o);
        }
        reused.reset(gaussian_hmm(0.9));
        let mut fresh = StreamingViterbi::new(gaussian_hmm(0.9));
        for &o in &obs {
            assert_eq!(reused.push(o), fresh.push(o));
        }
    }
}
