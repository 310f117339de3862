//! RTD (Zhang, Han & Wang, IEEE BigData 2016): robust truth discovery in
//! sparse social media sensing.
//!
//! RTD's key observation is that widely spread misinformation looks like
//! strong corroboration to naive schemes because retweets and copies
//! multiply the apparent support. It therefore (i) discounts each report
//! by its *originality* and (ii) tracks each source's historical accuracy,
//! iteratively re-weighting sources by how often their original claims
//! match the current consensus.
//!
//! This implementation keeps both ingredients of the published scheme —
//! originality discounting via the independence score and
//! historical-accuracy source weights — in a fixpoint loop over the
//! snapshot. (The original formulation also exploits cross-event history;
//! a single snapshot is what the SSTD evaluation harness feeds every batch
//! baseline, so history here means "the rest of the window".)

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::input::stable_sum;
use crate::{SnapshotInput, TruthDiscovery, VoteMatrix};
use sstd_types::{ClaimId, SourceId, TruthLabel};
use std::collections::BTreeMap;

/// The RTD scheme.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{Rtd, SnapshotInput, TruthDiscovery};
/// use sstd_types::*;
///
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(2), ClaimId::new(0), Timestamp::ZERO, Attitude::Disagree),
/// ];
/// let est = Rtd::new().discover(&SnapshotInput::new(&reports, 3, 1));
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rtd {
    /// Mix between historical accuracy and originality in source weights.
    accuracy_weight: f64,
    rounds: usize,
}

impl Default for Rtd {
    fn default() -> Self {
        Self { accuracy_weight: 0.7, rounds: 10 }
    }
}

impl Rtd {
    /// Creates RTD with the default accuracy/originality mix (0.7/0.3).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TruthDiscovery for Rtd {
    fn name(&self) -> &'static str {
        "RTD"
    }

    fn discover(&self, input: &SnapshotInput<'_>) -> BTreeMap<ClaimId, TruthLabel> {
        // Note: the vote matrix already multiplies in the independence
        // score (via the contribution score), which is RTD's originality
        // discount at the report level.
        let votes = VoteMatrix::build(input);
        let n_claims = input.num_claims;
        let n_sources = input.num_sources;

        // Originality of a source: mean |vote weight| of its reports —
        // sources that mostly retweet have low-magnitude votes.
        let originality: Vec<f64> = (0..n_sources)
            .map(|s| {
                let sv = votes.source_votes(SourceId::new(s as u32));
                if sv.is_empty() {
                    0.0
                } else {
                    sv.iter().map(|&(_, w)| w.abs().min(1.0)).sum::<f64>() / sv.len() as f64
                }
            })
            .collect();

        let mut weights = vec![1.0f64; n_sources];
        let mut truth = vec![0.0f64; n_claims];

        for _ in 0..self.rounds {
            // Truth update: weight-discounted vote, folded in canonical
            // order so a source relabeling cannot perturb the score.
            for u in 0..n_claims {
                let mut parts: Vec<f64> = votes
                    .claim_votes(ClaimId::new(u as u32))
                    .iter()
                    .map(|&(src, w)| weights[src.index()] * w)
                    .collect();
                truth[u] = stable_sum(&mut parts);
            }
            // Source weight update: mix of agreement with consensus and
            // originality.
            for s in 0..n_sources {
                let sv = votes.source_votes(SourceId::new(s as u32));
                if sv.is_empty() {
                    weights[s] = 0.0;
                    continue;
                }
                let accuracy: f64 = sv
                    .iter()
                    .map(|&(c, w)| {
                        let consensus = truth[c.index()];
                        if consensus == 0.0 {
                            0.5
                        } else {
                            f64::from(u8::from(consensus.signum() == w.signum()))
                        }
                    })
                    .sum::<f64>()
                    / sv.len() as f64;
                weights[s] =
                    self.accuracy_weight * accuracy + (1.0 - self.accuracy_weight) * originality[s];
            }
        }

        votes.scores_to_labels(&truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, Independence, Report, Timestamp, Uncertainty};

    fn r(s: u32, c: u32, att: Attitude) -> Report {
        Report::plain(SourceId::new(s), ClaimId::new(c), Timestamp::ZERO, att)
    }

    /// A retweet cascade (many low-independence copies) should lose to
    /// fewer original reports — RTD's core robustness property.
    #[test]
    fn copy_cascade_does_not_overwhelm_originals() {
        let mut reports = Vec::new();
        // 3 original, confident denials.
        for s in 0..3u32 {
            reports.push(r(s, 0, Attitude::Disagree));
        }
        // 8 retweeted affirmations with low independence (η = 0.1).
        for s in 3..11u32 {
            reports.push(Report::new(
                SourceId::new(s),
                ClaimId::new(0),
                Timestamp::ZERO,
                Attitude::Agree,
                Uncertainty::new(0.0).unwrap(),
                Independence::new(0.1).unwrap(),
            ));
        }
        let est = Rtd::new().discover(&SnapshotInput::new(&reports, 11, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::False, "cascade must not win");
    }

    #[test]
    fn plain_majority_still_works() {
        let reports =
            vec![r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree), r(2, 0, Attitude::Disagree)];
        let est = Rtd::new().discover(&SnapshotInput::new(&reports, 3, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn consistent_sources_gain_weight_across_claims() {
        // Sources 0-1 vote together on 6 claims; source 2 is alone and
        // contrarian everywhere. On the tie-ish claim 6 (1 vs 1), the
        // consistent source should win through its higher learned weight.
        let mut reports = Vec::new();
        for c in 0..6u32 {
            reports.push(r(0, c, Attitude::Agree));
            reports.push(r(1, c, Attitude::Agree));
            reports.push(r(2, c, Attitude::Disagree));
        }
        reports.push(r(0, 6, Attitude::Agree));
        reports.push(r(2, 6, Attitude::Disagree));
        let est = Rtd::new().discover(&SnapshotInput::new(&reports, 3, 7));
        assert_eq!(est[&ClaimId::new(6)], TruthLabel::True);
    }

    #[test]
    fn empty_input_defaults_false() {
        let est = Rtd::new().discover(&SnapshotInput::new(&[], 2, 2));
        assert!(est.values().all(|&l| l == TruthLabel::False));
    }

    #[test]
    fn name_matches_paper_table() {
        assert_eq!(Rtd::new().name(), "RTD");
    }
}
