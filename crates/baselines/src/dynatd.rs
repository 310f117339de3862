//! DynaTD (Li et al., KDD 2015, "On the Discovery of Evolving Truth"):
//! the streaming MAP baseline the SSTD paper compares against.
//!
//! DynaTD maintains per-source reliability as exponentially decayed
//! correct/incorrect counts and estimates the truth of each claim per
//! interval by a reliability-weighted vote, with a smoothness prior
//! linking consecutive intervals (truth rarely flips). Everything is
//! incremental — one pass over the stream.

use crate::input::stable_sum;
use crate::StreamingTruthDiscovery;
use sstd_types::{ClaimId, Report, TruthLabel};
use std::collections::BTreeMap;

/// Exponential decay applied to each source's historical counts every
/// interval.
const DECAY: f64 = 0.9;

/// Strength of the temporal smoothness prior.
const SMOOTHNESS: f64 = 0.5;

/// The DynaTD streaming scheme.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{DynaTd, StreamingTruthDiscovery};
/// use sstd_types::*;
///
/// let mut d = DynaTd::new();
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
/// ];
/// let est = d.observe_interval(&reports);
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynaTd {
    /// Per-source decayed (correct, incorrect) counts.
    counts: BTreeMap<u32, (f64, f64)>,
    /// Last interval's estimates (the smoothness anchor).
    previous: BTreeMap<ClaimId, TruthLabel>,
}

impl DynaTd {
    /// Creates DynaTD with decay 0.9 and smoothness 0.5.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Log-odds reliability weight of a source, smoothed with an
    /// optimistic 2:1 prior so cold-start sources vote with modest
    /// positive weight (KDD'15 initializes sources as better than chance).
    fn weight(&self, source: u32) -> f64 {
        let (c, w) = self.counts.get(&source).copied().unwrap_or((0.0, 0.0));
        ((c + 2.0) / (w + 1.0)).ln().clamp(-3.0, 3.0)
    }
}

impl StreamingTruthDiscovery for DynaTd {
    fn name(&self) -> &'static str {
        "DynaTD"
    }

    fn observe_interval(&mut self, reports: &[Report]) -> BTreeMap<ClaimId, TruthLabel> {
        // Aggregate this interval's signed votes per claim, in canonical
        // order so the estimate is a function of the report multiset,
        // not of arrival order.
        let mut votes: BTreeMap<ClaimId, Vec<(u32, f64)>> = BTreeMap::new();
        for r in reports {
            let cs = r.contribution_score().value();
            if cs != 0.0 {
                votes.entry(r.claim()).or_default().push((r.source().index() as u32, cs));
            }
        }
        for vs in votes.values_mut() {
            vs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }

        // MAP estimate per claim: weighted vote + smoothness prior.
        let mut estimates = BTreeMap::new();
        for (&claim, vs) in &votes {
            let mut parts: Vec<f64> = vs.iter().map(|&(s, cs)| self.weight(s) * cs).collect();
            let mut score = stable_sum(&mut parts);
            if let Some(prev) = self.previous.get(&claim) {
                score += SMOOTHNESS * if prev.as_bool() { 1.0 } else { -1.0 };
            }
            estimates.insert(claim, TruthLabel::from_bool(score > 0.0));
        }
        // Claims with no fresh evidence keep their previous label.
        for (&claim, &label) in &self.previous {
            estimates.entry(claim).or_insert(label);
        }

        // Decay all counts, then credit sources against the new estimates.
        for (c, w) in self.counts.values_mut() {
            *c *= DECAY;
            *w *= DECAY;
        }
        for (&claim, vs) in &votes {
            let truth = estimates[&claim];
            for &(s, cs) in vs {
                let said_true = cs > 0.0;
                let entry = self.counts.entry(s).or_insert((0.0, 0.0));
                if said_true == truth.as_bool() {
                    entry.0 += cs.abs().min(1.0);
                } else {
                    entry.1 += cs.abs().min(1.0);
                }
            }
        }

        self.previous = estimates.clone();
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, SourceId, Timestamp};

    fn r(s: u32, c: u32, att: Attitude) -> Report {
        Report::plain(SourceId::new(s), ClaimId::new(c), Timestamp::ZERO, att)
    }

    #[test]
    fn first_interval_behaves_like_weighted_vote() {
        let mut d = DynaTd::new();
        let est = d.observe_interval(&[
            r(0, 0, Attitude::Agree),
            r(1, 0, Attitude::Agree),
            r(2, 0, Attitude::Disagree),
        ]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn claims_without_fresh_evidence_keep_previous_label() {
        let mut d = DynaTd::new();
        let _ = d.observe_interval(&[r(0, 0, Attitude::Agree)]);
        let est = d.observe_interval(&[r(0, 1, Attitude::Agree)]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "carried forward");
        assert_eq!(est[&ClaimId::new(1)], TruthLabel::True);
    }

    #[test]
    fn reliable_sources_earn_weight() {
        let mut d = DynaTd::new();
        // Source 0 agrees with a 3-source majority for several intervals.
        for _ in 0..5 {
            let _ = d.observe_interval(&[
                r(0, 0, Attitude::Agree),
                r(1, 0, Attitude::Agree),
                r(2, 0, Attitude::Agree),
                r(3, 0, Attitude::Disagree),
            ]);
        }
        assert!(d.weight(0) > d.weight(3), "majority-consistent source outweighs contrarian");
    }

    #[test]
    fn smoothness_resists_a_single_noisy_interval() {
        let mut d = DynaTd::new();
        // Build up a stable True estimate with a 3-source majority.
        for _ in 0..4 {
            let _ = d.observe_interval(&[
                r(0, 0, Attitude::Agree),
                r(1, 0, Attitude::Agree),
                r(2, 0, Attitude::Agree),
            ]);
        }
        // One interval of a single weak contradiction: hedged denial.
        use sstd_types::{Independence, Uncertainty};
        let noisy = Report::new(
            SourceId::new(9),
            ClaimId::new(0),
            Timestamp::ZERO,
            Attitude::Disagree,
            Uncertainty::new(0.7).unwrap(),
            Independence::new(0.5).unwrap(),
        );
        let est = d.observe_interval(&[noisy]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "prior holds against weak noise");
    }

    #[test]
    fn sustained_flip_overrides_the_prior() {
        let mut d = DynaTd::new();
        for _ in 0..3 {
            let _ = d.observe_interval(&[r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree)]);
        }
        // Strong, repeated contradiction flips the estimate.
        let mut last = BTreeMap::new();
        for _ in 0..3 {
            last = d.observe_interval(&[
                r(2, 0, Attitude::Disagree),
                r(3, 0, Attitude::Disagree),
                r(4, 0, Attitude::Disagree),
            ]);
        }
        assert_eq!(last[&ClaimId::new(0)], TruthLabel::False);
    }

    #[test]
    fn decay_forgets_stale_reputation() {
        let mut d = DynaTd::new();
        let _ = d.observe_interval(&[r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree)]);
        let w_before = d.weight(0);
        // Several empty intervals decay the counts toward zero.
        for _ in 0..10 {
            let _ = d.observe_interval(&[]);
        }
        let w_after = d.weight(0);
        assert!(w_after < w_before, "reputation decays: {w_before} -> {w_after}");
    }

    #[test]
    fn name_matches_paper_table() {
        assert_eq!(DynaTd::new().name(), "DynaTD");
    }
}
