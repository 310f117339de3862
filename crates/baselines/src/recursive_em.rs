//! Recursive EM (Wang, Abdelzaher, Kaplan & Aggarwal, ICDCS 2013:
//! "Recursive Fact-finding: A Streaming Approach to Truth Estimation in
//! Crowdsourcing Applications") — the other streaming scheme the SSTD
//! paper's related-work section discusses (its citation [36]).
//!
//! The batch MLE fact-finder of Wang et al. (IPSN'12) jointly estimates
//! per-source reliability and claim truth with EM over the full report
//! matrix. The recursive variant keeps the per-source parameters as
//! running state and, for each arriving batch, runs one E-step (claim
//! truth posterior under current source parameters) and one recursive
//! M-step (each source parameter is the ratio of exponentially forgotten
//! posterior-weighted sufficient statistics) — O(batch) per step, no
//! reprocessing.
//!
//! Not part of the SSTD paper's comparison tables; provided as an extra
//! dynamic baseline for completeness (see `SchemeKind::RecursiveEm`).

use crate::StreamingTruthDiscovery;
use sstd_types::{ClaimId, Report, TruthLabel};
use std::collections::BTreeMap;

/// Weight of one batch's statistics in the recursive M-step (`0` would
/// freeze the priors, `1` forget everything between batches).
const LEARNING_RATE: f64 = 0.2;

/// Per-source recursive reliability state.
#[derive(Debug, Clone, Copy)]
struct SourceState {
    /// P(source reports "true" | claim is true) — the `a_i` of Wang et al.
    a: f64,
    /// P(source reports "true" | claim is false) — the `b_i`.
    b: f64,
    /// Forgotten `(Σ z·said, Σ z)` behind `a`, `z` the posterior that the
    /// voted claim is true.
    a_stats: (f64, f64),
    /// Forgotten `(Σ (1−z)·said, Σ (1−z))` behind `b`.
    b_stats: (f64, f64),
}

impl Default for SourceState {
    fn default() -> Self {
        // Mildly informative prior: better than chance, not gullible. It
        // enters the statistics as one claim's worth of evidence.
        Self { a: 0.7, b: 0.3, a_stats: (0.7, 1.0), b_stats: (0.3, 1.0) }
    }
}

/// Forgets `stats` by one batch, folds in the batch's `(said, mass)`, and
/// returns the new ratio — or `current` while the mass behind it is nil.
fn forget_and_fold(stats: &mut (f64, f64), said: f64, mass: f64, current: f64) -> f64 {
    let keep = 1.0 - LEARNING_RATE;
    stats.0 = keep * stats.0 + LEARNING_RATE * said;
    stats.1 = keep * stats.1 + LEARNING_RATE * mass;
    if stats.1 > 1e-9 {
        stats.0 / stats.1
    } else {
        current
    }
}

/// The recursive EM streaming truth estimator.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{RecursiveEm, StreamingTruthDiscovery};
/// use sstd_types::*;
///
/// let mut rec = RecursiveEm::new();
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
/// ];
/// let est = rec.observe_interval(&reports);
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone)]
pub struct RecursiveEm {
    /// Prior probability that a claim is true.
    prior_true: f64,
    sources: BTreeMap<u32, SourceState>,
    previous: BTreeMap<ClaimId, TruthLabel>,
}

impl Default for RecursiveEm {
    fn default() -> Self {
        Self { prior_true: 0.5, sources: BTreeMap::new(), previous: BTreeMap::new() }
    }
}

impl RecursiveEm {
    /// Creates the estimator with the original paper's style defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self, source: u32) -> SourceState {
        self.sources.get(&source).copied().unwrap_or_default()
    }
}

impl StreamingTruthDiscovery for RecursiveEm {
    fn name(&self) -> &'static str {
        "RecEM"
    }

    fn observe_interval(&mut self, reports: &[Report]) -> BTreeMap<ClaimId, TruthLabel> {
        // Collect this batch's votes: claim → [(source, says_true, weight)],
        // sorted canonically so the posterior is a function of the report
        // multiset, not of arrival order.
        let mut votes: BTreeMap<ClaimId, Vec<(u32, bool, f64)>> = BTreeMap::new();
        for r in reports {
            let cs = r.contribution_score().value();
            if cs != 0.0 {
                votes.entry(r.claim()).or_default().push((
                    r.source().index() as u32,
                    cs > 0.0,
                    cs.abs().min(1.0),
                ));
            }
        }
        for vs in votes.values_mut() {
            vs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
        }

        // E-step: truth posterior per claim under current source params
        // (log-space product of per-source likelihood ratios).
        let mut posterior: BTreeMap<ClaimId, f64> = BTreeMap::new();
        let mut estimates = BTreeMap::new();
        for (&claim, vs) in &votes {
            let mut log_odds = (self.prior_true / (1.0 - self.prior_true)).ln();
            for &(src, says_true, weight) in vs {
                let st = self.state(src);
                let (p_given_true, p_given_false) =
                    if says_true { (st.a, st.b) } else { (1.0 - st.a, 1.0 - st.b) };
                log_odds += weight * (p_given_true.max(1e-6) / p_given_false.max(1e-6)).ln();
            }
            let p = 1.0 / (1.0 + (-log_odds).exp());
            posterior.insert(claim, p);
            estimates.insert(claim, TruthLabel::from_bool(p > 0.5));
        }
        // Unseen claims keep their previous estimate.
        for (&claim, &label) in &self.previous {
            estimates.entry(claim).or_insert(label);
        }

        // Recursive M-step: fold the batch's posterior-weighted sufficient
        // statistics into each voting source's forgotten ones. A batch
        // with little posterior mass on one side barely moves that side's
        // parameter: a source voting on one true claim learns about `a`,
        // not `b`.
        let mut stats: BTreeMap<u32, (f64, f64, f64, f64)> = BTreeMap::new();
        for (&claim, vs) in &votes {
            let z = posterior[&claim];
            for &(src, says_true, weight) in vs {
                let e = stats.entry(src).or_insert((0.0, 0.0, 0.0, 0.0));
                let said = if says_true { weight } else { 0.0 };
                // (Σ z·said, Σ z, Σ (1−z)·said, Σ (1−z))
                e.0 += z * said;
                e.1 += z * weight;
                e.2 += (1.0 - z) * said;
                e.3 += (1.0 - z) * weight;
            }
        }
        for (src, (zt, z, ft, f)) in stats {
            let mut st = self.state(src);
            st.a = forget_and_fold(&mut st.a_stats, zt, z, st.a).clamp(0.05, 0.95);
            st.b = forget_and_fold(&mut st.b_stats, ft, f, st.b).clamp(0.05, 0.95);
            self.sources.insert(src, st);
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
    fn majority_resolves_a_cold_start_batch() {
        let mut rec = RecursiveEm::new();
        let est = rec.observe_interval(&[
            r(0, 0, Attitude::Agree),
            r(1, 0, Attitude::Agree),
            r(2, 0, Attitude::Disagree),
        ]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn source_parameters_adapt_recursively() {
        let mut rec = RecursiveEm::new();
        // Source 0 always agrees with a 3-source majority; source 3
        // always contradicts it.
        for _ in 0..8 {
            let _ = rec.observe_interval(&[
                r(0, 0, Attitude::Agree),
                r(1, 0, Attitude::Agree),
                r(2, 0, Attitude::Agree),
                r(3, 0, Attitude::Disagree),
            ]);
        }
        let good = rec.state(0);
        let bad = rec.state(3);
        assert!(good.a > bad.a, "good a {} vs bad a {}", good.a, bad.a);
    }

    #[test]
    fn unseen_claims_carry_forward() {
        let mut rec = RecursiveEm::new();
        let _ = rec.observe_interval(&[r(0, 0, Attitude::Agree)]);
        let est = rec.observe_interval(&[r(0, 1, Attitude::Disagree)]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "carried");
        assert_eq!(est[&ClaimId::new(1)], TruthLabel::False);
    }

    #[test]
    fn learned_reliability_breaks_headcount_ties() {
        let mut rec = RecursiveEm::new();
        // Train on batches of claims of *both* polarities (identifying
        // `b`, the false-positive rate, requires majority-false claims in
        // the same M-step): sources 0, 1, 4 track the majority truth,
        // sources 2, 3 oppose it.
        for _ in 0..10 {
            let batch: Vec<Report> = (1..7u32)
                .flat_map(|c| {
                    let truth_is_true = c % 2 == 1;
                    let honest = if truth_is_true { Attitude::Agree } else { Attitude::Disagree };
                    [
                        r(0, c, honest),
                        r(1, c, honest),
                        r(4, c, honest),
                        r(2, c, honest.flipped()),
                        r(3, c, honest.flipped()),
                    ]
                })
                .collect();
            let _ = rec.observe_interval(&batch);
        }
        // Test: an even 2-vs-2 split on a new claim. Headcount is tied;
        // learned reliability must break the tie toward the reliables.
        let est = rec.observe_interval(&[
            r(0, 0, Attitude::Agree),
            r(1, 0, Attitude::Agree),
            r(2, 0, Attitude::Disagree),
            r(3, 0, Attitude::Disagree),
        ]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "reliability breaks the tie");
    }

    #[test]
    fn one_claim_batches_still_identify_both_parameters() {
        let mut rec = RecursiveEm::new();
        // One claim per interval, alternating polarity: sources 0, 1, 4
        // track the truth, sources 2, 3 oppose it. No single M-step sees
        // both polarities.
        for c in 1..=120u32 {
            let honest = if c % 2 == 1 { Attitude::Agree } else { Attitude::Disagree };
            let _ = rec.observe_interval(&[
                r(0, c, honest),
                r(1, c, honest),
                r(4, c, honest),
                r(2, c, honest.flipped()),
                r(3, c, honest.flipped()),
            ]);
        }
        let (good, bad) = (rec.state(0), rec.state(2));
        assert!(good.a > good.b, "honest a {} vs b {}", good.a, good.b);
        assert!(bad.a < bad.b, "contrarian a {} vs b {}", bad.a, bad.b);
        let est = rec.observe_interval(&[
            r(0, 0, Attitude::Agree),
            r(1, 0, Attitude::Agree),
            r(2, 0, Attitude::Disagree),
            r(3, 0, Attitude::Disagree),
        ]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "reliability breaks the tie");
    }

    #[test]
    fn empty_interval_is_a_noop() {
        let mut rec = RecursiveEm::new();
        let _ = rec.observe_interval(&[r(0, 0, Attitude::Agree)]);
        let est = rec.observe_interval(&[]);
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }
}
