//! CATD (Li et al., VLDB 2014): confidence-aware truth discovery for
//! long-tail data.
//!
//! Most social-sensing sources contribute only a handful of reports, so a
//! point estimate of their reliability is worthless. CATD instead weights
//! each source by a *confidence interval* on its error: the weight is the
//! chi-square quantile with as many degrees of freedom as the source has
//! observations, divided by the source's accumulated squared error —
//! sources with few observations get conservatively small weights even
//! when they happen to be all-correct so far.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::input::stable_sum;
use crate::{SnapshotInput, TruthDiscovery, VoteMatrix};
use sstd_stats::special::chi_square_quantile;
use sstd_types::{ClaimId, SourceId, TruthLabel};
use std::collections::BTreeMap;

/// The CATD scheme.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{Catd, SnapshotInput, TruthDiscovery};
/// use sstd_types::*;
///
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(2), ClaimId::new(0), Timestamp::ZERO, Attitude::Disagree),
/// ];
/// let est = Catd::new().discover(&SnapshotInput::new(&reports, 3, 1));
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Catd {
    /// Significance level `α` of the confidence interval (0.05 in the
    /// original paper).
    alpha: f64,
    /// Iterations of the weight/truth fixpoint.
    rounds: usize,
    /// Smoothing added to each source's squared error so perfect sources
    /// keep finite weight.
    smoothing: f64,
}

impl Default for Catd {
    fn default() -> Self {
        Self { alpha: 0.05, rounds: 10, smoothing: 0.5 }
    }
}

impl Catd {
    /// Creates CATD with `α = 0.05`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TruthDiscovery for Catd {
    fn name(&self) -> &'static str {
        "CATD"
    }

    fn discover(&self, input: &SnapshotInput<'_>) -> BTreeMap<ClaimId, TruthLabel> {
        let votes = VoteMatrix::build(input);
        let n_claims = input.num_claims;
        let n_sources = input.num_sources;

        // Start from (weighted) majority voting.
        let mut truth: Vec<f64> = (0..n_claims)
            .map(|u| {
                let mut parts: Vec<f64> =
                    votes.claim_votes(ClaimId::new(u as u32)).iter().map(|&(_, w)| w).collect();
                if stable_sum(&mut parts) > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();

        // χ² quantiles depend only on each source's vote count; memoize
        // per distinct count (the long tail shares a handful of values).
        let mut quantile_cache: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        let mut weights = vec![0.0f64; n_sources];
        for _ in 0..self.rounds {
            // Weight update: χ²(α/2, n_i) / Σ squared errors.
            for s in 0..n_sources {
                let sv = votes.source_votes(SourceId::new(s as u32));
                if sv.is_empty() {
                    weights[s] = 0.0;
                    continue;
                }
                let quantile = *quantile_cache
                    .entry(sv.len())
                    .or_insert_with(|| chi_square_quantile(self.alpha / 2.0, sv.len() as f64));
                let sq_err: f64 = sv
                    .iter()
                    .map(|&(c, w)| {
                        let vote = if w > 0.0 { 1.0 } else { -1.0 };
                        let d = vote - truth[c.index()];
                        d * d / 4.0 // normalize {−2, 0, 2} differences to {0, 1}
                    })
                    .sum();
                weights[s] = quantile / (sq_err + self.smoothing);
            }
            // Truth update: weighted vote.
            for u in 0..n_claims {
                let cv = votes.claim_votes(ClaimId::new(u as u32));
                if cv.is_empty() {
                    truth[u] = -1.0;
                    continue;
                }
                let mut parts: Vec<f64> = cv
                    .iter()
                    .map(|&(src, w)| weights[src.index()] * w.signum() * w.abs().min(1.0))
                    .collect();
                truth[u] = if stable_sum(&mut parts) > 0.0 { 1.0 } else { -1.0 };
            }
        }

        let scores: Vec<f64> =
            (0..n_claims)
                .map(|u| {
                    if votes.claim_votes(ClaimId::new(u as u32)).is_empty() {
                        0.0
                    } else {
                        truth[u]
                    }
                })
                .collect();
        votes.scores_to_labels(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, Report, Timestamp};

    fn r(s: u32, c: u32, att: Attitude) -> Report {
        Report::plain(SourceId::new(s), ClaimId::new(c), Timestamp::ZERO, att)
    }

    #[test]
    fn majority_resolves_simple_case() {
        let reports =
            vec![r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree), r(2, 0, Attitude::Disagree)];
        let est = Catd::new().discover(&SnapshotInput::new(&reports, 3, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn experienced_source_outweighs_one_shot_sources() {
        // Source 0 votes correctly on 20 claims (high df → big χ² weight).
        // On claim 0, it faces two one-shot sources voting the other way;
        // their df = 1 quantile is tiny, so the veteran wins.
        let mut reports = vec![r(0, 0, Attitude::Agree)];
        for c in 1..21u32 {
            reports.push(r(0, c, Attitude::Agree));
            // Corroborate the veteran on the tail claims so its errors
            // stay near zero.
            reports.push(r(1, c, Attitude::Agree));
        }
        reports.push(r(2, 0, Attitude::Disagree));
        reports.push(r(3, 0, Attitude::Disagree));
        let est = Catd::new().discover(&SnapshotInput::new(&reports, 4, 21));
        assert_eq!(
            est[&ClaimId::new(0)],
            TruthLabel::True,
            "long-record source should beat two one-shot deniers"
        );
    }

    #[test]
    fn long_tail_weights_are_conservative() {
        // Directly check the weighting property: χ²(α/2, 1) « χ²(α/2, 20).
        use sstd_stats::special::chi_square_quantile;
        let small = chi_square_quantile(0.025, 1.0);
        let large = chi_square_quantile(0.025, 20.0);
        assert!(large > 10.0 * small);
    }

    #[test]
    fn unreported_claims_false() {
        let reports = vec![r(0, 0, Attitude::Agree)];
        let est = Catd::new().discover(&SnapshotInput::new(&reports, 1, 2));
        assert_eq!(est[&ClaimId::new(1)], TruthLabel::False);
    }

    #[test]
    fn empty_input_is_fine() {
        let est = Catd::new().discover(&SnapshotInput::new(&[], 3, 2));
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn name_matches_paper_table() {
        assert_eq!(Catd::new().name(), "CATD");
    }
}
