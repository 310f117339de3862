//! Invest (Pasternack & Roth, COLING 2010): sources "invest" their
//! reliability among the facts they assert; fact credibility grows with a
//! nonlinear function `G(x) = x^g`, and sources earn back credibility in
//! proportion to their share of each fact's investment.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::input::stable_sum;
use crate::traits::Convergence;
use crate::{SnapshotInput, TruthDiscovery, VoteMatrix};
use sstd_types::{ClaimId, SourceId, TruthLabel};
use std::collections::BTreeMap;

/// Exponent `g` of the credibility growth function (1.2 in the original
/// paper).
const GROWTH: f64 = 1.2;

/// The Invest scheme.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{Invest, SnapshotInput, TruthDiscovery};
/// use sstd_types::*;
///
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(2), ClaimId::new(0), Timestamp::ZERO, Attitude::Disagree),
/// ];
/// let est = Invest::new().discover(&SnapshotInput::new(&reports, 3, 1));
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invest {
    /// Number of invest/credit rounds.
    rounds: usize,
}

impl Default for Invest {
    fn default() -> Self {
        Self { rounds: 10 }
    }
}

impl Invest {
    /// Creates Invest with the original hyper-parameters (`g = 1.2`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the number of invest/credit rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds > 0, "round count must be positive");
        self.rounds = rounds;
        self
    }

    /// Like [`TruthDiscovery::discover`] but also reports how the
    /// invest/credit fixed point ended (`final_delta` is the L∞ change
    /// of the normalized trust vector in the last round).
    #[must_use]
    pub fn discover_with_convergence(
        &self,
        input: &SnapshotInput<'_>,
    ) -> (BTreeMap<ClaimId, TruthLabel>, Convergence) {
        let votes = VoteMatrix::build(input);
        let n_claims = input.num_claims;
        let mut trust = vec![1.0f64; input.num_sources];
        // credibility[claim][fact] with fact 0 = true, 1 = false.
        let mut credibility = vec![[0.0f64; 2]; n_claims];
        let mut convergence =
            Convergence { iterations: 0, final_delta: f64::INFINITY, converged: false };

        for round in 0..self.rounds {
            // Investment phase: each source splits its trust equally over
            // its asserted facts (weighted by |vote|).
            let mut invested = vec![[Vec::new(), Vec::new()]; n_claims];
            // Remember each source's stake for the credit phase.
            let mut stakes: Vec<(usize, usize, usize, f64)> = Vec::new(); // (src, claim, fact, amount)
            for s in 0..input.num_sources {
                let sv = votes.source_votes(SourceId::new(s as u32));
                if sv.is_empty() {
                    continue;
                }
                let total_weight: f64 = sv.iter().map(|&(_, w)| w.abs()).sum();
                if total_weight <= 0.0 {
                    continue;
                }
                for &(c, w) in sv {
                    let fact = usize::from(w < 0.0);
                    let amount = trust[s] * (w.abs() / total_weight);
                    invested[c.index()][fact].push(amount);
                    stakes.push((s, c.index(), fact, amount));
                }
            }
            // Fold stakes per fact in canonical order (source relabeling
            // must not perturb the pools), then grow credibility.
            let pools: Vec<[f64; 2]> = invested
                .iter_mut()
                .map(|parts| [stable_sum(&mut parts[0]), stable_sum(&mut parts[1])])
                .collect();
            for u in 0..n_claims {
                for fact in 0..2 {
                    credibility[u][fact] = pools[u][fact].powf(GROWTH);
                }
            }
            // Credit phase: sources earn credibility proportional to their
            // share of each fact's total investment.
            let mut new_trust = vec![0.0f64; input.num_sources];
            for &(s, u, fact, amount) in &stakes {
                let pool = pools[u][fact];
                if pool > 0.0 {
                    new_trust[s] += credibility[u][fact] * (amount / pool);
                }
            }
            // Normalize so total trust mass is conserved (prevents the
            // growth function from exploding trust across rounds).
            let total = stable_sum(&mut new_trust.clone());
            let active = votes.active_sources().count().max(1) as f64;
            if total > 0.0 {
                for t in &mut new_trust {
                    *t = *t / total * active;
                }
            } else {
                new_trust = vec![1.0; input.num_sources];
            }
            let delta =
                trust.iter().zip(&new_trust).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            trust = new_trust;
            convergence.iterations = round + 1;
            convergence.final_delta = delta;
        }
        // The loop always runs its full budget; call it converged when the
        // final normalized-trust update is already negligible.
        convergence.converged = convergence.final_delta < 1e-6;

        let scores: Vec<f64> =
            (0..n_claims).map(|u| credibility[u][0] - credibility[u][1]).collect();
        (votes.scores_to_labels(&scores), convergence)
    }
}

impl TruthDiscovery for Invest {
    fn name(&self) -> &'static str {
        "Invest"
    }

    fn discover(&self, input: &SnapshotInput<'_>) -> BTreeMap<ClaimId, TruthLabel> {
        self.discover_with_convergence(input).0
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
    fn majority_wins_with_equal_trust() {
        let reports =
            vec![r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree), r(2, 0, Attitude::Disagree)];
        let est = Invest::new().discover(&SnapshotInput::new(&reports, 3, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn focused_source_invests_more_per_claim() {
        // Source 0 asserts only claim 0 (full stake). Sources 1 and 2
        // spread their stake over 6 claims each, so their per-claim
        // investment is 1/6. On claim 0: focused 1.0 vs spread 2/6.
        let mut reports = vec![r(0, 0, Attitude::Agree)];
        for c in 0..6u32 {
            reports.push(r(1, c, Attitude::Disagree));
            reports.push(r(2, c, Attitude::Disagree));
        }
        let est = Invest::new().discover(&SnapshotInput::new(&reports, 3, 6));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True, "focused investment wins claim 0");
        assert_eq!(est[&ClaimId::new(3)], TruthLabel::False, "uncontested denials hold");
    }

    #[test]
    fn empty_input_defaults_false() {
        let est = Invest::new().discover(&SnapshotInput::new(&[], 2, 2));
        assert!(est.values().all(|&l| l == TruthLabel::False));
    }

    #[test]
    fn name_matches_paper_table() {
        assert_eq!(Invest::new().name(), "Invest");
    }
}
