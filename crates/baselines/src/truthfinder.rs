//! TruthFinder (Yin, Han & Yu, TKDE 2008): the first formal truth-discovery
//! algorithm, referenced as a primary baseline in the SSTD evaluation.
//!
//! Each claim contributes two mutually exclusive *facts* — "claim is true"
//! and "claim is false". Source trustworthiness and fact confidence are
//! propagated iteratively:
//!
//! - fact support: `σ(f) = Σ_{providers} τ(i)` with `τ(i) = −ln(1 − t_i)`;
//! - mutual exclusion: `σ*(f) = σ(f) − ρ·σ(¬f)`;
//! - confidence: `s(f) = 1 / (1 + e^{−γ σ*(f)})` (the dampened sigmoid);
//! - trust: `t_i` = mean confidence of the facts source `i` provides.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::input::stable_sum;
use crate::traits::Convergence;
use crate::{SnapshotInput, TruthDiscovery, VoteMatrix};
use sstd_types::{ClaimId, TruthLabel};
use std::collections::BTreeMap;

/// The TruthFinder scheme.
///
/// # Examples
///
/// ```
/// use sstd_baselines::{SnapshotInput, TruthDiscovery, TruthFinder};
/// use sstd_types::*;
///
/// let reports = vec![
///     Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(1), ClaimId::new(0), Timestamp::ZERO, Attitude::Agree),
///     Report::plain(SourceId::new(2), ClaimId::new(0), Timestamp::ZERO, Attitude::Disagree),
/// ];
/// let est = TruthFinder::new().discover(&SnapshotInput::new(&reports, 3, 1));
/// assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthFinder {
    /// Initial source trustworthiness `t₀`.
    initial_trust: f64,
    /// Dampening factor `γ` in the confidence sigmoid.
    gamma: f64,
    /// Mutual-exclusion weight `ρ`.
    rho: f64,
    /// Iteration cap.
    max_iterations: usize,
    /// Convergence threshold on the trust-vector change (L∞).
    tolerance: f64,
}

impl Default for TruthFinder {
    fn default() -> Self {
        // γ = 0.3 and ρ = 0.5 follow the original paper's experiments.
        Self { initial_trust: 0.9, gamma: 0.3, rho: 0.5, max_iterations: 20, tolerance: 1e-4 }
    }
}

impl TruthFinder {
    /// Creates TruthFinder with the original paper's hyper-parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        assert!(cap > 0, "iteration cap must be positive");
        self.max_iterations = cap;
        self
    }

    /// Like [`TruthDiscovery::discover`] but also reports how the
    /// trust/confidence fixed point ended.
    #[must_use]
    pub fn discover_with_convergence(
        &self,
        input: &SnapshotInput<'_>,
    ) -> (BTreeMap<ClaimId, TruthLabel>, Convergence) {
        let votes = VoteMatrix::build(input);
        let n_claims = input.num_claims;
        let mut trust = vec![self.initial_trust; input.num_sources];

        // Fact confidences: [claim][0 = true-fact, 1 = false-fact].
        let mut confidence = vec![[0.5f64; 2]; n_claims];
        let mut convergence =
            Convergence { iterations: 0, final_delta: f64::INFINITY, converged: false };

        for round in 0..self.max_iterations {
            // Fact support from current trust, folded in canonical order
            // so a source relabeling cannot perturb the sums.
            let tau: Vec<f64> = trust.iter().map(|&t| -(1.0 - t.min(1.0 - 1e-9)).ln()).collect();
            let mut sigma = vec![[0.0f64; 2]; n_claims];
            for u in 0..n_claims {
                let mut parts = [Vec::new(), Vec::new()];
                for &(src, w) in votes.claim_votes(ClaimId::new(u as u32)) {
                    parts[usize::from(w < 0.0)].push(tau[src.index()] * w.abs().min(1.0));
                }
                sigma[u] = [stable_sum(&mut parts[0]), stable_sum(&mut parts[1])];
            }
            // Mutual exclusion + sigmoid.
            for u in 0..n_claims {
                let adj_t = sigma[u][0] - self.rho * sigma[u][1];
                let adj_f = sigma[u][1] - self.rho * sigma[u][0];
                confidence[u][0] = sigmoid(self.gamma * adj_t);
                confidence[u][1] = sigmoid(self.gamma * adj_f);
            }
            // Trust update: mean confidence of provided facts.
            let mut max_delta = 0.0f64;
            for s in 0..input.num_sources {
                let sv = votes.source_votes(sstd_types::SourceId::new(s as u32));
                if sv.is_empty() {
                    continue;
                }
                let mean: f64 = sv
                    .iter()
                    .map(|&(c, w)| confidence[c.index()][usize::from(w < 0.0)])
                    .sum::<f64>()
                    / sv.len() as f64;
                max_delta = max_delta.max((mean - trust[s]).abs());
                trust[s] = mean;
            }
            convergence.iterations = round + 1;
            convergence.final_delta = max_delta;
            if max_delta < self.tolerance {
                convergence.converged = true;
                break;
            }
        }

        let scores: Vec<f64> = (0..n_claims)
            .map(|u| {
                if votes.claim_votes(ClaimId::new(u as u32)).is_empty() {
                    0.0
                } else {
                    confidence[u][0] - confidence[u][1]
                }
            })
            .collect();
        (votes.scores_to_labels(&scores), convergence)
    }
}

impl TruthDiscovery for TruthFinder {
    fn name(&self) -> &'static str {
        "TruthFinder"
    }

    fn discover(&self, input: &SnapshotInput<'_>) -> BTreeMap<ClaimId, TruthLabel> {
        self.discover_with_convergence(input).0
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, Report, SourceId, Timestamp};

    fn r(s: u32, c: u32, att: Attitude) -> Report {
        Report::plain(SourceId::new(s), ClaimId::new(c), Timestamp::ZERO, att)
    }

    /// A reliable source corroborated across claims should outvote a
    /// larger group of sources that are wrong elsewhere.
    #[test]
    fn trusted_minority_beats_untrusted_majority() {
        let mut reports = Vec::new();
        // Claims 0..8: sources 0 and 1 agree (truth), sources 2, 3, 4 deny.
        // On those claims, 2-vs-3 majority is wrong; TruthFinder should
        // learn that sources 0 and 1 corroborate a *consistent* story only
        // if something breaks the symmetry — claims 8..16 reported only by
        // sources 0 and 1 (uncontested, boosting their trust).
        for c in 0..8u32 {
            reports.push(r(0, c, Attitude::Agree));
            reports.push(r(1, c, Attitude::Agree));
            reports.push(r(2, c, Attitude::Disagree));
            reports.push(r(3, c, Attitude::Disagree));
            reports.push(r(4, c, Attitude::Disagree));
        }
        for c in 8..16u32 {
            reports.push(r(0, c, Attitude::Agree));
            reports.push(r(1, c, Attitude::Agree));
        }
        let est = TruthFinder::new().discover(&SnapshotInput::new(&reports, 5, 16));
        // The uncontested claims are confidently true.
        assert_eq!(est[&ClaimId::new(10)], TruthLabel::True);
    }

    #[test]
    fn unanimous_agreement_is_true() {
        let reports = vec![r(0, 0, Attitude::Agree), r(1, 0, Attitude::Agree)];
        let est = TruthFinder::new().discover(&SnapshotInput::new(&reports, 2, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::True);
    }

    #[test]
    fn unanimous_denial_is_false() {
        let reports = vec![r(0, 0, Attitude::Disagree), r(1, 0, Attitude::Disagree)];
        let est = TruthFinder::new().discover(&SnapshotInput::new(&reports, 2, 1));
        assert_eq!(est[&ClaimId::new(0)], TruthLabel::False);
    }

    #[test]
    fn unreported_claims_default_false() {
        let reports = vec![r(0, 0, Attitude::Agree)];
        let est = TruthFinder::new().discover(&SnapshotInput::new(&reports, 1, 2));
        assert_eq!(est[&ClaimId::new(1)], TruthLabel::False);
    }

    #[test]
    fn converges_on_empty_input() {
        let est = TruthFinder::new().discover(&SnapshotInput::new(&[], 0, 1));
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn name_matches_paper_table() {
        assert_eq!(TruthFinder::new().name(), "TruthFinder");
    }
}
