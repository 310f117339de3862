//! Effectiveness metrics: accuracy, precision, recall, F1 (paper §V-B1).
//!
//! Estimates are scored per `(claim, interval)` cell against the ground
//! truth, with `True` as the positive class — a cell counts as a true
//! positive when the scheme says `True` and the ground truth agrees.

use sstd_core::TruthEstimates;
use sstd_types::{GroundTruth, TruthLabel};
use std::fmt;

/// A binary confusion matrix.
///
/// # Examples
///
/// ```
/// use sstd_eval::ConfusionMatrix;
///
/// let mut m = ConfusionMatrix::default();
/// m.record(true, true);   // TP
/// m.record(false, false); // TN
/// m.record(true, false);  // FN
/// assert!((m.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((m.recall() - 0.5).abs() < 1e-12);
/// assert!((m.precision() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Estimated `True`, actually `True`.
    pub tp: u64,
    /// Estimated `True`, actually `False`.
    pub fp: u64,
    /// Estimated `False`, actually `False`.
    pub tn: u64,
    /// Estimated `False`, actually `True`.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Records one cell: `(actual, estimated)` as booleans
    /// (`true` = the claim is true).
    pub fn record(&mut self, actual: bool, estimated: bool) {
        match (actual, estimated) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// Total cells scored.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `(TP + TN) / total`; 0 when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// `TP / (TP + FP)`; 0 when no positive predictions.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// `TP / (TP + FN)`; 0 when no positive ground truth.
    #[must_use]
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc={:.3} prec={:.3} rec={:.3} f1={:.3}",
            self.accuracy(),
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

/// Scores a scheme's estimates against the ground truth over every
/// `(claim, interval)` cell the ground truth covers. Cells the scheme
/// left unestimated count as `False` (the no-evidence convention).
///
/// # Panics
///
/// Panics if the interval counts disagree.
#[must_use]
pub fn score_estimates(truth: &GroundTruth, estimates: &TruthEstimates) -> ConfusionMatrix {
    assert_eq!(truth.num_intervals(), estimates.num_intervals(), "interval counts must match");
    let mut m = ConfusionMatrix::default();
    for (claim, labels) in truth.iter() {
        for (iv, &actual) in labels.iter().enumerate() {
            let estimated = estimates.label(claim, iv).unwrap_or(TruthLabel::False);
            m.record(actual.as_bool(), estimated.as_bool());
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::ClaimId;

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn perfect_estimates_score_one() {
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::False]);
        let mut est = TruthEstimates::new(2);
        est.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::False]);
        let m = score_estimates(&gt, &est);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn inverted_estimates_score_zero_accuracy() {
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::False]);
        let mut est = TruthEstimates::new(2);
        est.insert(ClaimId::new(0), vec![TruthLabel::False, TruthLabel::True]);
        let m = score_estimates(&gt, &est);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn missing_claims_default_false() {
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::True]);
        gt.insert(ClaimId::new(1), vec![TruthLabel::False, TruthLabel::False]);
        let est = TruthEstimates::new(2);
        let m = score_estimates(&gt, &est);
        // Claim 0 → two FN; claim 1 → two TN.
        assert_eq!(m.fn_, 2);
        assert_eq!(m.tn, 2);
        assert_eq!(m.accuracy(), 0.5);
    }

    #[test]
    fn f1_matches_hand_computation() {
        let m = ConfusionMatrix { tp: 6, fp: 2, tn: 1, fn_: 3 };
        let p = 6.0 / 8.0;
        let r = 6.0 / 9.0;
        assert!((m.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn display_shows_all_four() {
        let m = ConfusionMatrix { tp: 1, fp: 1, tn: 1, fn_: 1 };
        let s = m.to_string();
        assert!(s.contains("acc=") && s.contains("f1="));
    }
}

/// Brier score of soft (posterior) estimates against the ground truth:
/// mean squared error between `P(true)` and the 0/1 outcome, over every
/// `(claim, interval)` cell the ground truth covers. Lower is better;
/// 0.25 is the score of an uninformed constant 0.5.
///
/// Cells without a posterior count as 0.5 (no evidence — maximal
/// uncertainty), mirroring the hard-label `False` default.
///
/// # Examples
///
/// ```
/// use sstd_core::ConfidenceEstimates;
/// use sstd_eval::metrics::brier_score;
/// use sstd_types::{ClaimId, GroundTruth, TruthLabel};
///
/// let mut gt = GroundTruth::new(2);
/// gt.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::False]);
/// let mut conf = ConfidenceEstimates::new(2);
/// conf.insert(ClaimId::new(0), vec![0.9, 0.1]);
/// assert!((brier_score(&gt, &conf) - 0.01).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the interval counts disagree.
#[must_use]
pub fn brier_score(truth: &GroundTruth, confidence: &sstd_core::ConfidenceEstimates) -> f64 {
    assert_eq!(truth.num_intervals(), confidence.num_intervals(), "interval counts must match");
    let mut sum = 0.0;
    let mut n = 0u64;
    for (claim, labels) in truth.iter() {
        for (iv, &actual) in labels.iter().enumerate() {
            let p = confidence.confidence(claim, iv).unwrap_or(0.5);
            let y = if actual.as_bool() { 1.0 } else { 0.0 };
            sum += (p - y) * (p - y);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod brier_tests {
    use super::*;
    use sstd_core::ConfidenceEstimates;
    use sstd_types::ClaimId;

    #[test]
    fn perfect_confidence_scores_zero() {
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True, TruthLabel::False]);
        let mut c = ConfidenceEstimates::new(2);
        c.insert(ClaimId::new(0), vec![1.0, 0.0]);
        assert_eq!(brier_score(&gt, &c), 0.0);
    }

    #[test]
    fn uninformed_constant_scores_quarter() {
        let mut gt = GroundTruth::new(4);
        gt.insert(
            ClaimId::new(0),
            vec![TruthLabel::True, TruthLabel::False, TruthLabel::True, TruthLabel::False],
        );
        let c = ConfidenceEstimates::new(4); // no entries → 0.5 default
        assert!((brier_score(&gt, &c) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn confidently_wrong_scores_near_one() {
        let mut gt = GroundTruth::new(1);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True]);
        let mut c = ConfidenceEstimates::new(1);
        c.insert(ClaimId::new(0), vec![0.0]);
        assert_eq!(brier_score(&gt, &c), 1.0);
    }

    #[test]
    fn sstd_posteriors_beat_the_uninformed_baseline() {
        use sstd_core::{SstdConfig, SstdEngine};
        use sstd_data::{Scenario, TraceBuilder};
        // Density matters for calibration: with sparse evidence the
        // sticky chain can propagate confident-but-wrong guesses across
        // evidence-free gaps; once most cells carry evidence the
        // posteriors are well-calibrated.
        let trace = TraceBuilder::scenario(Scenario::ParisShooting).scale(0.02).seed(3).build();
        let (_, confidence) = SstdEngine::new(SstdConfig::default()).run_with_confidence(&trace);
        let score = brier_score(trace.ground_truth(), &confidence);
        assert!(score < 0.25, "calibrated posteriors beat 0.5-constant: {score}");
    }
}
