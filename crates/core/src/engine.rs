//! The batch SSTD engine and its claim-level decomposition.

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::{
    AcsAggregator, ClaimTruthModel, ClaimWorkspace, ConfidenceEstimates, SstdConfig, TruthEstimates,
};
use sstd_types::{ClaimId, Report, Timeline, Trace, TruthLabel};
use std::cell::RefCell;

/// |ACS| at or below which a claim is evidence-free: it decodes `False`
/// in every interval, with no model fitted.
const EVIDENCE_FLOOR: f64 = 1e-9;

/// Every claim id of `trace`, in order.
pub(crate) fn claim_ids(trace: &Trace) -> impl Iterator<Item = ClaimId> {
    (0..trace.num_claims()).map(|i| ClaimId::new(i as u32))
}

/// Partitions a trace's reports by claim — the decomposition that makes
/// SSTD scalable (paper §III-E): each claim's sub-stream is an independent
/// truth-discovery job.
///
/// Claims with no reports still appear (with an empty vector) so every
/// claim receives an estimate.
///
/// This is [`Trace::reports_for_claim`] copied out claim by claim, kept for
/// callers that take the sub-streams by value (`sstd-benchmark`'s ACS
/// pass iterates `&Vec<Report>`); the engine and the distributed job
/// borrow the slices instead.
///
/// # Examples
///
/// ```
/// use sstd_core::claim_partition;
/// use sstd_types::*;
///
/// let timeline = Timeline::new(Timestamp::from_secs(10), 2);
/// let mut gt = GroundTruth::new(2);
/// gt.insert(ClaimId::new(0), vec![TruthLabel::True; 2]);
/// gt.insert(ClaimId::new(1), vec![TruthLabel::False; 2]);
/// let reports = vec![Report::plain(
///     SourceId::new(0), ClaimId::new(1), Timestamp::from_secs(1), Attitude::Agree,
/// )];
/// let trace = Trace::new("t", reports, 1, 2, timeline, gt);
/// let parts = claim_partition(&trace);
/// assert_eq!(parts.len(), 2);
/// assert_eq!(parts[0].1.len(), 0);
/// assert_eq!(parts[1].1.len(), 1);
/// ```
#[must_use]
pub fn claim_partition(trace: &Trace) -> Vec<(ClaimId, Vec<Report>)> {
    claim_ids(trace).map(|claim| (claim, trace.reports_for_claim(claim).to_vec())).collect()
}

/// The batch SSTD truth-discovery engine (paper §III).
///
/// For each claim it aggregates the ACS observation sequence, fits the
/// truth HMM with EM, and Viterbi-decodes the per-interval truth labels.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct SstdEngine {
    config: SstdConfig,
}

impl SstdEngine {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SstdConfig::validate`], as
    /// [`StreamingSstd::new`](crate::StreamingSstd::new) does.
    #[must_use]
    pub fn new(config: SstdConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid batch configuration: {e}");
        }
        Self { config }
    }

    /// The engine configuration.
    #[must_use]
    pub const fn config(&self) -> &SstdConfig {
        &self.config
    }

    /// Runs truth discovery over a whole trace.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> TruthEstimates {
        let mut labels_out = TruthEstimates::new(trace.timeline().num_intervals());
        // One scratch arena for the whole run: every claim reuses the same
        // EM tables, Viterbi lattice, and ACS buffers.
        let mut ws = ClaimWorkspace::new();
        for claim in claim_ids(trace) {
            let reports = trace.reports_for_claim(claim);
            let labels = self.decode_claim_with(trace.timeline(), reports, &mut ws).0;
            labels_out.insert(claim, labels);
        }
        labels_out
    }

    /// Runs truth discovery and also returns the per-interval posterior
    /// probability that each claim is true (forward–backward smoothing) —
    /// the calibrated confidence signal downstream consumers threshold.
    #[must_use]
    pub fn run_with_confidence(&self, trace: &Trace) -> (TruthEstimates, ConfidenceEstimates) {
        let num_intervals = trace.timeline().num_intervals();
        let mut labels_out = TruthEstimates::new(num_intervals);
        let mut conf_out = ConfidenceEstimates::new(num_intervals);
        let mut ws = ClaimWorkspace::new();
        for claim in claim_ids(trace) {
            let reports = trace.reports_for_claim(claim);
            let (labels, model) = self.decode_claim_with(trace.timeline(), reports, &mut ws);
            // An evidence-free claim has no model: it is as likely true as not.
            let mut confidence = vec![0.5; num_intervals];
            if let Some(model) = model {
                model.posterior_true_into(&ws.acs, &mut ws.em, &mut confidence);
            }
            labels_out.insert(claim, labels);
            conf_out.insert(claim, confidence);
        }
        (labels_out, conf_out)
    }

    /// Runs truth discovery for a single claim's reports — the body of one
    /// distributed TD job (paper §III-E). `trace` supplies the timeline and
    /// the claim's slice of its claim-major index.
    ///
    /// Each worker thread keeps one [`ClaimWorkspace`] in thread-local
    /// storage, so the per-claim jobs a runtime backend schedules onto a
    /// worker pool reuse the numeric scratch buffers across tasks instead
    /// of reallocating them per claim.
    #[must_use]
    pub fn run_claim(&self, trace: &Trace, claim: ClaimId) -> Vec<TruthLabel> {
        self.fit_claim(trace.timeline(), trace.reports_for_claim(claim))
    }

    /// [`run_claim`](Self::run_claim) on the claim's sub-stream itself.
    pub(crate) fn fit_claim(&self, timeline: &Timeline, reports: &[Report]) -> Vec<TruthLabel> {
        thread_local! {
            static WS: RefCell<ClaimWorkspace> = RefCell::new(ClaimWorkspace::new());
        }
        WS.with(|ws| self.decode_claim_with(timeline, reports, &mut ws.borrow_mut()).0)
    }

    /// Decodes one claim's labels, leaving its ACS sequence in `ws.acs`.
    /// The fitted model comes back too (`None` for an evidence-free claim)
    /// for the caller that wants posteriors from it.
    fn decode_claim_with(
        &self,
        timeline: &Timeline,
        reports: &[Report],
        ws: &mut ClaimWorkspace,
    ) -> (Vec<TruthLabel>, Option<ClaimTruthModel>) {
        let num_intervals = timeline.num_intervals();
        ws.per_interval.clear();
        ws.per_interval.resize(num_intervals, 0.0);
        for r in reports {
            ws.per_interval[timeline.interval_of(r.time())] += r.contribution_score().value();
        }
        AcsAggregator::windowed_into(&ws.per_interval, self.config.window, &mut ws.acs);
        // Evidence-free claims default to False — asserting an unreported
        // claim true has no support.
        if ws.acs.iter().map(|a| a.abs()).fold(0.0f64, f64::max) <= EVIDENCE_FLOOR {
            return (vec![TruthLabel::False; num_intervals], None);
        }
        let model = ClaimTruthModel::fit_with(&self.config, &ws.acs, &mut ws.em);
        let mut labels = Vec::with_capacity(num_intervals);
        model.decode_into(&ws.acs, &mut ws.decode, &mut labels);
        (labels, Some(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, GroundTruth, SourceId, Timeline, Timestamp, Trace};

    /// Builds a trace with one claim whose truth flips halfway; honest
    /// sources agree with the current truth, liars oppose it.
    fn flip_trace(honest: usize, liars: usize) -> Trace {
        let intervals = 20usize;
        let horizon = 200u64;
        let timeline = Timeline::new(Timestamp::from_secs(horizon), intervals);
        let mut gt = GroundTruth::new(intervals);
        let truth: Vec<TruthLabel> = (0..intervals)
            .map(|i| if i < intervals / 2 { TruthLabel::True } else { TruthLabel::False })
            .collect();
        gt.insert(ClaimId::new(0), truth.clone());

        let num_sources = honest + liars;
        let mut reports = Vec::new();
        for iv in 0..intervals {
            let t = Timestamp::from_secs((iv as u64 * horizon / intervals as u64) + 1);
            let label = truth[iv];
            for s in 0..honest {
                reports.push(Report::plain(
                    SourceId::new(s as u32),
                    ClaimId::new(0),
                    t,
                    label.honest_attitude(),
                ));
            }
            for s in honest..num_sources {
                reports.push(Report::plain(
                    SourceId::new(s as u32),
                    ClaimId::new(0),
                    t,
                    label.honest_attitude().flipped(),
                ));
            }
        }
        Trace::new("flip", reports, num_sources, 1, timeline, gt)
    }

    #[test]
    fn decodes_flipping_truth_with_honest_majority() {
        let trace = flip_trace(8, 2);
        let est = SstdEngine::new(SstdConfig::default()).run(&trace);
        let labels = est.labels(ClaimId::new(0)).unwrap();
        let gt = trace.ground_truth().timeline(ClaimId::new(0)).unwrap();
        let correct = labels.iter().zip(gt).filter(|(a, b)| a == b).count();
        assert!(correct >= 18, "only {correct}/20 intervals correct");
    }

    #[test]
    fn run_claim_matches_run() {
        let trace = flip_trace(5, 1);
        let engine = SstdEngine::new(SstdConfig::default());
        let whole = engine.run(&trace);
        let single = engine.run_claim(&trace, ClaimId::new(0));
        assert_eq!(whole.labels(ClaimId::new(0)).unwrap(), single.as_slice());
    }

    #[test]
    fn run_with_confidence_keeps_runs_labels_and_its_own_posteriors() {
        // What `run_with_confidence` returned for these fixtures while the
        // posterior pass still ran inside every per-claim decode. Every
        // interval of the fixtures carries evidence, and the posteriors
        // are pinned at window 1 under the fixed truth chain.
        const CONFIDENCE: [f64; 20] = [
            0.9999999999999987,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999998,
            0.9999999999999872,
            1.2664165549095278e-14,
            1.5634772282849897e-16,
            1.5634772282834253e-16,
            1.5634772282834253e-16,
            1.5634772282834253e-16,
            1.5634772282834253e-16,
            1.5634772282834253e-16,
            1.5634772282834253e-16,
            1.5634772282835813e-16,
            1.4071295054550636e-15,
        ];
        let engine = SstdEngine::new(SstdConfig { window: 1, ..SstdConfig::default() });
        let claim = ClaimId::new(0);
        for (honest, liars) in [(5, 1), (8, 2)] {
            let trace = flip_trace(honest, liars);
            let (labels, confidence) = engine.run_with_confidence(&trace);
            assert_eq!(labels, engine.run(&trace));
            let confidence = confidence.timeline(claim).unwrap();
            assert_eq!(confidence.len(), CONFIDENCE.len());
            for (got, want) in confidence.iter().zip(CONFIDENCE) {
                assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn unreported_claim_defaults_to_false() {
        let timeline = Timeline::new(Timestamp::from_secs(10), 2);
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True; 2]);
        let trace = Trace::new("empty", vec![], 1, 1, timeline, gt);
        let engine = SstdEngine::new(SstdConfig::default());
        let est = engine.run(&trace);
        assert_eq!(est.labels(ClaimId::new(0)).unwrap(), &[TruthLabel::False; 2]);
        let (labels, confidence) = engine.run_with_confidence(&trace);
        assert_eq!(labels, est);
        assert_eq!(confidence.timeline(ClaimId::new(0)).unwrap(), &[0.5; 2]);
    }

    #[test]
    fn every_claim_gets_an_estimate() {
        let timeline = Timeline::new(Timestamp::from_secs(10), 2);
        let mut gt = GroundTruth::new(2);
        for c in 0..4u32 {
            gt.insert(ClaimId::new(c), vec![TruthLabel::True; 2]);
        }
        let reports = vec![Report::plain(
            SourceId::new(0),
            ClaimId::new(2),
            Timestamp::from_secs(1),
            Attitude::Agree,
        )];
        let trace = Trace::new("sparse", reports, 1, 4, timeline, gt);
        let est = SstdEngine::new(SstdConfig::default()).run(&trace);
        assert_eq!(est.num_claims(), 4);
    }

    #[test]
    fn shared_workspace_across_claims_matches_per_claim_runs() {
        // Four claims with very different evidence densities exercise the
        // workspace at several shapes within one run; per-claim runs (their
        // own workspace lifecycle) must agree exactly.
        let timeline = Timeline::new(Timestamp::from_secs(100), 10);
        let mut gt = GroundTruth::new(10);
        let mut reports = Vec::new();
        for c in 0..4u32 {
            gt.insert(ClaimId::new(c), vec![TruthLabel::True; 10]);
            for k in 0..(c * 8) {
                let att = if k % 5 == 0 { Attitude::Disagree } else { Attitude::Agree };
                reports.push(Report::plain(
                    SourceId::new(k % 3),
                    ClaimId::new(c),
                    Timestamp::from_secs(u64::from(k * 97 % 100)),
                    att,
                ));
            }
        }
        let trace = Trace::new("mixed", reports, 3, 4, timeline, gt);
        let engine = SstdEngine::new(SstdConfig::default());
        let whole = engine.run(&trace);
        for c in 0..4u32 {
            let claim = ClaimId::new(c);
            assert_eq!(
                whole.labels(claim).unwrap(),
                engine.run_claim(&trace, claim).as_slice(),
                "claim {c}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid batch configuration: invalid `stay_probability`")]
    fn a_stay_probability_outside_the_unit_interval_is_refused_at_construction() {
        let _ = SstdEngine::new(SstdConfig { stay_probability: 1.5, ..SstdConfig::default() });
    }

    #[test]
    #[should_panic(expected = "invalid batch configuration: invalid `window`")]
    fn a_zero_fixed_window_is_refused_at_construction() {
        let _ = SstdEngine::new(SstdConfig { window: 0, ..SstdConfig::default() });
    }

    #[test]
    fn partition_preserves_report_counts() {
        let trace = flip_trace(3, 1);
        let parts = claim_partition(&trace);
        let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, trace.reports().len());
    }
}
