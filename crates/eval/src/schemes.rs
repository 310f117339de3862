//! A uniform adapter running every scheme on a trace, interval by
//! interval — the dynamic evaluation protocol of paper §V-B.
//!
//! Batch baselines are wrapped in a sliding window re-run per interval;
//! DynaTD streams natively; SSTD runs its own engine. Every scheme
//! produces a [`TruthEstimates`] table scored by
//! [`metrics::score_estimates`](crate::metrics::score_estimates).

use sstd_baselines::{
    Catd, DynaTd, Invest, MajorityVote, RecursiveEm, Rtd, SlidingWindow, StreamingTruthDiscovery,
    ThreeEstimates, TruthDiscovery, TruthFinder, WeightedVote,
};
use sstd_core::{SstdConfig, SstdEngine, TruthEstimates};
use sstd_types::{ClaimId, Trace, TruthLabel};
use std::time::Instant;

/// The schemes compared in the paper's evaluation (plus the two voting
/// strawmen from §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// This paper's scheme.
    Sstd,
    /// Li et al., KDD'15 (streaming MAP).
    DynaTd,
    /// Yin et al., TKDE'08.
    TruthFinder,
    /// Zhang et al., BigData'16.
    Rtd,
    /// Li et al., VLDB'14.
    Catd,
    /// Pasternack & Roth, COLING'10.
    Invest,
    /// Galland et al., WSDM'10.
    ThreeEstimates,
    /// Unweighted voting strawman.
    MajorityVote,
    /// Contribution-weighted voting strawman.
    WeightedVote,
    /// Wang et al., ICDCS'13 (recursive EM) — related-work extra, not in
    /// the paper's comparison tables.
    RecursiveEm,
}

impl SchemeKind {
    /// The seven schemes of the paper's accuracy tables, in table order.
    #[must_use]
    pub fn paper_table() -> [SchemeKind; 7] {
        [
            SchemeKind::Sstd,
            SchemeKind::DynaTd,
            SchemeKind::TruthFinder,
            SchemeKind::Rtd,
            SchemeKind::Catd,
            SchemeKind::Invest,
            SchemeKind::ThreeEstimates,
        ]
    }

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Sstd => "SSTD",
            SchemeKind::DynaTd => "DynaTD",
            SchemeKind::TruthFinder => "TruthFinder",
            SchemeKind::Rtd => "RTD",
            SchemeKind::Catd => "CATD",
            SchemeKind::Invest => "Invest",
            SchemeKind::ThreeEstimates => "3-Estimates",
            SchemeKind::MajorityVote => "MajorityVote",
            SchemeKind::WeightedVote => "WeightedVote",
            SchemeKind::RecursiveEm => "RecEM",
        }
    }

    /// Whether the scheme processes data incrementally (vs. re-running a
    /// batch solver per interval) — the distinction Fig. 5 probes.
    #[must_use]
    pub fn is_streaming(self) -> bool {
        matches!(self, SchemeKind::Sstd | SchemeKind::DynaTd | SchemeKind::RecursiveEm)
    }
}

/// Window (in intervals) handed to batch schemes for their per-interval
/// re-runs. It is not SSTD's window: the sliding-window rivals re-run
/// over 3 intervals while SSTD sums ACS over 2 (`SstdConfig::window`).
/// It stays 3 so that the rivals' leaderboard rows do not move.
const BATCH_WINDOW: usize = 3;

/// Runs `kind` over `trace`, producing per-interval estimates for every
/// claim.
///
/// # Examples
///
/// ```
/// use sstd_data::{Scenario, TraceBuilder};
/// use sstd_eval::{run_scheme, SchemeKind};
///
/// let trace = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001).seed(1).build();
/// let estimates = run_scheme(SchemeKind::MajorityVote, &trace);
/// assert_eq!(estimates.num_intervals(), trace.timeline().num_intervals());
/// ```
#[must_use]
pub fn run_scheme(kind: SchemeKind, trace: &Trace) -> TruthEstimates {
    match kind {
        SchemeKind::Sstd => SstdEngine::new(SstdConfig::default()).run(trace),
        _ => {
            let scheme = streaming_scheme(kind, trace.num_sources(), trace.num_claims());
            run_streaming(scheme, trace, |_, _, _| {})
        }
    }
}

/// Builds the interval-by-interval form of a baseline scheme as one
/// uniform trait object — native streamers directly, batch solvers
/// wrapped in the same `BATCH_WINDOW`-interval [`SlidingWindow`] that
/// [`run_scheme`] uses. This is the adapter the tournament runner drives
/// so that every baseline is timed under an identical per-interval
/// protocol.
///
/// SSTD itself is not a baseline: the tournament drives
/// [`sstd_core::StreamingSstd`] directly, so it is not accepted here.
///
/// # Panics
///
/// Panics on [`SchemeKind::Sstd`].
#[must_use]
pub fn streaming_scheme(
    kind: SchemeKind,
    num_sources: usize,
    num_claims: usize,
) -> Box<dyn StreamingTruthDiscovery> {
    fn windowed<S: TruthDiscovery + 'static>(
        scheme: S,
        num_sources: usize,
        num_claims: usize,
    ) -> Box<dyn StreamingTruthDiscovery> {
        Box::new(SlidingWindow::new(scheme, BATCH_WINDOW, num_sources, num_claims))
    }
    match kind {
        SchemeKind::Sstd => panic!("SSTD streams via sstd_core::StreamingSstd, not this adapter"),
        SchemeKind::DynaTd => Box::new(DynaTd::new()),
        SchemeKind::RecursiveEm => Box::new(RecursiveEm::new()),
        SchemeKind::TruthFinder => windowed(TruthFinder::new(), num_sources, num_claims),
        SchemeKind::Rtd => windowed(Rtd::new(), num_sources, num_claims),
        SchemeKind::Catd => windowed(Catd::new(), num_sources, num_claims),
        SchemeKind::Invest => windowed(Invest::new(), num_sources, num_claims),
        SchemeKind::ThreeEstimates => windowed(ThreeEstimates::new(), num_sources, num_claims),
        SchemeKind::MajorityVote => windowed(MajorityVote::new(), num_sources, num_claims),
        SchemeKind::WeightedVote => windowed(WeightedVote::new(), num_sources, num_claims),
    }
}

/// Drives `scheme` over `trace` interval by interval and assembles its
/// labels, `False` for a claim it leaves unlabelled in an interval.
/// `on_interval(interval, reports, secs)` hears each interval's report
/// count and the wall time of its `observe_interval` call: the tournament
/// records a tick from it, [`run_scheme`] ignores it.
pub(crate) fn run_streaming<S: StreamingTruthDiscovery>(
    mut scheme: S,
    trace: &Trace,
    mut on_interval: impl FnMut(usize, usize, f64),
) -> TruthEstimates {
    let n = trace.timeline().num_intervals();
    let mut per_claim: Vec<Vec<TruthLabel>> = vec![Vec::with_capacity(n); trace.num_claims()];
    for iv in 0..n {
        let reports = trace.reports_in_interval(iv);
        let t0 = Instant::now();
        let estimates = scheme.observe_interval(reports);
        on_interval(iv, reports.len(), t0.elapsed().as_secs_f64());
        for (u, labels) in per_claim.iter_mut().enumerate() {
            let label =
                estimates.get(&ClaimId::new(u as u32)).copied().unwrap_or(TruthLabel::False);
            labels.push(label);
        }
    }
    let mut out = TruthEstimates::new(n);
    for (u, labels) in per_claim.into_iter().enumerate() {
        out.insert(ClaimId::new(u as u32), labels);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score_estimates;
    use sstd_data::{Scenario, TraceBuilder};

    fn small_trace() -> Trace {
        TraceBuilder::scenario(Scenario::Synthetic).scale(0.002).seed(11).build()
    }

    #[test]
    fn every_scheme_produces_complete_estimates() {
        let trace = small_trace();
        for kind in [
            SchemeKind::Sstd,
            SchemeKind::DynaTd,
            SchemeKind::TruthFinder,
            SchemeKind::Rtd,
            SchemeKind::Catd,
            SchemeKind::Invest,
            SchemeKind::ThreeEstimates,
            SchemeKind::MajorityVote,
            SchemeKind::WeightedVote,
            SchemeKind::RecursiveEm,
        ] {
            let est = run_scheme(kind, &trace);
            assert_eq!(est.num_claims(), trace.num_claims(), "{}", kind.name());
            assert_eq!(est.num_intervals(), trace.timeline().num_intervals());
        }
    }

    #[test]
    fn all_schemes_beat_coin_flipping_on_honest_data() {
        let trace = small_trace();
        for kind in SchemeKind::paper_table() {
            let m = score_estimates(trace.ground_truth(), &run_scheme(kind, &trace));
            assert!(
                m.accuracy() > 0.5,
                "{} accuracy {} not better than chance",
                kind.name(),
                m.accuracy()
            );
        }
    }

    #[test]
    fn sstd_outperforms_majority_vote() {
        let trace = small_trace();
        let sstd = score_estimates(trace.ground_truth(), &run_scheme(SchemeKind::Sstd, &trace));
        let mv =
            score_estimates(trace.ground_truth(), &run_scheme(SchemeKind::MajorityVote, &trace));
        assert!(
            sstd.accuracy() >= mv.accuracy(),
            "SSTD {} vs MajorityVote {}",
            sstd.accuracy(),
            mv.accuracy()
        );
    }

    #[test]
    #[should_panic(expected = "StreamingSstd")]
    fn sstd_has_no_baseline_adapter() {
        let _ = streaming_scheme(SchemeKind::Sstd, 4, 4);
    }

    #[test]
    fn names_and_streaming_flags() {
        assert_eq!(SchemeKind::Sstd.name(), "SSTD");
        assert!(SchemeKind::Sstd.is_streaming());
        assert!(SchemeKind::DynaTd.is_streaming());
        assert!(!SchemeKind::Catd.is_streaming());
        assert_eq!(SchemeKind::paper_table().len(), 7);
    }
}
