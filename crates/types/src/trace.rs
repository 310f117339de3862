//! A full social-sensing trace: reports, populations, timeline and ground
//! truth — the input every experiment consumes.

use crate::{ClaimId, GroundTruth, Report, SourceId, Timeline, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why a set of trace parts is not a valid [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The ground truth covers a different number of intervals than the
    /// timeline.
    IntervalCountMismatch {
        /// Intervals in the timeline.
        timeline: usize,
        /// Intervals the ground truth covers.
        ground_truth: usize,
    },
    /// A report names a source `>= num_sources`.
    UnknownSource(SourceId),
    /// A report names a claim `>= num_claims`.
    UnknownClaim(ClaimId),
    /// The report at this position is earlier than its predecessor.
    NotTimeSorted(usize),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IntervalCountMismatch { timeline, ground_truth } => write!(
                f,
                "ground truth and timeline must agree on interval count \
                 ({ground_truth} vs {timeline})"
            ),
            Self::UnknownSource(source) => write!(f, "report references unknown source {source}"),
            Self::UnknownClaim(claim) => write!(f, "report references unknown claim {claim}"),
            Self::NotTimeSorted(at) => write!(f, "report {at} is earlier than its predecessor"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The one statement of what makes trace parts a [`Trace`]: what
/// [`Trace::new`] asserts and [`Trace::validate`] reports.
fn check(
    reports: &[Report],
    num_sources: usize,
    num_claims: usize,
    timeline: &Timeline,
    ground_truth: &GroundTruth,
) -> Result<(), TraceError> {
    if timeline.num_intervals() != ground_truth.num_intervals() {
        return Err(TraceError::IntervalCountMismatch {
            timeline: timeline.num_intervals(),
            ground_truth: ground_truth.num_intervals(),
        });
    }
    let mut latest = Timestamp::ZERO;
    for (at, r) in reports.iter().enumerate() {
        if r.source().index() >= num_sources {
            return Err(TraceError::UnknownSource(r.source()));
        }
        if r.claim().index() >= num_claims {
            return Err(TraceError::UnknownClaim(r.claim()));
        }
        if r.time() < latest {
            return Err(TraceError::NotTimeSorted(at));
        }
        latest = r.time();
    }
    Ok(())
}

/// A trace's reports regrouped claim by claim: one contiguous copy in
/// claim-major order (time order kept within a claim) plus the offset at
/// which each claim's run starts, so a claim's sub-stream is a slice.
///
/// Built on first use by [`Trace::claim_index`] and shared by every clone
/// of the trace made afterwards.
#[derive(Debug)]
pub struct ClaimIndex {
    reports: Vec<Report>,
    /// `num_claims + 1` entries: claim `c` owns `offsets[c]..offsets[c + 1]`.
    offsets: Vec<usize>,
}

impl ClaimIndex {
    /// A stable counting sort by claim, O(reports + claims): count, prefix
    /// sum, scatter in trace order — so equal claims keep their time order.
    fn build(reports: &[Report], num_claims: usize) -> Self {
        let mut offsets = vec![0usize; num_claims + 1];
        for r in reports {
            offsets[r.claim().index() + 1] += 1;
        }
        for c in 0..num_claims {
            offsets[c + 1] += offsets[c];
        }
        // Where each claim's next report goes.
        let mut next = offsets.clone();
        let mut sorted = reports.to_vec();
        for r in reports {
            let slot = &mut next[r.claim().index()];
            sorted[*slot] = *r;
            *slot += 1;
        }
        Self { reports: sorted, offsets }
    }

    /// Reports about `claim` in time order; empty for a claim without
    /// reports or outside the trace.
    #[must_use]
    pub fn reports_for_claim(&self, claim: ClaimId) -> &[Report] {
        match self.offsets.get(claim.index()..claim.index() + 2) {
            Some(&[start, end]) => &self.reports[start..end],
            _ => &[],
        }
    }
}

/// A complete social-sensing data trace.
///
/// A `Trace` bundles the time-ordered scored [`Report`]s, the number of
/// sources and claims, the evaluation [`Timeline`], and the manually (here:
/// generatively) labeled [`GroundTruth`] — everything Table II of the paper
/// summarizes per trace.
///
/// # Examples
///
/// ```
/// use sstd_types::*;
///
/// let timeline = Timeline::new(Timestamp::from_secs(100), 10);
/// let mut gt = GroundTruth::new(10);
/// gt.insert(ClaimId::new(0), vec![TruthLabel::True; 10]);
/// let reports = vec![Report::plain(
///     SourceId::new(0), ClaimId::new(0), Timestamp::from_secs(5), Attitude::Agree,
/// )];
/// let trace = Trace::new("demo", reports, 1, 1, timeline, gt);
/// assert_eq!(trace.stats().num_reports, 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    reports: Vec<Report>,
    num_sources: usize,
    num_claims: usize,
    timeline: Timeline,
    ground_truth: GroundTruth,
    /// Derived from `reports` on first use; not part of the trace's value
    /// (skipped on the wire, ignored by `==`) and shared by clones.
    #[serde(skip)]
    claim_index: OnceLock<Arc<ClaimIndex>>,
}

/// Equality of the trace's contents; whether the claim index has been
/// built yet does not matter.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        let Self { name, reports, num_sources, num_claims, timeline, ground_truth, claim_index: _ } =
            self;
        *name == other.name
            && *reports == other.reports
            && *num_sources == other.num_sources
            && *num_claims == other.num_claims
            && *timeline == other.timeline
            && *ground_truth == other.ground_truth
    }
}

impl Trace {
    /// Assembles a trace, sorting reports by timestamp.
    ///
    /// # Panics
    ///
    /// Panics if any report references a source `>= num_sources` or a claim
    /// `>= num_claims`, or if the ground truth covers a different number of
    /// intervals than the timeline.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        mut reports: Vec<Report>,
        num_sources: usize,
        num_claims: usize,
        timeline: Timeline,
        ground_truth: GroundTruth,
    ) -> Self {
        reports.sort_by_key(Report::time);
        if let Err(e) = check(&reports, num_sources, num_claims, &timeline, &ground_truth) {
            panic!("{e}");
        }
        Self {
            name: name.into(),
            reports,
            num_sources,
            num_claims,
            timeline,
            ground_truth,
            claim_index: OnceLock::new(),
        }
    }

    /// Checks what [`new`](Self::new) guarantees, for a trace that did not
    /// come through it — one deserialized from a file holds whatever the
    /// file said.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] found: an interval-count mismatch between
    /// timeline and ground truth, a report naming an unknown source or
    /// claim, or reports out of time order.
    pub fn validate(&self) -> Result<(), TraceError> {
        check(&self.reports, self.num_sources, self.num_claims, &self.timeline, &self.ground_truth)
    }

    /// Human-readable trace name (e.g. `"boston-bombing"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All reports in timestamp order.
    #[must_use]
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Number of distinct sources in the population.
    #[must_use]
    pub const fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of distinct claims.
    #[must_use]
    pub const fn num_claims(&self) -> usize {
        self.num_claims
    }

    /// The evaluation timeline.
    #[must_use]
    pub const fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The labeled ground truth.
    #[must_use]
    pub const fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// Reports whose timestamps fall in timeline interval `interval`.
    ///
    /// Because reports are time-sorted this is a contiguous slice.
    #[must_use]
    pub fn reports_in_interval(&self, interval: usize) -> &[Report] {
        let iv = self.timeline.interval(interval);
        let start = self.reports.partition_point(|r| r.time() < iv.start());
        let end = if interval + 1 == self.timeline.num_intervals() {
            self.reports.len()
        } else {
            self.reports.partition_point(|r| r.time() < iv.end())
        };
        &self.reports[start..end]
    }

    /// The claim-major index of the reports, built by the first call (one
    /// pass over the reports) and shared with every later clone of this
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics on a deserialized trace that fails [`validate`](Self::validate)
    /// by naming a claim `>= num_claims`.
    #[must_use]
    pub fn claim_index(&self) -> &Arc<ClaimIndex> {
        self.claim_index.get_or_init(|| Arc::new(ClaimIndex::build(&self.reports, self.num_claims)))
    }

    /// Reports about one claim, in time order: a slice of the
    /// [`claim_index`](Self::claim_index).
    #[must_use]
    pub fn reports_for_claim(&self, claim: ClaimId) -> &[Report] {
        self.claim_index().reports_for_claim(claim)
    }

    /// Summary statistics (the paper's Table II row for this trace).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let active_sources: BTreeSet<SourceId> = self.reports.iter().map(Report::source).collect();
        TraceStats {
            name: self.name.clone(),
            num_reports: self.reports.len(),
            num_sources: self.num_sources,
            active_sources: active_sources.len(),
            num_claims: self.num_claims,
            horizon: self.timeline.horizon(),
            num_intervals: self.timeline.num_intervals(),
            truth_transitions: self.ground_truth.num_transitions(),
        }
    }
}

/// Summary statistics of a trace (cf. paper Table II).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Total number of reports (`# of Reports` in Table II).
    pub num_reports: usize,
    /// Size of the source population (`# of Sources`).
    pub num_sources: usize,
    /// Sources that actually reported at least once.
    pub active_sources: usize,
    /// Number of distinct claims.
    pub num_claims: usize,
    /// Trace duration.
    pub horizon: Timestamp,
    /// Number of evaluation intervals.
    pub num_intervals: usize,
    /// Total ground-truth label changes across claims.
    pub truth_transitions: usize,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} reports, {} sources ({} active), {} claims, {} intervals over {}, {} truth transitions",
            self.name,
            self.num_reports,
            self.num_sources,
            self.active_sources,
            self.num_claims,
            self.num_intervals,
            self.horizon,
            self.truth_transitions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attitude, TruthLabel};

    fn mk_trace() -> Trace {
        let timeline = Timeline::new(Timestamp::from_secs(100), 4);
        let mut gt = GroundTruth::new(4);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True; 4]);
        gt.insert(
            ClaimId::new(1),
            vec![TruthLabel::False, TruthLabel::True, TruthLabel::True, TruthLabel::False],
        );
        let reports = vec![
            Report::plain(
                SourceId::new(0),
                ClaimId::new(0),
                Timestamp::from_secs(80),
                Attitude::Agree,
            ),
            Report::plain(
                SourceId::new(1),
                ClaimId::new(1),
                Timestamp::from_secs(10),
                Attitude::Disagree,
            ),
            Report::plain(
                SourceId::new(0),
                ClaimId::new(1),
                Timestamp::from_secs(30),
                Attitude::Agree,
            ),
        ];
        Trace::new("test", reports, 3, 2, timeline, gt)
    }

    #[test]
    fn reports_are_sorted_by_time() {
        let t = mk_trace();
        let times: Vec<u64> = t.reports().iter().map(|r| r.time().as_secs()).collect();
        assert_eq!(times, vec![10, 30, 80]);
    }

    #[test]
    fn interval_slicing_partitions_reports() {
        let t = mk_trace();
        let total: usize = (0..4).map(|i| t.reports_in_interval(i).len()).sum();
        assert_eq!(total, t.reports().len());
        assert_eq!(t.reports_in_interval(0).len(), 1); // t=10
        assert_eq!(t.reports_in_interval(1).len(), 1); // t=30
        assert_eq!(t.reports_in_interval(3).len(), 1); // t=80
    }

    #[test]
    fn last_interval_includes_horizon_stragglers() {
        let timeline = Timeline::new(Timestamp::from_secs(10), 2);
        let mut gt = GroundTruth::new(2);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True; 2]);
        let reports = vec![Report::plain(
            SourceId::new(0),
            ClaimId::new(0),
            Timestamp::from_secs(10), // exactly at the horizon
            Attitude::Agree,
        )];
        let t = Trace::new("edge", reports, 1, 1, timeline, gt);
        assert_eq!(t.reports_in_interval(1).len(), 1);
    }

    #[test]
    fn per_claim_filtering() {
        let t = mk_trace();
        assert_eq!(t.reports_for_claim(ClaimId::new(1)).len(), 2);
        assert_eq!(t.reports_for_claim(ClaimId::new(0)).len(), 1);
        assert!(t.reports_for_claim(ClaimId::new(2)).is_empty(), "a claim outside the trace");
    }

    #[test]
    fn building_the_index_does_not_change_what_a_trace_equals() {
        let built = mk_trace();
        let unbuilt = built.clone();
        let _ = built.claim_index();
        assert!(unbuilt.claim_index.get().is_none(), "a clone made before the build has none");
        assert_eq!(built, unbuilt);
        assert_eq!(unbuilt, built);
    }

    #[test]
    fn a_clone_made_after_the_build_shares_the_index() {
        let t = mk_trace();
        let index = Arc::clone(t.claim_index());
        assert!(Arc::ptr_eq(&index, t.clone().claim_index()));
    }

    #[test]
    fn check_names_each_violation() {
        let t = mk_trace();
        let check_with = |reports: &[Report], sources, claims, intervals| {
            check(reports, sources, claims, t.timeline(), &GroundTruth::new(intervals))
        };
        assert_eq!(check_with(t.reports(), 3, 2, 4), Ok(()));
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(
            check_with(t.reports(), 3, 2, 5),
            Err(TraceError::IntervalCountMismatch { timeline: 4, ground_truth: 5 })
        );
        assert_eq!(
            check_with(t.reports(), 1, 2, 4),
            Err(TraceError::UnknownSource(SourceId::new(1)))
        );
        assert_eq!(
            check_with(t.reports(), 3, 1, 4),
            Err(TraceError::UnknownClaim(ClaimId::new(1)))
        );
        let mut unsorted = t.reports().to_vec();
        unsorted.swap(1, 2);
        assert_eq!(check_with(&unsorted, 3, 2, 4), Err(TraceError::NotTimeSorted(2)));
    }

    #[test]
    fn stats_match_contents() {
        let s = mk_trace().stats();
        assert_eq!(s.num_reports, 3);
        assert_eq!(s.num_sources, 3);
        assert_eq!(s.active_sources, 2);
        assert_eq!(s.num_claims, 2);
        assert_eq!(s.truth_transitions, 2);
        assert!(s.to_string().contains("3 reports"));
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn report_with_unknown_source_panics() {
        let timeline = Timeline::new(Timestamp::from_secs(10), 1);
        let mut gt = GroundTruth::new(1);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True]);
        let reports = vec![Report::plain(
            SourceId::new(5),
            ClaimId::new(0),
            Timestamp::ZERO,
            Attitude::Agree,
        )];
        let _ = Trace::new("bad", reports, 1, 1, timeline, gt);
    }

    #[test]
    fn serde_roundtrip() {
        let t = mk_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
