//! The streaming SSTD engine: truth decisions as reports arrive.
//!
//! The batch [`SstdEngine`](crate::SstdEngine) waits for the whole trace.
//! `StreamingSstd` consumes time-ordered reports, closes each timeline
//! interval as the stream passes it, and emits a truth decision per claim
//! per closed interval using an online Viterbi decoder (paper §III-E:
//! "All TD jobs are running in parallel and new TD jobs will be
//! dynamically spawned when new claims are generated").

use crate::checkpoint::{
    config_fingerprint, corrupt, ClaimCheckpoint, RecoveryError, StreamCheckpoint,
};
use crate::model::sticky_hmm;
use crate::{ClaimTruthModel, ClaimWorkspace, SstdConfig, TruthEstimates};
use sstd_hmm::{EmWorkspace, StreamingViterbi, SymmetricGaussianEmission};
use sstd_obs::{EventStore, StreamTick};
use sstd_types::{ClaimId, Report, Timeline, TruthLabel};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// How many of a claim's most recent ACS values a streaming refit trains
/// on and replays through the decoder. It bounds what a claim pays per
/// refit and carries in memory, in a checkpoint and through a restore,
/// whatever the age of the stream; a claim with at most this many closed
/// intervals is decided exactly as if the refit saw its whole history.
///
/// 128 holds about five truth flips at a flip rate of 0.04 per interval.
pub const REFIT_HORIZON: usize = 128;

/// What an ingest path did with one report — the shared vocabulary of
/// [`StreamingSstd::push`], the recovery [`Supervisor`], and the
/// sharded `sstd-serve` ingest service.
///
/// [`Supervisor`]: crate::Supervisor
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Ingested into the open interval.
    Accepted,
    /// Ingested, but timestamped before the open interval: its score was
    /// folded into the open interval instead of rewriting closed history,
    /// and it is tallied as a late report.
    Late,
    /// Already applied under this sequence number; skipped. Only produced
    /// by deduplicating paths (the [`Supervisor`]) — a bare
    /// [`StreamingSstd`] has no sequence numbers.
    ///
    /// [`Supervisor`]: crate::Supervisor
    Duplicate,
    /// Refused outright — a non-finite contribution score or a failed
    /// integrity seal — and tallied as a rejected report.
    Rejected,
}

impl IngestOutcome {
    /// Whether the report's score reached a claim's streaming state
    /// (`Accepted` or `Late`; duplicates and rejects leave it untouched).
    #[must_use]
    pub const fn was_ingested(self) -> bool {
        matches!(self, Self::Accepted | Self::Late)
    }
}

/// Capacity of a claim's ACS ring: the slice the last refit saw
/// (`REFIT_HORIZON` values at most) plus what can arrive before the next
/// one (`streaming_refit − 1`). That is what a restore needs to re-run
/// the last refit and replay the decisions made since.
const fn ring_capacity(config: &SstdConfig) -> usize {
    REFIT_HORIZON.saturating_add(config.streaming_refit - 1)
}

/// State → label mapping of the untrained initial model: state 0 has the
/// positive emission mean by construction.
const INITIAL_LABELS: [TruthLabel; 2] = [TruthLabel::True, TruthLabel::False];

/// The online decoder over the untrained initial model, whose emission
/// scale adapts to the claim's first observation.
fn initial_decoder(config: &SstdConfig, scale: f64) -> StreamingViterbi<SymmetricGaussianEmission> {
    let emission = SymmetricGaussianEmission::new(scale, scale).expect("positive scale");
    StreamingViterbi::new(sticky_hmm(config.stay_probability, emission))
}

/// Per-claim streaming state: windowed ACS aggregation plus an online
/// decoder. Spawned lazily when a claim's first report arrives.
#[derive(Debug)]
struct ClaimStream {
    /// The claim this state belongs to.
    claim: ClaimId,
    /// Interval index at which this claim first appeared.
    start_interval: usize,
    /// Contribution-score sum of the currently open interval.
    open_cs: f64,
    /// Per-interval CS sums of the last `window − 1` closed intervals.
    window: VecDeque<f64>,
    /// Online decoder; created on the first closed interval so its
    /// emission scale can adapt to the first observation.
    decoder: Option<StreamingViterbi<SymmetricGaussianEmission>>,
    /// Truth label of each hidden state under the decoder's model: the
    /// sign of its emission mean. The fitted model itself is moved into
    /// the decoder; this is all the decision path needs beside it.
    labels: [TruthLabel; 2],
    /// Ring of the most recent [`ring_capacity`] ACS values of closed
    /// intervals — the refit training data.
    history: VecDeque<f64>,
    /// One decision per closed interval since `start_interval`.
    decisions: Vec<TruthLabel>,
    /// This claim's link in the engine's list of changed claims, which is
    /// threaded through the slab so that keeping it allocates nothing and
    /// lists a claim at most once: `None` when the claim is not listed,
    /// else the next listed slot (the claim's own slot at the end).
    next_changed: Option<u32>,
}

impl ClaimStream {
    fn new(claim: ClaimId, start_interval: usize) -> Self {
        Self {
            claim,
            start_interval,
            open_cs: 0.0,
            window: VecDeque::new(),
            decoder: None,
            labels: INITIAL_LABELS,
            history: VecDeque::new(),
            decisions: Vec::new(),
            next_changed: None,
        }
    }

    /// Refits the claim HMM on `seen`, a range of the ring, and rebuilds
    /// the online decoder by replaying that range through it (paper
    /// deployments retrain offline as the stream accumulates). Without
    /// training the refit is the initial model re-scaled to `seen`. Past
    /// decisions stay frozen — they were already emitted.
    ///
    /// `em` is the engine-wide EM scratch arena; an existing decoder is
    /// [`reset`](StreamingViterbi::reset) rather than rebuilt, so its
    /// score rows are reused across refits.
    fn refit(&mut self, seen: Range<usize>, config: &SstdConfig, em: &mut EmWorkspace) {
        let seen = &self.history.make_contiguous()[seen];
        let model = ClaimTruthModel::fit_with(config, seen, em);
        self.labels = [model.label_of(0), model.label_of(1)];
        let hmm = model.into_hmm();
        let decoder = match &mut self.decoder {
            Some(dec) => {
                dec.reset(hmm);
                dec
            }
            None => self.decoder.insert(StreamingViterbi::new(hmm)),
        };
        for &obs in seen {
            let _ = decoder.push(obs);
        }
    }

    fn close_interval(&mut self, config: &SstdConfig, em: &mut EmWorkspace) {
        let acs: f64 = self.open_cs + self.window.iter().sum::<f64>();
        self.advance(acs, config, em);
        self.window.push_back(self.open_cs);
        if self.window.len() >= config.window {
            self.window.pop_front();
        }
        self.open_cs = 0.0;
    }

    /// Feeds one windowed ACS observation through the decoder and returns
    /// the filtering decision. [`advance`](Self::advance) calls it live
    /// and [`restore`](Self::restore) replays the retained suffix through
    /// it, so both decide by the same code.
    fn decide(&mut self, acs: f64, config: &SstdConfig) -> TruthLabel {
        let decoder =
            self.decoder.get_or_insert_with(|| initial_decoder(config, acs.abs().max(1.0)));
        self.labels[decoder.push(acs)]
    }

    /// Commits the decision for one closed interval, retains its ACS in
    /// the ring, and refits when due: every `streaming_refit` closes, on
    /// the last [`REFIT_HORIZON`] values.
    fn advance(&mut self, acs: f64, config: &SstdConfig, em: &mut EmWorkspace) {
        let label = self.decide(acs, config);
        self.decisions.push(label);
        if self.history.len() == ring_capacity(config) {
            self.history.pop_front();
        }
        self.history.push_back(acs);
        if self.decisions.len().is_multiple_of(config.streaming_refit) {
            let len = self.history.len();
            self.refit(len.saturating_sub(REFIT_HORIZON)..len, config, em);
        }
    }

    /// Rebuilds a claim's streaming state from a structurally valid
    /// checkpoint entry (see [`StreamingSstd::restore`]).
    ///
    /// Decoder and model are a pure function of the ring: the last refit
    /// is re-run on exactly the slice it saw, and the values retained
    /// after it are pushed through [`decide`](Self::decide) — which also
    /// validates the decisions made since that refit.
    fn restore(
        checkpoint: &ClaimCheckpoint,
        config: &SstdConfig,
        em: &mut EmWorkspace,
    ) -> Result<Self, RecoveryError> {
        let mut stream = Self::new(checkpoint.claim, checkpoint.start_interval);
        stream.history = checkpoint.history.iter().copied().collect();
        let closed = checkpoint.decisions.len();
        let since_refit = closed % config.streaming_refit;
        let refit_at = closed - since_refit;
        let suffix = stream.history.len() - since_refit;
        if refit_at > 0 {
            stream.refit(suffix - refit_at.min(REFIT_HORIZON)..suffix, config, em);
        }
        for i in 0..since_refit {
            let acs = stream.history[suffix + i];
            if stream.decide(acs, config) != checkpoint.decisions[refit_at + i] {
                return Err(corrupt(format!(
                    "claim {}: the decisions since the last refit do not replay from the \
                     retained ACS ring",
                    checkpoint.claim
                )));
            }
        }
        stream.decisions.clone_from(&checkpoint.decisions);
        stream.window = checkpoint.window.iter().copied().collect();
        stream.open_cs = checkpoint.open_cs;
        Ok(stream)
    }
}

/// Online truth discovery over a time-ordered report stream.
///
/// # Examples
///
/// ```
/// use sstd_core::{SstdConfig, StreamingSstd};
/// use sstd_types::*;
///
/// let timeline = Timeline::new(Timestamp::from_secs(40), 4);
/// let mut s = StreamingSstd::new(SstdConfig::default(), timeline);
/// for t in 0..20 {
///     s.push(&Report::plain(
///         SourceId::new(t % 3),
///         ClaimId::new(0),
///         Timestamp::from_secs(t as u64 * 2),
///         Attitude::Agree,
///     ));
/// }
/// let estimates = s.finish();
/// assert_eq!(estimates.labels(ClaimId::new(0)).unwrap(), &[TruthLabel::True; 4]);
/// ```
#[derive(Debug)]
pub struct StreamingSstd {
    config: SstdConfig,
    timeline: Timeline,
    current_interval: usize,
    /// Per-claim state in arrival order; a claim's slot never moves.
    claims: Vec<ClaimStream>,
    /// Each claim's slot in `claims`. The default keyed hasher stays:
    /// claim ids come from clients.
    slots: HashMap<ClaimId, u32>,
    /// First slot of the list of claims whose newest decision is their
    /// first or differs from the one before, since the last
    /// [`drain_changed`](Self::drain_changed); linked through
    /// `ClaimStream::next_changed`.
    changed: Option<u32>,
    reports_seen: u64,
    /// Per-interval telemetry sink, opt-in via
    /// [`with_telemetry_store`](Self::with_telemetry_store).
    telemetry: Option<Arc<EventStore>>,
    /// Reports ingested into the currently open interval.
    interval_reports: u64,
    /// Far-past reports folded into the currently open interval.
    interval_late: u64,
    /// Reports rejected at ingest during the currently open interval.
    interval_rejected: u64,
    /// Lifetime count of far-past reports.
    total_late: u64,
    /// Lifetime count of rejected reports.
    total_rejected: u64,
    /// Engine-wide scratch arena shared by every claim's refits.
    workspace: ClaimWorkspace,
}

impl StreamingSstd {
    /// Creates a streaming engine over `timeline`, without telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SstdConfig::validate`], the checked
    /// entry point for configurations from outside the program.
    #[must_use]
    pub fn new(config: SstdConfig, timeline: Timeline) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid streaming configuration: {e}");
        }
        Self {
            config,
            timeline,
            current_interval: 0,
            claims: Vec::new(),
            slots: HashMap::new(),
            changed: None,
            reports_seen: 0,
            telemetry: None,
            interval_reports: 0,
            interval_late: 0,
            interval_rejected: 0,
            total_late: 0,
            total_rejected: 0,
            workspace: ClaimWorkspace::new(),
        }
    }

    /// Enables per-interval telemetry: ingest rate, ACS window occupancy,
    /// wall-clock decode latency, decision flips and late/rejected counts,
    /// one [`StreamTick`] per closed interval, recorded into `store` — share
    /// it with the other producers so stream intervals interleave with
    /// task/control/recovery events in one causally-linked log, and read
    /// it back through [`EventStore::query`].
    #[must_use]
    pub fn with_telemetry_store(mut self, store: Arc<EventStore>) -> Self {
        self.telemetry = Some(store);
        self
    }

    /// Number of reports consumed.
    #[must_use]
    pub const fn reports_seen(&self) -> u64 {
        self.reports_seen
    }

    /// Number of claims with active streaming state.
    #[must_use]
    pub fn num_claims(&self) -> usize {
        self.claims.len()
    }

    /// The interval currently open (decisions exist for all earlier ones).
    #[must_use]
    pub const fn current_interval(&self) -> usize {
        self.current_interval
    }

    /// Consumes one report and reports what happened to it as a typed
    /// [`IngestOutcome`] — the same vocabulary the recovery
    /// [`Supervisor`](crate::Supervisor) and the sharded `sstd-serve`
    /// ingest service speak — instead of silently bumping counters.
    ///
    /// Reports must arrive in non-decreasing time order. Pathological
    /// inputs have documented, counted behavior instead of silent folding:
    ///
    /// - a *far-past* report (timestamped before the open interval)
    ///   returns [`IngestOutcome::Late`]: it is counted into the open
    ///   interval rather than rewriting history — closed decisions are
    ///   already emitted — and is tallied in the
    ///   [`StreamTick::late_reports`] telemetry field and
    ///   [`late_reports_seen`](Self::late_reports_seen);
    /// - a report whose contribution score is *not finite* (impossible
    ///   through the validated score constructors, but reachable through
    ///   deserialized traces or damaged payloads) returns
    ///   [`IngestOutcome::Rejected`]: it is refused outright and
    ///   tallied in [`StreamTick::rejected_reports`] and
    ///   [`rejected_reports_seen`](Self::rejected_reports_seen). Report
    ///   *times* cannot be non-finite — [`Timestamp`] is integer-backed —
    ///   so the interval mapping is total.
    ///
    /// Everything else returns [`IngestOutcome::Accepted`]. A bare
    /// engine never returns [`IngestOutcome::Duplicate`] — it has no
    /// sequence numbers; deduplicating wrappers do.
    ///
    /// [`Timestamp`]: sstd_types::Timestamp
    pub fn push(&mut self, report: &Report) -> IngestOutcome {
        let cs = report.contribution_score().value();
        if !cs.is_finite() {
            return self.record_rejected();
        }
        let iv = self.timeline.interval_of(report.time());
        let late = iv < self.current_interval;
        if late {
            self.interval_late += 1;
            self.total_late += 1;
        }
        while self.current_interval < iv {
            self.close_current_interval();
        }
        self.reports_seen += 1;
        self.interval_reports += 1;
        let slot = match self.slots.entry(report.claim()) {
            Entry::Occupied(slot) => *slot.get() as usize,
            Entry::Vacant(vacant) => {
                // Claim ids are `u32`, so a slot always fits one.
                vacant.insert(self.claims.len() as u32);
                self.claims.push(ClaimStream::new(report.claim(), self.current_interval));
                self.claims.len() - 1
            }
        };
        self.claims[slot].open_cs += cs;
        if late {
            IngestOutcome::Late
        } else {
            IngestOutcome::Accepted
        }
    }

    /// Records a report rejected *before* it reached [`push`](Self::push)
    /// — e.g. an ingest record that failed its integrity check in the
    /// recovery supervisor — so data-path rejections surface in the same
    /// [`StreamTick::rejected_reports`] telemetry field. Returns
    /// [`IngestOutcome::Rejected`] so callers can propagate the verdict.
    pub fn record_rejected(&mut self) -> IngestOutcome {
        self.interval_rejected += 1;
        self.total_rejected += 1;
        IngestOutcome::Rejected
    }

    /// Lifetime count of far-past reports folded into an open interval.
    #[must_use]
    pub const fn late_reports_seen(&self) -> u64 {
        self.total_late
    }

    /// Lifetime count of reports rejected at ingest.
    #[must_use]
    pub const fn rejected_reports_seen(&self) -> u64 {
        self.total_rejected
    }

    /// The latest committed decision for `claim`, if any interval has
    /// closed since the claim appeared.
    #[must_use]
    pub fn latest_decision(&self, claim: ClaimId) -> Option<TruthLabel> {
        self.stream(claim).and_then(|s| s.decisions.last().copied())
    }

    fn stream(&self, claim: ClaimId) -> Option<&ClaimStream> {
        self.slots.get(&claim).map(|&slot| &self.claims[slot as usize])
    }

    /// The claims with active streaming state, in id order.
    pub fn claim_ids(&self) -> impl Iterator<Item = ClaimId> {
        let mut ids: Vec<ClaimId> = self.claims.iter().map(|s| s.claim).collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Replaces `into`'s contents with the claims, in id order, whose
    /// newest decisions include their first or a label change since the
    /// last call, and forgets them. Every other claim's decisions since
    /// then repeat its label from before, so a change-stream consumer that
    /// diffs [`decisions`](Self::decisions) need look at these claims only.
    ///
    /// The list is not part of a [`checkpoint`](Self::checkpoint): a
    /// [`restore`](Self::restore)d engine lists only what the reports
    /// pushed into it since have changed.
    pub fn drain_changed(&mut self, into: &mut Vec<ClaimId>) {
        into.clear();
        let mut next = self.changed.take();
        while let Some(slot) = next {
            let stream = &mut self.claims[slot as usize];
            into.push(stream.claim);
            next = stream.next_changed.take().filter(|&after| after != slot);
        }
        into.sort_unstable();
    }

    /// The committed per-interval decision history of `claim`: the
    /// interval its first report arrived in, and one label per interval
    /// closed since then. Committed decisions are frozen — refits never
    /// rewrite them — so a change-stream consumer can diff successive
    /// snapshots of this slice safely.
    #[must_use]
    pub fn decisions(&self, claim: ClaimId) -> Option<(usize, &[TruthLabel])> {
        self.stream(claim).map(|s| (s.start_interval, s.decisions.as_slice()))
    }

    fn close_current_interval(&mut self) {
        let started = self.telemetry.is_some().then(Instant::now);
        let mut flips = 0usize;
        for (slot, stream) in self.claims.iter_mut().enumerate() {
            stream.close_interval(&self.config, &mut self.workspace.em);
            match stream.decisions.as_slice() {
                [.., before, last] if before == last => continue,
                [_] => {}
                _ => flips += 1,
            }
            if stream.next_changed.is_none() {
                let slot = slot as u32;
                stream.next_changed = Some(self.changed.unwrap_or(slot));
                self.changed = Some(slot);
            }
        }
        if let Some(store) = &self.telemetry {
            let active = self
                .claims
                .iter()
                .filter(|s| s.open_cs != 0.0 || s.window.iter().any(|&v| v != 0.0))
                .count();
            let occupancy = if self.claims.is_empty() {
                0.0
            } else {
                self.claims.iter().map(|s| s.window.len() as f64).sum::<f64>()
                    / self.claims.len() as f64
            };
            store.record_stream(StreamTick {
                interval: self.current_interval as u64,
                reports: self.interval_reports,
                active_claims: active,
                window_occupancy: occupancy,
                decode_latency: started.map_or(0.0, |t| t.elapsed().as_secs_f64()),
                decision_flips: flips,
                late_reports: self.interval_late,
                rejected_reports: self.interval_rejected,
            });
        }
        self.interval_reports = 0;
        self.interval_late = 0;
        self.interval_rejected = 0;
        self.current_interval += 1;
    }

    /// Snapshots the engine into a versioned, serializable
    /// [`StreamCheckpoint`]: interval cursor, ingest counters, and
    /// per-claim window/open-CS/ACS ring/decisions, stamped with the
    /// `(config, timeline)` fingerprint. Per claim that is one byte per
    /// closed interval plus at most `REFIT_HORIZON + streaming_refit − 1`
    /// ring values. Decoder and model state are not captured —
    /// [`restore`](Self::restore) rebuilds them deterministically from the
    /// ring.
    ///
    /// Telemetry ticks are not part of the snapshot (they were already
    /// exported downstream); a restored engine records again once
    /// [`with_telemetry_store`](Self::with_telemetry_store) is chained
    /// onto it.
    #[must_use]
    pub fn checkpoint(&self) -> StreamCheckpoint {
        let mut by_id: Vec<&ClaimStream> = self.claims.iter().collect();
        by_id.sort_unstable_by_key(|s| s.claim);
        StreamCheckpoint {
            fingerprint: config_fingerprint(&self.config, &self.timeline),
            current_interval: self.current_interval,
            reports_seen: self.reports_seen,
            interval_reports: self.interval_reports,
            interval_late: self.interval_late,
            interval_rejected: self.interval_rejected,
            total_late: self.total_late,
            total_rejected: self.total_rejected,
            claims: by_id
                .into_iter()
                .map(|s| ClaimCheckpoint {
                    claim: s.claim,
                    start_interval: s.start_interval,
                    open_cs: s.open_cs,
                    window: s.window.iter().copied().collect(),
                    history: s.history.iter().copied().collect(),
                    decisions: s.decisions.clone(),
                })
                .collect(),
        }
    }

    /// Reconstructs an engine from a checkpoint taken under the same
    /// `(config, timeline)` pair, such that its continuation is
    /// bit-identical to the engine the snapshot was taken from: same
    /// decisions, same [`TruthEstimates`], report for report.
    ///
    /// Each claim's decoder and model are a pure deterministic function
    /// of `(config, retained ring)`: the last refit is re-run on exactly
    /// the slice of the ring it saw and the values that arrived since are
    /// pushed through the live decision path, so a restore costs one
    /// refit per claim whatever the age of the stream (see DESIGN.md
    /// §13). That replay **validates the
    /// decisions made since the last refit** — fewer than
    /// `streaming_refit` per claim; a snapshot whose decisions there
    /// disagree with its ring is refused. Older decisions cannot be
    /// replayed from a bounded ring and rest on the snapshot's FNV-1a
    /// seal alone.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ConfigMismatch`] when the checkpoint fingerprint
    /// does not match `config`/`timeline`, and
    /// [`RecoveryError::Corrupt`] when the snapshot is structurally
    /// inconsistent (cursor/ring/window/decision lengths disagree,
    /// non-finite state, or decisions that do not replay from the ring).
    /// Never panics on any input that decodes.
    pub fn restore(
        config: SstdConfig,
        timeline: Timeline,
        checkpoint: &StreamCheckpoint,
    ) -> Result<Self, RecoveryError> {
        let expected = config_fingerprint(&config, &timeline);
        if checkpoint.fingerprint != expected {
            return Err(RecoveryError::ConfigMismatch { found: checkpoint.fingerprint, expected });
        }
        if checkpoint.current_interval > timeline.num_intervals() {
            return Err(corrupt(format!(
                "interval cursor {} exceeds the timeline's {} intervals",
                checkpoint.current_interval,
                timeline.num_intervals()
            )));
        }
        let mut engine = Self::new(config, timeline);
        // The claim count is known: size the slab and the index once
        // rather than growing them through the heap mid-recovery.
        engine.claims.reserve_exact(checkpoint.claims.len());
        engine.slots.reserve(checkpoint.claims.len());
        engine.current_interval = checkpoint.current_interval;
        engine.reports_seen = checkpoint.reports_seen;
        engine.interval_reports = checkpoint.interval_reports;
        engine.interval_late = checkpoint.interval_late;
        engine.interval_rejected = checkpoint.interval_rejected;
        engine.total_late = checkpoint.total_late;
        engine.total_rejected = checkpoint.total_rejected;
        for c in &checkpoint.claims {
            let closed =
                checkpoint.current_interval.checked_sub(c.start_interval).ok_or_else(|| {
                    corrupt(format!(
                        "claim {}: start interval {} is past the cursor {}",
                        c.claim, c.start_interval, checkpoint.current_interval
                    ))
                })?;
            let expected_ring = closed.min(ring_capacity(&engine.config));
            if c.decisions.len() != closed || c.history.len() != expected_ring {
                return Err(corrupt(format!(
                    "claim {}: {} closed intervals but {} decisions and {} ring entries \
                     (expected {expected_ring})",
                    c.claim,
                    closed,
                    c.decisions.len(),
                    c.history.len()
                )));
            }
            let expected_window = closed.min(engine.config.window.saturating_sub(1));
            if c.window.len() != expected_window {
                return Err(corrupt(format!(
                    "claim {}: window holds {} entries, expected {}",
                    c.claim,
                    c.window.len(),
                    expected_window
                )));
            }
            if !c.open_cs.is_finite()
                || c.window.iter().any(|v| !v.is_finite())
                || c.history.iter().any(|v| !v.is_finite())
            {
                return Err(corrupt(format!("claim {}: non-finite streaming state", c.claim)));
            }
            if engine.slots.insert(c.claim, engine.claims.len() as u32).is_some() {
                return Err(corrupt(format!("claim {} is listed twice", c.claim)));
            }
            let stream = ClaimStream::restore(c, &engine.config, &mut engine.workspace.em)?;
            engine.claims.push(stream);
        }
        Ok(engine)
    }

    /// Closes all remaining intervals and returns the full estimate table.
    ///
    /// Intervals before a claim's first report are labeled `False`
    /// (no evidence — same convention as the batch engine).
    #[must_use]
    pub fn finish(mut self) -> TruthEstimates {
        let n = self.timeline.num_intervals();
        while self.current_interval < n {
            self.close_current_interval();
        }
        let mut out = TruthEstimates::new(n);
        for stream in self.claims {
            let mut labels = vec![TruthLabel::False; stream.start_interval];
            labels.extend(&stream.decisions);
            debug_assert_eq!(labels.len(), n);
            out.insert(stream.claim, labels);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, SourceId, Timestamp};

    fn report(claim: u32, t: u64, attitude: Attitude) -> Report {
        Report::plain(SourceId::new(0), ClaimId::new(claim), Timestamp::from_secs(t), attitude)
    }

    fn timeline() -> Timeline {
        Timeline::new(Timestamp::from_secs(100), 10)
    }

    #[test]
    fn steady_agreement_decodes_true() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        for t in 0..100 {
            s.push(&report(0, t, Attitude::Agree));
        }
        let est = s.finish();
        assert_eq!(est.labels(ClaimId::new(0)).unwrap(), &[TruthLabel::True; 10]);
    }

    #[test]
    fn truth_flip_is_tracked_online() {
        let mut s =
            StreamingSstd::new(SstdConfig { window: 1, ..SstdConfig::default() }, timeline());
        for t in 0..100u64 {
            let att = if t < 50 { Attitude::Agree } else { Attitude::Disagree };
            for src in 0..4 {
                s.push(&Report::plain(
                    SourceId::new(src),
                    ClaimId::new(0),
                    Timestamp::from_secs(t),
                    att,
                ));
            }
        }
        let est = s.finish();
        let labels = est.labels(ClaimId::new(0)).unwrap();
        assert_eq!(labels[2], TruthLabel::True);
        assert_eq!(labels[8], TruthLabel::False);
    }

    #[test]
    fn late_claims_are_backfilled_false() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        // Claim 0 from the start; claim 1 appears at t = 55 (interval 5).
        for t in 0..100 {
            s.push(&report(0, t, Attitude::Agree));
            if t >= 55 {
                s.push(&report(1, t, Attitude::Agree));
            }
        }
        let est = s.finish();
        let c1 = est.labels(ClaimId::new(1)).unwrap();
        assert_eq!(&c1[..5], &[TruthLabel::False; 5]);
        assert_eq!(c1[9], TruthLabel::True);
        assert_eq!(est.num_claims(), 2);
    }

    #[test]
    fn latest_decision_tracks_closed_intervals() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        s.push(&report(0, 5, Attitude::Agree));
        assert_eq!(s.latest_decision(ClaimId::new(0)), None, "interval still open");
        s.push(&report(0, 25, Attitude::Agree)); // closes intervals 0 and 1
        assert_eq!(s.latest_decision(ClaimId::new(0)), Some(TruthLabel::True));
        assert_eq!(s.current_interval(), 2);
    }

    #[test]
    fn drained_changes_are_first_decisions_and_flips_in_id_order() {
        let mut s =
            StreamingSstd::new(SstdConfig { window: 1, ..SstdConfig::default() }, timeline());
        let mut changed = Vec::new();
        // Claims arrive out of id order; nothing has closed yet.
        for claim in [7, 3, 5] {
            s.push(&report(claim, 1, Attitude::Agree));
        }
        s.drain_changed(&mut changed);
        assert!(changed.is_empty());
        // A three-interval gap: every claim's first decision, once each.
        s.push(&report(5, 35, Attitude::Agree));
        s.drain_changed(&mut changed);
        assert_eq!(changed, [3, 5, 7].map(ClaimId::new));
        // Steady labels list nothing; claim 5 turning lists claim 5 only.
        for t in 36..100 {
            s.push(&report(3, t, Attitude::Agree));
            s.push(&report(5, t, Attitude::Disagree));
            s.push(&report(7, t, Attitude::Agree));
        }
        s.drain_changed(&mut changed);
        assert_eq!(changed, [ClaimId::new(5)]);
        assert_eq!(s.latest_decision(ClaimId::new(5)), Some(TruthLabel::False));
        s.drain_changed(&mut changed);
        assert!(changed.is_empty(), "draining forgets");
    }

    #[test]
    fn counters() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        for t in 0..7 {
            s.push(&report(0, t, Attitude::Agree));
        }
        assert_eq!(s.reports_seen(), 7);
        assert_eq!(s.num_claims(), 1);
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let s = StreamingSstd::new(SstdConfig::default(), timeline());
        let est = s.finish();
        assert_eq!(est.num_claims(), 0);
        assert_eq!(est.num_intervals(), 10);
    }

    fn ticks(store: &EventStore) -> Vec<StreamTick> {
        store.query().stream().events().iter().filter_map(|e| e.stream_tick().copied()).collect()
    }

    #[test]
    fn telemetry_counts_every_interval() {
        let store = Arc::new(EventStore::new());
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline())
            .with_telemetry_store(Arc::clone(&store));
        for t in 0..100 {
            s.push(&report(0, t, Attitude::Agree));
        }
        assert_eq!(s.finish().num_claims(), 1);
        let ticks = ticks(&store);
        assert_eq!(ticks.len(), 10, "one tick per closed interval");
        assert_eq!(ticks.iter().map(|k| k.reports).sum::<u64>(), 100, "every report lands");
        assert_eq!(ticks[3].interval, 3);
        assert_eq!(ticks[0].reports, 10, "10 reports per interval");
        assert!(ticks.iter().all(|k| k.active_claims <= 1));
    }

    #[test]
    fn telemetry_sees_decision_flips() {
        let store = Arc::new(EventStore::new());
        let mut s =
            StreamingSstd::new(SstdConfig { window: 1, ..SstdConfig::default() }, timeline())
                .with_telemetry_store(Arc::clone(&store));
        for t in 0..100u64 {
            let att = if t < 50 { Attitude::Agree } else { Attitude::Disagree };
            for src in 0..4 {
                s.push(&Report::plain(
                    SourceId::new(src),
                    ClaimId::new(0),
                    Timestamp::from_secs(t),
                    att,
                ));
            }
        }
        let _ = s.finish();
        let flips: usize = ticks(&store).iter().map(|k| k.decision_flips).sum();
        assert!(flips >= 1, "the truth flip at t = 50 must register");
    }

    #[test]
    fn matches_batch_engine_on_clean_signal() {
        use sstd_types::{GroundTruth, Trace};
        let tl = timeline();
        let mut gt = GroundTruth::new(10);
        gt.insert(ClaimId::new(0), vec![TruthLabel::True; 10]);
        let reports: Vec<Report> = (0..100)
            .map(|t| report(0, t, if t < 50 { Attitude::Agree } else { Attitude::Disagree }))
            .collect();
        let trace = Trace::new("cmp", reports.clone(), 1, 1, tl.clone(), gt);

        let batch = crate::SstdEngine::new(SstdConfig::default()).run(&trace);
        let mut stream = StreamingSstd::new(SstdConfig::default(), tl);
        for r in &reports {
            stream.push(r);
        }
        let online = stream.finish();
        let b = batch.labels(ClaimId::new(0)).unwrap();
        let o = online.labels(ClaimId::new(0)).unwrap();
        // Streaming decisions are filtering (no lookahead), so allow the
        // flip boundary to differ by at most one interval.
        let disagreements = b.iter().zip(o).filter(|(x, y)| x != y).count();
        assert!(disagreements <= 2, "batch {b:?} vs online {o:?}");
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::checkpoint::RecoveryError;
    use sstd_types::{Attitude, SourceId, Timestamp};

    fn timeline() -> Timeline {
        Timeline::new(Timestamp::from_secs(100), 10)
    }

    /// A noisy multi-claim stream that exercises refits and flips.
    fn reports() -> Vec<Report> {
        (0..100u64)
            .flat_map(|t| {
                (0..3u32).map(move |src| {
                    let claim = src % 2;
                    let att = if (t / 30 + u64::from(src)) % 2 == 0 {
                        Attitude::Agree
                    } else {
                        Attitude::Disagree
                    };
                    Report::plain(
                        SourceId::new(src),
                        ClaimId::new(claim),
                        Timestamp::from_secs(t),
                        att,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn restored_run_is_bit_identical_to_uninterrupted() {
        let cfg = SstdConfig { streaming_refit: 3, ..SstdConfig::default() };
        let all = reports();
        for cut in [1usize, 37, 150, 299] {
            let mut reference = StreamingSstd::new(cfg, timeline());
            for r in &all {
                reference.push(r);
            }
            let expected = reference.finish();

            let mut first = StreamingSstd::new(cfg, timeline());
            for r in &all[..cut] {
                first.push(r);
            }
            let bytes = first.checkpoint().to_bytes();
            drop(first); // the crash
            let snap = StreamCheckpoint::from_bytes(&bytes).expect("snapshot decodes");
            let mut resumed =
                StreamingSstd::restore(cfg, timeline(), &snap).expect("same config restores");
            for r in &all[cut..] {
                resumed.push(r);
            }
            assert_eq!(resumed.finish(), expected, "cut at report {cut}");
        }
    }

    #[test]
    fn checkpoint_preserves_counters() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        for r in reports().iter().take(50) {
            s.push(r);
        }
        let _ = s.record_rejected();
        let snap = s.checkpoint();
        assert_eq!(snap.reports_seen(), 50);
        let resumed =
            StreamingSstd::restore(SstdConfig::default(), timeline(), &snap).expect("restores");
        assert_eq!(resumed.reports_seen(), 50);
        assert_eq!(resumed.rejected_reports_seen(), 1);
        assert_eq!(resumed.current_interval(), s.current_interval());
        assert_eq!(resumed.num_claims(), s.num_claims());
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline());
        for r in reports().iter().take(40) {
            s.push(r);
        }
        let snap = s.checkpoint();
        let other = SstdConfig { streaming_refit: 7, ..SstdConfig::default() };
        let err = StreamingSstd::restore(other, timeline(), &snap)
            .expect_err("different config must be refused");
        assert!(matches!(err, RecoveryError::ConfigMismatch { .. }), "{err}");
        let other_tl = Timeline::new(Timestamp::from_secs(100), 20);
        let err = StreamingSstd::restore(SstdConfig::default(), other_tl, &snap)
            .expect_err("different timeline must be refused");
        assert!(matches!(err, RecoveryError::ConfigMismatch { .. }), "{err}");
    }

    /// `intervals` one-second intervals of two claims, three reports per
    /// interval, with truth flipping every 30 intervals and one report
    /// in three dissenting on a schedule of its own.
    fn long_stream(intervals: u64) -> (Timeline, Vec<Report>) {
        let reports = (0..intervals)
            .flat_map(|t| {
                (0..3u32).map(move |src| {
                    let claim = src % 2;
                    let honest = (t * 7 + u64::from(src) * 5) % 11 != 0;
                    let truth = (t / 30 + u64::from(claim)) % 2 == 0;
                    let att = if truth == honest { Attitude::Agree } else { Attitude::Disagree };
                    Report::plain(
                        SourceId::new(src),
                        ClaimId::new(claim),
                        Timestamp::from_secs(t),
                        att,
                    )
                })
            })
            .collect();
        (Timeline::new(Timestamp::from_secs(intervals), intervals as usize), reports)
    }

    fn run(cfg: SstdConfig, timeline: &Timeline, reports: &[Report]) -> StreamingSstd {
        let mut s = StreamingSstd::new(cfg, timeline.clone());
        for r in reports {
            s.push(r);
        }
        s
    }

    #[test]
    fn restore_is_bit_identical_before_at_and_after_the_ring_wraps() {
        let (tl, all) = long_stream(400);
        let configs = [
            SstdConfig { streaming_refit: 3, ..SstdConfig::default() },
            SstdConfig { streaming_refit: 1, ..SstdConfig::default() },
            SstdConfig::default(),
            SstdConfig { train: false, ..SstdConfig::default() },
            // Longer than the stream: it never refits, and the ring holds
            // the whole history.
            SstdConfig { streaming_refit: 1_000, ..SstdConfig::default() },
        ];
        for cfg in configs {
            let expected = run(cfg, &tl, &all).finish();
            let cap = ring_capacity(&cfg);
            // Closed-interval counts around the first refit, the horizon,
            // the wrap (the ring is full at `cap` closes) and late in the
            // stream.
            let refit = cfg.streaming_refit;
            let cuts = [1, refit, refit + 1, REFIT_HORIZON, cap.max(2) - 1, cap, cap + 1, 300, 399];
            for closed in cuts.into_iter().filter(|&c| c > 0 && c < 400) {
                // The first report of interval `closed` closes the one before.
                let cut = closed * 3 + 1;
                let first = run(cfg, &tl, &all[..cut]);
                assert_eq!(first.current_interval(), closed);
                let bytes = first.checkpoint().to_bytes();
                drop(first);
                let snap = StreamCheckpoint::from_bytes(&bytes).expect("snapshot decodes");
                let mut resumed = StreamingSstd::restore(cfg, tl.clone(), &snap).expect("restores");
                assert_eq!(resumed.checkpoint(), snap, "re-snapshot differs at {closed}");
                for r in &all[cut..] {
                    resumed.push(r);
                }
                assert_eq!(
                    resumed.finish(),
                    expected,
                    "refit {} train {} cut at {closed} closed intervals",
                    cfg.streaming_refit,
                    cfg.train
                );
            }
        }
    }

    #[test]
    fn ring_and_snapshot_growth_are_bounded_by_the_horizon() {
        let cfg = SstdConfig::default();
        let cap = ring_capacity(&cfg);
        assert_eq!(cap, REFIT_HORIZON + cfg.streaming_refit - 1);
        let timeline = Timeline::new(Timestamp::from_secs(5_001), 5_001);
        let mut s = StreamingSstd::new(cfg, timeline);
        let mut bytes_at = std::collections::BTreeMap::new();
        for t in 0..=5_000u64 {
            let att = if (t / 40) % 2 == 0 { Attitude::Agree } else { Attitude::Disagree };
            s.push(&Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::from_secs(t), att));
            let stream = s.stream(ClaimId::new(0)).expect("claim 0 has state");
            assert_eq!(stream.decisions.len(), t as usize);
            assert_eq!(stream.history.len(), stream.decisions.len().min(cap), "interval {t}");
            if t == 1_000 || t == 5_000 {
                bytes_at.insert(t, s.checkpoint().to_bytes().len());
            }
        }
        assert_eq!(
            bytes_at[&5_000] - bytes_at[&1_000],
            4_000,
            "a snapshot grows by one decision byte per closed interval and nothing else"
        );
    }

    #[test]
    fn tampered_decisions_fail_replay_validation() {
        // Replay covers the decisions made since the last refit: with a
        // refit every 7 closes and 200 closed, those are the last 4.
        let cfg = SstdConfig { streaming_refit: 7, ..SstdConfig::default() };
        let (tl, all) = long_stream(400);
        let s = run(cfg, &tl, &all[..200 * 3 + 1]);
        let snap = s.checkpoint();
        assert_eq!(snap.claims[0].decisions.len(), 200);
        for back in 1..=200 % 7 {
            let mut tampered = snap.clone();
            let d = &mut tampered.claims[0].decisions;
            let i = d.len() - back;
            d[i] = d[i].flipped();
            let err = StreamingSstd::restore(cfg, tl.clone(), &tampered)
                .expect_err("tampered decisions must be refused");
            assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("replay"), "{err}");
        }
        let mut tampered_ring = snap.clone();
        let ring = &mut tampered_ring.claims[0].history;
        let last = ring.len() - 1;
        ring[last] = -ring[last] - 40.0;
        let err = StreamingSstd::restore(cfg, tl.clone(), &tampered_ring)
            .expect_err("a ring that contradicts the decisions must be refused");
        assert!(err.to_string().contains("replay"), "{err}");
    }

    #[test]
    fn structurally_inconsistent_snapshots_are_rejected() {
        let (tl, all) = long_stream(400);
        let cfg = SstdConfig::default();
        let good = run(cfg, &tl, &all[..250 * 3]).checkpoint();
        assert_eq!(good.claims[0].history.len(), ring_capacity(&cfg), "the ring has wrapped");
        let refused = |cfg: SstdConfig, snap: &StreamCheckpoint| {
            matches!(
                StreamingSstd::restore(cfg, tl.clone(), snap),
                Err(RecoveryError::Corrupt { .. })
            )
        };
        assert!(StreamingSstd::restore(cfg, tl.clone(), &good).is_ok());

        let mut cursor_overflow = good.clone();
        cursor_overflow.current_interval = 999;
        assert!(refused(cfg, &cursor_overflow));

        let mut short_ring = good.clone();
        short_ring.claims[0].history.pop();
        assert!(refused(cfg, &short_ring));

        let mut long_ring = good.clone();
        long_ring.claims[0].history.push(0.5);
        assert!(refused(cfg, &long_ring));

        let mut short_decisions = good.clone();
        short_decisions.claims[0].decisions.pop();
        assert!(refused(cfg, &short_decisions));

        let mut nan_state = good.clone();
        nan_state.claims[0].open_cs = f64::NAN;
        assert!(refused(cfg, &nan_state));

        let mut nan_ring = good.clone();
        nan_ring.claims[0].history[3] = f64::INFINITY;
        assert!(refused(cfg, &nan_ring));

        let mut bad_window = good.clone();
        bad_window.claims[0].window.push(0.5);
        assert!(refused(cfg, &bad_window));

        let mut twice = good;
        twice.claims[1] = twice.claims[0].clone();
        assert!(refused(cfg, &twice));
    }

    #[test]
    fn late_reports_are_counted_not_dropped() {
        let store = Arc::new(EventStore::new());
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline())
            .with_telemetry_store(Arc::clone(&store));
        s.push(&Report::plain(
            SourceId::new(0),
            ClaimId::new(0),
            Timestamp::from_secs(45),
            Attitude::Agree,
        ));
        assert_eq!(s.current_interval(), 4);
        // Timestamped in interval 0 — four intervals in the past.
        s.push(&Report::plain(
            SourceId::new(1),
            ClaimId::new(0),
            Timestamp::from_secs(3),
            Attitude::Agree,
        ));
        assert_eq!(s.late_reports_seen(), 1);
        assert_eq!(s.reports_seen(), 2, "a late report still counts as ingested");
        let _ = s.finish();
        let late =
            store.query().stream().collect(|e| e.stream_tick().map(|t| t.late_reports as f64));
        assert_eq!(late.iter().sum::<f64>(), 1.0);
        assert_eq!(late[4], 1.0, "counted into the open interval's tick");
    }

    #[test]
    fn rejected_reports_surface_in_telemetry() {
        let store = Arc::new(EventStore::new());
        let mut s = StreamingSstd::new(SstdConfig::default(), timeline())
            .with_telemetry_store(Arc::clone(&store));
        s.push(&Report::plain(
            SourceId::new(0),
            ClaimId::new(0),
            Timestamp::from_secs(5),
            Attitude::Agree,
        ));
        let _ = s.record_rejected();
        let _ = s.record_rejected();
        assert_eq!(s.rejected_reports_seen(), 2);
        assert_eq!(s.reports_seen(), 1, "rejected reports are not ingested");
        let _ = s.finish();
        let rejected =
            store.query().stream().sum(|e| e.stream_tick().map(|t| t.rejected_reports as f64));
        assert_eq!(rejected, 2.0);
    }
}

#[cfg(test)]
mod refit_tests {
    use super::*;
    use sstd_types::{Attitude, SourceId, Timestamp};

    /// Refit should tighten streaming decisions on a long noisy stream
    /// relative to a refit period longer than the stream.
    #[test]
    fn refit_improves_on_noisy_flipping_stream() {
        let timeline = Timeline::new(Timestamp::from_secs(1_000), 100);
        // Truth flips every 20 intervals; 5 reporters with 80% honesty.
        let reports: Vec<Report> = (0..1_000u64)
            .flat_map(|t| {
                let truth_is_true = (t / 200) % 2 == 0;
                (0..5u32).map(move |src| {
                    let honest = (t.wrapping_mul(31).wrapping_add(u64::from(src) * 7)) % 10 < 8;
                    let attitude = match (truth_is_true, honest) {
                        (true, true) | (false, false) => Attitude::Agree,
                        _ => Attitude::Disagree,
                    };
                    Report::plain(
                        SourceId::new(src),
                        ClaimId::new(0),
                        Timestamp::from_secs(t),
                        attitude,
                    )
                })
            })
            .collect();

        let accuracy = |refit: usize| -> f64 {
            let cfg = SstdConfig { streaming_refit: refit, ..SstdConfig::default() };
            let mut engine = StreamingSstd::new(cfg, timeline.clone());
            for r in &reports {
                engine.push(r);
            }
            let est = engine.finish();
            let labels = est.labels(ClaimId::new(0)).unwrap();
            labels.iter().enumerate().filter(|(iv, &l)| l.as_bool() == ((iv / 20) % 2 == 0)).count()
                as f64
                / labels.len() as f64
        };
        let with_refit = accuracy(20);
        let without = accuracy(1_000);
        assert!(with_refit + 0.02 >= without, "refit {with_refit} vs none {without}");
        assert!(with_refit > 0.8, "refit accuracy {with_refit}");
    }

    #[test]
    fn refit_keeps_emitted_decisions_frozen() {
        let timeline = Timeline::new(Timestamp::from_secs(100), 10);
        let cfg = SstdConfig { streaming_refit: 3, ..SstdConfig::default() };
        let mut engine = StreamingSstd::new(cfg, timeline);
        let mut seen: Vec<TruthLabel> = Vec::new();
        for t in 0..100u64 {
            engine.push(&Report::plain(
                SourceId::new(0),
                ClaimId::new(0),
                Timestamp::from_secs(t),
                Attitude::Agree,
            ));
            // Every decision observed mid-stream must persist to the end.
            if let Some(d) = engine.latest_decision(ClaimId::new(0)) {
                let closed = engine.current_interval();
                if closed > seen.len() {
                    seen.push(d);
                }
            }
        }
        let final_est = engine.finish();
        let labels = final_est.labels(ClaimId::new(0)).unwrap();
        for (iv, d) in seen.iter().enumerate() {
            assert_eq!(labels[iv], *d, "decision at interval {iv} was rewritten");
        }
    }
}
