//! Crash-consistent supervised ingest (DESIGN.md §13).
//!
//! A production SSTD deployment ingests an unbounded report stream; the
//! process running it *will* die mid-interval. This module makes that
//! survivable without changing a single decision:
//!
//! - [`IngestRecord`] — a sequence-numbered, integrity-sealed report as
//!   the transport delivers it;
//! - [`chaos_stream`] — perturbs a pristine report stream with the seeded
//!   ingest faults of a [`FaultPlan`] (drop, duplicate, bounded reorder,
//!   payload corruption), purely as a function of `(plan, reports)`;
//! - [`ReportJournal`] — an append-only, checksummed journal of the
//!   records applied since the last checkpoint;
//! - [`CheckpointPolicy`] — when the [`Supervisor`] snapshots (every N
//!   applied reports);
//! - [`Supervisor`] — the ingest loop itself: applies records with
//!   exactly-once sequence-number dedupe, checkpoints under the policy,
//!   and recovers from a crash by restoring the last checkpoint and
//!   replaying the journal, however many times it crashes; durable bytes
//!   that fail to decode surface as a typed [`RecoveryError`]. It is the
//!   one recovery state machine of the tree: a `sstd-serve` shard is a
//!   supervisor plus change-stream cursors.
//!
//! The headline guarantee — checked by the `recovery_chaos` differential
//! suite — is that a crashed-and-recovered run produces
//! [`TruthEstimates`] bit-identical to an uninterrupted run over the same
//! delivered stream, including under chaos.

use crate::checkpoint::{
    corrupt, fnv1a, push_f64, push_u64, Reader, RecoveryError, StreamCheckpoint,
};
use crate::{IngestOutcome, SstdConfig, StreamingSstd, TruthEstimates};
use sstd_obs::{EventStore, RecoveryEvent};
use sstd_runtime::{FaultPlan, IngestFault};
use sstd_types::{
    Attitude, ClaimId, Independence, Report, SourceId, Timeline, Timestamp, Uncertainty,
};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The 8-byte magic prefixing an encoded journal.
const JOURNAL_MAGIC: &[u8; 8] = b"SSTDJRN1";

/// The 8-byte magic prefixing the supervisor's durable checkpoint (the
/// engine snapshot plus the applied-sequence set).
const DURABLE_MAGIC: &[u8; 8] = b"SSTDSUP1";

/// Most journal entries [`Supervisor::new`] reserves up front (about
/// 12.6 MB); a longer cadence grows the journal past it on demand.
const MAX_JOURNAL_RESERVE: u64 = 1 << 18;

/// Encoded size of one journal entry: seq + source + claim + time (u64
/// each) + attitude byte + uncertainty + independence (f64 each).
const ENTRY_BYTES: usize = 8 * 4 + 1 + 8 * 2;

/// A sequence-numbered report as the ingest transport delivers it.
///
/// The `seal` is an FNV-1a digest of the sequence number and payload,
/// fixed at creation; [`is_intact`](Self::is_intact) recomputes it, so a
/// record whose payload was damaged in flight no longer verifies. Chaos
/// injection produces such records with [`corrupted`](Self::corrupted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestRecord {
    seq: u64,
    report: Report,
    seal: u64,
}

impl IngestRecord {
    /// Seals `report` under sequence number `seq`.
    #[must_use]
    pub fn new(seq: u64, report: Report) -> Self {
        Self { seq, report, seal: seal_of(seq, &report) }
    }

    /// The transport-assigned sequence number.
    #[must_use]
    pub const fn seq(&self) -> u64 {
        self.seq
    }

    /// The report payload.
    #[must_use]
    pub const fn report(&self) -> &Report {
        &self.report
    }

    /// Whether the payload still matches its seal.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        self.seal == seal_of(self.seq, &self.report)
    }

    /// Returns this record with its payload damaged in flight: the stance
    /// is flipped and the seal no longer verifies.
    #[must_use]
    pub fn corrupted(mut self) -> Self {
        self.report = self.report.with_flipped_attitude();
        self.seal ^= 1;
        self
    }
}

fn seal_of(seq: u64, report: &Report) -> u64 {
    let mut bytes = Vec::with_capacity(ENTRY_BYTES);
    push_u64(&mut bytes, seq);
    push_report(&mut bytes, report);
    fnv1a(&bytes)
}

fn push_report(out: &mut Vec<u8>, report: &Report) {
    push_u64(out, report.source().index() as u64);
    push_u64(out, report.claim().index() as u64);
    push_u64(out, report.time().as_secs());
    out.push(match report.attitude() {
        Attitude::Silent => 0,
        Attitude::Agree => 1,
        Attitude::Disagree => 2,
    });
    push_f64(out, report.uncertainty().value());
    push_f64(out, report.independence().value());
}

fn journal_err(detail: impl Into<String>) -> RecoveryError {
    RecoveryError::Journal { detail: detail.into() }
}

/// Re-tags a low-level decode error as a journal error.
fn as_journal(err: RecoveryError) -> RecoveryError {
    match err {
        RecoveryError::Corrupt { detail } => RecoveryError::Journal { detail },
        other => other,
    }
}

fn read_report(r: &mut Reader<'_>) -> Result<Report, RecoveryError> {
    let source = r.u64().map_err(as_journal)?;
    let claim = r.u64().map_err(as_journal)?;
    let time = r.u64().map_err(as_journal)?;
    let attitude = match r.u8().map_err(as_journal)? {
        0 => Attitude::Silent,
        1 => Attitude::Agree,
        2 => Attitude::Disagree,
        b => return Err(journal_err(format!("invalid attitude byte {b}"))),
    };
    let uncertainty = r.f64().map_err(as_journal)?;
    let independence = r.f64().map_err(as_journal)?;
    if source > u64::from(u32::MAX) || claim > u64::from(u32::MAX) {
        return Err(journal_err(format!("id out of range (source {source}, claim {claim})")));
    }
    let uncertainty = Uncertainty::new(uncertainty)
        .map_err(|e| journal_err(format!("invalid uncertainty: {e}")))?;
    let independence = Independence::new(independence)
        .map_err(|e| journal_err(format!("invalid independence: {e}")))?;
    Ok(Report::new(
        SourceId::new(source as u32),
        ClaimId::new(claim as u32),
        Timestamp::from_secs(time),
        attitude,
        uncertainty,
        independence,
    ))
}

/// One journaled application: a sequence number and the report it carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// The record's transport sequence number.
    pub seq: u64,
    /// The applied report.
    pub report: Report,
}

/// An append-only journal of the records applied since the last
/// checkpoint.
///
/// The journal is the supervisor's write-ahead record: a record is
/// journaled when (and only when) it is newly applied to the engine, so
/// replaying the journal after a restore reproduces exactly the
/// post-checkpoint ingest. [`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes) give it the same checksummed,
/// versioned wire format as [`StreamCheckpoint`]; decoding damaged bytes
/// yields [`RecoveryError::Journal`], never a panic.
///
/// # Examples
///
/// ```
/// use sstd_core::ReportJournal;
/// use sstd_types::*;
///
/// let mut journal = ReportJournal::new();
/// let r = Report::plain(SourceId::new(0), ClaimId::new(1),
///                       Timestamp::from_secs(7), Attitude::Agree);
/// journal.append(42, r);
/// let back = ReportJournal::from_bytes(&journal.to_bytes()).unwrap();
/// assert_eq!(back.entries(), journal.entries());
/// assert_eq!(back.highest_seq(), Some(42));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportJournal {
    entries: Vec<JournalEntry>,
}

impl ReportJournal {
    /// Creates an empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of journaled applications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been journaled since the last checkpoint.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled entries, in application order.
    #[must_use]
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The highest sequence number journaled so far.
    #[must_use]
    pub fn highest_seq(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.seq).max()
    }

    /// Appends one applied record.
    pub fn append(&mut self, seq: u64, report: Report) {
        self.entries.push(JournalEntry { seq, report });
    }

    /// Discards all entries (done after a successful checkpoint, which
    /// subsumes them).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Encodes the journal: magic, entry count, entries, FNV-1a checksum.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(JOURNAL_MAGIC.len() + 8 + self.len() * ENTRY_BYTES + 8);
        out.extend_from_slice(JOURNAL_MAGIC);
        push_u64(&mut out, self.entries.len() as u64);
        for entry in &self.entries {
            push_u64(&mut out, entry.seq);
            push_report(&mut out, &entry.report);
        }
        let sum = fnv1a(&out);
        push_u64(&mut out, sum);
        out
    }

    /// Decodes an encoded journal, verifying its checksum and every
    /// payload field.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] on truncation, checksum or magic
    /// mismatch, or any out-of-range payload field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RecoveryError> {
        let mut entries = Vec::new();
        decode_entries(bytes, &mut entries)?;
        Ok(Self { entries })
    }
}

/// Decodes an encoded journal into `entries`, replacing what it held
/// but keeping its capacity. On error the content of `entries` is
/// unspecified.
fn decode_entries(bytes: &[u8], entries: &mut Vec<JournalEntry>) -> Result<(), RecoveryError> {
    let min = JOURNAL_MAGIC.len() + 8 + 8;
    if bytes.len() < min {
        return Err(journal_err(format!("{} bytes is too short for a journal", bytes.len())));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a(body) != stored {
        return Err(journal_err("checksum mismatch"));
    }
    let mut r = Reader { bytes: body, pos: 0 };
    if r.take(JOURNAL_MAGIC.len()).map_err(as_journal)? != JOURNAL_MAGIC {
        return Err(journal_err("bad magic"));
    }
    let count = r.usize().map_err(as_journal)?;
    if count > r.remaining() / ENTRY_BYTES {
        return Err(journal_err(format!("entry count {count} exceeds the encoded payload")));
    }
    entries.clear();
    entries.reserve_exact(count);
    for _ in 0..count {
        let seq = r.u64().map_err(as_journal)?;
        let report = read_report(&mut r)?;
        entries.push(JournalEntry { seq, report });
    }
    if r.remaining() != 0 {
        return Err(journal_err(format!("{} trailing bytes after entries", r.remaining())));
    }
    Ok(())
}

/// Runs `reports` through the seeded ingest faults of `plan`, producing
/// the record stream a faulty transport would deliver.
///
/// Each report gets its index as sequence number, then the plan's
/// [`decide_ingest`](FaultPlan::decide_ingest) verdict is applied:
/// dropped records vanish, duplicated records are delivered twice
/// back-to-back, reordered records are delayed past up to `depth` later
/// records (a stable sort on delayed emit keys — the bounded-reorder
/// model), and corrupted records arrive with a broken seal. The output is
/// a pure function of `(plan, reports)`, so differential tests can feed
/// the *same* perturbed stream to a crashing and a non-crashing consumer.
///
/// # Panics
///
/// Panics if `plan` fails [`FaultPlan::validate`].
#[must_use]
pub fn chaos_stream(plan: &FaultPlan, reports: &[Report]) -> Vec<IngestRecord> {
    if let Err(e) = plan.validate() {
        panic!("invalid fault plan: {e}");
    }
    let mut slots: Vec<(u64, usize, IngestRecord)> = Vec::with_capacity(reports.len());
    for (idx, report) in reports.iter().enumerate() {
        let seq = idx as u64;
        let record = IngestRecord::new(seq, *report);
        match plan.decide_ingest(seq) {
            Some(IngestFault::Drop) => {}
            Some(IngestFault::Duplicate) => {
                slots.push((seq, idx, record));
                slots.push((seq, idx, record));
            }
            Some(IngestFault::Reorder { depth }) => {
                slots.push((seq + u64::from(depth), idx, record));
            }
            Some(IngestFault::Corrupt) => slots.push((seq, idx, record.corrupted())),
            None => slots.push((seq, idx, record)),
        }
    }
    slots.sort_by_key(|&(emit, idx, _)| (emit, idx));
    slots.into_iter().map(|(_, _, record)| record).collect()
}

/// When the [`Supervisor`] writes a checkpoint: after `every_reports`
/// newly applied reports. `0` disables it;
/// [`CheckpointPolicy::DISABLED`] never checkpoints (recovery then
/// replays the whole journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many newly applied reports (`0` disables).
    pub every_reports: u64,
}

impl CheckpointPolicy {
    /// Never checkpoint automatically.
    pub const DISABLED: Self = Self { every_reports: 0 };

    /// Checkpoint every `n` newly applied reports.
    #[must_use]
    pub const fn every_reports(n: u64) -> Self {
        Self { every_reports: n }
    }

    fn due(&self, reports_since: u64) -> bool {
        self.every_reports > 0 && reports_since >= self.every_reports
    }
}

impl Default for CheckpointPolicy {
    /// Every 128 applied reports.
    fn default() -> Self {
        Self::every_reports(128)
    }
}

/// The set of applied sequence numbers as sorted, non-overlapping,
/// non-adjacent `(start, len)` runs — the wire form of the durable
/// checkpoint, kept in memory as is. Drops are the only holes in an
/// otherwise contiguous range, so its size follows the number of holes,
/// not the number of reports, and in-order traffic extends the last run.
#[derive(Debug, Clone, Default, PartialEq)]
struct SeqSet {
    runs: Vec<(u64, u64)>,
    count: u64,
}

impl SeqSet {
    /// Inserts `seq`; `false` if it was already a member.
    fn insert(&mut self, seq: u64) -> bool {
        // Runs before `at` start at or below `seq`, runs from `at` above it.
        let at = match self.runs.last() {
            Some(&(start, _)) if start <= seq => self.runs.len(),
            _ => self.runs.partition_point(|&(start, _)| start <= seq),
        };
        let mut joins_prev = false;
        if let Some(&(start, len)) = at.checked_sub(1).map(|prev| &self.runs[prev]) {
            match (seq - start).cmp(&len) {
                Ordering::Less => return false,
                Ordering::Equal => joins_prev = true,
                Ordering::Greater => {}
            }
        }
        let joins_next = self.runs.get(at).is_some_and(|&(start, _)| start - 1 == seq);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[at - 1].1 += 1 + self.runs[at].1;
                self.runs.remove(at);
            }
            (true, false) => self.runs[at - 1].1 += 1,
            (false, true) => {
                self.runs[at].0 = seq;
                self.runs[at].1 += 1;
            }
            (false, false) => self.runs.insert(at, (seq, 1)),
        }
        self.count += 1;
        true
    }
}

/// A crash-consistent ingest loop around [`StreamingSstd`].
///
/// The supervisor applies [`IngestRecord`]s with exactly-once
/// sequence-number dedupe, journals every application, and checkpoints
/// under a [`CheckpointPolicy`]. Its durable state is exactly two byte
/// strings — the last encoded checkpoint and the journal — and
/// [`crash_and_recover`](Self::crash_and_recover) rebuilds everything
/// else from them, so an injected crash loses only volatile state.
/// Because restore is replay through the live decision path, the
/// recovered engine continues bit-identically.
///
/// One [`EventStore`] holds everything the supervisor observes: its own
/// checkpoint/crash/restore events and the engine's per-interval
/// [`StreamTick`](sstd_obs::StreamTick)s. The engine is detached from it
/// while the journal replays — the intervals a replay re-closes were
/// recorded before the crash — and re-attached after.
///
/// # Examples
///
/// ```
/// use sstd_core::{chaos_stream, CheckpointPolicy, SstdConfig, Supervisor};
/// use sstd_runtime::FaultPlan;
/// use sstd_types::*;
///
/// let timeline = Timeline::new(Timestamp::from_secs(100), 10);
/// let reports: Vec<Report> = (0..60)
///     .map(|i| Report::plain(SourceId::new(i % 3), ClaimId::new(0),
///                            Timestamp::from_secs(u64::from(i) + 20), Attitude::Agree))
///     .collect();
/// let records = chaos_stream(&FaultPlan { seed: 7, ..FaultPlan::default() }, &reports);
///
/// let mut sup = Supervisor::new(
///     SstdConfig::default(), timeline, CheckpointPolicy::every_reports(16));
/// sup.run(&records, &[30], 3).unwrap();   // crash after record 30, redeliver 3
/// let recovery = sup.store().query().recovery();
/// assert_eq!(recovery.clone().label("crash").count(), 1);
/// assert_eq!(recovery.label("restored").count(), 1);
/// assert!(sup.finish().num_claims() > 0);
/// ```
#[derive(Debug)]
pub struct Supervisor {
    config: SstdConfig,
    timeline: Timeline,
    policy: CheckpointPolicy,
    engine: StreamingSstd,
    applied: SeqSet,
    journal: ReportJournal,
    durable: Option<Vec<u8>>,
    reports_since_checkpoint: u64,
    crashes: u32,
    store: Arc<EventStore>,
}

impl Supervisor {
    /// Creates a supervisor over a fresh streaming engine.
    ///
    /// The journal is reserved once for a full cadence (at most 2^18
    /// entries): checkpoints truncate it and recovery refills it in
    /// place, so it is never reallocated below that size. With no
    /// cadence it starts empty and grows on demand.
    #[must_use]
    pub fn new(config: SstdConfig, timeline: Timeline, policy: CheckpointPolicy) -> Self {
        let store = Arc::new(EventStore::new());
        let engine =
            StreamingSstd::new(config, timeline.clone()).with_telemetry_store(Arc::clone(&store));
        let reserve = policy.every_reports.min(MAX_JOURNAL_RESERVE) as usize;
        Self {
            config,
            timeline,
            policy,
            engine,
            applied: SeqSet::default(),
            journal: ReportJournal { entries: Vec::with_capacity(reserve) },
            durable: None,
            reports_since_checkpoint: 0,
            crashes: 0,
            store,
        }
    }

    /// Routes the supervisor's telemetry — recovery events and the
    /// engine's stream ticks — into a shared [`EventStore`] instead of its
    /// private one, so they interleave with the other telemetry domains in
    /// one causally-linked log (the store chains each crash to its
    /// covering checkpoint and each restore to its crash).
    #[must_use]
    pub fn with_event_store(mut self, store: Arc<EventStore>) -> Self {
        self.engine = self.engine.with_telemetry_store(Arc::clone(&store));
        self.store = store;
        self
    }

    /// The supervised engine (read-only; all mutation goes through
    /// [`ingest`](Self::ingest) or [`apply`](Self::apply)).
    #[must_use]
    pub const fn engine(&self) -> &StreamingSstd {
        &self.engine
    }

    /// The engine's [`drain_changed`](StreamingSstd::drain_changed): the
    /// claims whose decisions changed since the last call, in id order.
    /// After [`crash_and_recover`](Self::crash_and_recover) the list holds
    /// what the journal replay changed — decisions made before the crash.
    pub fn drain_changed(&mut self, into: &mut Vec<ClaimId>) {
        self.engine.drain_changed(into);
    }

    /// The trace store holding the recovery events and stream ticks so
    /// far; count through it, e.g.
    /// `store().query().recovery().label("restored").count()`.
    #[must_use]
    pub const fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// Crashes observed so far.
    #[must_use]
    pub const fn crashes_observed(&self) -> u32 {
        self.crashes
    }

    /// Distinct sequence numbers applied so far.
    #[must_use]
    pub fn applied_reports(&self) -> u64 {
        self.applied.count
    }

    /// Applies one record as the transport delivered it: the integrity
    /// check, then [`apply`](Self::apply).
    pub fn ingest(&mut self, record: &IngestRecord) -> IngestOutcome {
        if !record.is_intact() {
            return self.engine.record_rejected();
        }
        self.apply(record.seq(), record.report())
    }

    /// Applies `report` under sequence number `seq` without an integrity
    /// check: exactly-once dedupe, engine push, journal append, then a
    /// policy-driven checkpoint. The entry for a caller that mints its
    /// sequence numbers in-process and so has no transport to distrust;
    /// anything that arrives over one goes through
    /// [`ingest`](Self::ingest).
    pub fn apply(&mut self, seq: u64, report: &Report) -> IngestOutcome {
        // The contribution-score check mirrors the engine's own guard;
        // doing it here keeps the applied set in lockstep with the
        // engine's report count (an invariant the restore path verifies).
        if !report.contribution_score().value().is_finite() {
            return self.engine.record_rejected();
        }
        if !self.applied.insert(seq) {
            return IngestOutcome::Duplicate;
        }
        let outcome = self.engine.push(report);
        debug_assert!(outcome.was_ingested(), "finite, deduped reports always ingest");
        self.journal.append(seq, *report);
        self.reports_since_checkpoint += 1;
        if self.policy.due(self.reports_since_checkpoint) {
            self.checkpoint_now();
        }
        outcome
    }

    /// Writes a checkpoint immediately: encodes the engine snapshot plus
    /// the applied-sequence set, then truncates the journal it subsumes
    /// (keeping its capacity).
    /// Checkpointing reads the engine without perturbing it, so a run
    /// that checkpoints and a run that never does decode identically.
    pub fn checkpoint_now(&mut self) {
        let bytes = encode_durable(&self.engine, &self.applied);
        self.store.record_recovery(RecoveryEvent::CheckpointWritten {
            interval: self.engine.current_interval(),
            journal_len: self.journal.len() as u64,
            bytes: bytes.len(),
        });
        self.durable = Some(bytes);
        self.journal.clear();
        self.reports_since_checkpoint = 0;
    }

    /// Simulates a process crash and recovers from durable state alone.
    ///
    /// The engine and dedupe set are dropped, then rebuilt by decoding
    /// the last checkpoint (or starting fresh if none was written) and
    /// replaying the journal through the engine with dedupe. Returns the
    /// number of reports replayed.
    ///
    /// # Errors
    ///
    /// A [`RecoveryError`] if the durable bytes fail to decode.
    pub fn crash_and_recover(&mut self) -> Result<u64, RecoveryError> {
        self.crashes += 1;
        self.store.record_recovery(RecoveryEvent::CrashObserved {
            reports_ingested: self.engine.reports_seen(),
        });
        let started = Instant::now();
        // Round-trip the journal through its wire format: recovery must
        // work from bytes, not from conveniently surviving heap state. The
        // decoded entries refill the journal's own buffer, and the bytes
        // are freed before the engine is rebuilt, so the rebuilt engine
        // cannot pin them and the next recovery reuses their pages.
        decode_entries(&self.journal.to_bytes(), &mut self.journal.entries)?;
        let (mut engine, mut applied) = match &self.durable {
            Some(bytes) => decode_durable(bytes, &self.config, &self.timeline)?,
            None => (StreamingSstd::new(self.config, self.timeline.clone()), SeqSet::default()),
        };
        // `engine` has no telemetry store yet: the intervals the replay
        // re-closes were recorded before the crash, and ticking them again
        // would double-count their reports in the trace.
        let mut replayed = 0u64;
        for entry in self.journal.entries() {
            if applied.insert(entry.seq) {
                engine.push(&entry.report);
                replayed += 1;
            }
        }
        self.engine = engine.with_telemetry_store(Arc::clone(&self.store));
        self.applied = applied;
        self.reports_since_checkpoint = self.journal.len() as u64;
        self.store.record_recovery(RecoveryEvent::Restored {
            replayed,
            latency: started.elapsed().as_secs_f64(),
        });
        Ok(replayed)
    }

    /// Consumes a delivered record stream, crashing after each position
    /// in `crash_after` (0-based consume index, each fires once).
    ///
    /// After a crash the transport is at-least-once: it re-delivers up to
    /// `redelivery` already-consumed records before resuming, and the
    /// dedupe set absorbs them — which is exactly the overlap a real
    /// resume-from-acknowledged-offset source produces.
    ///
    /// # Errors
    ///
    /// Propagates [`Supervisor::crash_and_recover`] failures.
    pub fn run(
        &mut self,
        records: &[IngestRecord],
        crash_after: &[usize],
        redelivery: usize,
    ) -> Result<(), RecoveryError> {
        let mut pending: BTreeSet<usize> = crash_after.iter().copied().collect();
        let mut i = 0usize;
        while i < records.len() {
            self.ingest(&records[i]);
            if pending.remove(&i) {
                self.crash_and_recover()?;
                i = i.saturating_sub(redelivery);
            }
            i += 1;
        }
        Ok(())
    }

    /// Finalizes: closes remaining intervals and returns the estimates.
    #[must_use]
    pub fn finish(self) -> TruthEstimates {
        self.engine.finish()
    }
}

fn encode_durable(engine: &StreamingSstd, applied: &SeqSet) -> Vec<u8> {
    let snapshot = engine.checkpoint();
    let snap_len = snapshot.encoded_len();
    let mut out =
        Vec::with_capacity(DURABLE_MAGIC.len() + 8 + snap_len + 8 + applied.runs.len() * 16 + 8);
    out.extend_from_slice(DURABLE_MAGIC);
    push_u64(&mut out, snap_len as u64);
    snapshot.encode_into(&mut out);
    push_u64(&mut out, applied.runs.len() as u64);
    for &(start, len) in &applied.runs {
        push_u64(&mut out, start);
        push_u64(&mut out, len);
    }
    let sum = fnv1a(&out);
    push_u64(&mut out, sum);
    out
}

fn decode_durable(
    bytes: &[u8],
    config: &SstdConfig,
    timeline: &Timeline,
) -> Result<(StreamingSstd, SeqSet), RecoveryError> {
    let min = DURABLE_MAGIC.len() + 16 + 8;
    if bytes.len() < min {
        return Err(corrupt(format!(
            "{} bytes is too short for a supervisor checkpoint",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a(body) != stored {
        return Err(corrupt("supervisor checkpoint checksum mismatch".into()));
    }
    let mut r = Reader { bytes: body, pos: 0 };
    if r.take(DURABLE_MAGIC.len())? != DURABLE_MAGIC {
        return Err(corrupt("bad supervisor checkpoint magic".into()));
    }
    let snap_len = r.usize()?;
    let snapshot = StreamCheckpoint::from_bytes(r.take(snap_len)?)?;
    let run_count = r.usize()?;
    if run_count.checked_mul(16) != Some(r.remaining()) {
        return Err(corrupt(format!(
            "run count {run_count} disagrees with the {} bytes that follow it",
            r.remaining()
        )));
    }
    // The runs are validated as runs, never member by member: a length is
    // outside input, and `(0, u64::MAX)` fits in sixteen bytes.
    let mut applied = SeqSet { runs: Vec::with_capacity(run_count), count: 0 };
    let mut prev_last: Option<u64> = None;
    for _ in 0..run_count {
        let start = r.u64()?;
        let len = r.u64()?;
        let last = len.checked_sub(1).and_then(|l| start.checked_add(l));
        let count = applied.count.checked_add(len);
        // Canonical form: ascending, and a gap of at least one sequence
        // number between neighbours (adjacent runs would have merged).
        let canonical = prev_last.is_none_or(|p| start > p && start - p > 1);
        let (Some(last), Some(count), true) = (last, count, canonical) else {
            return Err(corrupt(format!("invalid applied-sequence run ({start}, {len})")));
        };
        applied.runs.push((start, len));
        applied.count = count;
        prev_last = Some(last);
    }
    // Every applied record is exactly one engine push (dedupe and
    // integrity rejection both happen above the engine), so the two
    // counts must agree.
    if applied.count != snapshot.reports_seen() {
        return Err(corrupt(format!(
            "applied-sequence count {} disagrees with snapshot report count {}",
            applied.count,
            snapshot.reports_seen()
        )));
    }
    let engine = StreamingSstd::restore(*config, timeline.clone(), &snapshot)?;
    Ok((engine, applied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::TruthLabel;

    fn timeline() -> Timeline {
        Timeline::new(Timestamp::from_secs(100), 10)
    }

    /// Two claims with opposing stances and a mid-trace flip on claim 1.
    fn reports() -> Vec<Report> {
        let mut out = Vec::new();
        for t in 0..100u64 {
            for s in 0..3u32 {
                let attitude = if t < 50 { Attitude::Agree } else { Attitude::Disagree };
                out.push(Report::plain(
                    SourceId::new(s),
                    ClaimId::new(0),
                    Timestamp::from_secs(t),
                    attitude,
                ));
                if s < 2 {
                    out.push(Report::plain(
                        SourceId::new(s),
                        ClaimId::new(1),
                        Timestamp::from_secs(t),
                        attitude.flipped(),
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn seals_detect_payload_damage() {
        let r = Report::plain(
            SourceId::new(1),
            ClaimId::new(2),
            Timestamp::from_secs(3),
            Attitude::Agree,
        );
        let record = IngestRecord::new(9, r);
        assert!(record.is_intact());
        assert!(!record.corrupted().is_intact());
        // A silent report's flip is a no-op payload-wise; the seal still breaks.
        let silent = IngestRecord::new(
            10,
            Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Silent),
        );
        assert!(!silent.corrupted().is_intact());
    }

    #[test]
    fn journal_roundtrips() {
        let mut journal = ReportJournal::new();
        journal.append(
            3,
            Report::new(
                SourceId::new(7),
                ClaimId::new(1),
                Timestamp::from_secs(11),
                Attitude::Disagree,
                Uncertainty::new(0.25).unwrap(),
                Independence::new(0.5).unwrap(),
            ),
        );
        journal.append(
            9,
            Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::ZERO, Attitude::Silent),
        );
        let back = ReportJournal::from_bytes(&journal.to_bytes()).expect("roundtrip");
        assert_eq!(back, journal);
        assert_eq!(back.highest_seq(), Some(9));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn journal_rejects_every_single_bit_flip() {
        let mut journal = ReportJournal::new();
        journal.append(
            0,
            Report::plain(
                SourceId::new(1),
                ClaimId::new(2),
                Timestamp::from_secs(5),
                Attitude::Agree,
            ),
        );
        let bytes = journal.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                let err = ReportJournal::from_bytes(&bad).expect_err("flip must be caught");
                assert!(matches!(err, RecoveryError::Journal { .. }), "{err}");
            }
        }
        for cut in 0..bytes.len() {
            assert!(ReportJournal::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn journal_rejects_semantic_garbage() {
        // A syntactically valid journal whose uncertainty is out of range:
        // build it by hand with a bad f64, re-checksummed.
        let mut out = Vec::new();
        out.extend_from_slice(JOURNAL_MAGIC);
        push_u64(&mut out, 1);
        push_u64(&mut out, 0); // seq
        push_u64(&mut out, 0); // source
        push_u64(&mut out, 0); // claim
        push_u64(&mut out, 0); // time
        out.push(1); // attitude: agree
        push_f64(&mut out, 7.5); // uncertainty out of [0, 1]
        push_f64(&mut out, 1.0);
        let sum = fnv1a(&out);
        push_u64(&mut out, sum);
        let err = ReportJournal::from_bytes(&out).expect_err("bad uncertainty");
        assert!(err.to_string().contains("uncertainty"), "{err}");
    }

    #[test]
    fn chaos_stream_is_deterministic_and_seeded() {
        let reports = reports();
        let plan = FaultPlan {
            seed: 42,
            ingest_drop_rate: 0.05,
            ingest_duplicate_rate: 0.05,
            ingest_reorder_rate: 0.1,
            ingest_reorder_depth: 4,
            ingest_corrupt_rate: 0.02,
            ..FaultPlan::default()
        };
        let a = chaos_stream(&plan, &reports);
        let b = chaos_stream(&plan, &reports);
        assert_eq!(a, b, "same plan, same stream");
        let c = chaos_stream(
            &FaultPlan { seed: 43, ingest_drop_rate: 0.05, ..FaultPlan::default() },
            &reports,
        );
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|r| !r.is_intact()), "corruption fired");
        let distinct: BTreeSet<u64> = a.iter().map(IngestRecord::seq).collect();
        assert!(distinct.len() < reports.len(), "drops fired");
        assert!(a.len() > distinct.len(), "duplicates fired");
    }

    #[test]
    fn pristine_plan_is_the_identity() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        assert_eq!(records.len(), reports.len());
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq(), i as u64);
            assert_eq!(record.report(), &reports[i]);
            assert!(record.is_intact());
        }
    }

    #[test]
    fn reorder_displacement_is_bounded_by_depth() {
        let reports = reports();
        let depth = 5u32;
        let plan = FaultPlan {
            seed: 11,
            ingest_reorder_rate: 0.3,
            ingest_reorder_depth: depth,
            ..FaultPlan::default()
        };
        let records = chaos_stream(&plan, &reports);
        assert_eq!(records.len(), reports.len(), "reorder neither drops nor duplicates");
        for (pos, record) in records.iter().enumerate() {
            let shift = (pos as i64 - record.seq() as i64).unsigned_abs();
            assert!(shift <= u64::from(depth), "seq {} displaced by {shift}", record.seq());
        }
    }

    #[test]
    fn supervised_run_matches_bare_streaming() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::every_reports(64));
        sup.run(&records, &[], 0).expect("no crashes");
        let recovery = Arc::clone(sup.store());
        let estimates = sup.finish();

        let mut bare = StreamingSstd::new(SstdConfig::default(), timeline());
        for r in &reports {
            bare.push(r);
        }
        assert_eq!(estimates, bare.finish(), "supervision must not change decisions");
        let recovery = recovery.query().recovery();
        assert!(recovery.clone().label("checkpoint").count() > 0, "policy fired");
        assert_eq!(recovery.label("crash").count(), 0);
    }

    #[test]
    fn crashed_run_is_bit_identical_to_uninterrupted_run() {
        let reports = reports();
        let plan = FaultPlan {
            seed: 2017,
            ingest_drop_rate: 0.04,
            ingest_duplicate_rate: 0.06,
            ingest_reorder_rate: 0.08,
            ingest_reorder_depth: 3,
            ingest_corrupt_rate: 0.03,
            ..FaultPlan::default()
        };
        let records = chaos_stream(&plan, &reports);
        let config = SstdConfig::default();

        let mut reference =
            Supervisor::new(config, timeline(), CheckpointPolicy::every_reports(40));
        reference.run(&records, &[], 0).expect("uninterrupted");
        let expected = reference.finish();

        let mut crashed = Supervisor::new(config, timeline(), CheckpointPolicy::every_reports(40));
        let cuts = [3usize, 97, 240, records.len() - 2];
        crashed.run(&records, &cuts, 5).expect("all recoveries succeed");
        let recovery = Arc::clone(crashed.store());

        assert_eq!(crashed.finish(), expected, "recovery must be invisible in the estimates");
        let recovery = recovery.query().recovery();
        assert_eq!(recovery.clone().label("crash").count(), 4);
        assert_eq!(recovery.clone().label("restored").count(), 4);
        assert!(recovery.label("checkpoint").count() > 0);
    }

    #[test]
    fn crash_before_any_checkpoint_replays_the_whole_journal() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::DISABLED);
        for record in records.iter().take(25) {
            sup.ingest(record);
        }
        let replayed = sup.crash_and_recover().expect("recover from journal alone");
        assert_eq!(replayed, 25, "no checkpoint: everything comes back from the journal");
        assert_eq!(sup.engine().reports_seen(), 25);
    }

    #[test]
    fn duplicates_are_applied_exactly_once() {
        let reports = reports();
        let plan = FaultPlan { seed: 5, ingest_duplicate_rate: 0.4, ..FaultPlan::default() };
        let records = chaos_stream(&plan, &reports);
        assert!(records.len() > reports.len(), "duplicates fired");
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::default());
        let mut dupes = 0u64;
        for record in &records {
            if sup.ingest(record) == IngestOutcome::Duplicate {
                dupes += 1;
            }
        }
        assert_eq!(dupes as usize, records.len() - reports.len());
        assert_eq!(sup.applied_reports(), reports.len() as u64);
        assert_eq!(sup.engine().reports_seen(), reports.len() as u64);
    }

    #[test]
    fn corrupt_records_are_rejected_and_counted() {
        let r = Report::plain(
            SourceId::new(0),
            ClaimId::new(0),
            Timestamp::from_secs(1),
            Attitude::Agree,
        );
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::default());
        assert_eq!(sup.ingest(&IngestRecord::new(0, r).corrupted()), IngestOutcome::Rejected);
        assert_eq!(sup.ingest(&IngestRecord::new(1, r)), IngestOutcome::Accepted);
        assert_eq!(sup.engine().rejected_reports_seen(), 1);
        assert_eq!(sup.engine().reports_seen(), 1);
    }

    #[test]
    fn every_crash_recovers() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::default());
        for record in records.iter().take(5) {
            sup.ingest(record);
        }
        for _ in 0..10 {
            assert_eq!(sup.crash_and_recover().expect("recovers"), 5);
        }
        assert_eq!(sup.crashes_observed(), 10);
    }

    #[test]
    fn tampered_durable_checkpoint_is_refused() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::DISABLED);
        for record in records.iter().take(40) {
            sup.ingest(record);
        }
        sup.checkpoint_now();
        let bytes = sup.durable.as_mut().expect("checkpoint written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = sup.crash_and_recover().expect_err("tampered checkpoint");
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn sequence_set_merges_runs_like_a_set() {
        // Out of order, with repeats, closing gaps from both sides.
        let inserts = [5u64, 0, 1, 9, 6, 2, 5, 4, 3, 9, u64::MAX, 0, 7];
        let mut set = SeqSet::default();
        let mut model = BTreeSet::new();
        for seq in inserts {
            assert_eq!(set.insert(seq), model.insert(seq), "insert {seq}");
            assert_eq!(set.count, model.len() as u64);
            for pair in set.runs.windows(2) {
                assert!(pair[0].0 + pair[0].1 < pair[1].0, "runs stay apart: {:?}", set.runs);
            }
        }
        assert_eq!(set.runs, vec![(0, 8), (9, 1), (u64::MAX, 1)]);
        let mut in_order = SeqSet::default();
        for seq in 0..1_000 {
            assert!(in_order.insert(seq));
        }
        assert_eq!(in_order.runs, vec![(0, 1_000)], "in-order traffic is one run");
    }

    /// `durable` with its run table replaced and the outer checksum
    /// recomputed; the embedded snapshot and its own checksum are intact.
    fn with_runs(durable: &[u8], runs: &[(u64, u64)]) -> Vec<u8> {
        let snap_len = u64::from_le_bytes(durable[8..16].try_into().unwrap()) as usize;
        let mut out = durable[..16 + snap_len].to_vec();
        push_u64(&mut out, runs.len() as u64);
        for &(start, len) in runs {
            push_u64(&mut out, start);
            push_u64(&mut out, len);
        }
        let sum = fnv1a(&out);
        push_u64(&mut out, sum);
        out
    }

    #[test]
    fn hostile_run_tables_are_refused_without_being_walked() {
        let records = chaos_stream(&FaultPlan::default(), &reports());
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::DISABLED);
        for record in records.iter().take(40) {
            sup.ingest(record);
        }
        sup.checkpoint_now();
        let written = sup.durable.as_ref().expect("checkpoint written");
        assert_eq!(written.capacity(), written.len(), "encoded in place into an exact buffer");
        let good = written.clone();
        assert_eq!(with_runs(&good, &[(0, 40)]), good, "the helper rebuilds the real blob");

        // The first table is 2^64 − 1 members in sixteen bytes; a decoder
        // that expands runs never returns from it.
        let hostile: [&[(u64, u64)]; 6] = [
            &[(0, u64::MAX)],
            &[(0, 30), (25, 10)],
            &[(0, 20), (20, 20)],
            &[(20, 20), (0, 20)],
            &[(0, 40), (50, 0)],
            &[(0, 39), (u64::MAX, 2)],
        ];
        let decode = |blob: &[u8]| decode_durable(blob, &SstdConfig::default(), &timeline());
        for runs in hostile {
            let err = decode(&with_runs(&good, runs)).expect_err("hostile run table");
            assert!(matches!(err, RecoveryError::Corrupt { .. }), "{runs:?}: {err}");
        }
        // A holed but canonical table of the right size still decodes.
        let (_, applied) = decode(&with_runs(&good, &[(0, 39), (u64::MAX, 1)])).expect("canonical");
        assert_eq!(applied.count, 40);
    }

    #[test]
    fn stream_ticks_and_recovery_events_share_the_store() {
        let records = chaos_stream(&FaultPlan::default(), &reports());
        let shared = Arc::new(EventStore::new());
        let mut sup =
            Supervisor::new(SstdConfig::default(), timeline(), CheckpointPolicy::every_reports(64))
                .with_event_store(Arc::clone(&shared));
        sup.run(&records, &[130, 260], 3).expect("recovers");
        let _ = sup.finish();
        let ticked = shared.query().stream().sum(|e| e.stream_tick().map(|t| t.reports as f64));
        assert_eq!(ticked as usize, records.len(), "replay and redelivery tick nothing twice");
        assert_eq!(shared.query().stream().count(), 10, "one tick per interval");
        assert_eq!(shared.query().recovery().label("restored").count(), 2);
    }

    #[test]
    #[should_panic(
        expected = "invalid fault plan: invalid `ingest_duplicate_rate`: combined ingest fault rates"
    )]
    fn chaos_stream_refuses_an_invalid_plan() {
        let plan =
            FaultPlan { ingest_drop_rate: 0.7, ingest_duplicate_rate: 0.5, ..FaultPlan::default() };
        let _ = chaos_stream(&plan, &reports());
    }

    #[test]
    fn supervised_decisions_are_queryable_mid_stream() {
        let reports = reports();
        let records = chaos_stream(&FaultPlan::default(), &reports);
        let mut sup = Supervisor::new(
            SstdConfig::default(),
            timeline(),
            CheckpointPolicy::every_reports(100),
        );
        sup.run(&records, &[records.len() / 2], 2).expect("recovers");
        let decision = sup.engine().latest_decision(ClaimId::new(0));
        assert!(
            matches!(decision, Some(TruthLabel::True | TruthLabel::False)),
            "claim 0 has a live decision after recovery"
        );
    }
}
