//! One shard: a recovery supervisor plus its change-stream cursors.

use crate::update::{ChangeLog, ChangeStream, TruthUpdate};
use crate::{IngestError, ServeConfig};
use sstd_core::{CheckpointPolicy, IngestOutcome, Supervisor, TruthEstimates};
use sstd_obs::EventStore;
use sstd_types::{ClaimId, Report, TruthLabel};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-claim change-stream cursor: the absolute interval count emitted
/// through (decisions for intervals `< emitted` are already in the
/// stream), and the last emitted label.
#[derive(Debug, Clone, Copy, Default)]
struct EmitCursor {
    emitted: usize,
    last: Option<TruthLabel>,
}

/// One independent partition of the live service: a
/// [`Supervisor`] — engine, write-ahead journal, durable checkpoint,
/// [`EventStore`] telemetry and the recovery state machine over them
/// (DESIGN.md §13) — plus what only a shard has, the versioned change
/// stream and its cursors. Shards share nothing — no locks cross them.
///
/// The shard mints its own sequence numbers, one per applied report, and
/// hands them to the supervisor's trusted
/// [`apply`](Supervisor::apply) entry. A crash destroys the engine but
/// not the sequence counter, the change-stream cursors or the version
/// counter, which in a deployment live with the transport/consumer, not
/// the process; after [`crash`](Self::crash) the shard's continuation is
/// bit-identical to one that never crashed (the `serve_differential`
/// suite checks exactly this).
#[derive(Debug)]
pub(crate) struct Shard {
    id: usize,
    supervisor: Supervisor,
    next_seq: u64,
    version: u64,
    cursors: HashMap<ClaimId, EmitCursor>,
    /// Scratch for the claims the engine reports changed.
    changed: Vec<ClaimId>,
    log: ChangeLog,
}

impl Shard {
    pub(crate) fn new(id: usize, config: &ServeConfig) -> Self {
        // `every_reports(0)` never checkpoints, as `checkpoint_every: 0`
        // promises.
        let policy = CheckpointPolicy::every_reports(config.checkpoint_every as u64);
        let supervisor = Supervisor::new(config.engine, config.timeline.clone(), policy);
        Self {
            id,
            supervisor,
            next_seq: 0,
            version: 0,
            cursors: HashMap::new(),
            changed: Vec::new(),
            log: ChangeLog::default(),
        }
    }

    pub(crate) fn store(&self) -> &Arc<EventStore> {
        self.supervisor.store()
    }

    pub(crate) fn stream(&self) -> ChangeStream {
        self.log.stream()
    }

    /// Applies one report through the supervisor (journal, engine push,
    /// cadence checkpoint) and emits any newly committed decisions.
    pub(crate) fn ingest(&mut self, report: &Report) -> IngestOutcome {
        let outcome = self.supervisor.apply(self.next_seq, report);
        if outcome.was_ingested() {
            self.next_seq += 1;
        }
        self.emit_committed();
        outcome
    }

    /// Snapshots the engine and truncates the journal.
    pub(crate) fn checkpoint(&mut self) {
        self.supervisor.checkpoint_now();
    }

    /// Kills the engine and recovers it from durable state. On failure
    /// the pre-crash engine stays in place. Nothing is emitted: the
    /// recovered engine stands where the cursors last saw it.
    pub(crate) fn crash(&mut self) -> Result<(), IngestError> {
        match self.supervisor.crash_and_recover() {
            Ok(_) => Ok(()),
            Err(source) => Err(IngestError::Recovery { shard: self.id, source }),
        }
    }

    /// Emits the decisions committed since the last call. Only the claims
    /// the engine lists as changed are visited: every other claim's new
    /// decisions repeat its last emitted label, which `emit` would skip.
    /// After a crash the list holds replayed decisions, which the cursors
    /// have already passed.
    fn emit_committed(&mut self) {
        let Self { id, supervisor, version, cursors, changed, log, .. } = self;
        supervisor.drain_changed(changed);
        let engine = supervisor.engine();
        for &claim in changed.iter() {
            let (start, labels) = engine.decisions(claim).expect("changed claims have state");
            emit(*id, version, log, cursors.entry(claim).or_default(), claim, start, labels);
        }
    }

    /// Closes all remaining intervals, emits the tail of the change
    /// stream, and returns this shard's estimates.
    pub(crate) fn finish(self) -> TruthEstimates {
        let Self { id, supervisor, mut version, mut cursors, log, .. } = self;
        // A claim whose first close happens here has no cursor yet: start
        // it at the claim's first interval, so the no-evidence backfill
        // before it is not emitted as changes.
        let engine = supervisor.engine();
        for claim in engine.claim_ids() {
            cursors.entry(claim).or_insert_with(|| EmitCursor {
                emitted: engine.decisions(claim).expect("listed claims have state").0,
                last: None,
            });
        }
        let estimates = supervisor.finish();
        for (claim, labels) in estimates.iter() {
            emit(id, &mut version, &log, cursors.entry(claim).or_default(), claim, 0, labels);
        }
        estimates
    }
}

/// Emits a [`TruthUpdate`] for every label past `cursor` that differs
/// from the last emitted one; `labels` are `claim`'s decisions for the
/// intervals from `start` on.
fn emit(
    shard: usize,
    version: &mut u64,
    log: &ChangeLog,
    cursor: &mut EmitCursor,
    claim: ClaimId,
    start: usize,
    labels: &[TruthLabel],
) {
    let skip = cursor.emitted.saturating_sub(start);
    for (idx, &label) in labels.iter().enumerate().skip(skip) {
        if cursor.last != Some(label) {
            *version += 1;
            log.push(TruthUpdate {
                shard,
                version: *version,
                claim,
                interval: start + idx,
                old: cursor.last,
                new: label,
            });
            cursor.last = Some(label);
        }
    }
    cursor.emitted = cursor.emitted.max(start + labels.len());
}
