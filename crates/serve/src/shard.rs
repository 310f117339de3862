//! One shard: a recovery supervisor plus its change-stream cursors.

use crate::update::{ChangeLog, ChangeStream, TruthUpdate};
use crate::{IngestError, ServeConfig};
use sstd_core::{CheckpointPolicy, IngestOutcome, Supervisor, SupervisorError, TruthEstimates};
use sstd_obs::EventStore;
use sstd_runtime::RetryPolicy;
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
    seen_interval: usize,
    cursors: HashMap<ClaimId, EmitCursor>,
    log: ChangeLog,
}

impl Shard {
    pub(crate) fn new(id: usize, config: &ServeConfig) -> Self {
        // `every_reports(0)` never checkpoints, as `checkpoint_every: 0`
        // promises. A shard has no crash budget: it recovers every time.
        let policy = CheckpointPolicy::every_reports(config.checkpoint_every as u64);
        let supervisor = Supervisor::new(config.engine, config.timeline.clone(), policy)
            .with_retry(RetryPolicy { max_attempts: u32::MAX, ..RetryPolicy::default() });
        Self {
            id,
            supervisor,
            next_seq: 0,
            version: 0,
            seen_interval: 0,
            cursors: HashMap::new(),
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
            Err(SupervisorError::Recovery(source)) => {
                Err(IngestError::Recovery { shard: self.id, source })
            }
            Err(SupervisorError::CrashBudgetExhausted { .. }) => {
                unreachable!("a shard's crash budget is unlimited")
            }
        }
    }

    /// Emits the decisions committed since the last call, if the engine
    /// closed an interval since then.
    fn emit_committed(&mut self) {
        let Self { id, supervisor, version, seen_interval, cursors, log, .. } = self;
        let engine = supervisor.engine();
        if engine.current_interval() <= *seen_interval {
            return;
        }
        *seen_interval = engine.current_interval();
        for claim in engine.claim_ids() {
            let (start, labels) = engine.decisions(claim).expect("listed claims have state");
            emit(*id, version, log, cursors.entry(claim).or_default(), claim, start, labels);
        }
    }

    /// Closes all remaining intervals, emits the tail of the change
    /// stream, and returns this shard's estimates.
    pub(crate) fn finish(self) -> TruthEstimates {
        let Self { id, supervisor, mut version, mut cursors, log, .. } = self;
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
