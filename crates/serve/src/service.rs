//! The deterministic single-threaded service: explicit queues, explicit
//! pumping, bit-reproducible behavior.

use crate::shard::Shard;
use crate::update::ChangeStream;
use crate::{IngestError, ServeConfig};
use sstd_core::{IngestOutcome, TruthEstimates};
use sstd_obs::EventStore;
use sstd_types::{ClaimId, ConfigError, Report, Timeline};
use std::collections::VecDeque;
use std::sync::Arc;

/// Routes a claim to its owning shard by FNV-1a hash of the claim index.
pub(crate) fn route(claim: ClaimId, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in (claim.index() as u64).to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// One shard per configured partition.
pub(crate) fn new_shards(config: &ServeConfig) -> impl Iterator<Item = Shard> + '_ {
    (0..config.shards).map(move |id| Shard::new(id, config))
}

/// The [`IngestOutcome`] the engine will record for `report`, decided at
/// enqueue time: a non-finite score is rejected, and a report is late
/// exactly when its interval is behind the shard's watermark — the
/// highest interval enqueued before it, which a FIFO queue makes the
/// engine's interval cursor when the report is applied.
/// `raise_watermark` raises the shard's watermark to at least the given
/// interval and returns the value it had before.
pub(crate) fn predict_outcome(
    report: &Report,
    timeline: &Timeline,
    raise_watermark: impl FnOnce(usize) -> usize,
) -> IngestOutcome {
    if !report.contribution_score().value().is_finite() {
        return IngestOutcome::Rejected;
    }
    let interval = timeline.interval_of(report.time());
    if interval < raise_watermark(interval) {
        IngestOutcome::Late
    } else {
        IngestOutcome::Accepted
    }
}

/// Folds one shard's estimates into the merged table; shards own
/// disjoint claims, so nothing is overwritten.
pub(crate) fn merge_estimates(merged: &mut TruthEstimates, shard: &TruthEstimates) {
    for (claim, labels) in shard.iter() {
        merged.insert(claim, labels.to_vec());
    }
}

/// The sharded live-ingest service, single-threaded and deterministic.
///
/// Reports route by [`ClaimId`] hash to one of `shards` independent
/// shards, each with its own [`StreamingSstd`](sstd_core::StreamingSstd),
/// bounded ingest queue, write-ahead journal, durable checkpoint, change
/// stream, and [`EventStore`] telemetry. Nothing is shared across
/// shards; per-claim report order is preserved because a claim always
/// hashes to the same shard and each queue is FIFO.
///
/// [`try_ingest`](Self::try_ingest) *enqueues* and returns the typed
/// [`IngestOutcome`] the engine will produce; [`pump`](Self::pump)
/// applies queued reports. This split makes backpressure deterministic —
/// exactly the reports beyond [`queue_capacity`](ServeConfig) between
/// pumps are refused — which is what lets the differential suite replay
/// byte-identical schedules. The threaded
/// [`IngestServer`](crate::IngestServer) trades that determinism for
/// wall-clock throughput on the same shard type.
///
/// # Examples
///
/// ```
/// use sstd_serve::{IngestService, ServeConfig};
/// use sstd_types::*;
///
/// let config = ServeConfig::builder()
///     .shards(2)
///     .timeline_from(Timeline::new(Timestamp::from_secs(600), 6))
///     .build()
///     .unwrap();
/// let mut service = IngestService::new(config).unwrap();
/// let report = Report::plain(
///     SourceId::new(0), ClaimId::new(1), Timestamp::from_secs(30), Attitude::Agree,
/// );
/// let outcome = service.try_ingest(&report).unwrap();
/// assert!(outcome.was_ingested());
/// assert_eq!(service.pump(), 1);
/// let estimates = service.finish();
/// assert_eq!(estimates.num_claims(), 1);
/// ```
#[derive(Debug)]
pub struct IngestService {
    config: ServeConfig,
    shards: Vec<Shard>,
    queues: Vec<VecDeque<(Report, IngestOutcome)>>,
    watermarks: Vec<usize>,
    max_depth: Vec<usize>,
}

impl IngestService {
    /// Starts a service from a validated configuration.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] if the configuration fails
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let shards = new_shards(&config).collect();
        Ok(Self {
            queues: vec![VecDeque::new(); config.shards],
            watermarks: vec![0; config.shards],
            max_depth: vec![0; config.shards],
            shards,
            config,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `claim`.
    #[must_use]
    pub fn shard_of(&self, claim: ClaimId) -> usize {
        route(claim, self.shards.len())
    }

    /// Enqueues one report on its claim's shard and returns the
    /// [`IngestOutcome`] the engine will record for it.
    ///
    /// The outcome is exact, not a guess: the queue is FIFO, so the
    /// engine's interval cursor when this report is applied equals the
    /// highest interval enqueued before it — which is what the
    /// prediction tests against ([`pump`](Self::pump) asserts the
    /// equivalence in debug builds).
    ///
    /// # Errors
    ///
    /// [`IngestError::Backpressure`] when the shard's queue is at
    /// capacity; the report is not enqueued and may be retried after
    /// [`pump`](Self::pump).
    pub fn try_ingest(&mut self, report: &Report) -> Result<IngestOutcome, IngestError> {
        let shard = self.shard_of(report.claim());
        let depth = self.queues[shard].len();
        if depth >= self.config.queue_capacity {
            return Err(IngestError::Backpressure { shard, depth });
        }
        let watermark = &mut self.watermarks[shard];
        let outcome = predict_outcome(report, &self.config.timeline, |interval| {
            std::mem::replace(watermark, interval.max(*watermark))
        });
        self.queues[shard].push_back((*report, outcome));
        self.max_depth[shard] = self.max_depth[shard].max(depth + 1);
        Ok(outcome)
    }

    /// Applies every queued report, shard by shard; returns how many
    /// were processed.
    pub fn pump(&mut self) -> usize {
        (0..self.shards.len()).map(|s| self.pump_shard(s)).sum()
    }

    /// Applies `shard`'s queued reports; returns how many were
    /// processed.
    pub fn pump_shard(&mut self, shard: usize) -> usize {
        let mut processed = 0;
        while let Some((report, predicted)) = self.queues[shard].pop_front() {
            let outcome = self.shards[shard].ingest(&report);
            debug_assert_eq!(outcome, predicted, "enqueue-time outcome prediction is exact");
            let _ = outcome;
            processed += 1;
        }
        processed
    }

    /// A consumer handle on `shard`'s versioned change stream.
    #[must_use]
    pub fn changes(&self, shard: usize) -> ChangeStream {
        self.shards[shard].stream()
    }

    /// `shard`'s telemetry store: a [`StreamTick`] per interval its
    /// engine closes and a [`RecoveryEvent`] per checkpoint, crash and
    /// restore.
    ///
    /// [`StreamTick`]: sstd_obs::StreamTick
    /// [`RecoveryEvent`]: sstd_obs::RecoveryEvent
    #[must_use]
    pub fn store(&self, shard: usize) -> &Arc<EventStore> {
        self.shards[shard].store()
    }

    /// Current depth of `shard`'s ingest queue.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.queues[shard].len()
    }

    /// Highest depth `shard`'s queue ever reached.
    #[must_use]
    pub fn max_queue_depth(&self, shard: usize) -> usize {
        self.max_depth[shard]
    }

    /// Snapshots `shard` now, truncating its journal.
    pub fn checkpoint_shard(&mut self, shard: usize) {
        self.shards[shard].checkpoint();
    }

    /// Kills `shard`'s engine and recovers it from its checkpoint and
    /// journal. Queued reports survive (the queue models the transport,
    /// not the process). After recovery the shard's continuation is
    /// bit-identical to one that never crashed.
    ///
    /// # Errors
    ///
    /// [`IngestError::Recovery`] when the durable state would not
    /// decode or restore; the shard keeps its pre-crash engine in that
    /// case (the corruption is surfaced, not swallowed).
    pub fn crash_shard(&mut self, shard: usize) -> Result<(), IngestError> {
        self.shards[shard].crash()
    }

    /// Pumps any remaining queued reports, closes every shard, and
    /// merges their (disjoint) per-claim estimates into one table.
    #[must_use]
    pub fn finish(mut self) -> TruthEstimates {
        let _ = self.pump();
        let mut merged = TruthEstimates::new(self.config.timeline.num_intervals());
        for shard in self.shards {
            merge_estimates(&mut merged, &shard.finish());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, SourceId, Timestamp};

    fn config(shards: usize, queue: usize) -> ServeConfig {
        ServeConfig::builder()
            .shards(shards)
            .queue_capacity(queue)
            .timeline_from(Timeline::new(Timestamp::from_secs(600), 6))
            .build()
            .expect("valid")
    }

    fn report(claim: u32, secs: u64) -> Report {
        Report::plain(
            SourceId::new(0),
            ClaimId::new(claim),
            Timestamp::from_secs(secs),
            Attitude::Agree,
        )
    }

    #[test]
    fn routing_is_stable_and_total() {
        let service = IngestService::new(config(4, 8)).expect("valid");
        for claim in 0..100 {
            let shard = service.shard_of(ClaimId::new(claim));
            assert!(shard < 4);
            assert_eq!(shard, service.shard_of(ClaimId::new(claim)), "routing is a pure function");
        }
        let hit: std::collections::BTreeSet<usize> =
            (0..100).map(|c| service.shard_of(ClaimId::new(c))).collect();
        assert!(hit.len() > 1, "100 claims spread over more than one of 4 shards");
    }

    #[test]
    fn backpressure_names_the_full_shard() {
        let mut service = IngestService::new(config(1, 2)).expect("valid");
        assert!(service.try_ingest(&report(0, 10)).is_ok());
        assert!(service.try_ingest(&report(0, 20)).is_ok());
        let err = service.try_ingest(&report(0, 30)).expect_err("queue full");
        assert_eq!(err, IngestError::Backpressure { shard: 0, depth: 2 });
        assert!(err.is_retryable());
        assert_eq!(service.pump(), 2);
        assert!(service.try_ingest(&report(0, 30)).is_ok(), "drained queue accepts again");
        assert_eq!(service.max_queue_depth(0), 2);
    }

    #[test]
    fn outcomes_are_predicted_exactly() {
        let mut service = IngestService::new(config(1, 16)).expect("valid");
        assert_eq!(service.try_ingest(&report(0, 310)).unwrap(), IngestOutcome::Accepted);
        assert_eq!(
            service.try_ingest(&report(1, 10)).unwrap(),
            IngestOutcome::Late,
            "behind the shard watermark at enqueue time"
        );
        // pump() debug-asserts every prediction against the engine.
        assert_eq!(service.pump(), 2);
    }

    #[test]
    fn finish_merges_disjoint_shards() {
        let mut service = IngestService::new(config(3, 64)).expect("valid");
        for claim in 0..30u32 {
            for interval in 0..6u64 {
                let _ = service.try_ingest(&report(claim, interval * 100 + 5)).expect("fits");
            }
            let _ = service.pump();
        }
        let estimates = service.finish();
        assert_eq!(estimates.num_claims(), 30);
    }
}
