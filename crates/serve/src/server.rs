//! The threaded server: one worker thread per shard, bounded channels,
//! lock-free ingest hot path.

use crate::service::{merge_estimates, new_shards, predict_outcome, route};
use crate::shard::Shard;
use crate::update::ChangeStream;
use crate::{IngestError, ServeConfig};
use sstd_core::{IngestOutcome, TruthEstimates};
use sstd_obs::EventStore;
use sstd_types::{Report, Timeline};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Msg {
    Report(Report),
    Checkpoint,
    Crash,
    Finish,
}

/// Client-visible state of one shard: its bounded sender plus the
/// atomics the lock-free outcome prediction and depth accounting need.
struct ShardLink {
    tx: SyncSender<Msg>,
    depth: Arc<AtomicUsize>,
    max_depth: AtomicUsize,
    watermark: AtomicUsize,
}

struct Inner {
    links: Vec<ShardLink>,
    timeline: Timeline,
    capacity: usize,
}

/// The long-lived sharded ingest server: each shard runs on its own
/// worker thread behind a bounded channel, so ingest is a `try_send`
/// plus three atomic operations — no lock is ever taken across shards.
///
/// Same shard type, same routing, and same change-stream semantics as
/// the deterministic [`IngestService`](crate::IngestService); the
/// differential suite pins the two to identical results, and the
/// benchmark's streaming workloads measure this one.
///
/// # Examples
///
/// ```
/// use sstd_serve::{IngestServer, ServeConfig};
/// use sstd_types::*;
///
/// let config = ServeConfig::builder()
///     .shards(2)
///     .timeline(Timestamp::from_secs(600), 6)
///     .build()
///     .unwrap();
/// let server = IngestServer::start(config).unwrap();
/// let client = server.client();
/// let report = Report::plain(
///     SourceId::new(0), ClaimId::new(1), Timestamp::from_secs(30), Attitude::Agree,
/// );
/// client.try_ingest(&report).unwrap();
/// let estimates = server.finish().unwrap();
/// assert_eq!(estimates.num_claims(), 1);
/// ```
pub struct IngestServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<Result<TruthEstimates, IngestError>>>,
    streams: Vec<ChangeStream>,
    stores: Vec<Arc<EventStore>>,
    num_intervals: usize,
}

/// A cheap, cloneable handle for submitting reports to a running
/// [`IngestServer`] from any thread.
#[derive(Clone)]
pub struct IngestClient {
    inner: Arc<Inner>,
}

impl IngestServer {
    /// Validates the configuration and spawns one worker per shard.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`](sstd_types::ConfigError) if the configuration
    /// fails [`ServeConfig::validate`].
    pub fn start(config: ServeConfig) -> Result<Self, sstd_types::ConfigError> {
        config.validate()?;
        let mut links = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut streams = Vec::with_capacity(config.shards);
        let mut stores = Vec::with_capacity(config.shards);
        for shard in new_shards(&config) {
            streams.push(shard.stream());
            stores.push(Arc::clone(shard.store()));
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
            let depth = Arc::new(AtomicUsize::new(0));
            links.push(ShardLink {
                tx,
                depth: Arc::clone(&depth),
                max_depth: AtomicUsize::new(0),
                watermark: AtomicUsize::new(0),
            });
            workers.push(std::thread::spawn(move || run_shard(shard, &rx, &depth)));
        }
        let inner = Arc::new(Inner {
            links,
            timeline: config.timeline.clone(),
            capacity: config.queue_capacity,
        });
        Ok(Self { inner, workers, streams, stores, num_intervals: config.timeline.num_intervals() })
    }

    /// A new submission handle; clone freely across threads.
    #[must_use]
    pub fn client(&self) -> IngestClient {
        IngestClient { inner: Arc::clone(&self.inner) }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.inner.links.len()
    }

    /// A consumer handle on `shard`'s versioned change stream.
    #[must_use]
    pub fn changes(&self, shard: usize) -> ChangeStream {
        self.streams[shard].clone()
    }

    /// `shard`'s telemetry store.
    #[must_use]
    pub fn store(&self, shard: usize) -> &Arc<EventStore> {
        &self.stores[shard]
    }

    /// Highest queue depth `shard` has reached so far.
    #[must_use]
    pub fn max_queue_depth(&self, shard: usize) -> usize {
        self.inner.links[shard].max_depth.load(Ordering::Relaxed)
    }

    /// Asks `shard` to snapshot now (applied in queue order).
    ///
    /// # Errors
    ///
    /// [`IngestError::ShardUnavailable`] if the shard's worker has
    /// exited.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<(), IngestError> {
        self.control(shard, Msg::Checkpoint)
    }

    /// Asks `shard` to crash and recover from its durable state
    /// (applied in queue order). A recovery failure takes the worker
    /// down; it surfaces from [`finish`](Self::finish) and as
    /// [`IngestError::ShardUnavailable`] on later submissions.
    ///
    /// # Errors
    ///
    /// [`IngestError::ShardUnavailable`] if the shard's worker has
    /// already exited.
    pub fn crash_shard(&self, shard: usize) -> Result<(), IngestError> {
        self.control(shard, Msg::Crash)
    }

    fn control(&self, shard: usize, msg: Msg) -> Result<(), IngestError> {
        self.inner.links[shard].tx.send(msg).map_err(|_| IngestError::ShardUnavailable { shard })
    }

    /// Drains every shard, joins the workers, and merges their
    /// (disjoint) per-claim estimates.
    ///
    /// Clients that outlive the server see
    /// [`IngestError::ShardUnavailable`] on submission.
    ///
    /// # Errors
    ///
    /// The first shard's [`IngestError::Recovery`] if a crashed shard
    /// failed to come back.
    pub fn finish(self) -> Result<TruthEstimates, IngestError> {
        for link in &self.inner.links {
            // Blocking send: the queue drains as the worker consumes, so
            // the shutdown marker always gets through.
            let _ = link.tx.send(Msg::Finish);
        }
        let mut merged = TruthEstimates::new(self.num_intervals);
        for worker in self.workers {
            merge_estimates(&mut merged, &worker.join().expect("shard worker panicked")?);
        }
        Ok(merged)
    }
}

impl IngestClient {
    /// Submits one report to its claim's shard and returns the
    /// [`IngestOutcome`] the engine will record for it.
    ///
    /// The prediction is exact under a single producer (the channel is
    /// FIFO, so the engine's interval cursor at application time equals
    /// the shard watermark at submission time); with concurrent
    /// producers it reflects the submission-time snapshot.
    ///
    /// # Errors
    ///
    /// [`IngestError::Backpressure`] when the shard's queue is full
    /// (retry after it drains), [`IngestError::ShardUnavailable`] when
    /// its worker has exited.
    pub fn try_ingest(&self, report: &Report) -> Result<IngestOutcome, IngestError> {
        let shard = route(report.claim(), self.inner.links.len());
        let link = &self.inner.links[shard];
        // Reserve the depth slot before sending so the worker's
        // decrement (which can race ahead of us once the message is in
        // the channel) never underflows; release it if the send fails.
        let depth = link.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match link.tx.try_send(Msg::Report(*report)) {
            Ok(()) => {
                link.max_depth.fetch_max(depth.min(self.inner.capacity), Ordering::Relaxed);
                Ok(predict_outcome(report, &self.inner.timeline, |interval| {
                    link.watermark.fetch_max(interval, Ordering::Relaxed)
                }))
            }
            Err(TrySendError::Full(_)) => {
                link.depth.fetch_sub(1, Ordering::Relaxed);
                Err(IngestError::Backpressure { shard, depth: self.inner.capacity })
            }
            Err(TrySendError::Disconnected(_)) => {
                link.depth.fetch_sub(1, Ordering::Relaxed);
                Err(IngestError::ShardUnavailable { shard })
            }
        }
    }

    /// Current depth of `shard`'s ingest queue (racy snapshot).
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.links[shard].depth.load(Ordering::Relaxed)
    }
}

fn run_shard(
    mut shard: Shard,
    rx: &Receiver<Msg>,
    depth: &AtomicUsize,
) -> Result<TruthEstimates, IngestError> {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Report(report) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                let _ = shard.ingest(&report);
            }
            Msg::Checkpoint => shard.checkpoint(),
            Msg::Crash => shard.crash()?,
            Msg::Finish => break,
        }
    }
    Ok(shard.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{Attitude, ClaimId, SourceId, Timestamp};

    fn config(shards: usize) -> ServeConfig {
        ServeConfig::builder()
            .shards(shards)
            .queue_capacity(256)
            .timeline(Timestamp::from_secs(600), 6)
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
    fn serves_reports_from_multiple_client_threads() {
        let server = IngestServer::start(config(4)).expect("valid");
        let mut producers = Vec::new();
        for chunk in 0..4u32 {
            let client = server.client();
            producers.push(std::thread::spawn(move || {
                for claim in (chunk * 8)..(chunk * 8 + 8) {
                    for interval in 0..6u64 {
                        let r = report(claim, interval * 100 + 1);
                        loop {
                            match client.try_ingest(&r) {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => std::thread::yield_now(),
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                }
            }));
        }
        for p in producers {
            p.join().expect("producer");
        }
        let estimates = server.finish().expect("no shard failed");
        assert_eq!(estimates.num_claims(), 32);
    }

    #[test]
    fn client_outliving_server_sees_unavailable() {
        let server = IngestServer::start(config(1)).expect("valid");
        let client = server.client();
        let _ = server.finish().expect("clean");
        let err = client.try_ingest(&report(0, 10)).expect_err("server is gone");
        assert!(matches!(err, IngestError::ShardUnavailable { shard: 0 }));
    }

    #[test]
    fn crash_mid_stream_preserves_results() {
        let server = IngestServer::start(config(2)).expect("valid");
        let client = server.client();
        // Time-ordered submission: bit-identity with a single engine is
        // promised for globally time-ordered streams (DESIGN.md §15).
        for interval in 0..3u64 {
            for claim in 0..8u32 {
                client.try_ingest(&report(claim, interval * 100 + 1)).expect("fits");
            }
        }
        server.crash_shard(0).expect("worker alive");
        server.crash_shard(1).expect("worker alive");
        for interval in 3..6u64 {
            for claim in 0..8u32 {
                client.try_ingest(&report(claim, interval * 100 + 1)).expect("fits");
            }
        }
        let sharded = server.finish().expect("recovered");

        let mut single = sstd_core::StreamingSstd::new(
            sstd_core::SstdConfig::default(),
            Timeline::new(Timestamp::from_secs(600), 6),
        );
        for interval in 0..6u64 {
            for claim in 0..8u32 {
                let _ = single.push(&report(claim, interval * 100 + 1));
            }
        }
        assert_eq!(sharded, single.finish(), "crashed server matches an uninterrupted engine");
    }
}
