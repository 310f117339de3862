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
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
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
///
/// Each count has one writing side, so no cache line changes hands per
/// report: producers write `sent`, `max_depth` and `watermark`; the
/// worker writes `taken`, which sits on a line of its own.
struct ShardLink {
    tx: SyncSender<Msg>,
    /// Reports the channel has accepted.
    sent: AtomicUsize,
    /// Reports the worker has taken off the channel, as it last published.
    taken: Arc<Taken>,
    max_depth: AtomicUsize,
    watermark: AtomicUsize,
}

/// The worker's published count, padded to its own cache line (128 bytes
/// covers the adjacent-line prefetcher) so producer writes beside it do
/// not evict it and its publishes do not evict them.
#[repr(align(128))]
#[derive(Default)]
struct Taken(AtomicUsize);

impl ShardLink {
    /// Reports in the queue: exact while the worker is waiting for work,
    /// and while it is busy high by at most what it took since its last
    /// publish. `sent` is raised after the send, so the worker may count a
    /// report first; the difference saturates at zero. Both counts are
    /// statistics that publish no data — the channel hands the reports
    /// over — so `Relaxed` suffices on either side.
    fn depth(&self) -> usize {
        let sent = self.sent.load(Ordering::Relaxed);
        sent.saturating_sub(self.taken.0.load(Ordering::Relaxed))
    }
}

struct Inner {
    links: Vec<ShardLink>,
    timeline: Timeline,
    capacity: usize,
}

/// The long-lived sharded ingest server: each shard runs on its own
/// worker thread behind a bounded channel, so ingest is a `try_send`
/// plus counters only producers write — no lock is ever taken across
/// shards, and no count is shared read-modify-write with the worker.
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
///     .timeline_from(Timeline::new(Timestamp::from_secs(600), 6))
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
            let taken = Arc::new(Taken::default());
            links.push(ShardLink {
                tx,
                sent: AtomicUsize::new(0),
                taken: Arc::clone(&taken),
                max_depth: AtomicUsize::new(0),
                watermark: AtomicUsize::new(0),
            });
            let publish_every = (config.queue_capacity / 64).max(1);
            workers.push(std::thread::spawn(move || run_shard(shard, &rx, &taken, publish_every)));
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

    /// Highest queue depth `shard` has reached so far, as producers saw
    /// it at submission, never above the queue capacity. Like
    /// [`IngestClient::queue_depth`] a sample can run high by up to one
    /// publish interval (`queue_capacity / 64` reports) while the worker
    /// is busy.
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
        match link.tx.try_send(Msg::Report(*report)) {
            Ok(()) => {
                link.sent.fetch_add(1, Ordering::Relaxed);
                raise(&link.max_depth, link.depth().min(self.inner.capacity));
                Ok(predict_outcome(report, &self.inner.timeline, |interval| {
                    raise(&link.watermark, interval)
                }))
            }
            Err(TrySendError::Full(_)) => {
                Err(IngestError::Backpressure { shard, depth: self.inner.capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(IngestError::ShardUnavailable { shard }),
        }
    }

    /// Current depth of `shard`'s ingest queue: a racy snapshot that
    /// never wraps. While the worker is busy it may run high by up to one
    /// publish interval (`queue_capacity / 64` reports); it reads 0 once
    /// the worker has drained the queue and applied everything in it.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.links[shard].depth()
    }
}

/// Raises `max` to at least `value` and returns what it held before. The
/// load comes first: a value that would not rise costs no write, and so
/// no exclusive claim on the cache line.
fn raise(max: &AtomicUsize, value: usize) -> usize {
    let seen = max.load(Ordering::Relaxed);
    if value > seen {
        max.fetch_max(value, Ordering::Relaxed)
    } else {
        seen
    }
}

/// The worker loop. It counts the reports it takes and publishes the
/// count with a plain store every `publish_every` reports and whenever
/// the queue runs dry, before it blocks.
fn run_shard(
    mut shard: Shard,
    rx: &Receiver<Msg>,
    published: &Taken,
    publish_every: usize,
) -> Result<TruthEstimates, IngestError> {
    let mut taken = 0usize;
    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                published.0.store(taken, Ordering::Relaxed);
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match msg {
            Msg::Report(report) => {
                taken += 1;
                if taken.is_multiple_of(publish_every) {
                    published.0.store(taken, Ordering::Relaxed);
                }
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

    /// Four producers against one shard with a queue of 64: the split
    /// counts lose no report, apply none twice, keep backpressure, bound
    /// the depth and settle at zero.
    #[test]
    fn split_counters_hold_under_four_producers() {
        const CAPACITY: usize = 64;
        const PER_PRODUCER: u32 = 5_000;
        let config = ServeConfig::builder()
            .shards(1)
            .queue_capacity(CAPACITY)
            .timeline_from(Timeline::new(Timestamp::from_secs(600), 6))
            .build()
            .expect("valid");
        let server = IngestServer::start(config).expect("valid");
        let store = Arc::clone(server.store(0));
        // All four start together, so their sends race from the first one.
        let start = Arc::new(std::sync::Barrier::new(4));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let client = server.client();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let (mut ok, mut backpressure) = (0u64, 0u64);
                    for i in 0..PER_PRODUCER {
                        let secs = u64::from(i) * 600 / u64::from(PER_PRODUCER);
                        let r = report(p * 50 + i % 50, secs);
                        loop {
                            match client.try_ingest(&r) {
                                Ok(_) => {
                                    ok += 1;
                                    break;
                                }
                                Err(IngestError::Backpressure { .. }) => {
                                    backpressure += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                    (ok, backpressure)
                })
            })
            .collect();
        let client = server.client();
        // A wrapped count would read near `usize::MAX`; a lagging one at
        // most one publish interval over the queue's capacity.
        while !producers.iter().all(JoinHandle::is_finished) {
            let depth = client.queue_depth(0);
            assert!(depth <= CAPACITY + CAPACITY / 8, "queue depth {depth}");
            std::thread::yield_now();
        }
        let (mut ok, mut backpressure) = (0u64, 0u64);
        for producer in producers {
            let (o, b) = producer.join().expect("producer");
            ok += o;
            backpressure += b;
        }
        assert_eq!(ok, 4 * u64::from(PER_PRODUCER), "every report eventually fits");
        assert!(backpressure > 0, "64 slots against four producers fill up");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while client.queue_depth(0) != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "depth stuck at {}",
                client.queue_depth(0)
            );
            std::thread::yield_now();
        }
        assert!(server.max_queue_depth(0) <= CAPACITY);
        assert!(server.max_queue_depth(0) > 0);
        let _ = server.finish().expect("no shard failed");
        // `finish` closed every interval, so the ticks count every report
        // the engine applied.
        let applied = store.query().stream().sum(|e| e.stream_tick().map(|t| t.reports as f64));
        assert_eq!(applied as u64, ok, "each accepted report is applied exactly once");
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
