//! The streaming workloads: one driver for raw posts and scored reports.
//!
//! Three ways through the same inputs:
//!
//! - [`threaded_pass`] — the end-to-end measurement: one closed-loop
//!   producer (this thread) against the threaded [`IngestServer`] with one
//!   shard, so two threads in all;
//! - [`service_pass`] — the deterministic [`IngestService`], driven
//!   single-threaded with a span around every call;
//! - [`bare_pass`] — a bare [`StreamingSstd`], the reference the other
//!   two must equal bit for bit, and the `core` layer on its own.

use crate::gen::{PostStream, ScoredStream, EVENT_KEYWORD};
use crate::trace::{count_allocations, Tracer};
use sstd_core::{
    IngestOutcome, ReportJournal, SstdConfig, StreamCheckpoint, StreamingSstd, TruthEstimates,
};
use sstd_obs::EventStore;
use sstd_serve::{
    ChangeStream, IngestClient, IngestServer, IngestService, ServeConfig, TruthUpdate,
};
use sstd_text::{PipelineConfig, ReportPipeline};
use sstd_types::{ClaimId, Report, Timeline, TruthLabel};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const QUEUE_CAPACITY: usize = 4096;
/// The producer looks at the change stream every this many submissions
/// (and after every post, and on every backpressure retry).
const POLL_EVERY: u64 = 256;
pub const CHECKPOINT_EVERY: usize = 200_000;

/// The generated input of one streaming workload.
#[derive(Debug)]
pub enum StreamInput {
    Posts(PostStream),
    Scored(ScoredStream),
}

impl StreamInput {
    pub fn timeline(&self) -> &Timeline {
        match self {
            Self::Posts(p) => &p.timeline,
            Self::Scored(s) => &s.timeline,
        }
    }

    pub fn intervals(&self) -> usize {
        self.timeline().num_intervals()
    }

    /// Input events of one pass: posts, or reports.
    pub fn events(&self) -> u64 {
        match self {
            Self::Posts(p) => p.posts.len() as u64,
            Self::Scored(s) => (s.reports_per_interval() * s.intervals()) as u64,
        }
    }

    /// The interval at whose start the shard is crashed: 90 % in.
    pub fn crash_interval(&self) -> usize {
        self.intervals() * 9 / 10
    }
}

fn serve_config(timeline: &Timeline) -> ServeConfig {
    ServeConfig::builder()
        .shards(1)
        .queue_capacity(QUEUE_CAPACITY)
        .checkpoint_every(CHECKPOINT_EVERY)
        .engine(SstdConfig::default())
        .timeline_from(timeline.clone())
        .build()
        .expect("the benchmark's serve config is valid")
}

/// Turns one interval of input events into reports. For posts it owns
/// the text pipeline, so building a feeder is part of set-up.
pub struct Feeder<'a> {
    input: &'a StreamInput,
    tracer: &'a Tracer,
    pipeline: Option<ReportPipeline>,
    buf: Vec<Report>,
    /// The claim the pipeline gave each post; `None` for dropped posts.
    pub claim_of_post: Vec<Option<ClaimId>>,
    /// Allocations inside `ReportPipeline::process`, counted when tracing.
    pub text_allocations: u64,
}

impl<'a> Feeder<'a> {
    pub fn new(input: &'a StreamInput, tracer: &'a Tracer) -> Self {
        let (pipeline, posts) = match input {
            StreamInput::Posts(p) => (
                Some(ReportPipeline::new(PipelineConfig::for_event([EVENT_KEYWORD]))),
                p.posts.len(),
            ),
            StreamInput::Scored(_) => (None, 0),
        };
        Self {
            input,
            tracer,
            pipeline,
            buf: Vec::new(),
            claim_of_post: vec![None; posts],
            text_allocations: 0,
        }
    }

    /// Interval `k`'s reports, in time order. Posts go through
    /// `ReportPipeline::process` one by one, with `between_posts` called
    /// after each — where the one producer thread gets to look at the
    /// change stream while it is busy with text.
    pub fn collect(&mut self, k: usize, mut between_posts: impl FnMut()) -> &[Report] {
        match self.input {
            StreamInput::Posts(p) => {
                let pipeline = self.pipeline.as_mut().expect("posts come with a pipeline");
                self.buf.clear();
                for i in p.interval_range(k) {
                    let post = &p.posts[i];
                    let report = if self.tracer.enabled() {
                        let (report, allocations) =
                            self.tracer.span("text.process", k as u64, || {
                                count_allocations(|| pipeline.process(post))
                            });
                        self.text_allocations += allocations;
                        report
                    } else {
                        pipeline.process(post)
                    };
                    self.claim_of_post[i] = report.map(|r| r.claim());
                    self.buf.extend(report);
                    between_posts();
                }
            }
            StreamInput::Scored(s) => {
                self.tracer.span("bench.generate", k as u64, || s.fill_interval(k, &mut self.buf));
            }
        }
        &self.buf
    }

    /// `(claims, processed, dropped)` of the text pipeline.
    pub fn text_counters(&self) -> (usize, u64, u64) {
        self.pipeline.as_ref().map_or((0, 0, 0), |p| {
            let (processed, dropped) = p.counters();
            (p.num_claims(), processed, dropped)
        })
    }
}

/// Everything built before the first event is submitted.
pub struct Prepared<'a> {
    feeder: Feeder<'a>,
    server: IngestServer,
}

pub fn prepare<'a>(input: &'a StreamInput, tracer: &'a Tracer) -> Prepared<'a> {
    Prepared {
        feeder: Feeder::new(input, tracer),
        server: IngestServer::start(serve_config(input.timeline())).expect("valid config"),
    }
}

impl Prepared<'_> {
    /// Stops the server's worker without having fed it.
    pub fn shut_down(self) {
        let _ = self.server.finish();
    }
}

/// What one pass through the threaded server produced and how long the
/// producer waited for it.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// First submission to `finish()` returned and the stream drained.
    pub wall_s: f64,
    pub estimates: TruthEstimates,
    pub updates: Vec<TruthUpdate>,
    /// Per update: from the submission that proved its interval over to
    /// the producer seeing it on the change stream. The updates that
    /// waited behind the crash recovery are not in it.
    pub update_latency_ms: Vec<f64>,
    pub recover_s: f64,
    pub backpressure_retries: u64,
    pub max_queue_depth: usize,
    /// Events lost to a non-retryable error or rejected by the engine.
    pub failed: u64,
}

/// The closed-loop producer: submits, backs off on backpressure, and
/// polls the change stream as it goes.
struct Producer<'a> {
    client: IngestClient,
    stream: ChangeStream,
    timeline: &'a Timeline,
    /// When the first report of each interval was submitted.
    first_submit: Vec<Option<Instant>>,
    updates: Vec<TruthUpdate>,
    /// `(when, updates.len() then)` for every poll that found something.
    seen: Vec<(Instant, usize)>,
    crashed_at: Option<Instant>,
    recover_s: f64,
    submitted: u64,
    retries: u64,
    failed: u64,
}

impl Producer<'_> {
    fn poll(&mut self) {
        let batch = self.stream.drain();
        if !batch.is_empty() {
            self.updates.extend(batch);
            self.seen.push((Instant::now(), self.updates.len()));
        }
    }

    fn wait_until_queue_empty(&mut self) {
        while self.client.queue_depth(0) != 0 {
            self.poll();
            std::thread::yield_now();
        }
    }

    fn submit(&mut self, report: &Report) {
        let slot = &mut self.first_submit[self.timeline.interval_of(report.time())];
        if slot.is_none() {
            *slot = Some(Instant::now());
        }
        loop {
            match self.client.try_ingest(report) {
                Ok(outcome) => {
                    self.failed += u64::from(outcome == IngestOutcome::Rejected);
                    break;
                }
                // Backpressure: keep looking at the change stream, and come
                // back once the queue has drained to half. Hammering a full
                // queue slows the worker that is draining it — by a third on
                // `scored_wide`, and unsteadily.
                Err(e) if e.is_retryable() => {
                    self.retries += 1;
                    while self.client.queue_depth(0) > QUEUE_CAPACITY / 2 {
                        self.poll();
                        std::thread::yield_now();
                    }
                }
                Err(_) => {
                    self.failed += 1;
                    break;
                }
            }
        }
        self.submitted += 1;
        if self.submitted.is_multiple_of(POLL_EVERY) {
            self.poll();
        }
        // The queue is FIFO: once this report has been taken off it, the
        // crash ordered before it has been recovered from.
        if let Some(crashed_at) = self.crashed_at.take() {
            self.wait_until_queue_empty();
            self.recover_s = crashed_at.elapsed().as_secs_f64();
        }
    }
}

pub fn threaded_pass(input: &StreamInput, prepared: Prepared<'_>) -> ThreadedOutcome {
    let Prepared { mut feeder, server } = prepared;
    let intervals = input.intervals();
    let mut producer = Producer {
        client: server.client(),
        stream: server.changes(0),
        timeline: input.timeline(),
        first_submit: vec![None; intervals],
        updates: Vec::new(),
        seen: Vec::new(),
        crashed_at: None,
        recover_s: 0.0,
        submitted: 0,
        retries: 0,
        failed: 0,
    };
    let started = Instant::now();
    for k in 0..intervals {
        if k == input.crash_interval() {
            producer.wait_until_queue_empty();
            producer.crashed_at = Some(Instant::now());
            server.crash_shard(0).expect("the shard worker is alive");
        }
        // An interval's posts are processed, then its reports submitted
        // together: waking the parked shard worker once per post costs
        // tens of microseconds in a VM and varies more from run to run
        // than the layers under test.
        for report in feeder.collect(k, || producer.poll()) {
            producer.submit(report);
        }
    }
    let max_queue_depth = server.max_queue_depth(0);
    let finish_called = Instant::now();
    let estimates = server.finish().expect("the crashed shard recovered");
    producer.poll();
    let wall_s = started.elapsed().as_secs_f64();

    // `proof[k]`: the submission that proved interval `k` over — the first
    // report of a later interval, or the call to `finish()`.
    let mut proof = vec![finish_called; intervals];
    let mut next = finish_called;
    for k in (0..intervals).rev() {
        proof[k] = next;
        if let Some(at) = producer.first_submit[k] {
            next = at;
        }
    }
    // Updates whose proof is the report submitted right behind the crash
    // waited for the recovery; `recover_s` times that wait, so they are
    // left out of the latency sample.
    let behind_crash = producer.first_submit[input.crash_interval()];
    let mut update_latency_ms = Vec::with_capacity(producer.updates.len());
    let mut from = 0;
    for &(seen_at, upto) in &producer.seen {
        for update in &producer.updates[from..upto] {
            if Some(proof[update.interval]) != behind_crash {
                let waited = seen_at.saturating_duration_since(proof[update.interval]);
                update_latency_ms.push(waited.as_secs_f64() * 1e3);
            }
        }
        from = upto;
    }
    ThreadedOutcome {
        wall_s,
        estimates,
        updates: producer.updates,
        update_latency_ms,
        recover_s: producer.recover_s,
        backpressure_retries: producer.retries,
        max_queue_depth,
        failed: producer.failed,
    }
}

/// Splits an interval's reports into the one that closes earlier
/// intervals, if any, and the rest.
fn split_closer<'r>(
    timeline: &Timeline,
    reports: &'r [Report],
    open: &mut usize,
) -> (Option<&'r Report>, &'r [Report]) {
    match reports.split_first() {
        Some((first, rest)) if timeline.interval_of(first.time()) > *open => {
            *open = timeline.interval_of(first.time());
            (Some(first), rest)
        }
        _ => (None, reports),
    }
}

#[derive(Debug)]
pub struct ServiceOutcome {
    pub wall_s: f64,
    pub estimates: TruthEstimates,
    pub updates: Vec<TruthUpdate>,
    pub reports: u64,
    pub closes: u64,
    pub failed: u64,
    /// Events in the shard's telemetry store when the pass ended.
    pub events_recorded: u64,
    /// Seconds the shard's engine spent closing intervals before
    /// `finish()`, as its own `StreamTick`s recorded them: the part of
    /// the `serve.pump_close` spans that is `core`'s.
    pub engine_close_s: f64,
    pub text: (usize, u64, u64),
    pub text_allocations: u64,
}

/// The same inputs through the deterministic service: an explicit
/// checkpoint half way, the crash where the threaded pass has it, and a
/// span around every call. A report that closes intervals is pumped on
/// its own, so `serve.pump_close` is interval close plus emission.
pub fn service_pass(input: &StreamInput, tracer: &Tracer) -> ServiceOutcome {
    let timeline = input.timeline();
    let mut feeder = Feeder::new(input, tracer);
    let mut service = IngestService::new(serve_config(timeline)).expect("valid config");
    let stream = service.changes(0);
    let store = Arc::clone(service.store(0));
    let mut updates = Vec::new();
    let (mut reports, mut closes, mut failed, mut open) = (0u64, 0u64, 0u64, 0usize);
    let started = Instant::now();
    for k in 0..input.intervals() {
        let tag = k as u64;
        tracer.span("bench.interval", tag, || {
            if k == input.intervals() / 2 {
                tracer.span("serve.checkpoint", tag, || service.checkpoint_shard(0));
            }
            if k == input.crash_interval() {
                tracer
                    .span("serve.crash_recover", tag, || service.crash_shard(0))
                    .expect("the shard recovers from its own checkpoint");
            }
            let batch = feeder.collect(k, || ());
            reports += batch.len() as u64;
            let mut ingest = |service: &mut IngestService, chunk: &[Report]| {
                for report in chunk {
                    let outcome = service.try_ingest(report).expect("the queue was just pumped");
                    failed += u64::from(outcome == IngestOutcome::Rejected);
                }
            };
            let (closer, rest) = split_closer(timeline, batch, &mut open);
            if let Some(closer) = closer {
                closes += 1;
                tracer.span("serve.try_ingest", tag, || {
                    ingest(&mut service, std::slice::from_ref(closer))
                });
                tracer.span("serve.pump_close", tag, || service.pump());
                tracer.span("serve.drain", tag, || updates.extend(stream.drain()));
            }
            for chunk in rest.chunks(QUEUE_CAPACITY) {
                tracer.span("serve.try_ingest", tag, || ingest(&mut service, chunk));
                tracer.span("serve.pump", tag, || service.pump());
            }
        });
    }
    let engine_close_s = store.query().stream().sum(|e| e.stream_tick().map(|t| t.decode_latency));
    let tag = input.intervals() as u64;
    let estimates = tracer.span("serve.finish", tag, || service.finish());
    tracer.span("serve.drain", tag, || updates.extend(stream.drain()));
    ServiceOutcome {
        wall_s: started.elapsed().as_secs_f64(),
        estimates,
        updates,
        reports,
        closes,
        failed,
        events_recorded: store.len() as u64,
        engine_close_s,
        text: feeder.text_counters(),
        text_allocations: feeder.text_allocations,
    }
}

/// Durability costs of the bare engine at one stream age.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityProbe {
    pub checkpoint_ms: f64,
    pub checkpoint_encode_ms: f64,
    pub checkpoint_bytes: f64,
    pub checkpoint_bytes_per_claim: f64,
    pub restore_ms: f64,
    pub journal_append_ns: f64,
    pub journal_encode_ms: f64,
    pub journal_decode_ms: f64,
}

#[derive(Debug)]
pub struct BareOutcome {
    pub estimates: TruthEstimates,
    pub claim_of_post: Vec<Option<ClaimId>>,
    pub reports: u64,
    /// Seconds inside `push`, interval closes included.
    pub engine_s: f64,
    /// Allocations inside `push`, interval closes included.
    pub engine_allocations: u64,
    /// At 10 %, 50 % and 90 % of the stream; empty unless asked for.
    pub probes: Vec<DurabilityProbe>,
}

fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The same inputs through a bare [`StreamingSstd`]: the reference for
/// every output check, and — traced — the `core` layer on its own:
/// `core.push` spans hold pushes that leave `current_interval()` alone,
/// `core.close` spans the one push per interval that advances it.
///
/// With `probe_durability`, a journal is kept the way a shard keeps one
/// and the checkpoint, restore and journal costs are taken at three
/// stream ages.
pub fn bare_pass(
    input: &StreamInput,
    tracer: &Tracer,
    telemetry: Option<Arc<EventStore>>,
    probe_durability: bool,
) -> BareOutcome {
    let config = SstdConfig::default();
    let timeline = input.timeline();
    let intervals = input.intervals();
    let mut feeder = Feeder::new(input, tracer);
    let mut engine = StreamingSstd::new(config, timeline.clone());
    if let Some(store) = telemetry {
        engine = engine.with_telemetry_store(store);
    }
    let mut journal = ReportJournal::new();
    let (mut seq, mut append_s, mut appended) = (0u64, 0.0f64, 0u64);
    let mut probes = Vec::new();
    let (mut reports, mut engine_s, mut engine_allocations, mut open) =
        (0u64, 0.0f64, 0u64, 0usize);
    for k in 0..intervals {
        let tag = k as u64;
        if probe_durability && [intervals / 10, intervals / 2, intervals * 9 / 10].contains(&k) {
            let mut probe = DurabilityProbe::default();
            let at = Instant::now();
            let snapshot = tracer.span("core.checkpoint", tag, || engine.checkpoint());
            probe.checkpoint_ms = millis(at);
            let at = Instant::now();
            let bytes = tracer.span("core.checkpoint_encode", tag, || snapshot.to_bytes());
            probe.checkpoint_encode_ms = millis(at);
            probe.checkpoint_bytes = bytes.len() as f64;
            probe.checkpoint_bytes_per_claim =
                bytes.len() as f64 / engine.num_claims().max(1) as f64;
            let at = Instant::now();
            let restored = tracer.span("core.restore", tag, || {
                let decoded = StreamCheckpoint::from_bytes(&bytes).expect("own bytes decode");
                StreamingSstd::restore(config, timeline.clone(), &decoded)
                    .expect("own snapshot restores")
            });
            probe.restore_ms = millis(at);
            assert_eq!(restored.current_interval(), engine.current_interval());
            let at = Instant::now();
            let encoded = tracer.span("core.journal_encode", tag, || journal.to_bytes());
            probe.journal_encode_ms = millis(at);
            let at = Instant::now();
            let decoded =
                tracer.span("core.journal_decode", tag, || ReportJournal::from_bytes(&encoded));
            probe.journal_decode_ms = millis(at);
            assert_eq!(decoded.expect("own bytes decode").len(), journal.len());
            probe.journal_append_ns = append_s * 1e9 / appended.max(1) as f64;
            (append_s, appended) = (0.0, 0);
            probes.push(probe);
        }
        let batch = feeder.collect(k, || ());
        reports += batch.len() as u64;
        let (closer, rest) = split_closer(timeline, batch, &mut open);
        let at = Instant::now();
        if let Some(closer) = closer {
            let ((), n) = tracer.span("core.close", tag, || {
                count_allocations(|| {
                    let _ = engine.push(closer);
                })
            });
            engine_allocations += n;
        }
        let ((), n) = tracer.span("core.push", tag, || {
            count_allocations(|| {
                for report in rest {
                    let _ = engine.push(report);
                }
            })
        });
        engine_allocations += n;
        engine_s += at.elapsed().as_secs_f64();
        if probe_durability {
            let at = Instant::now();
            tracer.span("core.journal_append", tag, || {
                for report in batch {
                    journal.append(seq, *report);
                    seq += 1;
                }
            });
            append_s += at.elapsed().as_secs_f64();
            appended += batch.len() as u64;
            if journal.len() >= CHECKPOINT_EVERY {
                journal.clear();
            }
        }
    }
    let at = Instant::now();
    let (estimates, n) =
        tracer.span("core.close", intervals as u64, || count_allocations(|| engine.finish()));
    engine_s += at.elapsed().as_secs_f64();
    engine_allocations += n;
    BareOutcome {
        estimates,
        claim_of_post: feeder.claim_of_post,
        reports,
        engine_s,
        engine_allocations,
        probes,
    }
}

/// Rebuilds the decision table from a shard's change stream: a claim is
/// `False` until its first update, and an update holds until the next.
pub fn replay_updates(updates: &[TruthUpdate], intervals: usize) -> TruthEstimates {
    let mut table: BTreeMap<ClaimId, Vec<TruthLabel>> = BTreeMap::new();
    for update in updates {
        let labels =
            table.entry(update.claim).or_insert_with(|| vec![TruthLabel::False; intervals]);
        labels[update.interval..].fill(update.new);
    }
    let mut estimates = TruthEstimates::new(intervals);
    for (claim, labels) in table {
        estimates.insert(claim, labels);
    }
    estimates
}

/// `(decisions equal to the planted truth, decisions)`. For posts a
/// topic is judged by the cluster that holds most of its posts.
pub fn score(
    input: &StreamInput,
    estimates: &TruthEstimates,
    claim_of_post: &[Option<ClaimId>],
) -> (u64, u64) {
    let agree = |claim: ClaimId, truth: &[TruthLabel]| -> u64 {
        estimates
            .labels(claim)
            .map_or(0, |labels| labels.iter().zip(truth).filter(|(a, b)| a == b).count() as u64)
    };
    let intervals = input.intervals() as u64;
    match input {
        StreamInput::Scored(s) => {
            let right =
                s.truth.iter().enumerate().map(|(c, t)| agree(ClaimId::new(c as u32), t)).sum();
            (right, intervals * s.claims() as u64)
        }
        StreamInput::Posts(p) => {
            let mut votes: Vec<BTreeMap<ClaimId, u64>> = vec![BTreeMap::new(); p.topics()];
            for (topic, claim) in p.topic_of.iter().zip(claim_of_post) {
                if let (Some(topic), Some(claim)) = (topic, claim) {
                    *votes[*topic as usize].entry(*claim).or_default() += 1;
                }
            }
            let right = votes
                .iter()
                .zip(&p.truth)
                .filter_map(|(votes, truth)| {
                    // Most posts wins; the lower claim id breaks a tie.
                    let (&claim, _) =
                        votes.iter().max_by_key(|(&c, &n)| (n, std::cmp::Reverse(c)))?;
                    Some(agree(claim, truth))
                })
                .sum();
            (right, intervals * p.topics() as u64)
        }
    }
}

/// The `text` layer on its own: per-post cost of `ReportPipeline::process`
/// and of each stage behind it.
#[derive(Debug, Default)]
pub struct TextLayer {
    pub process_us_per_post: f64,
    /// filter, attitude, cluster, uncertainty, independence.
    pub stage_us_per_post: [f64; 5],
    /// Mean length of the window the independence stage compares against.
    pub dup_window_len_mean: f64,
}

/// Every post goes through a pipeline and then through a shadow of it:
/// the public stage types, called in `ReportPipeline::process` order.
/// The two take turns post by post, so they see the same machine; their
/// totals must agree.
pub fn text_layer(posts: &PostStream) -> TextLayer {
    use sstd_text::{
        AttitudeScorer, ClaimClusterer, ClusterConfig, HedgeUncertaintyScorer, IndependenceScorer,
        KeywordFilter, LexiconAttitudeScorer, RetweetIndependenceScorer, UncertaintyScorer,
    };
    let config = PipelineConfig::for_event([EVENT_KEYWORD]);
    let filter = KeywordFilter::new(&config.keywords);
    let attitude = LexiconAttitudeScorer::new();
    let mut clusterer = ClaimClusterer::new(ClusterConfig::default());
    let uncertainty = HedgeUncertaintyScorer::new();
    let mut independence =
        RetweetIndependenceScorer::new(config.duplicate_window_secs, config.duplicate_similarity);
    let mut pipeline = ReportPipeline::new(config);
    let (mut process_s, mut stage_s, mut window_len) = (0.0f64, [0.0f64; 5], 0usize);
    let mut timed = |stage: usize, f: &mut dyn FnMut() -> bool| -> bool {
        let at = Instant::now();
        let go_on = f();
        stage_s[stage] += at.elapsed().as_secs_f64();
        go_on
    };
    for post in &posts.posts {
        let at = Instant::now();
        std::hint::black_box(pipeline.process(post));
        process_s += at.elapsed().as_secs_f64();

        let text = post.text();
        let _ = timed(0, &mut || filter.matches(text))
            && timed(1, &mut || attitude.attitude(text) != sstd_types::Attitude::Silent)
            && timed(2, &mut || {
                std::hint::black_box(clusterer.assign(text));
                true
            })
            && timed(3, &mut || {
                std::hint::black_box(uncertainty.uncertainty(text));
                true
            })
            && timed(4, &mut || {
                window_len += independence.window_len();
                std::hint::black_box(independence.independence(post));
                true
            });
    }
    let per_post = 1e6 / posts.posts.len() as f64;
    TextLayer {
        process_us_per_post: process_s * per_post,
        stage_us_per_post: stage_s.map(|s| s * per_post),
        dup_window_len_mean: window_len as f64 / posts.posts.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored() -> StreamInput {
        StreamInput::Scored(ScoredStream::generate(3, 30, 4, 45))
    }

    fn posts() -> StreamInput {
        StreamInput::Posts(PostStream::generate(3, 12, 25, 30))
    }

    #[test]
    fn three_ways_through_agree_bit_for_bit() {
        for input in [scored(), posts()] {
            let off = Tracer::new(false);
            let bare = bare_pass(&input, &off, None, false);
            let service = service_pass(&input, &off);
            let threaded = threaded_pass(&input, prepare(&input, &off));
            assert_eq!(service.estimates, bare.estimates);
            assert_eq!(threaded.estimates, bare.estimates);
            assert_eq!((service.failed, threaded.failed), (0, 0));
            let n = input.intervals();
            assert_eq!(replay_updates(&service.updates, n), bare.estimates);
            assert_eq!(replay_updates(&threaded.updates, n), bare.estimates);
            assert_eq!(threaded.updates, service.updates);
            assert!(threaded.update_latency_ms.len() > threaded.updates.len() / 2);
            assert!(threaded.recover_s > 0.0);
            let (right, all) = score(&input, &bare.estimates, &bare.claim_of_post);
            assert!(right * 10 > all * 6, "{right} of {all} decisions right");
        }
    }

    #[test]
    fn traced_bare_pass_probes_three_ages() {
        let input = scored();
        let tracer = Tracer::new(true);
        let bare = bare_pass(&input, &tracer, None, true);
        assert_eq!(bare.probes.len(), 3);
        assert!(bare.probes[2].checkpoint_bytes > bare.probes[0].checkpoint_bytes);
        let spans = tracer.into_spans();
        let closes = spans.iter().filter(|s| s.name == "core.close").count();
        assert_eq!(closes, input.intervals(), "one per interval boundary plus finish");
        assert_eq!(bare.estimates, bare_pass(&input, &Tracer::new(false), None, false).estimates);
    }

    #[test]
    fn stage_split_sees_every_post() {
        let StreamInput::Posts(p) = posts() else { unreachable!() };
        let layer = text_layer(&p);
        assert!(layer.process_us_per_post > 0.0);
        assert!(layer.stage_us_per_post.iter().all(|&us| us > 0.0));
        assert!(layer.dup_window_len_mean > 1.0);
    }
}
