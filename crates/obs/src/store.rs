//! The write-optimized trace store: one append-only, chunked event log
//! for every telemetry domain.
//!
//! # Design
//!
//! An [`EventStore`] is a sequence of fixed-capacity *segments* (chunks
//! of the append-only log). Recording an event is a short mutex-guarded
//! push into the open tail segment plus O(1) causality bookkeeping —
//! no per-event allocation once a segment exists. Each sealed segment
//! carries a summary (per-class counts, covered time range) that the
//! [`Query`](crate::Query) layer uses to skip whole chunks.
//!
//! # Bounded memory
//!
//! With [`StoreConfig::max_segments`] set, the store retains at most
//! that many segments: appending past the cap evicts the *oldest sealed
//! segment* whole. Evicted events are gone, but never silently: their
//! count per class folds into retained totals
//! ([`EventStore::class_count`], [`EventStore::total_appended`]) and the
//! [`EventStore::dropped_events`] counter reports exactly how many
//! records a query can no longer see. A 10M-event run with a bounded
//! store neither OOMs nor lies about what it measured.
//!
//! # Causality
//!
//! The store links each event to its causal predecessor at ingest time,
//! using interned dense ids so the bookkeeping is a vector index, not a
//! map probe: task events chain per task (queued → dispatched → failed →
//! re-dispatched → …), control ticks chain per job, stream ticks chain
//! per interval sequence, and recovery events chain checkpoint → crash →
//! restore. Chains come back out via
//! [`attempt_chain`](EventStore::attempt_chain) and
//! [`task_sequences`](EventStore::task_sequences).

use crate::event::{Event, EventClass, EventKind};
use crate::query::Query;
use crate::{ControlTick, RecoveryEvent, StreamTick};
use parking_lot::Mutex;
use sstd_runtime::{Recorder, TimelineEvent};
use sstd_types::ConfigError;
use std::collections::VecDeque;

/// Capacity/eviction policy of an [`EventStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Events per segment. Appends never allocate per event; a new
    /// segment is allocated every `segment_capacity` events.
    pub segment_capacity: usize,
    /// Maximum retained segments; `0` means unbounded (the default).
    /// When exceeded, the oldest sealed segment is evicted whole and its
    /// events are added to [`EventStore::dropped_events`].
    pub max_segments: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { segment_capacity: 4096, max_segments: 0 }
    }
}

impl StoreConfig {
    /// An unbounded store (the default): nothing is ever evicted.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A bounded store retaining approximately `max_events` events.
    /// Eviction granularity is one segment, so the retained count stays
    /// within one segment of the target.
    #[must_use]
    pub fn bounded(max_events: usize) -> Self {
        let max_events = max_events.max(1);
        let segment_capacity = max_events.div_ceil(8).clamp(1, 4096);
        Self { segment_capacity, max_segments: max_events.div_ceil(segment_capacity).max(1) }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when `segment_capacity` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.segment_capacity == 0 {
            return Err(ConfigError::new(
                "segment_capacity",
                "segments must hold at least one event",
            ));
        }
        Ok(())
    }
}

/// Per-segment summary used for query pruning: what classes a chunk
/// holds and what time range its timed events cover.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentSummary {
    pub(crate) counts: [u64; 4],
    pub(crate) min_at: f64,
    pub(crate) max_at: f64,
}

impl Default for SegmentSummary {
    fn default() -> Self {
        Self { counts: [0; 4], min_at: f64::INFINITY, max_at: f64::NEG_INFINITY }
    }
}

#[derive(Debug, Default)]
pub(crate) struct Segment {
    pub(crate) events: Vec<Event>,
    pub(crate) summary: SegmentSummary,
}

impl Segment {
    fn with_capacity(capacity: usize) -> Self {
        Self { events: Vec::with_capacity(capacity), summary: SegmentSummary::default() }
    }

    fn push(&mut self, event: Event) {
        self.summary.counts[event.kind.class().index()] += 1;
        if let Some(at) = event.kind.at() {
            self.summary.min_at = self.summary.min_at.min(at);
            self.summary.max_at = self.summary.max_at.max(at);
        }
        self.events.push(event);
    }

    fn last_seq(&self) -> Option<u64> {
        self.events.last().map(|e| e.seq)
    }
}

/// Raw-id → dense-index interner. Raw task/job/worker ids are allocated
/// densely by the backends, so a vector doubles as the map; `u32::MAX`
/// marks a raw id not seen yet.
#[derive(Debug, Default)]
struct Interner {
    dense_of_raw: Vec<u32>,
    raw_of_dense: Vec<u32>,
}

impl Interner {
    fn intern(&mut self, raw: u32) -> u32 {
        let i = raw as usize;
        if i >= self.dense_of_raw.len() {
            self.dense_of_raw.resize(i + 1, u32::MAX);
        }
        if self.dense_of_raw[i] == u32::MAX {
            let dense = u32::try_from(self.raw_of_dense.len()).expect("fewer than 2^32 ids");
            self.dense_of_raw[i] = dense;
            self.raw_of_dense.push(raw);
        }
        self.dense_of_raw[i]
    }

    fn len(&self) -> usize {
        self.raw_of_dense.len()
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    segments: VecDeque<Segment>,
    next_seq: u64,
    dropped: u64,
    evicted_counts: [u64; 4],
    tasks: Interner,
    jobs: Interner,
    workers: Interner,
    /// Last event of each task, by dense task index.
    last_task_event: Vec<Option<u64>>,
    /// Last control tick of each job, by dense job index.
    last_control_tick: Vec<Option<u64>>,
    last_stream_tick: Option<u64>,
    last_checkpoint: Option<u64>,
    last_crash: Option<u64>,
}

/// The unified append-only trace store (see the crate docs for the
/// layer map).
///
/// Thread-safe: recording locks a [`parking_lot::Mutex`] briefly, so the
/// store can be shared (`Arc<EventStore>`) between an execution backend
/// — it implements [`Recorder`] directly — the DTM, the streaming engine
/// and the supervisor, producing one causally-linked log of a whole run.
///
/// # Examples
///
/// ```
/// use sstd_obs::EventStore;
/// use sstd_runtime::prelude::*;
/// use std::sync::Arc;
///
/// let store = Arc::new(EventStore::new());
/// let mut des = DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
/// des.set_recorder(Some(store.clone()));
/// des.submit(TaskSpec::new(JobId::new(0), 100.0));
/// let _ = des.run_to_completion();
/// assert_eq!(store.query().tasks().count(), 3); // queued, dispatched, completed
/// let chain = store.attempt_chain(TaskId::new(0)).unwrap();
/// assert_eq!(chain.retries(), 0);
/// assert!(chain.completed());
/// ```
#[derive(Debug)]
pub struct EventStore {
    config: StoreConfig,
    inner: Mutex<StoreInner>,
}

impl Default for EventStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EventStore {
    /// Creates an unbounded store with the default segment size.
    #[must_use]
    pub fn new() -> Self {
        Self { config: StoreConfig::default(), inner: Mutex::new(StoreInner::default()) }
    }

    /// Creates a store with an explicit capacity/eviction policy.
    ///
    /// # Errors
    ///
    /// Whatever [`StoreConfig::validate`] reports.
    pub fn with_config(config: StoreConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self { config, inner: Mutex::new(StoreInner::default()) })
    }

    /// The capacity/eviction policy.
    #[must_use]
    pub const fn config(&self) -> StoreConfig {
        self.config
    }

    /// Appends a task lifecycle event; returns its sequence id. The
    /// cause link is the task's previous event, so retry/respawn chains
    /// are walkable without re-scanning.
    pub fn record_task(&self, event: &TimelineEvent) -> u64 {
        let mut inner = self.inner.lock();
        let task_ix = inner.tasks.intern(event.task.index() as u32) as usize;
        inner.jobs.intern(event.job.index() as u32);
        if let Some(w) = event.worker {
            inner.workers.intern(w.index() as u32);
        }
        if task_ix >= inner.last_task_event.len() {
            inner.last_task_event.resize(task_ix + 1, None);
        }
        let cause = inner.last_task_event[task_ix];
        let seq = self.append(&mut inner, cause, EventKind::Task(*event));
        inner.last_task_event[task_ix] = Some(seq);
        seq
    }

    /// Appends one control-loop sample; returns its sequence id. The
    /// cause link is the previous tick of the same job.
    pub fn record_control(&self, tick: ControlTick) -> u64 {
        let mut inner = self.inner.lock();
        let job_ix = inner.jobs.intern(tick.job.index() as u32) as usize;
        if job_ix >= inner.last_control_tick.len() {
            inner.last_control_tick.resize(job_ix + 1, None);
        }
        let cause = inner.last_control_tick[job_ix];
        let seq = self.append(&mut inner, cause, EventKind::Control(tick));
        inner.last_control_tick[job_ix] = Some(seq);
        seq
    }

    /// Appends one closed streaming interval; returns its sequence id.
    /// The cause link is the previous interval.
    pub fn record_stream(&self, tick: StreamTick) -> u64 {
        let mut inner = self.inner.lock();
        let cause = inner.last_stream_tick;
        let seq = self.append(&mut inner, cause, EventKind::Stream(tick));
        inner.last_stream_tick = Some(seq);
        seq
    }

    /// Appends one recovery step; returns its sequence id. Crashes are
    /// caused by the covering checkpoint (the state a restore will load),
    /// restores by the observed crash.
    pub fn record_recovery(&self, event: RecoveryEvent) -> u64 {
        let mut inner = self.inner.lock();
        let cause = match event {
            RecoveryEvent::CheckpointWritten { .. } => None,
            RecoveryEvent::CrashObserved { .. } => inner.last_checkpoint,
            RecoveryEvent::Restored { .. } => inner.last_crash,
        };
        let seq = self.append(&mut inner, cause, EventKind::Recovery(event));
        match event {
            RecoveryEvent::CheckpointWritten { .. } => inner.last_checkpoint = Some(seq),
            RecoveryEvent::CrashObserved { .. } => inner.last_crash = Some(seq),
            RecoveryEvent::Restored { .. } => {}
        }
        seq
    }

    fn append(&self, inner: &mut StoreInner, cause: Option<u64>, kind: EventKind) -> u64 {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let needs_segment =
            inner.segments.back().is_none_or(|s| s.events.len() >= self.config.segment_capacity);
        if needs_segment {
            inner.segments.push_back(Segment::with_capacity(self.config.segment_capacity));
            if self.config.max_segments > 0 && inner.segments.len() > self.config.max_segments {
                let evicted = inner.segments.pop_front().expect("len > max >= 1");
                inner.dropped += evicted.events.len() as u64;
                for (i, c) in evicted.summary.counts.iter().enumerate() {
                    inner.evicted_counts[i] += c;
                }
            }
        }
        inner.segments.back_mut().expect("segment just ensured").push(Event { seq, cause, kind });
        seq
    }

    /// Events currently retained (appended minus evicted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().segments.iter().map(|s| s.events.len()).sum()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever appended, evicted or not — also the next sequence id.
    #[must_use]
    pub fn total_appended(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// The sequence id the next append will get. Capture it before a run
    /// to scope later queries to that run via
    /// [`Query::since_seq`](crate::Query::since_seq).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events evicted by the bounded-memory policy. Zero for unbounded
    /// stores; always `total_appended() - len()`.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events of `class` ever appended — retained *plus* evicted, so
    /// totals stay truthful after eviction.
    #[must_use]
    pub fn class_count(&self, class: EventClass) -> u64 {
        let inner = self.inner.lock();
        inner.evicted_counts[class.index()]
            + inner.segments.iter().map(|s| s.summary.counts[class.index()]).sum::<u64>()
    }

    /// Retained segments.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Distinct tasks interned so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.inner.lock().tasks.len()
    }

    /// Distinct workers interned so far.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.lock().workers.len()
    }

    /// A point-in-time copy of every retained event, in append order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.segments.iter().map(|s| s.events.len()).sum());
        for s in &inner.segments {
            out.extend_from_slice(&s.events);
        }
        out
    }

    /// Starts a query over the retained events.
    #[must_use]
    pub fn query(&self) -> Query<'_> {
        Query::new(self)
    }

    /// Visits every retained event matching the coarse pre-filters, in
    /// append order, skipping whole segments whose summary rules them
    /// out. The fine-grained filter runs in [`Query`].
    pub(crate) fn for_each_pruned(
        &self,
        class: Option<EventClass>,
        time: Option<(f64, f64)>,
        since: Option<u64>,
        mut f: impl FnMut(&Event),
    ) {
        let inner = self.inner.lock();
        for s in &inner.segments {
            if let Some(c) = class {
                if s.summary.counts[c.index()] == 0 {
                    continue;
                }
            }
            if let Some((t0, t1)) = time {
                // A time filter only ever matches timed events, and the
                // summary covers exactly those.
                if s.summary.max_at < t0 || s.summary.min_at > t1 {
                    continue;
                }
            }
            if let Some(since) = since {
                if s.last_seq().is_some_and(|last| last < since) {
                    continue;
                }
            }
            for e in &s.events {
                f(e);
            }
        }
    }
}

impl Recorder for EventStore {
    fn record(&self, event: &TimelineEvent) {
        self.record_task(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_runtime::{JobId, TaskId, TaskPhase};

    fn task_event(task: u32, at: f64, phase: TaskPhase) -> TimelineEvent {
        TimelineEvent {
            task: TaskId::new(task),
            job: JobId::new(0),
            attempt: 0,
            worker: None,
            at,
            phase,
        }
    }

    #[test]
    fn sequence_ids_are_monotonic_across_domains() {
        let store = EventStore::new();
        let a = store.record_task(&task_event(0, 0.0, TaskPhase::Queued));
        let b = store.record_recovery(RecoveryEvent::CrashObserved { reports_ingested: 1 });
        let c = store.record_task(&task_event(1, 1.0, TaskPhase::Queued));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(store.len(), 3);
        assert_eq!(store.total_appended(), 3);
        assert_eq!(store.dropped_events(), 0);
    }

    #[test]
    fn task_events_chain_per_task() {
        let store = EventStore::new();
        store.record_task(&task_event(0, 0.0, TaskPhase::Queued));
        store.record_task(&task_event(1, 0.0, TaskPhase::Queued));
        store.record_task(&task_event(0, 1.0, TaskPhase::Dispatched));
        store.record_task(&task_event(0, 2.0, TaskPhase::Completed));
        let events = store.events();
        assert_eq!(events[0].cause, None);
        assert_eq!(events[1].cause, None, "other task starts its own chain");
        assert_eq!(events[2].cause, Some(0), "dispatch caused by its queue event");
        assert_eq!(events[3].cause, Some(2), "completion caused by its dispatch");
        assert_eq!(store.num_tasks(), 2);
    }

    #[test]
    fn recovery_chain_links_checkpoint_crash_restore() {
        let store = EventStore::new();
        let ck = store.record_recovery(RecoveryEvent::CheckpointWritten {
            interval: 0,
            journal_len: 5,
            bytes: 64,
        });
        let crash = store.record_recovery(RecoveryEvent::CrashObserved { reports_ingested: 9 });
        let restore = store.record_recovery(RecoveryEvent::Restored { replayed: 4, latency: 0.1 });
        let events = store.events();
        assert_eq!(events[ck as usize].cause, None);
        assert_eq!(events[crash as usize].cause, Some(ck));
        assert_eq!(events[restore as usize].cause, Some(crash));
    }

    #[test]
    fn bounded_store_evicts_whole_segments_and_counts_drops() {
        let config = StoreConfig { segment_capacity: 4, max_segments: 2 };
        let store = EventStore::with_config(config).unwrap();
        for i in 0..20 {
            store.record_task(&task_event(i, f64::from(i), TaskPhase::Queued));
        }
        assert!(store.num_segments() <= 2);
        assert!(store.len() <= 8);
        assert_eq!(store.total_appended(), 20);
        assert_eq!(store.dropped_events(), 20 - store.len() as u64);
        // Class totals never lie: evicted events stay counted.
        assert_eq!(store.class_count(EventClass::Task), 20);
        // The retained suffix is contiguous and ends at the last append.
        let events = store.events();
        assert_eq!(events.last().unwrap().seq, 19);
        let first = events.first().unwrap().seq;
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == first + i as u64));
    }

    #[test]
    fn bounded_config_respects_the_target_within_a_segment() {
        let cfg = StoreConfig::bounded(1000);
        assert!(cfg.max_segments * cfg.segment_capacity >= 1000);
        assert!((cfg.max_segments - 1) * cfg.segment_capacity <= 1000);
        assert!(StoreConfig { segment_capacity: 0, max_segments: 0 }.validate().is_err());
    }
}
