//! Evaluation-native queries over the trace store: filter, group-by,
//! count/sum, percentiles, and causal chain reconstruction.
//!
//! A [`Query`] is a borrowed, lazily-evaluated view: builder methods
//! narrow the event set (class, task/job/worker, phase label, time
//! range, sequence range) and terminals reduce it. Percentiles reuse the
//! workspace's one quantile implementation — [`sstd_stats::exact_quantile`]
//! for exact results over collected samples, [`P2Quantile`] for O(1)-memory
//! streaming estimates — so an eval sweep and a unit oracle can never
//! disagree on the definition.
//!
//! Chain reconstruction ([`EventStore::attempt_chains`]) folds a task's
//! causally-linked event stream into its [`AttemptChain`]: queued once,
//! then one [`Attempt`] per dispatch with its outcome and latency.
//! [`EventStore::task_sequences`] / [`EventStore::structurally_equal`]
//! compare two runs on the backend-independent shape of that stream.

use crate::event::{Event, EventClass, EventKind};
use crate::store::EventStore;
use sstd_runtime::{JobId, TaskId, TimelineEvent, WorkerId};
use sstd_stats::{exact_quantile, P2Quantile};
use std::collections::BTreeMap;

/// A filtered, reducible view over an [`EventStore`].
///
/// # Examples
///
/// ```
/// use sstd_obs::{EventStore, StreamTick};
///
/// let store = EventStore::new();
/// for i in 0..20 {
///     store.record_stream(StreamTick {
///         interval: i,
///         reports: 10 * (i + 1),
///         active_claims: 3,
///         window_occupancy: 2.0,
///         decode_latency: 0.001 * (i + 1) as f64,
///         decision_flips: 0,
///         late_reports: 0,
///         rejected_reports: 0,
///     });
/// }
/// let q = store.query().stream();
/// assert_eq!(q.count(), 20);
/// let p95 = q.percentile(0.95, |e| e.stream_tick().map(|t| t.decode_latency)).unwrap();
/// assert!(p95 > 0.018, "p95 in the upper tail: {p95}");
/// assert_eq!(q.clone().between(0.0, 4.0).count(), 5, "first five intervals");
/// ```
#[derive(Debug, Clone)]
pub struct Query<'a> {
    store: &'a EventStore,
    class: Option<EventClass>,
    task: Option<TaskId>,
    job: Option<JobId>,
    worker: Option<WorkerId>,
    label: Option<&'static str>,
    failures_only: bool,
    since: Option<u64>,
    time: Option<(f64, f64)>,
}

impl<'a> Query<'a> {
    pub(crate) fn new(store: &'a EventStore) -> Self {
        Self {
            store,
            class: None,
            task: None,
            job: None,
            worker: None,
            label: None,
            failures_only: false,
            since: None,
            time: None,
        }
    }

    // --- filters -----------------------------------------------------

    /// Keeps only events of `class`.
    #[must_use]
    pub fn class(mut self, class: EventClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Keeps only task lifecycle events.
    #[must_use]
    pub fn tasks(self) -> Self {
        self.class(EventClass::Task)
    }

    /// Keeps only control-loop ticks.
    #[must_use]
    pub fn control(self) -> Self {
        self.class(EventClass::Control)
    }

    /// Keeps only streaming interval ticks.
    #[must_use]
    pub fn stream(self) -> Self {
        self.class(EventClass::Stream)
    }

    /// Keeps only recovery events.
    #[must_use]
    pub fn recovery(self) -> Self {
        self.class(EventClass::Recovery)
    }

    /// Keeps only events of one task (implies [`tasks`](Self::tasks)).
    #[must_use]
    pub fn task(mut self, task: TaskId) -> Self {
        self.task = Some(task);
        self.tasks()
    }

    /// Keeps only events of one job (task events and control ticks carry
    /// a job).
    #[must_use]
    pub fn job(mut self, job: JobId) -> Self {
        self.job = Some(job);
        self
    }

    /// Keeps only task events involving one worker.
    #[must_use]
    pub fn worker(mut self, worker: WorkerId) -> Self {
        self.worker = Some(worker);
        self.tasks()
    }

    /// Keeps only events whose [`EventKind::label`] equals `label` —
    /// task phase labels (`"queued"`, `"completed"`, `"failed:crash"`, …)
    /// or recovery steps (`"checkpoint"`, `"crash"`, `"restored"`).
    #[must_use]
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }

    /// Keeps only failed-attempt task events, any loss cause (implies
    /// [`tasks`](Self::tasks)).
    #[must_use]
    pub fn failures(mut self) -> Self {
        self.failures_only = true;
        self.tasks()
    }

    /// Keeps only events with sequence id `>= seq` — scoping a query to
    /// everything recorded after an [`EventStore::next_seq`] watermark.
    #[must_use]
    pub fn since_seq(mut self, seq: u64) -> Self {
        self.since = Some(seq);
        self
    }

    /// Keeps only events whose native timestamp lies in `[t0, t1]`.
    /// Events without a clock (recovery) never match.
    #[must_use]
    pub fn between(mut self, t0: f64, t1: f64) -> Self {
        self.time = Some((t0, t1));
        self
    }

    fn matches(&self, e: &Event) -> bool {
        if let Some(c) = self.class {
            if e.kind.class() != c {
                return false;
            }
        }
        if let Some(since) = self.since {
            if e.seq < since {
                return false;
            }
        }
        if let Some((t0, t1)) = self.time {
            match e.kind.at() {
                Some(at) if at >= t0 && at <= t1 => {}
                _ => return false,
            }
        }
        if let Some(label) = self.label {
            if e.kind.label() != label {
                return false;
            }
        }
        if self.failures_only {
            match e.kind {
                EventKind::Task(t) if t.phase.is_failure() => {}
                _ => return false,
            }
        }
        if let Some(task) = self.task {
            match e.kind {
                EventKind::Task(t) if t.task == task => {}
                _ => return false,
            }
        }
        if let Some(job) = self.job {
            match e.kind {
                EventKind::Task(t) if t.job == job => {}
                EventKind::Control(t) if t.job == job => {}
                _ => return false,
            }
        }
        if let Some(worker) = self.worker {
            match e.kind {
                EventKind::Task(t) if t.worker == Some(worker) => {}
                _ => return false,
            }
        }
        true
    }

    fn for_each(&self, mut f: impl FnMut(&Event)) {
        self.store.for_each_pruned(self.class, self.time, self.since, |e| {
            if self.matches(e) {
                f(e);
            }
        });
    }

    // --- terminals ---------------------------------------------------

    /// Number of matching events.
    #[must_use]
    pub fn count(&self) -> u64 {
        let mut n = 0;
        self.for_each(|_| n += 1);
        n
    }

    /// The matching events, copied in append order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.for_each(|e| out.push(*e));
        out
    }

    /// The values `extract` yields on matching events, in append order.
    /// `None` extractions are skipped.
    #[must_use]
    pub fn collect(&self, extract: impl Fn(&Event) -> Option<f64>) -> Vec<f64> {
        let mut out = Vec::new();
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                out.push(v);
            }
        });
        out
    }

    /// Sum of extracted values.
    #[must_use]
    pub fn sum(&self, extract: impl Fn(&Event) -> Option<f64>) -> f64 {
        let mut acc = 0.0;
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                acc += v;
            }
        });
        acc
    }

    /// Mean of extracted values; `None` when nothing was extracted.
    #[must_use]
    pub fn mean(&self, extract: impl Fn(&Event) -> Option<f64>) -> Option<f64> {
        let (mut acc, mut n) = (0.0, 0u64);
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                acc += v;
                n += 1;
            }
        });
        (n > 0).then(|| acc / n as f64)
    }

    /// Maximum of extracted values (NaN-tolerant via [`f64::max`]);
    /// `None` when nothing was extracted.
    #[must_use]
    pub fn max(&self, extract: impl Fn(&Event) -> Option<f64>) -> Option<f64> {
        let mut best: Option<f64> = None;
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                best = Some(best.map_or(v, |b| b.max(v)));
            }
        });
        best
    }

    /// Minimum of extracted values (NaN-tolerant via [`f64::min`]);
    /// `None` when nothing was extracted.
    #[must_use]
    pub fn min(&self, extract: impl Fn(&Event) -> Option<f64>) -> Option<f64> {
        let mut best: Option<f64> = None;
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                best = Some(best.map_or(v, |b| b.min(v)));
            }
        });
        best
    }

    /// The exact type-7 `p`-quantile of extracted values
    /// ([`sstd_stats::exact_quantile`]); `None` when nothing was
    /// extracted.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64, extract: impl Fn(&Event) -> Option<f64>) -> Option<f64> {
        let samples = self.collect(extract);
        (!samples.is_empty()).then(|| exact_quantile(&samples, p))
    }

    /// The streaming P² estimate of the `p`-quantile of extracted values
    /// — O(1) memory, at the cost of approximation; `None` when nothing
    /// was extracted.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is strictly inside `(0, 1)`.
    #[must_use]
    pub fn p2_percentile(&self, p: f64, extract: impl Fn(&Event) -> Option<f64>) -> Option<f64> {
        let mut est = P2Quantile::new(p).expect("p strictly inside (0, 1)");
        self.for_each(|e| {
            if let Some(v) = extract(e) {
                est.push(v);
            }
        });
        est.estimate()
    }

    /// Matching-event counts grouped by task (task events only).
    #[must_use]
    pub fn group_count_by_task(&self) -> BTreeMap<TaskId, u64> {
        let mut out = BTreeMap::new();
        self.for_each(|e| {
            if let EventKind::Task(t) = e.kind {
                *out.entry(t.task).or_insert(0) += 1;
            }
        });
        out
    }

    /// Matching-event counts grouped by job (task events and control
    /// ticks).
    #[must_use]
    pub fn group_count_by_job(&self) -> BTreeMap<JobId, u64> {
        let mut out = BTreeMap::new();
        self.for_each(|e| match e.kind {
            EventKind::Task(t) => *out.entry(t.job).or_insert(0) += 1,
            EventKind::Control(t) => *out.entry(t.job).or_insert(0) += 1,
            _ => {}
        });
        out
    }

    /// Extracted-value sums grouped by task (task events only).
    #[must_use]
    pub fn group_sum_by_task(
        &self,
        extract: impl Fn(&Event) -> Option<f64>,
    ) -> BTreeMap<TaskId, f64> {
        let mut out = BTreeMap::new();
        self.for_each(|e| {
            if let EventKind::Task(t) = e.kind {
                if let Some(v) = extract(e) {
                    *out.entry(t.task).or_insert(0.0) += v;
                }
            }
        });
        out
    }
}

/// Extractor shorthand for [`Query::collect`]-family terminals.
impl Event {
    /// The task payload, when this is a task event.
    #[must_use]
    pub fn timeline_event(&self) -> Option<&TimelineEvent> {
        match &self.kind {
            EventKind::Task(t) => Some(t),
            _ => None,
        }
    }

    /// The control payload, when this is a control tick.
    #[must_use]
    pub fn control_tick(&self) -> Option<&crate::ControlTick> {
        match &self.kind {
            EventKind::Control(t) => Some(t),
            _ => None,
        }
    }

    /// The stream payload, when this is a stream tick.
    #[must_use]
    pub fn stream_tick(&self) -> Option<&crate::StreamTick> {
        match &self.kind {
            EventKind::Stream(t) => Some(t),
            _ => None,
        }
    }

    /// The recovery payload, when this is a recovery event.
    #[must_use]
    pub fn recovery_event(&self) -> Option<&crate::RecoveryEvent> {
        match &self.kind {
            EventKind::Recovery(r) => Some(r),
            _ => None,
        }
    }
}

/// One dispatched attempt inside an [`AttemptChain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// The attempt number the backend assigned (1-based for dispatches).
    pub attempt: u32,
    /// When the attempt started executing.
    pub dispatched_at: f64,
    /// The worker it ran on, when known.
    pub worker: Option<WorkerId>,
    /// When the attempt ended (completion or loss); `None` while open.
    pub ended_at: Option<f64>,
    /// Terminal phase label (`"completed"`, `"failed:transient"`, …) or
    /// `"running"` while open.
    pub outcome: &'static str,
}

impl Attempt {
    /// Dispatch-to-end latency; `None` while the attempt is open.
    #[must_use]
    pub fn latency(&self) -> Option<f64> {
        self.ended_at.map(|end| end - self.dispatched_at)
    }
}

/// The causal task → attempt → retry chain of one task, rebuilt from the
/// store.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptChain {
    /// The task.
    pub task: TaskId,
    /// Its owning job.
    pub job: JobId,
    /// When the task entered the queue; `None` when the queue event was
    /// evicted.
    pub queued_at: Option<f64>,
    /// Every dispatched attempt, in order.
    pub attempts: Vec<Attempt>,
    /// Terminal chain label: `"completed"`, `"exhausted"`, or
    /// `"running"` while unresolved.
    pub outcome: &'static str,
}

impl AttemptChain {
    /// Retries consumed: dispatches beyond the first.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Whether the task completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.outcome == "completed"
    }

    /// Queue-to-resolution turnaround; `None` while unresolved or when
    /// the queue event was evicted.
    #[must_use]
    pub fn turnaround(&self) -> Option<f64> {
        let queued = self.queued_at?;
        if self.outcome == "running" {
            return None;
        }
        self.attempts.last().and_then(|a| a.ended_at).map(|end| end - queued)
    }

    /// The backend-independent `(attempt, phase)` projection of the
    /// chain is kept by [`EventStore::task_sequences`]; this is its
    /// per-chain shape: number of dispatches and the terminal label.
    #[must_use]
    pub fn shape(&self) -> (usize, &'static str) {
        (self.attempts.len(), self.outcome)
    }
}

fn fold_into_chains(chains: &mut BTreeMap<TaskId, AttemptChain>, t: &TimelineEvent) {
    let chain = chains.entry(t.task).or_insert_with(|| AttemptChain {
        task: t.task,
        job: t.job,
        queued_at: None,
        attempts: Vec::new(),
        outcome: "running",
    });
    match t.phase {
        sstd_runtime::TaskPhase::Queued => {
            if chain.queued_at.is_none() {
                chain.queued_at = Some(t.at);
            }
        }
        sstd_runtime::TaskPhase::Dispatched => chain.attempts.push(Attempt {
            attempt: t.attempt,
            dispatched_at: t.at,
            worker: t.worker,
            ended_at: None,
            outcome: "running",
        }),
        phase => {
            let label = phase.label();
            if phase.is_failure() || phase == sstd_runtime::TaskPhase::Completed {
                // Close the matching open attempt (the last one with this
                // attempt number); a lone failure whose dispatch was
                // evicted records a bare closed attempt.
                match chain
                    .attempts
                    .iter_mut()
                    .rev()
                    .find(|a| a.attempt == t.attempt && a.ended_at.is_none())
                {
                    Some(open) => {
                        open.ended_at = Some(t.at);
                        open.outcome = label;
                    }
                    None => chain.attempts.push(Attempt {
                        attempt: t.attempt,
                        dispatched_at: t.at,
                        worker: t.worker,
                        ended_at: Some(t.at),
                        outcome: label,
                    }),
                }
            }
            if phase.is_terminal() {
                chain.outcome = label;
            }
        }
    }
}

impl EventStore {
    /// Rebuilds every task's [`AttemptChain`] in one linear pass over
    /// the retained task events.
    #[must_use]
    pub fn attempt_chains(&self) -> Vec<AttemptChain> {
        let mut chains = BTreeMap::new();
        self.for_each_pruned(Some(EventClass::Task), None, None, |e| {
            if let EventKind::Task(t) = &e.kind {
                fold_into_chains(&mut chains, t);
            }
        });
        chains.into_values().collect()
    }

    /// The [`AttemptChain`] of one task; `None` when the store holds no
    /// event of it.
    #[must_use]
    pub fn attempt_chain(&self, task: TaskId) -> Option<AttemptChain> {
        let mut chains = BTreeMap::new();
        self.for_each_pruned(Some(EventClass::Task), None, None, |e| {
            if let EventKind::Task(t) = &e.kind {
                if t.task == task {
                    fold_into_chains(&mut chains, t);
                }
            }
        });
        chains.remove(&task)
    }

    /// Groups retained task events by task, reducing each to its
    /// `(attempt, phase)` sequence — the backend-independent shape of a
    /// run that a DES and a threaded execution of the same seeded fault
    /// plan agree on. One linear pass with dense task-index buckets.
    #[must_use]
    pub fn task_sequences(&self) -> BTreeMap<TaskId, Vec<(u32, &'static str)>> {
        let mut max_ix = None;
        self.for_each_pruned(Some(EventClass::Task), None, None, |e| {
            if let EventKind::Task(t) = &e.kind {
                max_ix = Some(max_ix.map_or(t.task.index(), |m: usize| m.max(t.task.index())));
            }
        });
        let Some(max_ix) = max_ix else {
            return BTreeMap::new();
        };
        let mut buckets: Vec<Vec<(u32, &'static str)>> = vec![Vec::new(); max_ix + 1];
        self.for_each_pruned(Some(EventClass::Task), None, None, |e| {
            if let EventKind::Task(t) = &e.kind {
                buckets[t.task.index()].push((t.attempt, t.phase.label()));
            }
        });
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (TaskId::new(u32::try_from(i).expect("dense task ids")), b))
            .collect()
    }

    /// Whether two stores hold structurally identical task traces: equal
    /// per-task `(attempt, phase)` sequences (worker ids, timestamps and
    /// cross-task interleaving ignored).
    #[must_use]
    pub fn structurally_equal(&self, other: &EventStore) -> bool {
        self.task_sequences() == other.task_sequences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_runtime::{LossCause, TaskPhase};

    fn ev(
        task: u32,
        attempt: u32,
        at: f64,
        phase: TaskPhase,
        worker: Option<u32>,
    ) -> TimelineEvent {
        TimelineEvent {
            task: TaskId::new(task),
            job: JobId::new(task % 2),
            attempt,
            worker: worker.map(WorkerId::new),
            at,
            phase,
        }
    }

    fn retry_store() -> EventStore {
        let store = EventStore::new();
        store.record_task(&ev(0, 0, 0.0, TaskPhase::Queued, None));
        store.record_task(&ev(1, 0, 0.0, TaskPhase::Queued, None));
        store.record_task(&ev(0, 1, 1.0, TaskPhase::Dispatched, Some(0)));
        store.record_task(&ev(1, 1, 1.0, TaskPhase::Dispatched, Some(1)));
        store.record_task(&ev(0, 1, 2.0, TaskPhase::Failed(LossCause::Transient), Some(0)));
        store.record_task(&ev(0, 2, 3.0, TaskPhase::Dispatched, Some(1)));
        store.record_task(&ev(1, 1, 4.0, TaskPhase::Completed, Some(1)));
        store.record_task(&ev(0, 2, 6.0, TaskPhase::Completed, Some(1)));
        store
    }

    #[test]
    fn filters_compose() {
        let store = retry_store();
        assert_eq!(store.query().tasks().count(), 8);
        assert_eq!(store.query().task(TaskId::new(0)).count(), 5);
        assert_eq!(store.query().failures().count(), 1);
        assert_eq!(store.query().label("completed").count(), 2);
        assert_eq!(store.query().tasks().between(0.0, 1.0).count(), 4);
        assert_eq!(store.query().worker(WorkerId::new(1)).label("completed").count(), 2);
        assert_eq!(store.query().job(JobId::new(1)).count(), 3, "task 1's events");
    }

    #[test]
    fn terminals_reduce() {
        let store = retry_store();
        let dispatch_times =
            store.query().label("dispatched").collect(|e| e.timeline_event().map(|t| t.at));
        assert_eq!(dispatch_times, vec![1.0, 1.0, 3.0]);
        assert_eq!(
            store.query().label("dispatched").sum(|e| e.timeline_event().map(|t| t.at)),
            5.0
        );
        let mean =
            store.query().label("dispatched").mean(|e| e.timeline_event().map(|t| t.at)).unwrap();
        assert!((mean - 5.0 / 3.0).abs() < 1e-12);
        let p50 = store
            .query()
            .label("dispatched")
            .percentile(0.5, |e| e.timeline_event().map(|t| t.at))
            .unwrap();
        assert_eq!(p50, 1.0);
        assert_eq!(store.query().percentile(0.5, |_| None), None);
    }

    #[test]
    fn max_and_min_terminals() {
        let store = retry_store();
        let at = |e: &Event| e.timeline_event().map(|t| t.at);
        assert_eq!(store.query().label("dispatched").max(at), Some(3.0));
        assert_eq!(store.query().label("dispatched").min(at), Some(1.0));
        assert_eq!(store.query().max(|_| None), None);
        assert_eq!(store.query().min(|_| None), None);
    }

    #[test]
    fn group_bys_bucket_correctly() {
        let store = retry_store();
        let by_task = store.query().tasks().group_count_by_task();
        assert_eq!(by_task[&TaskId::new(0)], 5);
        assert_eq!(by_task[&TaskId::new(1)], 3);
        let by_job = store.query().tasks().group_count_by_job();
        assert_eq!(by_job[&JobId::new(0)], 5);
        assert_eq!(by_job[&JobId::new(1)], 3);
        let time_by_task = store
            .query()
            .label("dispatched")
            .group_sum_by_task(|e| e.timeline_event().map(|t| t.at));
        assert_eq!(time_by_task[&TaskId::new(0)], 4.0);
        assert_eq!(time_by_task[&TaskId::new(1)], 1.0);
    }

    #[test]
    fn attempt_chains_rebuild_retry_structure() {
        let store = retry_store();
        let chain = store.attempt_chain(TaskId::new(0)).unwrap();
        assert_eq!(chain.retries(), 1);
        assert!(chain.completed());
        assert_eq!(chain.queued_at, Some(0.0));
        assert_eq!(chain.attempts[0].outcome, "failed:transient");
        assert_eq!(chain.attempts[0].latency(), Some(1.0));
        assert_eq!(chain.attempts[1].outcome, "completed");
        assert_eq!(chain.attempts[1].latency(), Some(3.0));
        assert_eq!(chain.turnaround(), Some(6.0));
        assert_eq!(chain.shape(), (2, "completed"));

        let all = store.attempt_chains();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].retries(), 0);
        assert!(store.attempt_chain(TaskId::new(7)).is_none());
    }

    #[test]
    fn task_sequences_group_by_task_in_stream_order() {
        let store = retry_store();
        let seqs = store.task_sequences();
        assert_eq!(
            seqs[&TaskId::new(0)],
            vec![
                (0, "queued"),
                (1, "dispatched"),
                (1, "failed:transient"),
                (2, "dispatched"),
                (2, "completed"),
            ]
        );
        assert_eq!(seqs[&TaskId::new(1)].len(), 3);
        assert!(store.structurally_equal(&retry_store()));
        let other = EventStore::new();
        other.record_task(&ev(0, 0, 9.0, TaskPhase::Queued, None));
        assert!(!store.structurally_equal(&other));
        assert!(EventStore::new().task_sequences().is_empty());
    }

    #[test]
    fn structural_equality_ignores_workers_times_and_id_gaps() {
        let a = EventStore::new();
        a.record_task(&ev(7, 0, 0.0, TaskPhase::Queued, None));
        a.record_task(&ev(0, 0, 0.0, TaskPhase::Queued, None));
        a.record_task(&ev(7, 1, 1.0, TaskPhase::Completed, Some(0)));
        let shifted = EventStore::new();
        shifted.record_task(&ev(0, 0, 100.0, TaskPhase::Queued, None));
        shifted.record_task(&ev(7, 0, 100.0, TaskPhase::Queued, None));
        shifted.record_task(&ev(7, 1, 101.0, TaskPhase::Completed, Some(9)));
        assert!(a.structurally_equal(&shifted));
        let seqs = a.task_sequences();
        assert_eq!(seqs.len(), 2, "the dense-bucket pass copes with gaps in the id space");
        assert_eq!(seqs[&TaskId::new(7)], vec![(0, "queued"), (1, "completed")]);
        shifted.record_task(&ev(0, 1, 102.0, TaskPhase::Exhausted, None));
        assert!(!a.structurally_equal(&shifted));
    }

    #[test]
    fn since_seq_scopes_to_a_run_suffix() {
        let store = EventStore::new();
        store.record_task(&ev(0, 0, 0.0, TaskPhase::Queued, None));
        let mark = store.next_seq();
        store.record_task(&ev(1, 0, 1.0, TaskPhase::Queued, None));
        assert_eq!(store.query().since_seq(mark).count(), 1);
        assert_eq!(store.query().since_seq(0).count(), 2);
    }

    fn stream_tick(interval: u64, reports: u64, decode_latency: f64) -> crate::StreamTick {
        crate::StreamTick {
            interval,
            reports,
            active_claims: 4,
            window_occupancy: 2.5,
            decode_latency,
            decision_flips: usize::from(interval == 1),
            late_reports: 2 * interval,
            rejected_reports: interval,
        }
    }

    #[test]
    fn stream_ticks_chain_sum_and_the_latency_quantile_skips_timing_off() {
        let timed = |e: &Event| e.stream_tick().map(|t| t.decode_latency).filter(|&l| l > 0.0);
        let store = EventStore::new();
        store.record_stream(stream_tick(0, 10, 0.0));
        assert_eq!(
            store.query().stream().p2_percentile(0.95, timed),
            None,
            "zero latency means timing was off"
        );
        store.record_task(&ev(0, 0, 0.0, TaskPhase::Queued, None));
        store.record_stream(stream_tick(1, 30, 0.0));
        let q = store.query().stream();
        let events = q.events();
        assert_eq!(events[0].cause, None);
        assert_eq!(events[1].cause, Some(events[0].seq), "intervals chain past other domains");
        assert_eq!(q.sum(|e| e.stream_tick().map(|t| t.reports as f64)), 40.0);
        assert_eq!(q.sum(|e| e.stream_tick().map(|t| t.decision_flips as f64)), 1.0);
        assert_eq!(q.sum(|e| e.stream_tick().map(|t| t.late_reports as f64)), 2.0);
        assert_eq!(q.sum(|e| e.stream_tick().map(|t| t.rejected_reports as f64)), 1.0);
        assert_eq!(q.mean(|e| e.stream_tick().map(|t| t.reports as f64)), Some(20.0));
        for i in 1..=20 {
            store.record_stream(stream_tick(1 + i, 1, 0.001 * i as f64));
        }
        let p95 = store.query().stream().p2_percentile(0.95, timed).expect("warm");
        assert!(p95 > 0.01, "p95 in the upper tail: {p95}");
    }

    #[test]
    fn recovery_reductions_count_by_label_and_sum_payloads() {
        use crate::RecoveryEvent;
        let store = EventStore::new();
        assert_eq!(store.query().recovery().count(), 0);
        store.record_recovery(RecoveryEvent::CheckpointWritten {
            interval: 0,
            journal_len: 10,
            bytes: 100,
        });
        store.record_recovery(RecoveryEvent::CheckpointWritten {
            interval: 5,
            journal_len: 20,
            bytes: 150,
        });
        store.record_recovery(RecoveryEvent::CrashObserved { reports_ingested: 42 });
        store.record_recovery(RecoveryEvent::Restored { replayed: 12, latency: 0.5 });
        store.record_recovery(RecoveryEvent::CrashObserved { reports_ingested: 80 });
        store.record_recovery(RecoveryEvent::Restored { replayed: 8, latency: 0.0 });
        let q = store.query().recovery();
        assert_eq!(q.clone().label("checkpoint").count(), 2);
        assert_eq!(q.clone().label("crash").count(), 2);
        assert_eq!(q.clone().label("restored").count(), 2);
        let bytes = q.sum(|e| match e.recovery_event() {
            Some(RecoveryEvent::CheckpointWritten { bytes, .. }) => Some(*bytes as f64),
            _ => None,
        });
        assert_eq!(bytes, 250.0);
        let replayed = |e: &Event| match e.recovery_event() {
            Some(RecoveryEvent::Restored { replayed, .. }) => Some(*replayed as f64),
            _ => None,
        };
        assert_eq!(q.sum(replayed), 20.0);
        assert_eq!(q.mean(replayed), Some(10.0), "mean replay length per restore");
    }

    #[test]
    fn control_ticks_scope_by_watermark_and_job() {
        let tick = |t: f64, job: u32, error: f64| crate::ControlTick {
            t,
            job: JobId::new(job),
            setpoint: 5.0,
            measured: 5.0 + error,
            error,
            signal: error * 1.2,
            priority: 2.0,
            workers: 4,
            pending: 3,
        };
        let store = EventStore::new();
        store.record_control(tick(0.0, 0, 1.0));
        let mark = store.next_seq();
        store.record_control(tick(1.0, 1, 2.0));
        store.record_control(tick(2.0, 1, -4.0));
        let run = store.query().control().since_seq(mark);
        assert_eq!(run.count(), 2);
        assert_eq!(run.events()[0].control_tick().unwrap().t, 1.0);
        assert_eq!(run.mean(|e| e.control_tick().map(|k| k.error.abs())), Some(3.0));
        assert_eq!(store.query().control().count(), 3);
        assert_eq!(store.query().control().job(JobId::new(0)).count(), 1);
        let events = store.query().control().events();
        assert_eq!(events[1].cause, None, "job 1 starts its own chain");
        assert_eq!(events[2].cause, Some(events[1].seq), "ticks chain per job");
    }

    #[test]
    fn p2_percentile_tracks_the_exact_one() {
        let store = EventStore::new();
        for i in 0..500u32 {
            store.record_task(&ev(i, 1, f64::from(i), TaskPhase::Dispatched, Some(0)));
        }
        let extract = |e: &Event| e.timeline_event().map(|t| t.at);
        let exact = store.query().tasks().percentile(0.9, extract).unwrap();
        let p2 = store.query().tasks().p2_percentile(0.9, extract).unwrap();
        assert!((exact - p2).abs() < 10.0, "exact {exact} vs p2 {p2}");
    }
}
