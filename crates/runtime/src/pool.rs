//! The task pool: deterministic priority-proportional scheduling.
//!
//! The paper defines job priority as `P_u = T_u / Σ T` and states that "a
//! higher priority job is more likely to be processed earlier than a low
//! priority job" (§IV-C4). We implement that share semantics with *stride
//! scheduling*: each job advances a pass value by `1/priority` per popped
//! task, and the pool always pops from the job with the smallest pass —
//! which serves jobs in exact proportion to their priorities without any
//! randomness (reproducible experiments).

use crate::{JobId, TaskId, TaskSpec};
use std::collections::{BTreeMap, VecDeque};

/// A priority-scheduled pool of pending tasks.
///
/// # Examples
///
/// ```
/// use sstd_runtime::{JobId, TaskPool, TaskSpec};
///
/// let mut pool = TaskPool::new();
/// for _ in 0..4 {
///     pool.submit(TaskSpec::new(JobId::new(0), 1.0));
///     pool.submit(TaskSpec::new(JobId::new(1), 1.0));
/// }
/// pool.set_priority(JobId::new(0), 3.0);
/// // Job 0 is served three times as often as job 1.
/// let (_, first) = pool.pop().unwrap();
/// assert_eq!(first.job(), JobId::new(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskPool {
    queues: BTreeMap<JobId, VecDeque<(TaskId, TaskSpec)>>,
    priorities: BTreeMap<JobId, f64>,
    passes: BTreeMap<JobId, f64>,
    next_task: u32,
    len: usize,
}

impl TaskPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending tasks.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool has no pending tasks.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending task count of one job.
    #[must_use]
    pub fn pending_of(&self, job: JobId) -> usize {
        self.queues.get(&job).map_or(0, VecDeque::len)
    }

    /// Submits a task, returning its id. Tasks of the same job are served
    /// FIFO relative to each other.
    pub fn submit(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId::new(self.next_task);
        self.next_task += 1;
        let was_idle = self.pending_of(spec.job()) == 0;
        self.queues.entry(spec.job()).or_default().push_back((id, spec));
        self.priorities.entry(spec.job()).or_insert(1.0);
        if was_idle {
            self.reactivate(spec.job());
        }
        self.len += 1;
        id
    }

    /// Re-queues an interrupted task under its *original* id, at the
    /// front of its job's queue (it is the oldest work of that job).
    ///
    /// Unlike [`submit`](Self::submit), re-queuing never resets or
    /// re-clamps the job's stride pass downward: the job already consumed
    /// a scheduling turn for this task when it was first popped, so
    /// restoring it must not hand the job extra turns that would starve
    /// other jobs — nor charge it twice.
    pub fn requeue(&mut self, id: TaskId, spec: TaskSpec) {
        let was_idle = self.pending_of(spec.job()) == 0;
        self.queues.entry(spec.job()).or_default().push_front((id, spec));
        self.priorities.entry(spec.job()).or_insert(1.0);
        if was_idle {
            self.reactivate(spec.job());
        }
        self.len += 1;
    }

    /// Stride-scheduling fix-up when a job goes idle → active: clamp its
    /// pass *up* to the smallest pass among the other active jobs. A job
    /// returning from idleness (or arriving late) would otherwise carry a
    /// stale low pass and monopolize the pool until it "caught up",
    /// starving every incumbent. Passes are never lowered, so a job can
    /// never gain turns from cycling idle.
    fn reactivate(&mut self, job: JobId) {
        let min_active = self
            .queues
            .iter()
            .filter(|(j, q)| **j != job && !q.is_empty())
            .map(|(j, _)| self.passes.get(j).copied().unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        if min_active.is_finite() {
            let pass = self.passes.entry(job).or_insert(0.0);
            if *pass < min_active {
                *pass = min_active;
            }
        }
    }

    /// Sets a job's scheduling priority (the Local Control Knob).
    ///
    /// # Panics
    ///
    /// Panics unless `priority` is finite and positive.
    pub fn set_priority(&mut self, job: JobId, priority: f64) {
        assert!(priority.is_finite() && priority > 0.0, "priority must be positive");
        self.priorities.insert(job, priority);
    }

    /// A job's current priority (1.0 if never set).
    #[must_use]
    pub fn priority(&self, job: JobId) -> f64 {
        self.priorities.get(&job).copied().unwrap_or(1.0)
    }

    /// Priority *share* `P_u = prio_u / Σ prio` over jobs with pending
    /// tasks (the quantity in the paper's WCET formula).
    #[must_use]
    pub fn priority_share(&self, job: JobId) -> f64 {
        let total: f64 =
            self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(j, _)| self.priority(*j)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        if self.pending_of(job) == 0 {
            0.0
        } else {
            self.priority(job) / total
        }
    }

    /// The job stride scheduling serves next: the non-empty job with the
    /// smallest pass value; ties break toward the smaller job id
    /// (`BTreeMap` order).
    fn next_job(&self) -> Option<JobId> {
        self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&j, _)| j).min_by(|&a, &b| {
            let pa = self.passes.get(&a).copied().unwrap_or(0.0);
            let pb = self.passes.get(&b).copied().unwrap_or(0.0);
            pa.partial_cmp(&pb).unwrap().then(a.cmp(&b))
        })
    }

    /// The task [`pop`](Self::pop) would return, without taking it.
    pub(crate) fn peek(&self) -> Option<&(TaskId, TaskSpec)> {
        self.queues.get(&self.next_job()?)?.front()
    }

    /// Pops the next task by stride scheduling.
    pub fn pop(&mut self) -> Option<(TaskId, TaskSpec)> {
        let job = self.next_job()?;
        let entry = self.queues.get_mut(&job)?.pop_front()?;
        *self.passes.entry(job).or_insert(0.0) += 1.0 / self.priority(job);
        self.len -= 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(pool: &mut TaskPool, job: u32, n: usize) {
        for _ in 0..n {
            pool.submit(TaskSpec::new(JobId::new(job), 1.0));
        }
    }

    #[test]
    fn fifo_within_a_job() {
        let mut pool = TaskPool::new();
        let a = pool.submit(TaskSpec::new(JobId::new(0), 1.0));
        let b = pool.submit(TaskSpec::new(JobId::new(0), 2.0));
        assert_eq!(pool.pop().unwrap().0, a);
        assert_eq!(pool.pop().unwrap().0, b);
        assert!(pool.pop().is_none());
    }

    #[test]
    fn equal_priorities_interleave() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 2);
        fill(&mut pool, 1, 2);
        let order: Vec<usize> =
            std::iter::from_fn(|| pool.pop()).map(|(_, t)| t.job().index()).collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn priority_three_to_one_share() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 30);
        fill(&mut pool, 1, 30);
        pool.set_priority(JobId::new(0), 3.0);
        let first_20: Vec<usize> = (0..20).map(|_| pool.pop().unwrap().1.job().index()).collect();
        let job0_count = first_20.iter().filter(|&&j| j == 0).count();
        assert!(
            (14..=16).contains(&job0_count),
            "expected ~15 of 20 pops for the 3x job, got {job0_count}"
        );
    }

    #[test]
    fn priority_share_sums_to_one() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 1);
        fill(&mut pool, 1, 1);
        fill(&mut pool, 2, 1);
        pool.set_priority(JobId::new(1), 2.0);
        let total: f64 = (0..3).map(|j| pool.priority_share(JobId::new(j))).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(pool.priority_share(JobId::new(9)), 0.0);
    }

    #[test]
    fn exhausted_jobs_release_their_share() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 1);
        fill(&mut pool, 1, 1);
        let _ = pool.pop();
        let _ = pool.pop();
        assert!(pool.is_empty());
        assert_eq!(pool.priority_share(JobId::new(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "priority must be positive")]
    fn zero_priority_rejected() {
        let mut pool = TaskPool::new();
        pool.set_priority(JobId::new(0), 0.0);
    }

    #[test]
    fn requeue_restores_task_under_original_id() {
        let mut pool = TaskPool::new();
        let a = pool.submit(TaskSpec::new(JobId::new(0), 1.0));
        let b = pool.submit(TaskSpec::new(JobId::new(0), 2.0));
        let (id, spec) = pool.pop().unwrap();
        assert_eq!(id, a);
        pool.requeue(id, spec);
        // The re-queued task comes back first (it is the oldest), with
        // the same id.
        assert_eq!(pool.pop().unwrap().0, a);
        assert_eq!(pool.pop().unwrap().0, b);
    }

    #[test]
    fn requeue_does_not_reset_stride_pass() {
        // Job 0 and job 1 interleave; an evict-requeue of job 0's task
        // must not grant job 0 extra turns (pass is retained, the requeue
        // costs a fresh pop like any task).
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 4);
        fill(&mut pool, 1, 4);
        let (id, spec) = pool.pop().unwrap(); // job 0, pass -> 1.0
        assert_eq!(spec.job(), JobId::new(0));
        pool.requeue(id, spec);
        // Next pop is job 1 (pass 0.0 < job 0's 1.0): the requeue did not
        // reset job 0's pass and let it starve job 1.
        assert_eq!(pool.pop().unwrap().1.job(), JobId::new(1));
        // ...and then job 0's re-queued task (original id) resumes.
        assert_eq!(pool.pop().unwrap().0, id);
    }

    #[test]
    fn late_job_cannot_monopolize_after_incumbents_advance() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 10);
        for _ in 0..8 {
            let _ = pool.pop(); // job 0's pass advances to 8.0
        }
        fill(&mut pool, 1, 4); // late arrival: clamped to job 0's pass
        let next4: Vec<usize> = (0..4).map(|_| pool.pop().unwrap().1.job().index()).collect();
        // Without the clamp job 1 would win all four pops (pass 0 vs 8);
        // with it, the jobs interleave fairly from here on.
        assert_eq!(next4.iter().filter(|&&j| j == 1).count(), 2, "order: {next4:?}");
    }

    #[test]
    fn reactivated_job_resumes_fairly() {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 1);
        fill(&mut pool, 1, 6);
        let _ = pool.pop(); // job 0 (tie toward lower id), pass -> 1
        let _ = pool.pop(); // job 1, pass -> 1
        let _ = pool.pop(); // job 1 (only active), pass -> 2
                            // Job 0 returns after idling; its pass (1) is clamped up to job
                            // 1's (2), so it does not owe-collect the turns it sat out.
        fill(&mut pool, 0, 4);
        let next2: Vec<usize> = (0..2).map(|_| pool.pop().unwrap().1.job().index()).collect();
        assert!(next2.contains(&0) && next2.contains(&1), "interleave: {next2:?}");
    }
}
