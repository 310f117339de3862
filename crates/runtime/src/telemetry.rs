//! Span-style task-timeline telemetry shared by both execution backends.
//!
//! The paper evaluates SSTD by *measuring* it — task turnaround on the
//! Work Queue pool, retry churn under faults, control actuation per tick —
//! so the runtime exposes a [`Recorder`] hook: a sink that the lifecycle
//! state machine both engines drive feeds with one [`TimelineEvent`] per
//! step of every task attempt (queued → dispatched → failed/evicted →
//! exhausted/completed). Because fault decisions are pure functions of
//! `(seed, task, attempt)`, a DES run and a threaded run of the same
//! seeded [`FaultPlan`](crate::FaultPlan) emit *structurally identical*
//! per-task event sequences — the property `sstd-obs` exploits to diff
//! the two substrates.
//!
//! Recording is strictly opt-in: the lifecycle state machine holds an
//! `Option<SharedRecorder>` defaulting to `None`, so the disabled path
//! costs one branch per event site.

use crate::{JobId, TaskId, WorkerId};
use std::sync::Arc;

/// Why a task attempt was lost, unified across backends.
///
/// This is deliberately finer-grained than
/// [`FaultKind`](crate::FaultKind): it separates evictions (the pool
/// reclaiming a machine) from plan-injected faults, so exported timelines
/// distinguish "the plan killed it" from "the pool took its worker".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LossCause {
    /// A transient failure: an injected fault or a caught panic.
    Transient,
    /// The worker crashed underneath the attempt (fault plan).
    Crash,
    /// The worker was evicted (HTCondor preemption) mid-attempt.
    Evicted,
}

impl LossCause {
    /// A short stable label for exporters.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Transient => "transient",
            Self::Crash => "crash",
            Self::Evicted => "evicted",
        }
    }
}

/// One step in a task's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskPhase {
    /// The task entered the queue (emitted once, at submission).
    Queued,
    /// An attempt started executing on a worker.
    Dispatched,
    /// An attempt was lost; the task may still retry.
    Failed(LossCause),
    /// The task exhausted its retry budget and was dropped.
    Exhausted,
    /// The task completed.
    Completed,
}

impl TaskPhase {
    /// A short stable label for exporters (`"queued"`, `"dispatched"`,
    /// `"failed:transient"`, …).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Dispatched => "dispatched",
            Self::Failed(LossCause::Transient) => "failed:transient",
            Self::Failed(LossCause::Crash) => "failed:crash",
            Self::Failed(LossCause::Evicted) => "failed:evicted",
            Self::Exhausted => "exhausted",
            Self::Completed => "completed",
        }
    }

    /// Whether this phase resolves the task for good: no further events
    /// for the task follow a terminal phase.
    #[must_use]
    pub const fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Exhausted)
    }

    /// Whether this phase is a lost attempt (any [`LossCause`]).
    #[must_use]
    pub const fn is_failure(self) -> bool {
        matches!(self, Self::Failed(_))
    }
}

/// One timeline event: a task attempt crossing a lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// The task.
    pub task: TaskId,
    /// Its owning job.
    pub job: JobId,
    /// Zero-based attempt number (0 for [`TaskPhase::Queued`]; total
    /// attempts consumed for [`TaskPhase::Exhausted`]).
    pub attempt: u32,
    /// The worker involved, when one is (dispatch, failure, completion).
    pub worker: Option<WorkerId>,
    /// Backend-native timestamp: virtual seconds in the DES, engine
    /// seconds (scaled wall clock) in the threaded engine.
    pub at: f64,
    /// What happened.
    pub phase: TaskPhase,
}

/// A sink for [`TimelineEvent`]s.
///
/// Implementations must be cheap and non-blocking where possible: the
/// threaded engine records from worker threads while holding its state
/// lock. `sstd-obs` provides the standard sink — the unified
/// `EventStore` trace log implements this trait directly. The trait is
/// the dependency inversion that lets it: `sstd-obs` depends on this
/// crate, so the runtime cannot name `EventStore` itself.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Accepts one event. Called in backend event order.
    fn record(&self, event: &TimelineEvent);
}

/// A shareable recorder handle, as installed via
/// [`ExecutionBackend::set_recorder`](crate::ExecutionBackend::set_recorder).
pub type SharedRecorder = Arc<dyn Recorder>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let phases = [
            TaskPhase::Queued,
            TaskPhase::Dispatched,
            TaskPhase::Failed(LossCause::Transient),
            TaskPhase::Failed(LossCause::Crash),
            TaskPhase::Failed(LossCause::Evicted),
            TaskPhase::Exhausted,
            TaskPhase::Completed,
        ];
        let labels: std::collections::BTreeSet<&str> = phases.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), phases.len(), "labels must be unique");
        assert!(labels.contains("failed:evicted"));
    }

    #[test]
    fn terminal_and_failure_predicates_partition_the_phases() {
        assert!(TaskPhase::Completed.is_terminal());
        assert!(TaskPhase::Exhausted.is_terminal());
        assert!(!TaskPhase::Dispatched.is_terminal());
        assert!(TaskPhase::Failed(LossCause::Crash).is_failure());
        assert!(!TaskPhase::Failed(LossCause::Crash).is_terminal());
        assert!(!TaskPhase::Completed.is_failure());
    }
}
