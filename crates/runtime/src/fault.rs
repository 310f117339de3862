//! The unified fault model shared by both execution backends.
//!
//! The paper's substrate is opportunistic HTCondor desktops ("typically
//! idle 90% of the day", §IV-A1): preemption and failed attempts are the
//! *normal* operating regime, not an edge case. This module centralizes
//! how those failure modes are described, injected and survived:
//!
//! - [`FaultKind`] — the two injected fault classes: transient task
//!   failure and worker crash (evictions are scheduled on the engines);
//! - [`FaultPlan`] — a seeded, deterministic fault schedule: every
//!   `(task, attempt)` pair hashes to the same injection decision on
//!   every run, so experiments with faults stay byte-for-byte
//!   reproducible;
//! - [`IngestFault`] — the *data-path* fault classes (dropped, duplicated,
//!   reordered and corrupted reports), decided per report sequence number
//!   by the same plan so chaos schedules are equally reproducible;
//! - [`RetryPolicy`] — per-task attempt caps with exponential backoff and
//!   deterministic jitter;
//! - [`FaultStats`] — failed-attempt accounting that reconciles exactly:
//!   `attempts = successes + failures`.
//!
//! Both the discrete-event backend ([`crate::DesEngine`]) and the
//! OS-thread backend ([`crate::ThreadedEngine`]) consume these types, so
//! a fault schedule exercised in simulation describes the same workload
//! on real threads.

use crate::{JobId, TaskId};
use sstd_stats::mix64;
use sstd_types::error::ConfigError;

/// Maps a hash to a unit-interval float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The failure modes a task attempt can suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The attempt fails partway through (bad input shard, OOM kill,
    /// flaky filesystem): the task survives and is retried.
    Transient,
    /// The executing worker dies mid-attempt (HTCondor preemption, node
    /// crash): the task is re-queued and the worker is lost (and, in the
    /// DES, respawns after a restart delay).
    WorkerCrash,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transient => write!(f, "transient"),
            Self::WorkerCrash => write!(f, "worker-crash"),
        }
    }
}

/// The faults a streamed report can suffer on the ingest data path.
///
/// Truth-discovery outcomes are sensitive to input perturbations, so
/// dropped/duplicated/reordered reports are an explicitly tested fault
/// class rather than an accident of transport. Decisions are made per
/// report *sequence number* by [`FaultPlan::decide_ingest`], so a chaos
/// schedule is a pure function of the plan — the recovery differential
/// suite relies on that to replay the same perturbed stream twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IngestFault {
    /// The report is silently lost in transit.
    Drop,
    /// The report is delivered twice (at-least-once transport).
    Duplicate,
    /// The report is delayed past up to `depth` later reports — bounded
    /// out-of-order delivery.
    Reorder {
        /// How many later reports overtake this one (at least 1).
        depth: u32,
    },
    /// The report's payload is damaged in transit (its stance flips or
    /// its scores are zeroed, at the injector's discretion); consumers
    /// detect this via an integrity check and must reject the record.
    Corrupt,
}

impl std::fmt::Display for IngestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Drop => write!(f, "drop"),
            Self::Duplicate => write!(f, "duplicate"),
            Self::Reorder { depth } => write!(f, "reorder(depth={depth})"),
            Self::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// Fraction of the nominal duration at which a transient fault fires.
pub(crate) const FAIL_POINT: f64 = 0.5;

/// A deterministic, seeded fault schedule.
///
/// Every `(task, attempt)` pair is hashed against the seed to decide
/// whether — and how — that attempt faults. Two runs with the same plan
/// and workload make identical decisions, regardless of worker count or
/// scheduling order, which keeps fault experiments reproducible.
///
/// Set the fields over [`Default`] (every rate zero); the engines'
/// `set_fault_plan` and `sstd_core::chaos_stream` check the plan with
/// [`validate`](Self::validate) and panic on an invalid one.
///
/// # Examples
///
/// ```
/// use sstd_runtime::{FaultPlan, TaskId};
///
/// let plan = FaultPlan { seed: 42, transient_rate: 0.2, ..FaultPlan::default() };
/// plan.validate().expect("a valid plan");
/// // The decision for a given attempt never changes between calls.
/// assert_eq!(plan.decide(TaskId::new(3), 0), plan.decide(TaskId::new(3), 0));
/// // About 20% of attempts fault.
/// let faults = (0..1000u32)
///     .filter(|&i| plan.decide(TaskId::new(i), 0).is_some())
///     .count();
/// assert!((150..=250).contains(&faults), "got {faults}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Per-attempt transient failure probability.
    pub transient_rate: f64,
    /// Per-attempt worker crash probability.
    pub crash_rate: f64,
    /// Virtual delay before a crashed worker rejoins the pool (DES;
    /// non-negative). The HTCondor analogue: an evicted slot comes back
    /// once its owner goes idle again.
    pub worker_restart_delay: f64,
    /// Per-report probability that an ingested report is dropped.
    pub ingest_drop_rate: f64,
    /// Per-report probability that an ingested report is delivered twice.
    pub ingest_duplicate_rate: f64,
    /// Per-report probability that an ingested report is reordered.
    pub ingest_reorder_rate: f64,
    /// Most later reports that may overtake a reordered one (at least 1).
    pub ingest_reorder_depth: u32,
    /// Per-report probability that an ingested report arrives with a
    /// damaged payload.
    pub ingest_corrupt_rate: f64,
}

impl Default for FaultPlan {
    /// Seed 0, every rate zero, crashed workers back after 1.0 and
    /// reorders at most 4 deep.
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            crash_rate: 0.0,
            worker_restart_delay: 1.0,
            ingest_drop_rate: 0.0,
            ingest_duplicate_rate: 0.0,
            ingest_reorder_rate: 0.0,
            ingest_reorder_depth: 4,
            ingest_corrupt_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// Validates the plan: every rate in `[0, 1]`, the task rates and the
    /// ingest rates each summing to at most 1, `worker_restart_delay`
    /// finite and non-negative and `ingest_reorder_depth >= 1`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let task = [("transient_rate", self.transient_rate), ("crash_rate", self.crash_rate)];
        let ingest = [
            ("ingest_drop_rate", self.ingest_drop_rate),
            ("ingest_duplicate_rate", self.ingest_duplicate_rate),
            ("ingest_reorder_rate", self.ingest_reorder_rate),
            ("ingest_corrupt_rate", self.ingest_corrupt_rate),
        ];
        // A sum past 1 names the rate that pushed it there.
        for (rates, sum_rule) in [
            (&task[..], "combined fault rates must not exceed 1"),
            (&ingest[..], "combined ingest fault rates must not exceed 1"),
        ] {
            let mut total = 0.0;
            for &(field, rate) in rates {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ConfigError::new(field, "rate must be in [0, 1]"));
                }
                total += rate;
                if total > 1.0 + 1e-12 {
                    return Err(ConfigError::new(field, sum_rule));
                }
            }
        }
        if !(self.worker_restart_delay.is_finite() && self.worker_restart_delay >= 0.0) {
            return Err(ConfigError::new(
                "worker_restart_delay",
                "restart delay must be non-negative",
            ));
        }
        if self.ingest_reorder_depth < 1 {
            return Err(ConfigError::new(
                "ingest_reorder_depth",
                "reorder depth must be at least 1",
            ));
        }
        Ok(())
    }

    /// The injection decision for one attempt of one task — a pure
    /// function of `(seed, task, attempt)`.
    #[must_use]
    pub fn decide(&self, task: TaskId, attempt: u32) -> Option<FaultKind> {
        let total = self.transient_rate + self.crash_rate;
        if total <= 0.0 {
            return None;
        }
        let h = mix64(
            self.seed
                ^ (task.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ u64::from(attempt).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        let u = unit(h);
        if u < self.transient_rate {
            Some(FaultKind::Transient)
        } else if u < total {
            Some(FaultKind::WorkerCrash)
        } else {
            None
        }
    }

    /// The data-path injection decision for the report with sequence
    /// number `seq` — a pure function of `(seed, seq)`, hashed in a
    /// domain separate from [`decide`](Self::decide) so task faults and
    /// ingest faults draw independently.
    #[must_use]
    pub fn decide_ingest(&self, seq: u64) -> Option<IngestFault> {
        let total = self.ingest_drop_rate
            + self.ingest_duplicate_rate
            + self.ingest_reorder_rate
            + self.ingest_corrupt_rate;
        if total <= 0.0 {
            return None;
        }
        let h = mix64(self.seed ^ 0x16E5_7DA7_A9A7_0D1E ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let u = unit(h);
        let mut edge = self.ingest_drop_rate;
        if u < edge {
            return Some(IngestFault::Drop);
        }
        edge += self.ingest_duplicate_rate;
        if u < edge {
            return Some(IngestFault::Duplicate);
        }
        edge += self.ingest_reorder_rate;
        if u < edge {
            // Depth drawn from a second mix of the same hash so it stays a
            // pure function of (seed, seq).
            let depth = 1 + (mix64(h) % u64::from(self.ingest_reorder_depth)) as u32;
            return Some(IngestFault::Reorder { depth });
        }
        edge += self.ingest_corrupt_rate;
        if u < edge {
            return Some(IngestFault::Corrupt);
        }
        None
    }
}

/// Retry semantics for faulted task attempts.
///
/// Transient failures are retried with exponential backoff (plus a
/// deterministic jitter so synchronized failures do not re-collide) up to
/// `max_attempts` total attempts; a task that exhausts its attempts is
/// recorded as failed rather than retried forever. Worker-crash re-queues
/// do not count against the cap — losing a machine is not the task's
/// fault — but are still bounded (at `50 × max_attempts`) so a
/// pathological schedule cannot loop unboundedly.
///
/// # Examples
///
/// ```
/// use sstd_runtime::RetryPolicy;
///
/// let p = RetryPolicy::default();
/// // Backoff grows geometrically with the attempt number.
/// assert!(p.backoff(2, 7) > p.backoff(1, 7));
/// // Jitter is deterministic: same inputs, same delay.
/// assert_eq!(p.backoff(1, 7), p.backoff(1, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum total attempts per task (first run included).
    pub max_attempts: u32,
    /// Base backoff delay before the first retry (virtual seconds in the
    /// DES; real seconds in the threaded backend).
    pub backoff_base: f64,
    /// Multiplier applied per additional attempt.
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            backoff_base: 0.05,
            backoff_multiplier: 2.0,
            backoff_cap: 2.0,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy's invariants: `max_attempts >= 1`, delays
    /// finite and non-negative, `backoff_multiplier >= 1` and
    /// `jitter ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts < 1 {
            return Err(ConfigError::new("max_attempts", "need at least one attempt"));
        }
        if !(self.backoff_base.is_finite() && self.backoff_base >= 0.0) {
            return Err(ConfigError::new("backoff_base", "backoff base must be non-negative"));
        }
        if !(self.backoff_multiplier.is_finite() && self.backoff_multiplier >= 1.0) {
            return Err(ConfigError::new(
                "backoff_multiplier",
                "backoff multiplier must be at least 1",
            ));
        }
        if !(self.backoff_cap.is_finite() && self.backoff_cap >= 0.0) {
            return Err(ConfigError::new("backoff_cap", "backoff cap must be non-negative"));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(ConfigError::new("jitter", "jitter must be in [0, 1]"));
        }
        Ok(())
    }

    /// The backoff delay before retry number `attempt` (1-based: the
    /// first retry passes `1`), jittered deterministically by `salt`.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> f64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.backoff_base * self.backoff_multiplier.powi(exp as i32);
        let capped = raw.min(self.backoff_cap);
        let h = mix64(salt ^ u64::from(attempt).wrapping_mul(0x2545_F491_4F6C_DD1D));
        capped * (1.0 + self.jitter * unit(h))
    }

    /// The hard ceiling on total attempts including crash re-queues —
    /// generous enough never to matter in practice, but it guarantees
    /// termination under adversarial fault schedules.
    #[must_use]
    pub fn hard_attempt_cap(&self) -> u32 {
        self.max_attempts.saturating_mul(50).max(50)
    }
}

/// Failed-attempt accounting. Every *started* attempt terminates exactly
/// one way — success or failure (transient fault or worker loss) — so the
/// books always reconcile: `attempts = successes + failures()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Task attempts started.
    pub attempts: u64,
    /// Attempts that completed and were recorded.
    pub successes: u64,
    /// Attempts that suffered a transient failure (injected or a caught
    /// panic in the threaded backend).
    pub transient_failures: u64,
    /// Attempts lost to a worker crash or eviction.
    pub crash_failures: u64,
    /// Panics caught in the threaded backend (a subset of
    /// `transient_failures`).
    pub panics: u64,
    /// Tasks dropped after exhausting their retry budget.
    pub exhausted_tasks: u64,
    /// Total time burned in failed attempts (virtual seconds
    /// in the DES; real seconds in the threaded backend).
    pub wasted_time: f64,
}

impl FaultStats {
    /// Attempts that ended in a failure (transient or worker loss).
    #[must_use]
    pub const fn failures(&self) -> u64 {
        self.transient_failures + self.crash_failures
    }

    /// Whether the books balance: every started attempt is accounted for
    /// as exactly one of success or failure.
    #[must_use]
    pub const fn reconciles(&self) -> bool {
        self.attempts == self.successes + self.failures()
    }

    /// Fraction of attempts lost to faults (`0` with no attempts) — the
    /// lost-capacity signal the DTM feeds into its WCET predictions.
    #[must_use]
    pub fn fault_ratio(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.failures() as f64 / self.attempts as f64
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attempts={} ok={} fail={} exhausted={} wasted={:.3}",
            self.attempts,
            self.successes,
            self.failures(),
            self.exhausted_tasks,
            self.wasted_time
        )
    }
}

/// A task that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTask {
    /// The task's identity.
    pub task: TaskId,
    /// Its owning job.
    pub job: JobId,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// Human-readable cause of the final failure.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan =
            FaultPlan { seed: 7, transient_rate: 0.1, crash_rate: 0.05, ..FaultPlan::default() };
        let mut counts = [0usize; 3];
        for i in 0..10_000u32 {
            let d = plan.decide(TaskId::new(i), 0);
            assert_eq!(d, plan.decide(TaskId::new(i), 0), "decision must be stable");
            match d {
                Some(FaultKind::Transient) => counts[0] += 1,
                Some(FaultKind::WorkerCrash) => counts[1] += 1,
                None => counts[2] += 1,
            }
        }
        assert!((800..=1200).contains(&counts[0]), "transient ~10%: {counts:?}");
        assert!((350..=650).contains(&counts[1]), "crash ~5%: {counts:?}");
    }

    #[test]
    fn attempts_decide_independently() {
        let plan = FaultPlan { seed: 3, transient_rate: 0.5, ..FaultPlan::default() };
        // Across many tasks, attempt 0 and attempt 1 decisions differ
        // somewhere (independent hashes).
        let differs =
            (0..100u32).any(|i| plan.decide(TaskId::new(i), 0) != plan.decide(TaskId::new(i), 1));
        assert!(differs);
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan { seed: 1, ..FaultPlan::default() };
        assert!((0..1000u32).all(|i| plan.decide(TaskId::new(i), 0).is_none()));
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = FaultPlan { seed: 1, transient_rate: 0.3, ..FaultPlan::default() };
        let b = FaultPlan { seed: 2, transient_rate: 0.3, ..FaultPlan::default() };
        let differs =
            (0..100u32).any(|i| a.decide(TaskId::new(i), 0) != b.decide(TaskId::new(i), 0));
        assert!(differs);
    }

    #[test]
    fn validate_names_the_offending_field() {
        FaultPlan::default().validate().expect("the default plan is valid");
        let base = FaultPlan::default();
        let cases = [
            (FaultPlan { transient_rate: -0.1, ..base }, "transient_rate"),
            (FaultPlan { crash_rate: 1.5, ..base }, "crash_rate"),
            (FaultPlan { crash_rate: f64::NAN, ..base }, "crash_rate"),
            (FaultPlan { worker_restart_delay: -1.0, ..base }, "worker_restart_delay"),
            (FaultPlan { ingest_drop_rate: -0.5, ..base }, "ingest_drop_rate"),
            (FaultPlan { ingest_duplicate_rate: 2.0, ..base }, "ingest_duplicate_rate"),
            (FaultPlan { ingest_reorder_rate: f64::INFINITY, ..base }, "ingest_reorder_rate"),
            (FaultPlan { ingest_reorder_depth: 0, ..base }, "ingest_reorder_depth"),
            (FaultPlan { ingest_corrupt_rate: -1e-9, ..base }, "ingest_corrupt_rate"),
            // Each combined rate names the rate that pushes it past 1.
            (FaultPlan { transient_rate: 0.7, crash_rate: 0.5, ..base }, "crash_rate"),
            (
                FaultPlan { ingest_drop_rate: 0.7, ingest_duplicate_rate: 0.5, ..base },
                "ingest_duplicate_rate",
            ),
        ];
        for (plan, field) in cases {
            assert_eq!(plan.validate().expect_err("invalid plan").field(), field, "{plan:?}");
        }
        let err = FaultPlan { transient_rate: 0.7, crash_rate: 0.5, ..base }.validate();
        assert!(err.expect_err("overfull").message().contains("combined fault rates"));
        let err =
            FaultPlan { ingest_reorder_rate: 0.6, ingest_corrupt_rate: 0.6, ..base }.validate();
        assert!(err.expect_err("overfull").message().contains("combined ingest fault rates"));
        // The seed is any u64, and the limits themselves are valid.
        let edge = FaultPlan {
            seed: u64::MAX,
            transient_rate: 1.0,
            worker_restart_delay: 0.0,
            ingest_corrupt_rate: 1.0,
            ingest_reorder_depth: 1,
            ..base
        };
        edge.validate().expect("limits are valid");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            backoff_base: 1.0,
            backoff_multiplier: 2.0,
            backoff_cap: 5.0,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert!((p.backoff(1, 0) - 1.0).abs() < 1e-12);
        assert!((p.backoff(2, 0) - 2.0).abs() < 1e-12);
        assert!((p.backoff(3, 0) - 4.0).abs() < 1e-12);
        assert!((p.backoff(4, 0) - 5.0).abs() < 1e-12, "capped");
        assert!((p.backoff(30, 0) - 5.0).abs() < 1e-12, "still capped");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy { backoff_base: 1.0, jitter: 0.5, ..RetryPolicy::default() };
        for salt in 0..50u64 {
            let d = p.backoff(1, salt);
            assert!((1.0..1.5 + 1e-12).contains(&d), "delay {d}");
            assert_eq!(d, p.backoff(1, salt));
        }
    }

    #[test]
    fn a_single_attempt_policy_keeps_the_hard_cap() {
        let p = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        p.validate().expect("a single attempt is a valid policy");
        assert!(p.hard_attempt_cap() >= 50);
    }

    #[test]
    fn zero_attempts_rejected() {
        let err = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() }
            .validate()
            .expect_err("zero attempts must be rejected");
        assert_eq!(err.field(), "max_attempts");
    }

    #[test]
    fn retry_policy_names_each_offending_field() {
        let base = RetryPolicy::default();
        let cases = [
            (RetryPolicy { backoff_base: -1.0, ..base }, "backoff_base"),
            (RetryPolicy { backoff_base: f64::NAN, ..base }, "backoff_base"),
            (RetryPolicy { backoff_multiplier: 0.5, ..base }, "backoff_multiplier"),
            (RetryPolicy { backoff_cap: f64::INFINITY, ..base }, "backoff_cap"),
            (RetryPolicy { jitter: 1.5, ..base }, "jitter"),
        ];
        for (policy, field) in cases {
            let err = policy.validate().expect_err("invalid policy");
            assert_eq!(err.field(), field);
        }
    }

    #[test]
    fn zero_backoff_cap_yields_zero_delays() {
        // backoff_cap = 0.0 is valid (retry immediately) and must clamp
        // every delay to exactly zero, jitter included.
        let p = RetryPolicy { backoff_cap: 0.0, jitter: 0.5, ..RetryPolicy::default() };
        p.validate().expect("zero cap is a valid policy");
        for attempt in 1..20u32 {
            assert_eq!(p.backoff(attempt, 99), 0.0, "attempt {attempt}");
        }
    }

    #[test]
    fn fault_ratio_is_zero_under_zero_attempts() {
        let s = FaultStats::default();
        assert_eq!(s.attempts, 0);
        assert_eq!(s.fault_ratio(), 0.0, "no attempts must not divide by zero");
        assert!(s.fault_ratio().is_finite());
    }

    #[test]
    fn ingest_decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan {
            seed: 11,
            ingest_drop_rate: 0.1,
            ingest_duplicate_rate: 0.1,
            ingest_reorder_rate: 0.1,
            ingest_reorder_depth: 4,
            ingest_corrupt_rate: 0.05,
            ..FaultPlan::default()
        };
        let mut counts = [0usize; 5];
        for seq in 0..10_000u64 {
            let d = plan.decide_ingest(seq);
            assert_eq!(d, plan.decide_ingest(seq), "decision must be stable");
            match d {
                Some(IngestFault::Drop) => counts[0] += 1,
                Some(IngestFault::Duplicate) => counts[1] += 1,
                Some(IngestFault::Reorder { depth }) => {
                    assert!((1..=4).contains(&depth), "depth {depth}");
                    counts[2] += 1;
                }
                Some(IngestFault::Corrupt) => counts[3] += 1,
                None => counts[4] += 1,
            }
        }
        assert!((800..=1200).contains(&counts[0]), "drop ~10%: {counts:?}");
        assert!((800..=1200).contains(&counts[1]), "duplicate ~10%: {counts:?}");
        assert!((800..=1200).contains(&counts[2]), "reorder ~10%: {counts:?}");
        assert!((350..=650).contains(&counts[3]), "corrupt ~5%: {counts:?}");
    }

    #[test]
    fn ingest_faults_are_independent_of_task_faults() {
        // Same seed, but task decisions and ingest decisions hash in
        // separate domains: enabling one leaves the other untouched.
        let tasks_only = FaultPlan { seed: 21, transient_rate: 0.3, ..FaultPlan::default() };
        let both = FaultPlan { ingest_drop_rate: 0.3, ..tasks_only };
        for i in 0..500u32 {
            assert_eq!(tasks_only.decide(TaskId::new(i), 0), both.decide(TaskId::new(i), 0));
        }
        assert!((0..500u64).all(|s| tasks_only.decide_ingest(s).is_none()));
    }

    #[test]
    fn zero_ingest_rates_never_fault() {
        let plan = FaultPlan { seed: 1, ..FaultPlan::default() };
        assert!((0..1000u64).all(|s| plan.decide_ingest(s).is_none()));
    }

    #[test]
    fn ingest_fault_display_formats() {
        assert_eq!(IngestFault::Drop.to_string(), "drop");
        assert_eq!(IngestFault::Duplicate.to_string(), "duplicate");
        assert_eq!(IngestFault::Reorder { depth: 3 }.to_string(), "reorder(depth=3)");
        assert_eq!(IngestFault::Corrupt.to_string(), "corrupt");
    }

    #[test]
    fn stats_reconcile() {
        let mut s = FaultStats::default();
        assert!(s.reconciles());
        s.attempts = 10;
        s.successes = 6;
        s.transient_failures = 2;
        s.crash_failures = 2;
        assert!(s.reconciles());
        assert_eq!(s.failures(), 4);
        assert!((s.fault_ratio() - 0.4).abs() < 1e-12);
        s.attempts = 11;
        assert!(!s.reconciles());
    }

    #[test]
    fn display_formats() {
        assert!(FaultStats::default().to_string().contains("attempts=0"));
        assert_eq!(FaultKind::Transient.to_string(), "transient");
        assert_eq!(FaultKind::WorkerCrash.to_string(), "worker-crash");
    }
}
