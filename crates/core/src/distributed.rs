//! Claims-as-tasks: running SSTD's per-claim truth-discovery jobs on a
//! distributed execution backend (paper §III-E + §IV).
//!
//! SSTD's scalability argument is that truth discovery **partitions by
//! claim**: each claim's EM fit + Viterbi decode depends only on that
//! claim's own report sub-stream. This module turns that argument into
//! running code. [`run_distributed`] takes the trace's claim-major index
//! ([`Trace::claim_index`]), submits one real task per claim on any
//! [`JobBackend`] — the task's payload performs the actual EM + Viterbi
//! fit on that claim's slice of the index — and reassembles the per-claim
//! label timelines into [`TruthEstimates`]. Because the decomposition is
//! exact, the result is identical to the batch [`SstdEngine::run`],
//! whichever backend executed the tasks and whatever faults the backend
//! survived along the way.

use crate::engine::claim_ids;
use crate::{SstdEngine, TruthEstimates};
use sstd_runtime::{ExecutionReport, FailedTask, JobBackend, JobId, TaskSpec};
use sstd_types::{ClaimId, SstdError, Trace, TruthLabel};
use std::sync::Arc;

/// The result of one per-claim truth-discovery task: the claim and its
/// decoded label timeline.
pub type ClaimFit = (ClaimId, Vec<TruthLabel>);

/// A distributed truth-discovery run: the reassembled estimates plus the
/// backend's execution report (makespan, completions, fault accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedRun {
    /// Per-claim truth estimates, identical to the batch engine's.
    pub estimates: TruthEstimates,
    /// What the backend did to produce them.
    pub report: ExecutionReport,
}

/// Why a distributed run could not produce complete estimates.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributedError {
    /// The backend dropped tasks after exhausting their retry budgets.
    TasksFailed(Vec<FailedTask>),
    /// Claims whose fit never arrived (a backend produced fewer results
    /// than submitted tasks).
    MissingClaims(Vec<ClaimId>),
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TasksFailed(failed) => {
                write!(f, "{} truth-discovery task(s) exhausted their retries", failed.len())
            }
            Self::MissingClaims(claims) => {
                write!(f, "{} claim(s) received no truth estimate", claims.len())
            }
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<DistributedError> for SstdError {
    fn from(err: DistributedError) -> Self {
        Self::distributed(err)
    }
}

/// Runs truth discovery over `trace` as one distributed TD job on
/// `backend`: one task per claim, each task's payload an EM + Viterbi fit
/// of that claim's report sub-stream. Task data sizes are the per-claim
/// report counts, so the backend's cost model sees the real skew of the
/// workload. Results are reassembled into [`TruthEstimates`] that match
/// [`SstdEngine::run`] exactly.
///
/// Each task body is [`SstdEngine::run_claim`]'s: it fits the claim's
/// slice of the trace's claim-major index — built once, by the first job
/// or engine run over this trace, and shared by every task — and keeps one
/// [`ClaimWorkspace`](crate::ClaimWorkspace) per worker thread: however
/// many claims a backend schedules onto a worker, that worker allocates
/// its numeric scratch (EM tables, Viterbi lattice, ACS buffers) once.
///
/// The backend should be freshly configured (fault plan, retry policy,
/// workers) and carry no undrained results from a previous run.
///
/// # Errors
///
/// [`SstdError::Backend`] if the backend refuses a submission;
/// [`SstdError::Distributed`] wrapping [`DistributedError::TasksFailed`]
/// if the backend exhausted any task's retry budget, or
/// [`DistributedError::MissingClaims`] if reassembly came up short without
/// a reported failure. Inspect the distributed cases with
/// [`SstdError::distributed_as`].
pub fn run_distributed<B>(
    engine: &SstdEngine,
    trace: &Trace,
    backend: &mut B,
    job: JobId,
) -> Result<DistributedRun, SstdError>
where
    B: JobBackend<ClaimFit> + ?Sized,
{
    fit_missing(engine, trace, backend, job, TruthEstimates::new(trace.timeline().num_intervals()))
}

/// Resumes a partially-completed distributed run: claims already present
/// in `prior` are kept as-is, and only the missing claims are submitted
/// as tasks — the same per-claim slice fits as [`run_distributed`], which
/// is this with an empty `prior`; with a complete one it submits nothing.
///
/// This is the distributed half of crash recovery (DESIGN.md §13): a
/// coordinator that persisted the estimates it had reassembled before
/// dying re-runs only the claims whose fits were lost. Because each
/// per-claim fit is deterministic, the merged result is identical to a
/// from-scratch run.
///
/// # Errors
///
/// As [`run_distributed`]: backend refusals surface as
/// [`SstdError::Backend`], exhausted or missing tasks as
/// [`SstdError::Distributed`].
pub fn resume_distributed<B>(
    engine: &SstdEngine,
    trace: &Trace,
    backend: &mut B,
    job: JobId,
    prior: &TruthEstimates,
) -> Result<DistributedRun, SstdError>
where
    B: JobBackend<ClaimFit> + ?Sized,
{
    fit_missing(engine, trace, backend, job, prior.clone())
}

/// The one job body: a task per claim that `estimates` lacks, their fits
/// merged into it.
fn fit_missing<B>(
    engine: &SstdEngine,
    trace: &Trace,
    backend: &mut B,
    job: JobId,
    mut estimates: TruthEstimates,
) -> Result<DistributedRun, SstdError>
where
    B: JobBackend<ClaimFit> + ?Sized,
{
    let index = trace.claim_index();
    let shared = Arc::new((engine.clone(), trace.timeline().clone(), Arc::clone(index)));
    for claim in claim_ids(trace).filter(|claim| estimates.labels(*claim).is_none()) {
        let spec = TaskSpec::new(job, index.reports_for_claim(claim).len() as f64);
        let shared = Arc::clone(&shared);
        backend.submit_job(
            spec,
            Arc::new(move || {
                let (engine, timeline, index) = &*shared;
                (claim, engine.fit_claim(timeline, index.reports_for_claim(claim)))
            }),
        )?;
    }
    let report = backend.run_to_completion();
    let failed = backend.failed();
    if !failed.is_empty() {
        return Err(DistributedError::TasksFailed(failed).into());
    }
    for (_, (claim, labels)) in backend.drain_results() {
        estimates.insert(claim, labels);
    }
    if estimates.num_claims() != trace.num_claims() {
        let missing: Vec<ClaimId> =
            claim_ids(trace).filter(|c| estimates.labels(*c).is_none()).collect();
        return Err(DistributedError::MissingClaims(missing).into());
    }
    Ok(DistributedRun { estimates, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SstdConfig;
    use sstd_runtime::{
        Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, RetryPolicy,
        ThreadedEngine,
    };
    use sstd_types::{GroundTruth, Report, SourceId, Timeline, Timestamp};

    /// A small multi-claim trace with per-claim report skew.
    fn trace() -> Trace {
        let intervals = 8usize;
        let timeline = Timeline::new(Timestamp::from_secs(80), intervals);
        let mut gt = GroundTruth::new(intervals);
        let mut reports = Vec::new();
        for c in 0..5u32 {
            let truth: Vec<TruthLabel> = (0..intervals)
                .map(|i| {
                    if (i as u32 + c).is_multiple_of(3) {
                        TruthLabel::False
                    } else {
                        TruthLabel::True
                    }
                })
                .collect();
            gt.insert(ClaimId::new(c), truth.clone());
            // Claim c gets c+1 honest sources reporting per interval.
            for (iv, label) in truth.iter().enumerate() {
                let t = Timestamp::from_secs(iv as u64 * 10 + 1);
                for s in 0..=c {
                    reports.push(Report::plain(
                        SourceId::new(s),
                        ClaimId::new(c),
                        t,
                        label.honest_attitude(),
                    ));
                }
            }
        }
        Trace::new("dist", reports, 5, 5, timeline, gt)
    }

    #[test]
    fn distributed_matches_batch_on_the_sim_backend() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let batch = engine.run(&trace);
        let mut backend: DesEngine<ClaimFit> =
            DesEngine::new(Cluster::homogeneous(3, 1.0), ExecutionModel::default(), 3);
        let run = run_distributed(&engine, &trace, &mut backend, JobId::new(0)).expect("all fit");
        assert_eq!(run.estimates, batch, "claim decomposition is exact");
        assert_eq!(run.report.completed.len(), 5, "one task per claim");
        assert!(run.report.makespan > 0.0);
    }

    #[test]
    fn distributed_matches_batch_on_real_threads() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let batch = engine.run(&trace);
        let mut backend: ThreadedEngine<ClaimFit> = ThreadedEngine::new(3);
        let run = run_distributed(&engine, &trace, &mut backend, JobId::new(0)).expect("all fit");
        assert_eq!(run.estimates, batch, "real threads produce identical estimates");
        assert_eq!(run.report.completed.len(), 5);
    }

    #[test]
    fn faults_delay_but_do_not_corrupt_estimates() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let batch = engine.run(&trace);
        let mut backend: DesEngine<ClaimFit> =
            DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
        backend.set_fault_plan(FaultPlan { seed: 5, transient_rate: 0.35, ..FaultPlan::default() });
        backend.set_retry_policy(RetryPolicy { max_attempts: 10, ..RetryPolicy::default() });
        let run =
            run_distributed(&engine, &trace, &mut backend, JobId::new(0)).expect("retries win");
        assert_eq!(run.estimates, batch, "faulted attempts never corrupt results");
        assert!(run.report.faults.transient_failures > 0, "{}", run.report.faults);
        assert!(run.report.faults.reconciles(), "{}", run.report.faults);
    }

    #[test]
    fn resume_fits_only_the_missing_claims() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let batch = engine.run(&trace);
        // A coordinator that died after reassembling claims 0 and 3.
        let mut prior = TruthEstimates::new(trace.timeline().num_intervals());
        for c in [0u32, 3] {
            prior.insert(ClaimId::new(c), batch.labels(ClaimId::new(c)).unwrap().to_vec());
        }
        let mut backend: ThreadedEngine<ClaimFit> = ThreadedEngine::new(2);
        let run = resume_distributed(&engine, &trace, &mut backend, JobId::new(1), &prior)
            .expect("remaining claims fit");
        assert_eq!(run.estimates, batch, "merged result matches a from-scratch run");
        assert_eq!(run.report.completed.len(), 3, "only the three missing claims ran");
    }

    #[test]
    fn resume_with_complete_prior_submits_nothing() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let batch = engine.run(&trace);
        let mut backend: DesEngine<ClaimFit> =
            DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
        let run = resume_distributed(&engine, &trace, &mut backend, JobId::new(2), &batch)
            .expect("nothing to do");
        assert_eq!(run.estimates, batch);
        assert!(run.report.completed.is_empty(), "no tasks were submitted");
    }

    #[test]
    fn exhausted_tasks_surface_as_errors() {
        let trace = trace();
        let engine = SstdEngine::new(SstdConfig::default());
        let mut backend: DesEngine<ClaimFit> =
            DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
        // Every attempt faults and the budget is one attempt: all tasks die.
        backend.set_fault_plan(FaultPlan { seed: 1, transient_rate: 1.0, ..FaultPlan::default() });
        backend.set_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
        let err = run_distributed(&engine, &trace, &mut backend, JobId::new(0))
            .expect_err("nothing can complete");
        match err.distributed_as::<DistributedError>().expect("a distributed error") {
            DistributedError::TasksFailed(failed) => assert_eq!(failed.len(), 5),
            other => panic!("unexpected error: {other}"),
        }
    }
}
