//! The batch workload: a whole trace through `run_distributed` on real
//! threads — the paper's Fig. 4/7 job. `serve` and `text` do nothing
//! here, so a change to either must not move it.

use crate::gen::ScoredStream;
use crate::trace::Tracer;
use sstd_core::{
    claim_partition, resume_distributed, run_distributed, AcsAggregator, ClaimFit, SstdConfig,
    SstdEngine, TruthEstimates,
};
use sstd_runtime::{JobId, ThreadedEngine};
use sstd_types::{ClaimId, Trace};
use std::time::Instant;

/// Worker threads of the measured run; the driver thread parks.
pub const WORKERS: usize = 2;

#[derive(Debug)]
pub struct BatchInput {
    pub trace: Trace,
}

impl BatchInput {
    pub fn generate(seed: u64, claims: usize, per_claim: usize, intervals: usize) -> Self {
        Self { trace: ScoredStream::generate(seed, claims, per_claim, intervals).to_trace() }
    }

    pub fn events(&self) -> u64 {
        self.trace.reports().len() as u64
    }
}

fn engine() -> SstdEngine {
    SstdEngine::new(SstdConfig::default())
}

/// A [`ThreadedEngine`] that is dropped only once its workers have had
/// time to park.
///
/// `ThreadedEngine::drop` sets its shutdown flag without holding the
/// state lock, so a worker that has checked the flag but not yet reached
/// its condvar wait misses the wake-up, and the join never returns. The
/// window is open while workers start and right after a job's last task;
/// a pause before the drop keeps the benchmark out of it.
struct Engine(ThreadedEngine<ClaimFit>);

impl Engine {
    fn new(workers: usize) -> Self {
        Self(ThreadedEngine::new(workers))
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// The two backends a pass needs, spawned before the clock starts.
pub struct Backends {
    run: Engine,
    resume: Engine,
}

pub fn prepare() -> Backends {
    Backends { run: Engine::new(WORKERS), resume: Engine::new(WORKERS) }
}

#[derive(Debug)]
pub struct BatchOutcome {
    /// Wall time of `run_distributed`.
    pub wall_s: f64,
    pub estimates: TruthEstimates,
    /// Per claim, from its task being submitted — the trace is all the
    /// evidence there will be — to its decisions being computed.
    pub decided_after_ms: Vec<f64>,
    /// Wall time of `resume_distributed` after every tenth claim's
    /// estimate was lost.
    pub recover_s: f64,
    pub resumed: TruthEstimates,
    /// Claims whose task exhausted its retries, in either job.
    pub failed: u64,
}

pub fn batch_pass(input: &BatchInput, mut backends: Backends) -> BatchOutcome {
    let engine = engine();
    let intervals = input.trace.timeline().num_intervals();
    let claims = input.trace.num_claims() as u64;
    let mut failed = 0;

    let at = Instant::now();
    let run = run_distributed(&engine, &input.trace, &mut backends.run.0, JobId::new(0));
    let wall_s = at.elapsed().as_secs_f64();
    let (estimates, decided_after_ms) = match run {
        Ok(run) => {
            let decided = run.report.completed.iter().map(|c| c.latency() * 1e3).collect();
            (run.estimates, decided)
        }
        Err(_) => {
            failed += claims;
            (TruthEstimates::new(intervals), Vec::new())
        }
    };

    let mut prior = TruthEstimates::new(intervals);
    for (claim, labels) in estimates.iter().filter(|(claim, _)| claim.index() % 10 != 0) {
        prior.insert(claim, labels.to_vec());
    }
    let at = Instant::now();
    let resumed =
        resume_distributed(&engine, &input.trace, &mut backends.resume.0, JobId::new(1), &prior);
    let recover_s = at.elapsed().as_secs_f64();
    let resumed = resumed.map(|run| run.estimates).unwrap_or_else(|_| {
        failed += claims.div_ceil(10);
        TruthEstimates::new(intervals)
    });
    BatchOutcome { wall_s, estimates, decided_after_ms, recover_s, resumed, failed }
}

/// The serial batch engine: the reference `run_distributed` must equal.
pub fn reference(input: &BatchInput) -> TruthEstimates {
    engine().run(&input.trace)
}

/// `(decisions equal to the planted truth, decisions)`.
pub fn score(input: &BatchInput, estimates: &TruthEstimates) -> (u64, u64) {
    let truth = input.trace.ground_truth();
    let right = truth
        .iter()
        .map(|(claim, truth)| {
            estimates
                .labels(claim)
                .map_or(0, |labels| labels.iter().zip(truth).filter(|(a, b)| a == b).count() as u64)
        })
        .sum();
    (right, (truth.num_claims() * truth.num_intervals()) as u64)
}

/// The batch layers, each through its public API on its own.
#[derive(Debug)]
pub struct BatchLayers {
    /// [`serial_pass`], traced.
    pub serial_estimates: TruthEstimates,
    pub serial_wall_s: f64,
    /// `run_distributed` on one worker and on two.
    pub one_worker_s: f64,
    pub two_worker_s: f64,
    pub two_worker_estimates: TruthEstimates,
    pub tasks: u64,
    pub attempts: u64,
    pub retries: u64,
}

/// Every claim through `SstdEngine::run_claim` on this thread, one
/// `core.run_claim` span each; returns the estimates and the wall time.
pub fn serial_pass(input: &BatchInput, tracer: &Tracer) -> (TruthEstimates, f64) {
    let engine = engine();
    let trace = &input.trace;
    let mut estimates = TruthEstimates::new(trace.timeline().num_intervals());
    let at = Instant::now();
    tracer.span("bench.pass", 0, || {
        for claim in (0..trace.num_claims()).map(|c| ClaimId::new(c as u32)) {
            let labels = tracer
                .span("core.run_claim", claim.index() as u64, || engine.run_claim(trace, claim));
            estimates.insert(claim, labels);
        }
    });
    (estimates, at.elapsed().as_secs_f64())
}

/// Spans: [`serial_pass`]'s, `core.scan` per claim (the
/// `Trace::reports_for_claim` filter that `run_claim` starts with),
/// `core.acs` per claim (`AcsAggregator` over the claim's reports), and
/// one `runtime.run_distributed` per worker count.
pub fn batch_layers(input: &BatchInput, tracer: &Tracer) -> BatchLayers {
    let engine = engine();
    let trace = &input.trace;
    let intervals = trace.timeline().num_intervals();
    let (serial_estimates, serial_wall_s) = serial_pass(input, tracer);

    for claim in (0..trace.num_claims()).map(|c| ClaimId::new(c as u32)) {
        tracer.span("core.scan", claim.index() as u64, || {
            std::hint::black_box(trace.reports_for_claim(claim).len())
        });
    }
    let mut sequence = Vec::new();
    for (claim, reports) in claim_partition(trace) {
        tracer.span("core.acs", claim.index() as u64, || {
            let mut acs = AcsAggregator::new(intervals, SstdConfig::default().window);
            for report in &reports {
                acs.add(trace.timeline().interval_of(report.time()), *report);
            }
            acs.sequence_into(&mut sequence);
            std::hint::black_box(sequence.last().copied())
        });
    }

    let distributed = |workers: usize| {
        let mut backend = Engine::new(workers);
        let at = Instant::now();
        let run = tracer
            .span("runtime.run_distributed", workers as u64, || {
                run_distributed(&engine, trace, &mut backend.0, JobId::new(0))
            })
            .expect("no claim task exhausts its retries without a fault plan");
        let wall_s = at.elapsed().as_secs_f64();
        (wall_s, run, backend.0.fault_stats().attempts, backend.0.retries())
    };
    let (one_worker_s, _, _, _) = distributed(1);
    let (two_worker_s, run, attempts, retries) = distributed(WORKERS);
    BatchLayers {
        serial_estimates,
        serial_wall_s,
        one_worker_s,
        two_worker_s,
        two_worker_estimates: run.estimates,
        tasks: run.report.completed.len() as u64,
        attempts,
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_resumed_and_serial_agree() {
        let input = BatchInput::generate(9, 40, 2, 30);
        let expected = reference(&input);
        let out = batch_pass(&input, prepare());
        assert_eq!(out.estimates, expected);
        assert_eq!(out.resumed, expected);
        assert_eq!((out.failed, out.decided_after_ms.len()), (0, 40));
        let (right, all) = score(&input, &expected);
        assert!(right * 10 > all * 6, "{right} of {all} decisions right");

        let tracer = Tracer::new(true);
        let layers = batch_layers(&input, &tracer);
        assert_eq!(layers.serial_estimates, expected);
        assert_eq!(layers.two_worker_estimates, expected);
        assert_eq!((layers.tasks, layers.retries), (40, 0));
        let spans = tracer.into_spans();
        assert!(spans
            .iter()
            .all(|s| !s.name.starts_with("text.") && !s.name.starts_with("serve.")));
    }
}
