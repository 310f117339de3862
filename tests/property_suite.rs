//! Cross-crate differential property suite: production implementations
//! checked against brute-force oracles and against each other on seeded
//! generated cases.
//!
//! Every failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact minimized counterexample; set `TESTKIT_CASES` to
//! raise the case count (CI's extended run does) and
//! `TESTKIT_ARTIFACT_DIR` to persist counterexamples to disk.

use sstd::core::{
    run_distributed, AcsAggregator, ClaimFit, SstdConfig, SstdEngine, StreamingSstd,
    TruthEstimates, REFIT_HORIZON,
};
use sstd::runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, FaultPlan, JobId, RetryPolicy,
    ThreadedEngine,
};
use sstd::types::{ClaimId, GroundTruth, Report, SourceId, Timeline, Timestamp, Trace, TruthLabel};
use sstd_stats::SplitMix64;
use sstd_testkit::domain::{TraceCase, TraceShape};
use sstd_testkit::{check, domain, gens, oracle, Gen};

/// Cases per differential suite (override with `TESTKIT_CASES`).
const CASES: usize = 1_000;

/// A retry budget large enough that transient faults and stragglers from
/// any generated [`domain::fault_plan_case`] cannot exhaust a task: the
/// equivalence properties are about *values*, liveness is the fault
/// suite's concern.
fn generous_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 64, ..RetryPolicy::default() }
}

// ---------------------------------------------------------------------
// ACS: incremental rolling sum vs naive recomputation
// ---------------------------------------------------------------------

#[test]
fn acs_rolling_sequence_matches_naive_recomputation() {
    check(
        "acs_rolling_sequence_matches_naive_recomputation",
        CASES,
        &domain::acs_case(10, 40),
        |case| {
            let mut agg = AcsAggregator::new(case.num_intervals, case.window);
            for &(iv, cs) in &case.scores {
                agg.add_score(iv, cs);
            }
            let rolling = agg.sequence();
            let naive = oracle::naive_acs(agg.interval_sums(), case.window);
            if rolling.len() != naive.len() {
                return Err(format!("length {} vs naive {}", rolling.len(), naive.len()));
            }
            for i in 0..rolling.len() {
                if (rolling[i] - naive[i]).abs() > 1e-9 {
                    return Err(format!(
                        "interval {i}: rolling {} vs naive {}",
                        rolling[i], naive[i]
                    ));
                }
                // Point queries must agree with the full sequence too.
                if (agg.acs_at(i) - naive[i]).abs() > 1e-9 {
                    return Err(format!("acs_at({i}) = {} vs naive {}", agg.acs_at(i), naive[i]));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn acs_with_huge_window_is_the_running_total() {
    check("acs_with_huge_window_is_the_running_total", CASES, &domain::acs_case(8, 24), |case| {
        let mut agg = AcsAggregator::new(case.num_intervals, case.num_intervals + 7);
        for &(iv, cs) in &case.scores {
            agg.add_score(iv, cs);
        }
        let seq = agg.sequence();
        let mut run = 0.0;
        for (i, sum) in agg.interval_sums().iter().enumerate() {
            run += sum;
            if (seq[i] - run).abs() > 1e-9 {
                return Err(format!("interval {i}: {} vs prefix sum {run}", seq[i]));
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Claim-major trace index ≡ filtering the time-ordered reports
// ---------------------------------------------------------------------

#[test]
fn claim_index_slices_are_the_per_claim_filter() {
    let timeline = Timeline::new(Timestamp::from_secs(20), 2);
    let no_claims = Trace::new("none", Vec::new(), 1, 0, timeline, GroundTruth::new(2));
    assert!(no_claims.reports_for_claim(ClaimId::new(0)).is_empty(), "a zero-claim trace builds");

    check(
        "claim_index_slices_are_the_per_claim_filter",
        CASES,
        &domain::trace_case(TraceShape::default()),
        |case| {
            // One more claim than the generator reported on, so every case
            // has a claim without reports.
            let mut case = case.clone();
            case.num_claims += 1;
            case.truth.push(vec![TruthLabel::False; case.num_intervals]);
            let trace = case.trace();
            let mut total = 0;
            for claim in (0..case.num_claims).map(|c| ClaimId::new(c as u32)) {
                // Trace order among equal timestamps is part of the contract.
                let filtered: Vec<Report> =
                    trace.reports().iter().filter(|r| r.claim() == claim).copied().collect();
                let slice = trace.reports_for_claim(claim);
                if slice != filtered.as_slice() {
                    return Err(format!("{claim}: slice {slice:?} vs filter {filtered:?}"));
                }
                total += slice.len();
            }
            if total != trace.reports().len() {
                return Err(format!("slices hold {total} of {} reports", trace.reports().len()));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Distributed ≡ batch on both execution backends, under fault plans
// ---------------------------------------------------------------------

type DistCase = (TraceCase, (domain::FaultPlanCase, SstdConfig));

fn dist_case() -> Gen<DistCase> {
    gens::pair(
        domain::trace_case(TraceShape::default()),
        gens::pair(domain::fault_plan_case(), domain::sstd_config()),
    )
}

#[test]
fn distributed_matches_batch_on_the_des_under_faults() {
    check(
        "distributed_matches_batch_on_the_des_under_faults",
        CASES,
        &dist_case(),
        |(trace_case, (plan, config))| {
            let trace = trace_case.trace();
            let engine = SstdEngine::new(*config);
            let batch = engine.run(&trace);
            let mut backend: DesEngine<ClaimFit> =
                DesEngine::new(Cluster::homogeneous(3, 1.0), ExecutionModel::default(), 3);
            backend.set_fault_plan(plan.plan());
            backend.set_retry_policy(generous_retry());
            let run = run_distributed(&engine, &trace, &mut backend, JobId::new(0))
                .map_err(|e| format!("distributed run failed: {e}"))?;
            if run.estimates != batch {
                return Err("DES-backed distributed estimates differ from batch".into());
            }
            if run.report.completed.len() != trace.num_claims() {
                return Err(format!(
                    "{} completions for {} claims",
                    run.report.completed.len(),
                    trace.num_claims()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn distributed_matches_batch_on_real_threads_under_faults() {
    check(
        "distributed_matches_batch_on_real_threads_under_faults",
        CASES,
        &dist_case(),
        |(trace_case, (plan, config))| {
            let trace = trace_case.trace();
            let engine = SstdEngine::new(*config);
            let batch = engine.run(&trace);
            let mut backend: ThreadedEngine<ClaimFit> = ThreadedEngine::new(3);
            // Threads run in real time: cap the straggler slowdown so an
            // unlucky case cannot stall the suite, and keep transients.
            // One engine second of retry backoff costs 10 ms of sleep, not
            // a second: the run waits, it does not compute.
            backend.set_simulation(ExecutionModel::default(), 0.01);
            let plan = FaultPlan {
                straggler_rate: plan.straggler_rate.min(0.1),
                straggler_slowdown: 1.05,
                ..plan.plan()
            };
            backend.set_fault_plan(plan);
            backend.set_retry_policy(generous_retry());
            let run = run_distributed(&engine, &trace, &mut backend, JobId::new(0))
                .map_err(|e| format!("distributed run failed: {e}"))?;
            if run.estimates != batch {
                return Err("thread-backed distributed estimates differ from batch".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Streaming engine: determinism, shape, and batch agreement
// ---------------------------------------------------------------------

#[test]
fn streaming_runs_are_deterministic_and_well_shaped() {
    check(
        "streaming_runs_are_deterministic_and_well_shaped",
        CASES,
        &domain::trace_case(TraceShape::default()),
        |case| {
            let trace = case.trace();
            let run = |config: SstdConfig| {
                let mut s = StreamingSstd::new(config, trace.timeline().clone());
                for r in trace.reports() {
                    s.push(r);
                }
                s.finish()
            };
            let a = run(SstdConfig::default());
            let b = run(SstdConfig::default());
            if a != b {
                return Err("identical streams produced different estimates".into());
            }
            for (claim, labels) in a.iter() {
                if labels.len() != trace.timeline().num_intervals() {
                    return Err(format!(
                        "claim {claim:?}: {} labels for {} intervals",
                        labels.len(),
                        trace.timeline().num_intervals()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// A decisive trace: constant truth per claim and a unanimous plain
/// report from every source in every interval. On such streams the
/// filtering (streaming) and smoothing (batch) decoders must agree — the
/// evidence never wavers.
fn decisive_case() -> Gen<TraceCase> {
    Gen::new(|rng: &mut SplitMix64| {
        let num_claims = rng.usize_in(1, 3);
        let num_sources = rng.usize_in(2, 4);
        let num_intervals = rng.usize_in(2, 8);
        let mut truth = Vec::new();
        let mut reports = Vec::new();
        for c in 0..num_claims {
            let label = TruthLabel::from_bool(rng.chance(0.5));
            truth.push(vec![label; num_intervals]);
            for iv in 0..num_intervals {
                let t = Timestamp::from_secs(iv as u64 * TraceCase::SECS_PER_INTERVAL + 1);
                for s in 0..num_sources {
                    reports.push(Report::plain(
                        SourceId::new(s as u32),
                        ClaimId::new(c as u32),
                        t,
                        label.honest_attitude(),
                    ));
                }
            }
        }
        TraceCase { num_claims, num_sources, num_intervals, truth, reports }
    })
}

#[test]
fn streaming_matches_batch_on_decisive_traces() {
    check("streaming_matches_batch_on_decisive_traces", CASES, &decisive_case(), |case| {
        let trace = case.trace();
        let batch = SstdEngine::new(SstdConfig::default()).run(&trace);
        let mut s = StreamingSstd::new(SstdConfig::default(), trace.timeline().clone());
        for r in trace.reports() {
            s.push(r);
        }
        let online = s.finish();
        if online != batch {
            return Err("streaming and batch disagree on a decisive trace".into());
        }
        // Both must also equal the planted ground truth.
        for (c, planted) in case.truth.iter().enumerate() {
            let got = batch.labels(ClaimId::new(c as u32)).ok_or("missing claim")?;
            if got != planted.as_slice() {
                return Err(format!("claim {c}: decoded {got:?}, planted {planted:?}"));
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Streaming engine: the refit horizon changes nothing within the horizon
// ---------------------------------------------------------------------

fn stream(config: SstdConfig, timeline: &Timeline, reports: &[Report]) -> TruthEstimates {
    let mut s = StreamingSstd::new(config, timeline.clone());
    for r in reports {
        s.push(r);
    }
    s.finish()
}

#[test]
fn streams_within_the_refit_horizon_decide_as_with_the_full_history_refit() {
    // Sparse traces: claims appear late and skip intervals.
    let shape = TraceShape { max_intervals: REFIT_HORIZON, ..TraceShape::default() };
    check(
        "streams_within_the_refit_horizon_decide_as_with_the_full_history_refit",
        CASES,
        &gens::pair(domain::sstd_config(), domain::trace_case(shape)),
        |(config, case)| {
            let trace = case.trace();
            let engine = stream(*config, trace.timeline(), trace.reports());
            let reference =
                oracle::full_history_streaming(config, trace.timeline(), trace.reports());
            if engine != reference {
                return Err(format!(
                    "{} intervals, refit every {}: the engine diverged from the full-history \
                     reference",
                    case.num_intervals, config.streaming_refit
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn the_first_decision_the_refit_horizon_changes_lies_past_the_horizon() {
    // Dense streams a little longer than the horizon (the reference is
    // quadratic in their length).
    check(
        "the_first_decision_the_refit_horizon_changes_lies_past_the_horizon",
        CASES,
        &domain::long_stream_case(REFIT_HORIZON + 1, 200),
        |case| {
            let reports = &case.trace.reports;
            let engine = stream(case.config, &case.timeline(), reports);
            let reference = oracle::full_history_streaming(&case.config, &case.timeline(), reports);
            for (claim, labels) in engine.iter() {
                let want = reference.labels(claim).ok_or("claim missing from the reference")?;
                let first = labels.iter().zip(want).position(|(a, b)| a != b);
                if first.is_some_and(|i| i <= REFIT_HORIZON) {
                    return Err(format!(
                        "claim {claim}: decisions differ at interval {first:?}, inside the horizon"
                    ));
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Config generators produce valid configurations
// ---------------------------------------------------------------------

#[test]
fn generated_sstd_configs_drive_real_runs() {
    let gen = gens::pair(domain::sstd_config(), domain::trace_case(TraceShape::default()));
    check("generated_sstd_configs_drive_real_runs", 300, &gen, |(config, case)| {
        let trace = case.trace();
        let estimates = SstdEngine::new(*config).run(&trace);
        if estimates.num_claims() != trace.num_claims() {
            return Err(format!(
                "{} estimates for {} claims",
                estimates.num_claims(),
                trace.num_claims()
            ));
        }
        Ok(())
    });
}

#[test]
fn generated_dtm_configs_validate() {
    check("generated_dtm_configs_validate", CASES, &domain::dtm_config(), |config| {
        config.validate().map_err(|e| format!("generated config invalid: {e}"))
    });
}

// ---------------------------------------------------------------------
// Attitude/label algebra used throughout the suites
// ---------------------------------------------------------------------

#[test]
fn truth_label_attitude_round_trips() {
    for label in [TruthLabel::True, TruthLabel::False] {
        assert_eq!(label.flipped().flipped(), label);
        let honest = label.honest_attitude();
        let lying = label.flipped().honest_attitude();
        assert_eq!(honest, lying.flipped(), "honest and lying attitudes mirror");
        assert_ne!(honest, honest.flipped());
    }
}
