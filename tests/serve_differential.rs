//! Sharded-service differential suite: the live-ingest service —
//! sharding, bounded queues, backpressure, per-shard checkpoints, shard
//! crashes, and the change stream — is required to be observationally
//! invisible: for time-ordered streams its merged estimates must be
//! **bit-identical** to one [`StreamingSstd`] fed the same reports, and
//! replaying each shard's versioned [`TruthUpdate`]s must reconstruct
//! the full decision table.
//!
//! Every failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact minimized counterexample; set `TESTKIT_CASES` to
//! raise the case count (CI's chaos job does).

use sstd::core::{IngestOutcome, StreamingSstd, TruthEstimates};
use sstd::obs::EventStore;
use sstd::serve::{ChangeStream, IngestError, IngestServer, IngestService, ServeConfig};
use sstd::types::{ClaimId, SstdError, TruthLabel};
use sstd_testkit::check;
use sstd_testkit::domain::{self, ServiceCase, TraceShape};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cases per property (override with `TESTKIT_CASES`).
const CASES: usize = 1_000;

fn serve_config(case: &ServiceCase) -> ServeConfig {
    ServeConfig::builder()
        .shards(case.shards)
        .queue_capacity(case.queue_capacity)
        .checkpoint_every(case.checkpoint_every)
        .timeline_from(case.timeline())
        .build()
        .expect("generated service cases are valid")
}

/// The reference: one uninterrupted streaming engine over the same
/// time-ordered stream.
fn single_engine(case: &ServiceCase) -> TruthEstimates {
    let mut engine = StreamingSstd::new(sstd::core::SstdConfig::default(), case.timeline());
    for report in case.sorted_reports() {
        let _ = engine.push(&report);
    }
    engine.finish()
}

/// What a full service run leaves behind: merged estimates plus the
/// still-live change-stream and telemetry handles of every shard.
struct ServiceRun {
    estimates: TruthEstimates,
    streams: Vec<ChangeStream>,
    stores: Vec<Arc<EventStore>>,
    ingested: u64,
    /// Per shard: reports applied, and the checkpoints its cadence and
    /// the run's `checkpoint_shard` calls add up to.
    applied: Vec<u64>,
    checkpoints: Vec<u64>,
}

/// Runs the deterministic service over the case's time-ordered stream,
/// crashing every shard at each scheduled position; pumps on
/// backpressure so every report is eventually applied.
fn run_service(case: &ServiceCase) -> Result<ServiceRun, String> {
    run_service_checkpointing(case, false)
}

/// [`run_service`], optionally draining and snapshotting every shard
/// just before every other crash.
fn run_service_checkpointing(case: &ServiceCase, manual: bool) -> Result<ServiceRun, String> {
    let mut service = IngestService::new(serve_config(case)).expect("valid config");
    let reports = case.sorted_reports();
    let crashes = case.crash_positions(reports.len());
    let mut next_crash = 0;
    let mut ingested = 0u64;
    let mut applied = vec![0u64; case.shards];
    let mut checkpoints = vec![0u64; case.shards];
    // Reports a shard has taken since its last checkpoint. Queues are
    // FIFO and drained before a manual checkpoint, so counting at enqueue
    // gives the order the shard sees.
    let mut since = vec![0usize; case.shards];
    for (i, report) in reports.iter().enumerate() {
        while next_crash < crashes.len() && crashes[next_crash] == i {
            let snapshot_first = manual && next_crash % 2 == 0;
            if snapshot_first {
                service.pump();
            }
            for shard in 0..service.num_shards() {
                if snapshot_first {
                    service.checkpoint_shard(shard);
                    checkpoints[shard] += 1;
                    since[shard] = 0;
                }
                service
                    .crash_shard(shard)
                    .map_err(|e| format!("shard {shard} failed to recover: {e}"))?;
            }
            next_crash += 1;
        }
        loop {
            match service.try_ingest(report) {
                Ok(outcome) => {
                    if outcome.was_ingested() {
                        ingested += 1;
                        let shard = service.shard_of(report.claim());
                        applied[shard] += 1;
                        since[shard] += 1;
                        if since[shard] == case.checkpoint_every {
                            checkpoints[shard] += 1;
                            since[shard] = 0;
                        }
                    }
                    break;
                }
                Err(IngestError::Backpressure { shard, .. }) => {
                    if service.pump_shard(shard) == 0 {
                        return Err(format!("shard {shard} backpressured while empty"));
                    }
                }
                Err(e) => return Err(format!("unexpected ingest error: {e}")),
            }
        }
    }
    let streams: Vec<_> = (0..service.num_shards()).map(|s| service.changes(s)).collect();
    let stores: Vec<_> = (0..service.num_shards()).map(|s| service.store(s).clone()).collect();
    let estimates = service.finish();
    Ok(ServiceRun { estimates, streams, stores, ingested, applied, checkpoints })
}

// ---------------------------------------------------------------------
// Headline guarantee: sharded ≡ single engine, crashes and all
// ---------------------------------------------------------------------

#[test]
fn sharded_service_is_bit_identical_to_a_single_engine() {
    check(
        "sharded_service_is_bit_identical_to_a_single_engine",
        CASES,
        &domain::service_case(TraceShape::default()),
        |case| {
            let run = run_service(case)?;
            let solo = single_engine(case);
            if run.estimates != solo {
                return Err(format!(
                    "sharded service diverged from the single engine across {} shard(s), \
                     {} crash point(s), checkpoint cadence {}",
                    case.shards,
                    case.crash_fracs.len(),
                    case.checkpoint_every,
                ));
            }
            Ok(())
        },
    );
}

/// The same guarantee on streams of 150–400 intervals under
/// `streaming_refit` 0–8, where each shard's snapshots hold a wrapped
/// refit ring instead of the claim's whole history: every shard is
/// checkpointed and crashed at each of the case's cuts (around the first
/// wrap, on a refit boundary, at one random point).
#[test]
fn sharded_service_is_bit_identical_to_a_single_engine_on_long_streams() {
    check(
        "sharded_service_is_bit_identical_to_a_single_engine_on_long_streams",
        CASES,
        &domain::long_stream_case(150, 400),
        |case| {
            let config = ServeConfig::builder()
                .shards(case.shards)
                .queue_capacity(64)
                .checkpoint_every(case.checkpoint_every)
                .engine(case.config)
                .timeline_from(case.timeline())
                .build()
                .expect("generated long-stream cases are valid");
            let mut service = IngestService::new(config).expect("valid config");
            let mut solo = StreamingSstd::new(case.config, case.timeline());
            let positions = case.cut_positions();
            let mut crashes = 0;
            for (i, report) in case.trace.reports.iter().enumerate() {
                let _ = solo.push(report);
                while let Err(e) = service.try_ingest(report) {
                    match e {
                        IngestError::Backpressure { shard, .. }
                            if service.pump_shard(shard) > 0 => {}
                        e => return Err(format!("unexpected ingest error: {e}")),
                    }
                }
                if positions.get(crashes) == Some(&i) {
                    service.pump();
                    for shard in 0..service.num_shards() {
                        // Every other crash restores a snapshot taken at
                        // the cut itself.
                        if crashes % 2 == 0 {
                            service.checkpoint_shard(shard);
                        }
                        service.crash_shard(shard).map_err(|e| {
                            format!(
                                "shard {shard} failed to recover at cut {}: {e}",
                                case.cuts[crashes]
                            )
                        })?;
                    }
                    crashes += 1;
                }
            }
            if service.finish() != solo.finish() {
                return Err(format!(
                    "sharded service diverged from the single engine across {} shard(s), \
                     cuts {:?}, refit {}",
                    case.shards, case.cuts, case.config.streaming_refit
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn every_time_ordered_report_is_accepted_and_applied() {
    check(
        "every_time_ordered_report_is_accepted_and_applied",
        CASES,
        &domain::service_case(TraceShape::default()),
        |case| {
            let run = run_service(case)?;
            let expected = case.sorted_reports().len() as u64;
            if run.ingested != expected {
                return Err(format!(
                    "{} of {expected} reports ingested — time-ordered streams never reject",
                    run.ingested
                ));
            }
            // The per-shard telemetry stores saw every interval close:
            // total reports across shard StreamTicks equals the stream.
            let ticked: f64 = run
                .stores
                .iter()
                .map(|s| s.query().stream().sum(|e| e.stream_tick().map(|t| t.reports as f64)))
                .sum();
            if ticked as u64 != expected {
                return Err(format!(
                    "shard trace stores account for {ticked} reports, stream had {expected}"
                ));
            }
            Ok(())
        },
    );
}

/// A shard's store tells its whole recovery story: one checkpoint event
/// per cadence or requested checkpoint, one crash and one restore per
/// injected crash, and — because a replay records nothing — stream ticks
/// that still add up to exactly the reports the shard applied.
#[test]
fn shard_stores_account_for_every_checkpoint_crash_and_restore() {
    check(
        "shard_stores_account_for_every_checkpoint_crash_and_restore",
        CASES,
        &domain::service_case(TraceShape::default()),
        |case| {
            let run = run_service_checkpointing(case, true)?;
            let crashes = case.crash_positions(case.sorted_reports().len()).len() as u64;
            for (shard, store) in run.stores.iter().enumerate() {
                let recovery = store.query().recovery();
                let seen = [
                    recovery.clone().label("checkpoint").count(),
                    recovery.clone().label("crash").count(),
                    recovery.label("restored").count(),
                ];
                let want = [run.checkpoints[shard], crashes, crashes];
                if seen != want {
                    return Err(format!(
                        "shard {shard}: checkpoint/crash/restored events {seen:?}, expected \
                         {want:?} at cadence {}",
                        case.checkpoint_every
                    ));
                }
                let ticked =
                    store.query().stream().sum(|e| e.stream_tick().map(|t| t.reports as f64));
                if ticked as u64 != run.applied[shard] {
                    return Err(format!(
                        "shard {shard}: stream ticks account for {ticked} reports, {} applied",
                        run.applied[shard]
                    ));
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Change stream: versioned, ordered, and sufficient to reconstruct
// ---------------------------------------------------------------------

/// Replays drained updates into a per-claim label table over
/// `num_intervals` intervals, checking shard-version monotonicity along
/// the way. Labels default to `False` before a claim's first update —
/// the same no-evidence convention the engine uses.
fn reconstruct(
    streams: &[ChangeStream],
    num_intervals: usize,
) -> Result<BTreeMap<ClaimId, Vec<TruthLabel>>, String> {
    let mut table: BTreeMap<ClaimId, Vec<TruthLabel>> = BTreeMap::new();
    for (shard, stream) in streams.iter().enumerate() {
        let mut last_version = 0u64;
        for update in stream.drain() {
            if update.shard != shard {
                return Err(format!(
                    "shard {shard}'s stream carried an update stamped shard {}",
                    update.shard
                ));
            }
            if update.version <= last_version {
                return Err(format!(
                    "shard {shard} version went {last_version} -> {} (must be monotonic)",
                    update.version
                ));
            }
            last_version = update.version;
            if update.interval >= num_intervals {
                return Err(format!("update at interval {} past the timeline", update.interval));
            }
            let labels =
                table.entry(update.claim).or_insert_with(|| vec![TruthLabel::False; num_intervals]);
            for slot in labels.iter_mut().skip(update.interval) {
                *slot = update.new;
            }
        }
    }
    Ok(table)
}

#[test]
fn change_stream_reconstructs_the_decision_table() {
    check(
        "change_stream_reconstructs_the_decision_table",
        CASES,
        &domain::service_case(TraceShape::default()),
        |case| {
            let run = run_service(case)?;
            let table = reconstruct(&run.streams, case.trace.num_intervals)?;
            for (claim, labels) in run.estimates.iter() {
                let rebuilt = table
                    .get(&claim)
                    .ok_or_else(|| format!("no updates for decided claim {claim}"))?;
                if rebuilt.as_slice() != labels {
                    return Err(format!(
                        "claim {claim}: replayed updates give {rebuilt:?}, estimates say {labels:?}"
                    ));
                }
            }
            if table.len() != run.estimates.num_claims() {
                return Err(format!(
                    "updates mention {} claims, estimates decided {}",
                    table.len(),
                    run.estimates.num_claims()
                ));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// The threaded server agrees with the deterministic service
// ---------------------------------------------------------------------

#[test]
fn threaded_server_matches_the_single_engine() {
    // Fewer cases: each spins up real shard threads. The determinism
    // argument is per-shard FIFO, which threading does not weaken; this
    // property pins the threaded data path (channels, atomics, worker
    // loop) to the same bit-identical result.
    check(
        "threaded_server_matches_the_single_engine",
        (CASES / 10).max(50),
        &domain::service_case(TraceShape::default()),
        |case| {
            let server = IngestServer::start(serve_config(case)).expect("valid config");
            let client = server.client();
            let reports = case.sorted_reports();
            let crashes = case.crash_positions(reports.len());
            let mut next_crash = 0;
            for (i, report) in reports.iter().enumerate() {
                while next_crash < crashes.len() && crashes[next_crash] == i {
                    for shard in 0..server.num_shards() {
                        server
                            .crash_shard(shard)
                            .map_err(|e| format!("crash submit failed: {e}"))?;
                    }
                    next_crash += 1;
                }
                loop {
                    match client.try_ingest(report) {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => std::thread::yield_now(),
                        Err(e) => return Err(format!("unexpected ingest error: {e}")),
                    }
                }
            }
            let sharded = server.finish().map_err(|e| format!("a shard failed: {e}"))?;
            let solo = single_engine(case);
            if sharded != solo {
                return Err("threaded server diverged from the single engine".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Typed errors travel the facade
// ---------------------------------------------------------------------

#[test]
fn backpressure_wraps_into_the_unified_error() {
    let case = ServiceCase {
        trace: domain::TraceCase {
            num_claims: 1,
            num_sources: 1,
            num_intervals: 2,
            truth: vec![vec![TruthLabel::True, TruthLabel::True]],
            reports: Vec::new(),
        },
        shards: 1,
        queue_capacity: 1,
        checkpoint_every: 0,
        crash_fracs: Vec::new(),
    };
    let mut service = IngestService::new(serve_config(&case)).expect("valid");
    let report = sstd::types::Report::plain(
        sstd::types::SourceId::new(0),
        ClaimId::new(0),
        sstd::types::Timestamp::from_secs(1),
        sstd::types::Attitude::Agree,
    );
    assert_eq!(service.try_ingest(&report).expect("fits"), IngestOutcome::Accepted);
    let err = service.try_ingest(&report).expect_err("queue of one is full");
    let unified: SstdError = err.clone().into();
    let back = unified.ingest_as::<IngestError>().expect("downcasts back");
    assert_eq!(*back, IngestError::Backpressure { shard: 0, depth: 1 });
    assert!(unified.to_string().contains("ingest failed"));
}
