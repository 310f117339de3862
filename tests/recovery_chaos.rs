//! Crash-consistency chaos suite: the checkpoint → crash → restore →
//! journal-replay path is exercised on seeded generated scenarios and
//! required to be **bit-identical** to the uninterrupted run — including
//! under data-path chaos (drops, duplicates, bounded reorder, payload
//! corruption) and at-least-once redelivery after every crash.
//!
//! Every failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact minimized counterexample; set `TESTKIT_CASES` to
//! raise the case count (CI's chaos job does) and `TESTKIT_ARTIFACT_DIR`
//! to persist counterexamples to disk.

use std::collections::BTreeSet;

use sstd::core::{
    chaos_stream, config_fingerprint, CheckpointPolicy, IngestOutcome, IngestRecord, RecoveryError,
    ReportJournal, SstdConfig, StreamCheckpoint, StreamingSstd, Supervisor, TruthEstimates,
};
use sstd::types::Timeline;
use sstd_testkit::domain::{LongStreamCase, TraceShape};
use sstd_testkit::{check, domain, gens};

/// Cases per property (override with `TESTKIT_CASES`).
const CASES: usize = 1_000;

fn supervisor(config: &SstdConfig, timeline: &Timeline, policy: CheckpointPolicy) -> Supervisor {
    Supervisor::new(*config, timeline.clone(), policy)
}

// ---------------------------------------------------------------------
// Headline guarantee: crash + recover ≡ never crashed
// ---------------------------------------------------------------------

#[test]
fn crashed_recovered_run_is_bit_identical_to_uninterrupted_run() {
    let gen = gens::pair(domain::sstd_config(), domain::recovery_case(TraceShape::default()));
    check(
        "crashed_recovered_run_is_bit_identical_to_uninterrupted_run",
        CASES,
        &gen,
        |(config, case)| {
            let trace = case.trace.trace();
            let records = chaos_stream(&case.plan(), trace.reports());
            let crashes = case.crash_positions(records.len());

            let mut reference = supervisor(config, trace.timeline(), case.policy());
            reference
                .run(&records, &[], 0)
                .map_err(|e| format!("uninterrupted run failed: {e}"))?;
            let want = reference.finish();

            let mut subject = supervisor(config, trace.timeline(), case.policy());
            subject
                .run(&records, &crashes, case.redelivery)
                .map_err(|e| format!("crashed run failed: {e}"))?;
            if subject.crashes_observed() as usize != crashes.len() {
                return Err(format!(
                    "scheduled {} crashes but observed {}",
                    crashes.len(),
                    subject.crashes_observed()
                ));
            }
            let restores = subject.store().query().recovery().label("restored").count();
            if restores != crashes.len() as u64 {
                return Err(format!("{} crashes but {restores} completed restores", crashes.len()));
            }
            if subject.finish() != want {
                return Err("recovered estimates diverged from the uninterrupted run".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Long streams: the same guarantee once the refit ring has wrapped
// ---------------------------------------------------------------------
//
// The cases above run 2–8 intervals, so a snapshot there still holds a
// claim's whole history. These run 150–400 under `streaming_refit` 1–8,
// with EM on or off, and are cut just before the ring first fills, when
// it is exactly full, after its first eviction, on a refit boundary past
// that and at one random point (`domain::long_stream_case`).

fn uninterrupted(case: &LongStreamCase) -> TruthEstimates {
    let mut engine = StreamingSstd::new(case.config, case.timeline());
    for r in &case.trace.reports {
        engine.push(r);
    }
    engine.finish()
}

#[test]
fn long_stream_restored_at_every_cut_is_bit_identical_to_uninterrupted() {
    check(
        "long_stream_restored_at_every_cut_is_bit_identical_to_uninterrupted",
        CASES,
        &domain::long_stream_case(150, 400),
        |case| {
            let reports = &case.trace.reports;
            let mut engine = StreamingSstd::new(case.config, case.timeline());
            let mut next = 0;
            for (&cut, &pos) in case.cuts.iter().zip(&case.cut_positions()) {
                for r in &reports[next..=pos] {
                    engine.push(r);
                }
                next = pos + 1;
                if engine.current_interval() != cut {
                    return Err(format!(
                        "cut {cut} reached with {} intervals closed",
                        engine.current_interval()
                    ));
                }
                let bytes = engine.checkpoint().to_bytes();
                let snap = StreamCheckpoint::from_bytes(&bytes)
                    .map_err(|e| format!("decode at cut {cut} failed: {e}"))?;
                engine = StreamingSstd::restore(case.config, case.timeline(), &snap)
                    .map_err(|e| format!("restore at cut {cut} failed: {e}"))?;
                if engine.checkpoint() != snap {
                    return Err(format!("the engine restored at cut {cut} snapshots differently"));
                }
            }
            for r in &reports[next..] {
                engine.push(r);
            }
            if engine.finish() != uninterrupted(case) {
                return Err("restored run diverged from the uninterrupted run".into());
            }
            Ok(())
        },
    );
}

#[test]
fn long_stream_crashed_recovered_supervisor_is_bit_identical_to_uninterrupted() {
    check(
        "long_stream_crashed_recovered_supervisor_is_bit_identical_to_uninterrupted",
        CASES,
        &domain::long_stream_case(150, 400),
        |case| {
            let policy = match case.checkpoint_every {
                0 => CheckpointPolicy::DISABLED,
                n => CheckpointPolicy::every_reports(n as u64),
            };
            let mut subject = supervisor(&case.config, &case.timeline(), policy);
            let positions = case.cut_positions();
            let mut crashes = 0;
            for (i, report) in case.trace.reports.iter().enumerate() {
                subject.ingest(&IngestRecord::new(i as u64, *report));
                if positions.get(crashes) == Some(&i) {
                    // Every other crash finds a checkpoint taken at the
                    // cut itself; the rest recover from whatever the
                    // cadence left, replaying the journal across the cut.
                    if crashes % 2 == 0 {
                        subject.checkpoint_now();
                    }
                    subject.crash_and_recover().map_err(|e| {
                        format!("recovery at cut {} failed: {e}", case.cuts[crashes])
                    })?;
                    crashes += 1;
                }
            }
            let restores = subject.store().query().recovery().label("restored").count();
            if restores != case.cuts.len() as u64 {
                return Err(format!("{} cuts but {restores} completed restores", case.cuts.len()));
            }
            if subject.finish() != uninterrupted(case) {
                return Err("recovered estimates diverged from the uninterrupted run".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Oracle: the supervisor ≡ bare streaming over the clean unique subset
// ---------------------------------------------------------------------

#[test]
fn supervised_chaos_run_matches_bare_streaming_on_the_applied_subset() {
    let gen = gens::pair(domain::sstd_config(), domain::recovery_case(TraceShape::default()));
    check(
        "supervised_chaos_run_matches_bare_streaming_on_the_applied_subset",
        CASES,
        &gen,
        |(config, case)| {
            let trace = case.trace.trace();
            let records = chaos_stream(&case.plan(), trace.reports());
            let crashes = case.crash_positions(records.len());

            // Oracle: each unique intact record, once, in delivered order.
            let mut bare = StreamingSstd::new(*config, trace.timeline().clone());
            let mut seen = BTreeSet::new();
            let mut applied = 0u64;
            for r in &records {
                if r.is_intact() && seen.insert(r.seq()) {
                    bare.push(r.report());
                    applied += 1;
                }
            }
            let want = bare.finish();

            let mut sup = supervisor(config, trace.timeline(), case.policy());
            sup.run(&records, &crashes, case.redelivery)
                .map_err(|e| format!("supervised run failed: {e}"))?;
            if sup.applied_reports() != applied {
                return Err(format!(
                    "oracle applied {applied} reports, supervisor {}",
                    sup.applied_reports()
                ));
            }
            if sup.finish() != want {
                return Err("supervised estimates diverged from bare streaming".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Snapshot wire format: roundtrip, corruption, truncation, mismatch
// ---------------------------------------------------------------------

/// Runs the trace's first `k` reports, snapshots through the wire
/// format, restores, and finishes with the remaining reports.
fn resume_through_bytes(
    config: &SstdConfig,
    case: &domain::TraceCase,
    k: usize,
) -> Result<TruthEstimates, String> {
    let trace = case.trace();
    let reports = trace.reports();
    let mut first = StreamingSstd::new(*config, trace.timeline().clone());
    for r in &reports[..k] {
        first.push(r);
    }
    let bytes = first.checkpoint().to_bytes();
    let snap = StreamCheckpoint::from_bytes(&bytes).map_err(|e| format!("decode failed: {e}"))?;
    if snap.fingerprint() != config_fingerprint(config, trace.timeline()) {
        return Err("fingerprint does not match the live config".into());
    }
    let mut resumed = StreamingSstd::restore(*config, trace.timeline().clone(), &snap)
        .map_err(|e| format!("restore failed: {e}"))?;
    for r in &reports[k..] {
        resumed.push(r);
    }
    Ok(resumed.finish())
}

#[test]
fn checkpoint_roundtrip_resumes_bit_identically_at_any_split() {
    let gen = gens::pair(domain::sstd_config(), domain::trace_case(TraceShape::default()));
    check(
        "checkpoint_roundtrip_resumes_bit_identically_at_any_split",
        CASES,
        &gen,
        |(config, case)| {
            let trace = case.trace();
            let mut straight = StreamingSstd::new(*config, trace.timeline().clone());
            for r in trace.reports() {
                straight.push(r);
            }
            let want = straight.finish();

            let n = trace.reports().len();
            for k in [0, n / 2, n] {
                let got = resume_through_bytes(config, case, k)?;
                if got != want {
                    return Err(format!("resume at {k}/{n} diverged from the straight run"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn corrupted_or_truncated_snapshots_are_rejected_never_panic() {
    let gen = gens::pair(
        gens::pair(domain::sstd_config(), domain::trace_case(TraceShape::default())),
        gens::usize_in(0, 1 << 20),
    );
    check(
        "corrupted_or_truncated_snapshots_are_rejected_never_panic",
        CASES,
        &gen,
        |((config, case), entropy)| {
            let trace = case.trace();
            let mut engine = StreamingSstd::new(*config, trace.timeline().clone());
            for r in trace.reports() {
                engine.push(r);
            }
            let bytes = engine.checkpoint().to_bytes();

            // Any single bit flip is refused (the checksum trailer
            // guarantees single-bit detection).
            let mut flipped = bytes.clone();
            let bit = entropy % (bytes.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            if StreamCheckpoint::from_bytes(&flipped).is_ok() {
                return Err(format!("accepted a snapshot with bit {bit} flipped"));
            }

            // Any strict prefix is refused.
            let cut = entropy % bytes.len();
            match StreamCheckpoint::from_bytes(&bytes[..cut]) {
                Err(RecoveryError::Corrupt { .. }) => Ok(()),
                Err(e) => Err(format!("truncation at {cut} gave unexpected error {e:?}")),
                Ok(_) => Err(format!("accepted a snapshot truncated to {cut} bytes")),
            }
        },
    );
}

#[test]
fn config_mismatched_snapshots_are_refused() {
    let gen = gens::pair(domain::sstd_config(), domain::trace_case(TraceShape::default()));
    check("config_mismatched_snapshots_are_refused", CASES, &gen, |(config, case)| {
        let trace = case.trace();
        let mut engine = StreamingSstd::new(*config, trace.timeline().clone());
        for r in trace.reports() {
            engine.push(r);
        }
        let snap = engine.checkpoint();

        let other = SstdConfig { window: config.window + 1, ..*config };
        match StreamingSstd::restore(other, trace.timeline().clone(), &snap) {
            Err(RecoveryError::ConfigMismatch { .. }) => {}
            other => return Err(format!("different window accepted: {other:?}")),
        }

        let stretched =
            Timeline::new(trace.timeline().horizon(), trace.timeline().num_intervals() + 1);
        match StreamingSstd::restore(*config, stretched, &snap) {
            Err(RecoveryError::ConfigMismatch { .. }) => Ok(()),
            other => Err(format!("different timeline accepted: {other:?}")),
        }
    });
}

// ---------------------------------------------------------------------
// Journal wire format on generated streams
// ---------------------------------------------------------------------

#[test]
fn journal_roundtrips_and_rejects_tampering_on_generated_streams() {
    let gen = gens::pair(domain::trace_case(TraceShape::default()), gens::usize_in(0, 1 << 20));
    check(
        "journal_roundtrips_and_rejects_tampering_on_generated_streams",
        CASES,
        &gen,
        |(case, entropy)| {
            let trace = case.trace();
            let mut journal = ReportJournal::new();
            for (seq, r) in trace.reports().iter().enumerate() {
                journal.append(seq as u64, *r);
            }
            let bytes = journal.to_bytes();
            let back =
                ReportJournal::from_bytes(&bytes).map_err(|e| format!("roundtrip failed: {e}"))?;
            if back != journal {
                return Err("journal did not survive the wire format".into());
            }

            let mut flipped = bytes.clone();
            let bit = entropy % (bytes.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            match ReportJournal::from_bytes(&flipped) {
                Err(RecoveryError::Journal { .. }) => {}
                other => return Err(format!("bit-flipped journal gave {other:?}")),
            }
            match ReportJournal::from_bytes(&bytes[..entropy % bytes.len()]) {
                Err(RecoveryError::Journal { .. }) => Ok(()),
                other => Err(format!("truncated journal gave {other:?}")),
            }
        },
    );
}

// ---------------------------------------------------------------------
// Chaos stream invariants on generated plans
// ---------------------------------------------------------------------

#[test]
fn chaos_streams_are_deterministic_and_dedupe_to_the_survivor_set() {
    let gen = domain::recovery_case(TraceShape::default());
    check("chaos_streams_are_deterministic_and_dedupe_to_the_survivor_set", CASES, &gen, |case| {
        let trace = case.trace.trace();
        let plan = case.plan();
        let a = chaos_stream(&plan, trace.reports());
        let b = chaos_stream(&plan, trace.reports());
        if a != b {
            return Err("same plan and reports produced different streams".into());
        }

        // Unique intact seqs are a subset of the original stream, and
        // every survivor carries exactly its original report.
        let mut seqs = BTreeSet::new();
        for r in &a {
            if !r.is_intact() {
                continue;
            }
            let idx = usize::try_from(r.seq()).map_err(|_| "seq overflows usize".to_string())?;
            if idx >= trace.reports().len() {
                return Err(format!("intact seq {idx} outside the original stream"));
            }
            if r.report() != &trace.reports()[idx] {
                return Err(format!("intact record {idx} does not match its source report"));
            }
            seqs.insert(idx);
        }
        if seqs.len() > trace.reports().len() {
            return Err("more unique survivors than inputs".into());
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Duplicate accounting under the supervisor
// ---------------------------------------------------------------------

#[test]
fn redelivered_records_are_absorbed_exactly_once() {
    let gen = gens::pair(domain::sstd_config(), domain::recovery_case(TraceShape::default()));
    check("redelivered_records_are_absorbed_exactly_once", CASES, &gen, |(config, case)| {
        let trace = case.trace.trace();
        let records = chaos_stream(&case.plan(), trace.reports());
        let mut sup = supervisor(config, trace.timeline(), case.policy());
        let mut applied = 0u64;
        for r in &records {
            match sup.ingest(r) {
                IngestOutcome::Accepted | IngestOutcome::Late => applied += 1,
                IngestOutcome::Duplicate | IngestOutcome::Rejected => {}
            }
            // Feeding the same record again must always be a duplicate
            // (or rejected again if it was never applied).
            if r.is_intact() && sup.ingest(r).was_ingested() {
                return Err(format!("record {} applied twice", r.seq()));
            }
        }
        if sup.applied_reports() != applied {
            return Err(format!(
                "{applied} applied outcomes but {} reports in the applied set",
                sup.applied_reports()
            ));
        }
        Ok(())
    });
}
