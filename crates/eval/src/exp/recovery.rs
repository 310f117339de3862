//! Recovery-cost extension experiment: checkpoint cadence vs. replay
//! work under injected ingest crashes and data-path chaos.
//!
//! Not a figure in the paper — but the paper's streaming deployment
//! (§III-D, §IV) runs for the lifetime of an event, and on the HTCondor
//! substrate of §IV-A1 eviction is routine, so the ingest loop *will*
//! die mid-event. This sweep quantifies the durability tradeoff the
//! [`sstd_core::Supervisor`] exposes: checkpointing often costs bytes
//! written per applied report; checkpointing rarely costs journal replay
//! (and so recovery latency) per crash. In every cell the recovered
//! estimates are required to be bit-identical to the uninterrupted
//! run's — the sweep measures the *price* of the guarantee, never a
//! relaxation of it.

use sstd_core::{chaos_stream, CheckpointPolicy, RecoveryEvent, SstdConfig, Supervisor};
use sstd_data::{Scenario, TraceBuilder};
use sstd_runtime::FaultPlan;

/// One measured grid cell: a checkpoint cadence under a crash schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPoint {
    /// Checkpoint cadence in applied reports (`0` = never).
    pub checkpoint_every: u64,
    /// Crashes injected over the run.
    pub num_crashes: usize,
    /// Whether ingest chaos (drop/duplicate/reorder/corrupt) was on.
    pub chaos: bool,
    /// Reports applied to the engine (unique, intact).
    pub applied_reports: u64,
    /// Checkpoints written over the run.
    pub checkpoints: u64,
    /// Total bytes of checkpoint state written.
    pub checkpoint_bytes: u64,
    /// Journal entries replayed across all recoveries.
    pub replayed: u64,
    /// Mean replay length per recovery (0 when no crash).
    pub mean_replay: f64,
    /// Recovered estimates were bit-identical to the uninterrupted run.
    pub identical: bool,
}

/// The standard event for the sweep: a small deterministic Boston
/// Bombing trace (~hundreds of reports — big enough that cadence
/// matters, small enough for CI).
fn trace() -> sstd_types::Trace {
    TraceBuilder::scenario(Scenario::BostonBombing).scale(0.02).seed(42).build()
}

/// The chaos plan used when `chaos` is on: moderate seeded drop,
/// duplication, bounded reorder, and payload corruption.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 2017,
        ingest_drop_rate: 0.05,
        ingest_duplicate_rate: 0.05,
        ingest_reorder_rate: 0.08,
        ingest_reorder_depth: 4,
        ingest_corrupt_rate: 0.02,
        ..FaultPlan::default()
    }
}

/// Evenly spaced crash positions over a stream of `len` records.
fn crash_schedule(num_crashes: usize, len: usize) -> Vec<usize> {
    (1..=num_crashes).map(|i| i * len / (num_crashes + 1)).collect()
}

/// Runs the sweep: every checkpoint cadence × crash count, with and
/// without data-path chaos. Deterministic: fixed trace seed, fixed
/// chaos seed, evenly spaced crashes.
#[must_use]
pub fn run(cadences: &[u64], crash_counts: &[usize]) -> Vec<RecoveryPoint> {
    let trace = trace();
    let config = SstdConfig::default();
    let mut out = Vec::new();
    for &chaos in &[false, true] {
        let records = if chaos {
            chaos_stream(&chaos_plan(), trace.reports())
        } else {
            chaos_stream(&FaultPlan::default(), trace.reports())
        };
        for &cadence in cadences {
            let policy = if cadence == 0 {
                CheckpointPolicy::DISABLED
            } else {
                CheckpointPolicy::every_reports(cadence)
            };
            // Uninterrupted reference for this (chaos, cadence) row.
            let mut reference = Supervisor::new(config, trace.timeline().clone(), policy);
            reference.run(&records, &[], 0).expect("reference run cannot crash");
            let want = reference.finish();

            for &n in crash_counts {
                let crashes = crash_schedule(n, records.len());
                let mut sup = Supervisor::new(config, trace.timeline().clone(), policy);
                sup.run(&records, &crashes, 4).expect("recovery from durable bytes");
                let recovery = sup.store().query().recovery();
                let replayed = |e: &sstd_obs::Event| match e.recovery_event() {
                    Some(RecoveryEvent::Restored { replayed, .. }) => Some(*replayed as f64),
                    _ => None,
                };
                let checkpoint_bytes = recovery.sum(|e| match e.recovery_event() {
                    Some(RecoveryEvent::CheckpointWritten { bytes, .. }) => Some(*bytes as f64),
                    _ => None,
                });
                out.push(RecoveryPoint {
                    checkpoint_every: cadence,
                    num_crashes: n,
                    chaos,
                    applied_reports: sup.applied_reports(),
                    checkpoints: recovery.clone().label("checkpoint").count(),
                    checkpoint_bytes: checkpoint_bytes as u64,
                    replayed: recovery.sum(replayed) as u64,
                    mean_replay: recovery.mean(replayed).unwrap_or(0.0),
                    identical: sup.finish() == want,
                });
            }
        }
    }
    out
}

/// Formats the sweep as a grid, one line per cell.
#[must_use]
pub fn format(points: &[RecoveryPoint]) -> String {
    let mut out = String::from(
        "Recovery — checkpoint cadence vs. replay work (identical = bit-identical estimates)\n\
         chaos  cadence  crashes  applied  checkpoints  ckpt-bytes  replayed  mean-replay  identical\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>7}  {:>7}  {:>11}  {:>10}  {:>8}  {:>11.1}  {}\n",
            if p.chaos { "on" } else { "off" },
            p.checkpoint_every,
            p.num_crashes,
            p.applied_reports,
            p.checkpoints,
            p.checkpoint_bytes,
            p.replayed,
            p.mean_replay,
            if p.identical { "yes" } else { "NO" },
        ));
    }
    out
}

/// Serializes the sweep as a JSON array (hand-rolled: every field is a
/// number or bool, so no escaping is needed).
#[must_use]
pub fn to_json(points: &[RecoveryPoint]) -> String {
    let cells: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"chaos\":{},\"checkpoint_every\":{},\"num_crashes\":{},\
                 \"applied_reports\":{},\"checkpoints\":{},\"checkpoint_bytes\":{},\
                 \"replayed\":{},\"mean_replay\":{},\"identical\":{}}}",
                p.chaos,
                p.checkpoint_every,
                p.num_crashes,
                p.applied_reports,
                p.checkpoints,
                p.checkpoint_bytes,
                p.replayed,
                p.mean_replay,
                p.identical
            )
        })
        .collect();
    format!("{{\"experiment\":\"recovery_sweep\",\"points\":[{}]}}\n", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_recovers_bit_identically() {
        let pts = run(&[0, 64], &[0, 2]);
        // 2 chaos modes × 2 cadences × 2 crash counts.
        assert_eq!(pts.len(), 8);
        assert!(pts.iter().all(|p| p.identical), "{pts:?}");
    }

    #[test]
    fn tighter_cadence_replays_less_but_writes_more() {
        let pts = run(&[16, 0], &[3]);
        let cell = |chaos: bool, cadence: u64| {
            *pts.iter().find(|p| p.chaos == chaos && p.checkpoint_every == cadence).unwrap()
        };
        for chaos in [false, true] {
            let tight = cell(chaos, 16);
            let never = cell(chaos, 0);
            assert!(tight.checkpoints > 0 && never.checkpoints == 0);
            assert!(tight.checkpoint_bytes > 0 && never.checkpoint_bytes == 0);
            // Never checkpointing replays the whole applied prefix at
            // every crash; a 16-report cadence bounds each replay.
            assert!(
                tight.replayed < never.replayed,
                "chaos={chaos}: tight replayed {} vs never {}",
                tight.replayed,
                never.replayed
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(&[32], &[1]), run(&[32], &[1]));
    }

    #[test]
    fn chaos_prunes_the_applied_stream() {
        let pts = run(&[0], &[0]);
        let clean = pts.iter().find(|p| !p.chaos).unwrap();
        let chaotic = pts.iter().find(|p| p.chaos).unwrap();
        // Drops and corruption strictly reduce the applied set.
        assert!(chaotic.applied_reports < clean.applied_reports, "{pts:?}");
    }

    #[test]
    fn json_lists_every_cell() {
        let pts = run(&[0, 32], &[1]);
        let s = to_json(&pts);
        assert_eq!(s.matches("\"checkpoint_every\"").count(), pts.len());
        assert!(s.contains("\"experiment\":\"recovery_sweep\""));
    }

    #[test]
    fn format_flags_identity() {
        let s = format(&run(&[64], &[1]));
        assert!(s.contains("identical"));
        assert!(s.contains("yes"));
        assert!(!s.contains(" NO\n"));
    }
}
