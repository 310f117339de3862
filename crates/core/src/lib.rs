//! The SSTD scheme: Scalable Streaming Truth Discovery (paper §III).
//!
//! SSTD estimates the *evolving* truth of each claim from the stream of
//! scored reports about it:
//!
//! 1. reports are aggregated into per-interval **Aggregated Contribution
//!    Scores** over a sliding window ([`AcsAggregator`], paper Eq. 4);
//! 2. each claim gets a two-state **HMM** whose hidden states are the
//!    claim's truth values and whose observations are the ACS sequence
//!    ([`ClaimTruthModel`], paper §III-B/C);
//! 3. parameters are trained offline with Baum–Welch EM (paper Eq. 5) and
//!    the truth sequence is decoded with Viterbi (paper Eq. 6–8);
//! 4. because every step depends only on a claim's own ACS — not on
//!    cross-claim source-reliability coupling — the work **partitions by
//!    claim** (`Trace::reports_for_claim` lends each claim's sub-stream as
//!    a slice; [`claim_partition`] copies them out), which is what the
//!    distributed runtime exploits (paper §III-E).
//!
//! [`SstdEngine`] is the batch entry point; [`StreamingSstd`] decodes
//! incrementally as reports arrive, emitting a truth decision per claim
//! per interval; [`run_distributed`] runs the claim decomposition for
//! real — one task per claim on any `sstd_runtime` execution backend,
//! reassembled into estimates identical to the batch engine's.
//!
//! The streaming engine is **crash-consistent**: [`StreamingSstd::checkpoint`]
//! produces a versioned, checksummed [`StreamCheckpoint`] and
//! [`StreamingSstd::restore`] resumes from it bit-identically. The
//! [`Supervisor`] runs an ingest loop under a [`CheckpointPolicy`],
//! journals applied reports in a [`ReportJournal`], and recovers from
//! injected crashes by restoring the last checkpoint and replaying the
//! journal with exactly-once sequence-number dedupe (see DESIGN.md §13).
//! [`chaos_stream`] perturbs a report stream with the seeded ingest
//! faults of [`sstd_runtime::FaultPlan`] — drop, duplicate, bounded
//! reorder, payload corruption — for differential crash testing; it
//! checks the plan with [`FaultPlan::validate`](sstd_runtime::FaultPlan::validate).
//!
//! Every engine takes an [`SstdConfig`]: its public fields over
//! `Default`, set by struct literal, and checked by
//! [`SstdConfig::validate`] when an engine takes it.
//!
//! # Examples
//!
//! ```
//! use sstd_core::{SstdConfig, SstdEngine};
//! use sstd_types::*;
//!
//! // One claim, true then false; honest majority.
//! let timeline = Timeline::new(Timestamp::from_secs(100), 10);
//! let mut gt = GroundTruth::new(10);
//! gt.insert(ClaimId::new(0), vec![TruthLabel::True; 10]);
//! let reports: Vec<Report> = (0..50)
//!     .map(|i| Report::plain(
//!         SourceId::new(i % 5),
//!         ClaimId::new(0),
//!         Timestamp::from_secs(i as u64 * 2),
//!         Attitude::Agree,
//!     ))
//!     .collect();
//! let trace = Trace::new("demo", reports, 5, 1, timeline, gt);
//!
//! // A two-interval window instead of the default three.
//! let config = SstdConfig { window: 2, ..SstdConfig::default() };
//! config.validate().expect("a valid configuration");
//! let estimates = SstdEngine::new(config).run(&trace);
//! assert_eq!(estimates.labels(ClaimId::new(0)).unwrap(),
//!            &[TruthLabel::True; 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod acs;
mod checkpoint;
mod config;
mod correlation;
mod distributed;
mod engine;
mod estimates;
mod model;
mod recovery;
mod streaming;
mod workspace;

pub use acs::AcsAggregator;
pub use checkpoint::{config_fingerprint, RecoveryError, StreamCheckpoint, CHECKPOINT_VERSION};
pub use config::SstdConfig;
pub use correlation::{smooth_dependencies, ClaimDependency, Correlation};
pub use distributed::{
    resume_distributed, run_distributed, ClaimFit, DistributedError, DistributedRun,
};
pub use engine::{claim_partition, SstdEngine};
pub use estimates::{ConfidenceEstimates, TruthEstimates};
pub use model::ClaimTruthModel;
pub use recovery::{
    chaos_stream, CheckpointPolicy, IngestRecord, JournalEntry, ReportJournal, Supervisor,
};
pub use sstd_obs::{RecoveryEvent, StreamTick};
pub use streaming::{IngestOutcome, StreamingSstd, REFIT_HORIZON};
pub use workspace::ClaimWorkspace;
