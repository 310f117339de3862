//! Sharded live-ingest service: run SSTD as a long-lived server.
//!
//! The batch and streaming engines answer "what is true?" for a corpus
//! you already hold; this crate keeps an SSTD deployment *running* —
//! reports arrive forever, truth updates flow out as they commit, and
//! the process is expected to crash and come back without changing a
//! single decision. Two front-ends share one shard implementation:
//!
//! - [`IngestService`] — single-threaded and deterministic: explicit
//!   bounded queues, explicit [`pump`](IngestService::pump), exact
//!   backpressure. The reference the differential suite trusts.
//! - [`IngestServer`] / [`IngestClient`] — one worker thread per shard
//!   behind a bounded channel; the ingest hot path is a `try_send` plus
//!   a few atomics. What the benchmark's streaming workloads measure.
//!
//! Reports route to shards by [`ClaimId`](sstd_types::ClaimId) hash, so
//! a claim's reports always land on the same shard in submission order
//! and no state is shared across shards. A shard is a
//! [`Supervisor`](sstd_core::Supervisor) plus change-stream cursors:
//!
//! - the supervisor is the engine, its write-ahead journal, its durable
//!   checkpoint and the one recovery state machine over them, so a shard
//!   crash recovers bit-identically, and its
//!   [`EventStore`](sstd_obs::EventStore) receives a
//!   [`StreamTick`](sstd_obs::StreamTick) per closed interval and a
//!   [`RecoveryEvent`](sstd_obs::RecoveryEvent) per checkpoint, crash and
//!   restore;
//! - in front of it, a bounded ingest queue (overflow is the typed
//!   [`IngestError::Backpressure`], never silent loss);
//! - behind it, a versioned [`TruthUpdate`] change stream, drained
//!   through [`ChangeStream`] handles.
//!
//! The headline guarantee, checked by the `serve_differential` suite:
//! for time-ordered streams, the sharded service's merged estimates are
//! bit-identical to one [`StreamingSstd`](sstd_core::StreamingSstd)
//! fed the same reports — sharding, queueing, crash/recovery, and the
//! change stream are all observationally invisible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod server;
mod service;
mod shard;
mod update;

pub use config::{ServeConfig, ServeConfigBuilder};
pub use error::IngestError;
pub use server::{IngestClient, IngestServer};
pub use service::IngestService;
pub use update::{ChangeStream, TruthUpdate};

/// One-line import of the service surface and the types its signatures
/// mention.
///
/// # Examples
///
/// ```
/// use sstd_serve::prelude::*;
///
/// let config = ServeConfig::builder()
///     .shards(2)
///     .timeline_from(Timeline::new(Timestamp::from_secs(600), 6))
///     .build()
///     .unwrap();
/// let service = IngestService::new(config).unwrap();
/// assert_eq!(service.num_shards(), 2);
/// ```
pub mod prelude {
    pub use crate::{
        ChangeStream, IngestClient, IngestError, IngestServer, IngestService, ServeConfig,
        TruthUpdate,
    };
    pub use sstd_core::{IngestOutcome, SstdConfig, TruthEstimates};
    pub use sstd_types::{
        Attitude, ClaimId, ConfigError, Report, SourceId, SstdError, Timeline, Timestamp,
        TruthLabel,
    };
}
