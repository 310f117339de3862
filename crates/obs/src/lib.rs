//! Observability for SSTD: a write-optimized, queryable trace store for
//! task, control-loop, streaming and recovery events, plus metrics.
//!
//! The paper evaluates SSTD by *measuring* it — per-interval decision
//! latency, task turnaround on the Work Queue pool, PID-controlled
//! workload error (§IV–V). This crate is the measurement layer those
//! curves come from, built around one unified log:
//!
//! - [`EventStore`] — the append-only, chunked trace store every
//!   telemetry domain writes through. One [`Event`] per record: a
//!   monotonic sequence id, an explicit causality link (task → attempt →
//!   retry chains, checkpoint → crash → restore), and an [`EventKind`]
//!   payload. Bounded-memory operation via [`StoreConfig`]: whole-segment
//!   eviction with truthful drop accounting;
//! - [`Query`] — the builder for filtering (class, task/job/worker,
//!   phase label, time range, sequence watermark), grouping, and
//!   reducing (count/sum/mean, exact and P² percentiles via
//!   `sstd_stats`) over the store, plus causal chain reconstruction
//!   ([`AttemptChain`] / [`Attempt`] via
//!   [`EventStore::attempt_chain`]);
//! - [`MetricsRegistry`] — a lock-cheap registry of named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`HistogramHandle`]s (uniform bucket
//!   geometry from [`sstd_stats::Histogram`], or validated explicit
//!   edges), snapshotted to JSON or CSV;
//! - [`ControlTick`], [`StreamTick`], [`RecoveryEvent`] — the payloads
//!   the Dynamic Task Manager (one sample per PID tick: setpoint,
//!   measured workload, error, actuation), the streaming engine (one per
//!   closed interval: report counts, ACS window occupancy, decode
//!   latency, decision flips, late/rejected ingest counts) and the
//!   crash-recovery supervisor (checkpoints written, crashes observed,
//!   journal replay lengths, recovery latency) record; task lifecycle
//!   events arrive through the store's [`sstd_runtime::Recorder`] impl,
//!   so a DES run and a threaded run of the same seeded `FaultPlan`
//!   produce [structurally comparable](EventStore::structurally_equal)
//!   traces;
//! - [`BenchReport`] — the `BENCH_*.json`-compatible trajectory exporter
//!   the evaluation binaries write.
//!
//! There is one telemetry path: every producer takes an
//! `Arc<EventStore>` — share one so a whole run lands in a single
//! causally-linked log — and every reader asks through [`Query`].
//!
//! Everything here is pull-based and allocation-light: recording an event
//! is an atomic increment or a short `Mutex`-guarded push into the open
//! segment, and the runtime's default recorder is a no-op, so
//! instrumentation costs nothing until a sink is installed (the
//! benchmark's `obs.telemetry_share` measures exactly this).
//!
//! # Examples
//!
//! ```
//! use sstd_obs::EventStore;
//! use sstd_runtime::prelude::*;
//! use std::sync::Arc;
//!
//! let store = Arc::new(EventStore::new());
//! let mut des = DesEngine::new(Cluster::homogeneous(2, 1.0), ExecutionModel::default(), 2);
//! des.set_recorder(Some(store.clone()));
//! des.submit(TaskSpec::new(JobId::new(0), 100.0));
//! let _ = des.run_to_completion();
//! assert_eq!(store.query().tasks().count(), 3); // queued, dispatched, completed
//! let p_done = store.query().tasks().label("completed")
//!     .percentile(1.0, |e| e.timeline_event().map(|t| t.at));
//! assert!(p_done.unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod control;
mod event;
mod export;
mod metrics;
mod query;
mod recovery;
mod store;
mod stream;

pub use control::ControlTick;
pub use event::{Event, EventClass, EventKind};
pub use export::BenchReport;
pub use metrics::{
    Counter, Gauge, HistogramHandle, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use query::{Attempt, AttemptChain, Query};
pub use recovery::RecoveryEvent;
pub use store::{EventStore, StoreConfig};
pub use stream::StreamTick;

pub use sstd_runtime::{LossCause, TaskPhase, TimelineEvent};

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value (`null` when not finite).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
