//! # SSTD — Scalable Streaming Truth Discovery
//!
//! A production-quality reproduction of *"Towards Scalable and Dynamic
//! Social Sensing Using A Distributed Computing Framework"* (ICDCS 2017).
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! - [`types`] — domain vocabulary (sources, claims, reports, scores).
//! - [`stats`] — hand-rolled statistical substrate (distributions, online
//!   moments, chi-square bounds).
//! - [`hmm`] — the two-state truth HMM: Baum–Welch EM, Viterbi, the online
//!   Viterbi filter.
//! - [`text`] — tweet preprocessing: claim clustering, attitude /
//!   uncertainty / independence scoring.
//! - [`core`] — the SSTD scheme itself: sliding-window ACS aggregation plus
//!   per-claim HMM truth decoding.
//! - [`baselines`] — the six comparison schemes from the paper's evaluation
//!   (TruthFinder, RTD, CATD, Invest, 3-Estimates, DynaTD) and simple
//!   voting heuristics.
//! - [`runtime`] — a Work Queue / HTCondor-style master–worker execution
//!   substrate with threaded and discrete-event-simulated backends.
//! - [`obs`] — observability: the `EventStore` trace log every producer
//!   records into and its `Query` layer, and the `BENCH_*.json` exporter.
//! - [`control`] — PID feedback control and the deadline-driven Dynamic
//!   Task Manager.
//! - [`data`] — synthetic social-sensing trace generators (Boston Bombing /
//!   Paris Shooting / College Football presets).
//! - [`eval`] — metrics and the experiment harness regenerating every table
//!   and figure of the paper.
//! - [`serve`] — the sharded live-ingest service: run SSTD as a
//!   long-lived server with bounded queues, typed backpressure,
//!   versioned truth-update change streams, and per-shard crash
//!   recovery.
//!
//! # Quickstart
//!
//! ```
//! use sstd::core::{SstdConfig, SstdEngine};
//! use sstd::data::{Scenario, TraceBuilder};
//!
//! // Generate a small synthetic trace and decode truth with SSTD.
//! let trace = TraceBuilder::scenario(Scenario::BostonBombing)
//!     .scale(0.002)
//!     .seed(7)
//!     .build();
//! let engine = SstdEngine::new(SstdConfig::default());
//! let estimates = engine.run(&trace);
//! assert_eq!(estimates.num_claims(), trace.num_claims());
//! ```

pub use sstd_baselines as baselines;
pub use sstd_control as control;
pub use sstd_core as core;
pub use sstd_data as data;
pub use sstd_eval as eval;
pub use sstd_hmm as hmm;
pub use sstd_obs as obs;
pub use sstd_runtime as runtime;
pub use sstd_serve as serve;
pub use sstd_stats as stats;
pub use sstd_text as text;
pub use sstd_types as types;
