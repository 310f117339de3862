//! Property-based + differential correctness harness for SSTD.
//!
//! The SSTD pipeline is an unsupervised EM + Viterbi system whose batch,
//! streaming, and distributed paths must stay interchangeable as hot
//! paths get optimized. This crate is the substrate that keeps them
//! honest, with zero new dependencies:
//!
//! - [`TestRng`] — a SplitMix64 PRNG, so every case is a 64-bit seed;
//! - [`Gen`] — seeded generators of arbitrary-but-valid domain values
//!   ([`domain`]: report streams, ACS sequences, HMM parameter sets,
//!   fault plans, engine configs, raw-post streams, and the adversarial
//!   truth-discovery scenarios of [`domain::scenario`]) with integrated
//!   greedy shrinking;
//! - [`oracle`] — brute-force reference implementations (exhaustive
//!   Viterbi, direct-sum likelihood, naive sliding-window ACS, sorted
//!   quantiles, scanned histogram bins, the linear-scan text stages);
//! - [`check`] — the runner: on failure it shrinks the case and prints a
//!   `TESTKIT_SEED=… TESTKIT_CASES=1` line that replays it exactly.
//!
//! # Examples
//!
//! A differential property: the engine's rolling ACS must match the
//! naive windowed recomputation on every generated case.
//!
//! ```
//! use sstd_core::AcsAggregator;
//! use sstd_testkit::{check, domain, oracle};
//!
//! check("acs_rolling_matches_naive", 200, &domain::acs_case(8, 12), |case| {
//!     let mut agg = AcsAggregator::new(case.num_intervals, case.window);
//!     for &(interval, cs) in &case.scores {
//!         agg.add_score(interval, cs);
//!     }
//!     let expected = oracle::naive_acs(agg.interval_sums(), case.window);
//!     let got = agg.sequence();
//!     if got.iter().zip(&expected).all(|(a, b)| (a - b).abs() < 1e-9) {
//!         Ok(())
//!     } else {
//!         Err(format!("rolling {got:?} != naive {expected:?}"))
//!     }
//! });
//! ```
//!
//! Reproducing a failure is one environment line — the panic message
//! prints it: `TESTKIT_SEED=<case seed> TESTKIT_CASES=1 cargo test -p
//! <crate> <property>`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod check;
pub mod domain;
mod gen;
pub mod oracle;
mod rng;

pub use check::{check, check_with, CheckConfig, CounterExample, DEFAULT_SEED};
pub use gen::{gens, Gen};
pub use rng::{mix64, TestRng};
