//! Statistical substrate for SSTD, written from scratch.
//!
//! The SSTD reproduction needs a handful of numerical tools, and the
//! workspace depends on no registry crate: a seeded random stream
//! ([`SplitMix64`]), samplers for the populations the trace generator
//! draws (Gaussian, Beta, Zipf, Poisson), special functions for the CATD
//! baseline's chi-square confidence bounds, numerically stable log-space
//! reductions for the HMM oracles, and streaming moment estimators for the
//! runtime's execution-time monitoring. They are all implemented here,
//! on top of nothing but the standard library.
//!
//! # Examples
//!
//! ```
//! use sstd_stats::dist::Normal;
//! use sstd_stats::SplitMix64;
//!
//! let normal = Normal::new(0.0, 1.0).unwrap();
//! let mut rng = SplitMix64::new(1);
//! let x = normal.sample(&mut rng);
//! assert!(x.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod dist;
pub mod logspace;
pub mod online;
pub mod quantile;
pub mod rng;
pub mod special;

pub use dist::{Beta, DistError, Normal, Poisson, Zipf};
pub use logspace::log_sum_exp;
pub use online::OnlineStats;
pub use quantile::exact_quantile;
pub use rng::{mix64, SplitMix64};
