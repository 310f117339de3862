//! Core domain types shared by every SSTD crate.
//!
//! This crate defines the vocabulary of the social-sensing truth-discovery
//! problem exactly as formulated in §II of the SSTD paper (ICDCS 2017):
//! *sources* make *reports* about *claims*; each report carries an
//! [`Attitude`], an [`Uncertainty`] score and an [`Independence`] score that
//! combine into a [`ContributionScore`] (paper Eq. 1); the hidden, evolving
//! truth of a claim is a sequence of [`TruthLabel`]s over discrete
//! [`Interval`]s.
//!
//! # Examples
//!
//! ```
//! use sstd_types::{Attitude, ContributionScore, Independence, Uncertainty};
//!
//! # fn main() -> Result<(), sstd_types::ScoreError> {
//! let cs = ContributionScore::compute(
//!     Attitude::Agree,
//!     Uncertainty::new(0.2)?,
//!     Independence::new(0.9)?,
//! );
//! assert!((cs.value() - 0.72).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod error;
mod ids;
mod post;
mod report;
mod score;
mod time;
mod trace;
mod truth;

pub use error::{BackendError, ConfigError, ScoreError, SstdError};
pub use ids::{ClaimId, SourceId};
pub use post::RawPost;
pub use report::Report;
pub use score::{Attitude, ContributionScore, Independence, Uncertainty};
pub use time::{Interval, Timeline, Timestamp};
pub use trace::{ClaimIndex, Trace, TraceError, TraceStats};
pub use truth::{GroundTruth, TruthLabel};
