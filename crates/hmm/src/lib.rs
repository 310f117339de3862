//! Hidden Markov Models for streaming truth discovery.
//!
//! The SSTD paper (§III) models the evolving truth of each claim as the
//! hidden state of a two-state HMM whose observations are Aggregated
//! Contribution Scores. This crate provides the general machinery that
//! model instantiates:
//!
//! - [`Hmm`] — an N-state model with a pluggable [`Emission`] distribution
//!   (a sign-symmetric Gaussian for windowed ACS values, categorical for
//!   binned symbols);
//! - [`forward_backward_into`] — scaled forward–backward inference and
//!   log-likelihood (paper Eq. 5's objective);
//! - [`BaumWelch`] — unsupervised EM parameter estimation (paper §III-C);
//! - [`viterbi`] — maximum a posteriori state-sequence decoding (paper
//!   Eq. 6–8);
//! - [`StreamingViterbi`] — the online Viterbi filter: the same
//!   max-product step one observation at a time, keeping only the current
//!   scores, which the streaming engine decides each closed interval by;
//! - [`exhaustive`] — brute-force reference implementations used by the
//!   property tests (and handy for validating downstream models).
//!
//! # Zero-allocation kernels
//!
//! The numeric core stores its dense tables in flat row-major [`Mat`]
//! buffers and exposes `_into` entry points that run against caller-owned
//! scratch arenas: [`forward_backward_into`] + [`BaumWelch::train_into`]
//! reuse an [`EmWorkspace`], and [`viterbi_into`] reuses a
//! [`DecodeWorkspace`]. After the first call at a given problem shape the
//! kernels allocate nothing, so hot loops (EM iterations, per-claim jobs,
//! streaming intervals) can amortize one workspace across thousands of
//! invocations. The classic allocating signatures remain as thin wrappers
//! and return bit-identical results.
//!
//! The EM kernel's arithmetic is part of its contract: one loop body,
//! every accumulator fed in a fixed order, held bit-identical to the
//! reference loops in `sstd_testkit::oracle::hmm` (DESIGN.md §12, "The
//! exact two-state EM kernel").
//!
//! # Examples
//!
//! Train a two-state Gaussian HMM on a bimodal sequence and decode it:
//!
//! ```
//! use sstd_hmm::{BaumWelch, Hmm, SymmetricGaussianEmission, viterbi};
//!
//! let obs: Vec<f64> = vec![5.1, 4.9, 5.2, -4.8, -5.1, -5.0, 5.0, 5.1];
//! let init = Hmm::new(
//!     vec![0.5, 0.5],
//!     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
//!     SymmetricGaussianEmission::new(4.0, 1.0).unwrap(),
//! ).unwrap();
//! let trained = BaumWelch::default().train(init, &obs).model;
//! let path = viterbi(&trained, &obs);
//! assert_eq!(path[0], path[1]);
//! assert_ne!(path[2], path[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod baum_welch;
mod emission;
pub mod exhaustive;
mod forward;
pub mod mat;
mod model;
mod streaming;
mod viterbi;

pub use baum_welch::{BaumWelch, TrainOutcome, TrainStats};
pub use emission::{CategoricalEmission, Emission, SymmetricGaussianEmission, TrainableEmission};
pub use forward::{forward_backward_into, EmWorkspace};
pub use mat::Mat;
pub use model::{Hmm, HmmError};
pub use streaming::StreamingViterbi;
pub use viterbi::{viterbi, viterbi_into, DecodeWorkspace};
