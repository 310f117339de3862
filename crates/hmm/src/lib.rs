//! The two-state truth HMM of streaming truth discovery.
//!
//! The SSTD paper (§III) models the evolving truth of each claim as the
//! hidden state of a two-state HMM — "true" or "false" — whose
//! observations are Aggregated Contribution Scores. This crate is that
//! model:
//!
//! - [`Hmm`] — two states, a truth chain `(π, A)` fixed when the model
//!   is built, and a [`SymmetricGaussianEmission`] (`N(+μ, σ²)` while the
//!   claim is true, `N(−μ, σ²)` while it is false);
//! - [`forward_backward_into`] — scaled forward–backward inference and
//!   log-likelihood (paper Eq. 5's objective);
//! - [`BaumWelch`] — unsupervised EM of the emission `(μ, σ)` under the
//!   fixed chain (paper §III-C; unlike the paper's Eq. 5 it does not
//!   re-estimate `A`);
//! - [`viterbi_into`] — maximum a posteriori state-sequence decoding
//!   (paper Eq. 6–8);
//! - [`StreamingViterbi`] — the online Viterbi filter: the same
//!   max-product step one observation at a time, keeping only the current
//!   scores, which the streaming engine decides each closed interval by.
//!
//! The brute-force enumeration oracles the property tests check these
//! against live in `sstd_testkit::oracle::hmm`.
//!
//! # Zero-allocation kernels
//!
//! The numeric core keeps one `[f64; 2]` row per time step and runs
//! against caller-owned scratch arenas: [`forward_backward_into`] +
//! [`BaumWelch::train_into`] reuse an [`EmWorkspace`], and
//! [`viterbi_into`] reuses a [`DecodeWorkspace`]. After the first call at
//! a given sequence length the kernels allocate nothing, so hot loops (EM
//! iterations, per-claim jobs, streaming intervals) can amortize one
//! workspace across thousands of invocations.
//!
//! The EM kernel's arithmetic is part of its contract: one loop body,
//! every accumulator fed in a fixed order, held bit-identical to the
//! reference loops in `sstd_testkit::oracle::hmm` (DESIGN.md §12, "The
//! exact two-state EM kernel").
//!
//! # Examples
//!
//! Train the truth model on a bimodal sequence and decode it:
//!
//! ```
//! use sstd_hmm::{viterbi_into, BaumWelch, DecodeWorkspace, EmWorkspace, Hmm};
//! use sstd_hmm::SymmetricGaussianEmission;
//!
//! let obs: Vec<f64> = vec![5.1, 4.9, 5.2, -4.8, -5.1, -5.0, 5.0, 5.1];
//! let mut hmm = Hmm::new(
//!     vec![0.5, 0.5],
//!     vec![vec![0.9, 0.1], vec![0.1, 0.9]],
//!     SymmetricGaussianEmission::new(4.0, 1.0).unwrap(),
//! ).unwrap();
//! BaumWelch::default().train_into(&mut hmm, &obs, &mut EmWorkspace::new());
//! let mut decode = DecodeWorkspace::new();
//! let path = viterbi_into(&hmm, &obs, &mut decode);
//! assert_eq!(path[0], path[1]);
//! assert_ne!(path[2], path[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod baum_welch;
mod emission;
mod forward;
mod model;
mod streaming;
mod viterbi;

pub use baum_welch::{BaumWelch, TrainStats};
pub use emission::SymmetricGaussianEmission;
pub use forward::{forward_backward_into, EmWorkspace};
pub use model::{Hmm, HmmError};
pub use streaming::StreamingViterbi;
pub use viterbi::{viterbi_into, DecodeWorkspace};
