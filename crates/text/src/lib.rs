//! Tweet preprocessing: from raw posts to scored reports.
//!
//! The SSTD paper's data pipeline (§V-A2) derives claims and report scores
//! from raw tweets before any truth discovery runs:
//!
//! 1. **keyword filtering** drops posts irrelevant to the tracked event
//!    ([`KeywordFilter`]);
//! 2. **online clustering** with Jaccard distance groups similar posts into
//!    claims, splitting clusters whose diameter grows too large
//!    ([`ClaimClusterer`]);
//! 3. **attitude scoring** classifies each post as agreeing or disagreeing
//!    with its claim via a negation lexicon ([`LexiconAttitudeScorer`]);
//! 4. **uncertainty scoring** detects hedged language with a CoNLL-2010
//!    style cue-word inventory ([`HedgeUncertaintyScorer`]);
//! 5. **independence scoring** down-weights retweets and near-duplicates
//!    ([`RetweetIndependenceScorer`]).
//!
//! Stages 2 and 5 are the stateful ones. Both find the few clusters or
//! recent posts a new post can be close to through token postings
//! instead of comparing it with all of them, and decide exactly as the
//! comparison with all of them would (DESIGN.md §12, "Exact indexed text
//! stages").
//!
//! [`ReportPipeline`] chains all five stages. Every stage is behind a trait
//! (the paper's §VII explicitly calls for pluggable classifiers), so a
//! downstream user can swap in a real NLP model without touching the rest
//! of the system.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod attitude;
mod cluster;
mod independence;
mod index;
mod jaccard;
mod keywords;
mod nb;
mod pipeline;
mod tokenize;
mod uncertainty;

pub use attitude::{AttitudeScorer, LexiconAttitudeScorer};
pub use cluster::{ClaimClusterer, ClusterConfig};
pub use independence::{IndependenceScorer, RetweetIndependenceScorer};
pub use jaccard::{jaccard_distance, jaccard_similarity};
pub use keywords::KeywordFilter;
pub use nb::{NaiveBayes, NaiveBayesUncertaintyScorer};
pub use pipeline::{PipelineConfig, ReportPipeline};
pub use tokenize::{tokenize, TokenSet};
pub use uncertainty::{HedgeUncertaintyScorer, UncertaintyScorer};
