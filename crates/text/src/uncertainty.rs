//! Uncertainty (hedging) scoring.
//!
//! The paper trains a hedge classifier on the CoNLL-2010 shared task
//! ("Learning to detect hedges and their scope in natural language text")
//! and uses its output as the uncertainty score `κ`. We reproduce the
//! signal with the CoNLL-2010 hedge-cue inventory: each cue found in a
//! post raises `κ`, saturating below 1.

use crate::tokenize::{for_each_token, phrase_mask};
use sstd_types::Uncertainty;

/// Assigns an [`Uncertainty`] score `κ ∈ [0, 1]` to a post.
pub trait UncertaintyScorer {
    /// Scores how much `text` hedges its assertion.
    fn uncertainty(&self, text: &str) -> Uncertainty;
}

/// Single-word hedge cues from the CoNLL-2010 Wikipedia/BioScope cue
/// inventories, restricted to those plausible in tweets.
const HEDGE_CUES: &[&str] = &[
    "may",
    "might",
    "maybe",
    "possibly",
    "possible",
    "perhaps",
    "probably",
    "likely",
    "unlikely",
    "apparently",
    "allegedly",
    "reportedly",
    "seems",
    "seemingly",
    "suggests",
    "unconfirmed",
    "unverified",
    "unclear",
    "uncertain",
    "speculation",
    "supposedly",
    "potentially",
    "could",
    "hear",
    "heard",
    "rumored",
    "rumoured",
];

/// Multi-word hedge cues matched in the lowercased text.
const HEDGE_PHRASES: &[&str] = &[
    "not sure",
    "no confirmation",
    "can't confirm",
    "cannot confirm",
    "yet to confirm",
    "waiting for confirmation",
    "if true",
    "sources say",
    "some reports",
];

/// What each matched cue adds to a post's uncertainty.
const PER_CUE: f64 = 0.3;

/// Where a post's uncertainty saturates, however many cues it carries.
const MAX_SCORE: f64 = 0.9;

/// Lexicon ("hedge cue") uncertainty scorer.
///
/// Each matched cue contributes 0.3 to the score, saturating at 0.9; a
/// cue-free post scores 0.
///
/// # Examples
///
/// ```
/// use sstd_text::{HedgeUncertaintyScorer, UncertaintyScorer};
///
/// let s = HedgeUncertaintyScorer::new();
/// assert_eq!(s.uncertainty("Police confirmed the arrest").value(), 0.0);
/// assert!(s.uncertainty("Possibly a second suspect, unconfirmed").value() > 0.4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HedgeUncertaintyScorer;

impl HedgeUncertaintyScorer {
    /// Creates a scorer (0.3 per cue, capped at 0.9).
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    fn count_cues(&self, text: &str) -> u32 {
        const _: () = assert!(HEDGE_CUES.len() <= 32 && HEDGE_PHRASES.len() <= 32);
        let mut seen = 0u32;
        for_each_token(text, &mut String::new(), |token| {
            if let Some(i) = HEDGE_CUES.iter().position(|&c| c == token) {
                seen |= 1 << i;
            }
        });
        seen.count_ones() + phrase_mask(text, HEDGE_PHRASES).count_ones()
    }
}

impl UncertaintyScorer for HedgeUncertaintyScorer {
    fn uncertainty(&self, text: &str) -> Uncertainty {
        let cues = f64::from(self.count_cues(text));
        Uncertainty::saturating((cues * PER_CUE).min(MAX_SCORE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_text_scores_zero() {
        let s = HedgeUncertaintyScorer::new();
        assert_eq!(s.uncertainty("Two explosions at the finish line").value(), 0.0);
    }

    #[test]
    fn single_cue_scores_per_cue() {
        let s = HedgeUncertaintyScorer::new();
        assert!((s.uncertainty("possibly an explosion").value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn multiple_cues_accumulate_and_saturate() {
        let s = HedgeUncertaintyScorer::new();
        let v =
            s.uncertainty("allegedly maybe possibly unconfirmed reports, not sure if true").value();
        assert_eq!(v, 0.9, "saturates at the cap");
    }

    #[test]
    fn phrases_count() {
        let s = HedgeUncertaintyScorer::new();
        assert!(s.uncertainty("sources say there was a blast").value() > 0.0);
        assert!(s.uncertainty("can't confirm anything yet").value() > 0.0);
    }

    #[test]
    fn paper_osu_tweet_is_hedged() {
        // "OSU POSSIBLE SHOOTING" — the paper's Table I example hedges.
        let s = HedgeUncertaintyScorer::new();
        assert!(s.uncertainty("OSU POSSIBLE SHOOTING: I am on campus").value() > 0.0);
    }

    #[test]
    fn two_cues_score_twice_one_under_the_cap() {
        let s = HedgeUncertaintyScorer::new();
        assert!((s.uncertainty("maybe perhaps").value() - 0.6).abs() < 1e-12);
    }
}
