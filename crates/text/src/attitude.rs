//! Attitude scoring: does a post agree or disagree with its claim?
//!
//! The paper classifies a tweet as "disagree" when it contains negation
//! cues ("false", "fake", "rumor", "debunked", "not true", …) and "agree"
//! otherwise (§V-A2). The scorer is behind a trait so a polarity classifier
//! can replace the lexicon (paper §VII-2).

use crate::tokenize::{for_each_token, phrase_mask};
use sstd_types::Attitude;

/// Assigns an [`Attitude`] to a post relative to its claim.
pub trait AttitudeScorer {
    /// Classifies `text` as agreeing with, disagreeing with, or silent
    /// about the claim it was clustered into.
    fn attitude(&self, text: &str) -> Attitude;
}

/// Denial cues, following the paper's examples plus common
/// variants observed in rumor-debunking tweets.
const DENIAL_CUES: &[&str] = &[
    "false",
    "fake",
    "rumor",
    "rumour",
    "debunked",
    "hoax",
    "untrue",
    "misinformation",
    "incorrect",
    "wrong",
    "lie",
    "lies",
    "denied",
    "denies",
];

/// Bigram denial cues checked on the lowercased text (tokens lose
/// adjacency).
const DENIAL_PHRASES: &[&str] = &["not true", "no evidence", "not confirmed", "didn't happen"];

/// Lexicon-based attitude scorer.
///
/// # Examples
///
/// ```
/// use sstd_text::{AttitudeScorer, LexiconAttitudeScorer};
/// use sstd_types::Attitude;
///
/// let s = LexiconAttitudeScorer::new();
/// assert_eq!(s.attitude("There was a shooting at the campus"), Attitude::Agree);
/// assert_eq!(s.attitude("That shooting story is fake news"), Attitude::Disagree);
/// assert_eq!(s.attitude(""), Attitude::Silent);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LexiconAttitudeScorer;

impl LexiconAttitudeScorer {
    /// Creates a scorer with the built-in denial lexicon.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl AttitudeScorer for LexiconAttitudeScorer {
    fn attitude(&self, text: &str) -> Attitude {
        let (mut tokens, mut denies) = (false, false);
        for_each_token(text, &mut String::new(), |token| {
            tokens = true;
            denies = denies || DENIAL_CUES.contains(&token);
        });
        if !tokens {
            return Attitude::Silent;
        }
        if denies || phrase_mask(text, DENIAL_PHRASES) != 0 {
            Attitude::Disagree
        } else {
            Attitude::Agree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_assertion_agrees() {
        let s = LexiconAttitudeScorer::new();
        assert_eq!(s.attitude("Suspect arrested near the bridge"), Attitude::Agree);
    }

    #[test]
    fn denial_words_disagree() {
        let s = LexiconAttitudeScorer::new();
        for text in [
            "this is FALSE",
            "total hoax, ignore",
            "that rumor was debunked hours ago",
            "fake claims spreading again",
        ] {
            assert_eq!(s.attitude(text), Attitude::Disagree, "{text}");
        }
    }

    #[test]
    fn denial_phrases_disagree() {
        let s = LexiconAttitudeScorer::new();
        assert_eq!(s.attitude("police say it's not true"), Attitude::Disagree);
        assert_eq!(s.attitude("there is no evidence of a second bomb"), Attitude::Disagree);
    }

    #[test]
    fn empty_text_is_silent() {
        let s = LexiconAttitudeScorer::new();
        assert_eq!(s.attitude("   "), Attitude::Silent);
    }

    #[test]
    fn matches_paper_osu_example() {
        // Third tweet of paper Table I: contains "fake claims" → disagree.
        let s = LexiconAttitudeScorer::new();
        assert_eq!(
            s.attitude("Liberals putting out fake claims about the terrorist attack"),
            Attitude::Disagree
        );
        // First tweet: assertion → agree.
        assert_eq!(
            s.attitude("OSU POSSIBLE SHOOTING: I am on campus TONS of police"),
            Attitude::Agree
        );
    }
}
