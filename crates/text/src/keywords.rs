//! Event keyword filtering — the first stage of the paper's pipeline
//! ("we first used a set of pre-specified keywords to filter out tweets
//! that are irrelevant to the event of interests", §V-A2).

use crate::tokenize::{for_each_token, lowercase};

/// Keeps only posts mentioning at least one tracked event keyword.
///
/// # Examples
///
/// ```
/// use sstd_text::KeywordFilter;
///
/// let f = KeywordFilter::new(["boston", "marathon", "bombing"]);
/// assert!(f.matches("Explosion at the Boston marathon finish line"));
/// assert!(!f.matches("Nice weather today"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordFilter {
    keywords: Vec<String>,
}

impl KeywordFilter {
    /// Creates a filter from event query terms (case-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if no keyword is given — a keywordless filter would silently
    /// drop the whole stream.
    #[must_use]
    pub fn new<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let keywords: Vec<String> =
            keywords.into_iter().map(|k| lowercase(k.as_ref()).into_owned()).collect();
        assert!(!keywords.is_empty(), "keyword filter needs at least one keyword");
        Self { keywords }
    }

    /// The tracked keywords (lowercase).
    #[must_use]
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Whether `text` mentions any tracked keyword as a token.
    #[must_use]
    pub fn matches(&self, text: &str) -> bool {
        let mut found = false;
        for_each_token(text, &mut String::new(), |t| found |= self.keywords.iter().any(|k| k == t));
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_any_keyword() {
        let f = KeywordFilter::new(["paris", "shooting"]);
        assert!(f.matches("Shooting reported in central Paris"));
        assert!(f.matches("paris is on lockdown"));
        assert!(!f.matches("great concert last night"));
    }

    #[test]
    fn matching_is_token_based_not_substring() {
        let f = KeywordFilter::new(["osu"]);
        assert!(f.matches("stay safe #osu"));
        // "colosseum" contains "osu" as a substring but not as a token
        assert!(!f.matches("visiting the colosseum"));
    }

    #[test]
    fn case_insensitive_keywords() {
        let f = KeywordFilter::new(["BOMBING"]);
        assert!(f.matches("bombing near the finish line"));
        assert_eq!(f.keywords(), &["bombing".to_string()]);
    }

    #[test]
    #[should_panic(expected = "at least one keyword")]
    fn empty_keywords_panic() {
        let _ = KeywordFilter::new(Vec::<String>::new());
    }
}
