//! Tokenization for micro-blog text.

use std::collections::BTreeSet;

/// Common English stopwords excluded from token sets so Jaccard distances
/// reflect content words, not glue. Sorted, for the binary search.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "her", "his", "i", "in", "is", "it", "its", "of", "on", "or", "our", "she", "so", "that",
    "the", "their", "there", "they", "this", "to", "was", "we", "were", "will", "with", "you",
];

/// The one tokenisation rule: calls `f` with each token of `text`, in
/// order. A token is a run of characters that are alphanumeric or an
/// apostrophe, with the apostrophes dropped and the rest lowercased as
/// one string (so context-sensitive mappings such as the final sigma see
/// the whole token); empty results and stopwords are skipped.
///
/// Lowercase ASCII runs are handed over as slices of `text`; anything else
/// goes through `buf`, which a caller that tokenises repeatedly keeps.
/// Only a run with non-ASCII characters allocates (`str::to_lowercase`).
pub(crate) fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for run in text.split(|c: char| !c.is_alphanumeric() && c != '\'') {
        let token = if run.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()) {
            run
        } else {
            buf.clear();
            if run.is_ascii() {
                buf.extend(
                    run.bytes()
                        .filter(u8::is_ascii_alphanumeric)
                        .map(|b| char::from(b.to_ascii_lowercase())),
                );
            } else {
                buf.extend(run.chars().filter(|c| c.is_alphanumeric()));
                *buf = buf.to_lowercase();
            }
            buf.as_str()
        };
        if !token.is_empty() && STOPWORDS.binary_search(&token).is_err() {
            f(token);
        }
    }
}

/// Splits text into lowercase alphanumeric tokens, dropping stopwords.
///
/// Hashtags keep their word ("#osu" → "osu"), mentions keep the handle,
/// and URLs are reduced to their hostname-ish tokens — the same light
/// normalization the paper's crawler applies before clustering.
///
/// # Examples
///
/// ```
/// use sstd_text::tokenize;
///
/// let toks = tokenize("Shooting at OSU campus! #osu @police https://t.co/x");
/// assert!(toks.contains(&"shooting".to_string()));
/// assert!(toks.contains(&"osu".to_string()));
/// assert!(!toks.contains(&"at".to_string()), "stopword removed");
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |token| tokens.push(token.to_owned()));
    tokens
}

/// An owned set of distinct tokens — the unit the Jaccard metric and the
/// clusterer operate on.
///
/// # Examples
///
/// ```
/// use sstd_text::TokenSet;
///
/// let a = TokenSet::from_text("bomb at the marathon finish line");
/// let b = TokenSet::from_text("marathon finish line bombing");
/// assert!(a.intersection_size(&b) >= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenSet {
    tokens: BTreeSet<String>,
}

impl TokenSet {
    /// Builds the token set of `text`.
    #[must_use]
    pub fn from_text(text: &str) -> Self {
        let mut tokens = BTreeSet::new();
        for_each_token(text, &mut String::new(), |token| {
            if !tokens.contains(token) {
                tokens.insert(token.to_owned());
            }
        });
        Self { tokens }
    }

    /// Number of distinct tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether `token` (already lowercase) is present.
    #[must_use]
    pub fn contains(&self, token: &str) -> bool {
        self.tokens.contains(token)
    }

    /// Size of the intersection with `other`.
    #[must_use]
    pub fn intersection_size(&self, other: &Self) -> usize {
        if self.len() > other.len() {
            return other.intersection_size(self);
        }
        self.tokens.iter().filter(|t| other.tokens.contains(*t)).count()
    }

    /// Size of the union with `other`.
    #[must_use]
    pub fn union_size(&self, other: &Self) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Merges `other` into this set.
    pub fn merge(&mut self, other: &Self) {
        for t in &other.tokens {
            self.tokens.insert(t.clone());
        }
    }

    /// Iterates over tokens in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.tokens.iter().map(String::as_str)
    }
}

impl FromIterator<String> for TokenSet {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Self { tokens: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        let toks = tokenize("BREAKING: Explosion!!! Near finish-line.");
        assert_eq!(toks, vec!["breaking", "explosion", "near", "finish", "line"]);
    }

    #[test]
    fn stopword_table_is_sorted() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]), "binary search needs the order");
    }

    /// `tokenize` as it was defined before the walker, one expression.
    fn tokenize_by_definition(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric() && c != '\'')
            .filter_map(|raw| {
                let t: String =
                    raw.chars().filter(|c| c.is_alphanumeric()).collect::<String>().to_lowercase();
                if t.is_empty() || STOPWORDS.contains(&t.as_str()) {
                    None
                } else {
                    Some(t)
                }
            })
            .collect()
    }

    #[test]
    fn the_walker_keeps_the_definition() {
        for text in [
            "BREAKING: Explosion!!! Near finish-line.",
            "it's THE end, don't panic — I'll be there'",
            "'' ' a'b'c 'tis",
            "ΣΑΣ ΌΣΟΣ Σ σας ΑΣ'",
            "İstanbul İSTANBUL ıI Straße STRAßE ǅungla",
            "Café 日本語 서울 москва ①② x² ½",
            "bridge🔥closed #Hash_tag @user_name https://t.co/AbC123",
            "ΤΗΣ'Σ ΤΗΣ' ΣΑΣthe THEΣ",
            "",
            "   ",
        ] {
            assert_eq!(tokenize(text), tokenize_by_definition(text), "{text:?}");
            let set: BTreeSet<String> = tokenize_by_definition(text).into_iter().collect();
            assert_eq!(TokenSet::from_text(text).tokens, set, "{text:?}");
        }
    }

    #[test]
    fn removes_stopwords() {
        let toks = tokenize("there is a bomb at the library");
        assert_eq!(toks, vec!["bomb", "library"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ???").is_empty());
    }

    #[test]
    fn hashtags_and_mentions_keep_words() {
        let toks = tokenize("#PrayForBoston @BostonPolice");
        assert_eq!(toks, vec!["prayforboston", "bostonpolice"]);
    }

    #[test]
    fn token_set_dedups() {
        let s = TokenSet::from_text("bomb bomb bomb");
        assert_eq!(s.len(), 1);
        assert!(s.contains("bomb"));
    }

    #[test]
    fn set_operations() {
        let a = TokenSet::from_text("suspect seen near campus");
        let b = TokenSet::from_text("suspect arrested near bridge");
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 6);
    }

    #[test]
    fn merge_unions_tokens() {
        let mut a = TokenSet::from_text("police chase");
        let b = TokenSet::from_text("chase ended");
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_set_behaves() {
        let e = TokenSet::default();
        let a = TokenSet::from_text("anything");
        assert!(e.is_empty());
        assert_eq!(e.intersection_size(&a), 0);
        assert_eq!(e.union_size(&a), 1);
    }
}
