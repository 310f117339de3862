//! Tokenization for micro-blog text.

use std::borrow::Cow;
use std::collections::BTreeSet;

/// Common English stopwords excluded from token sets so Jaccard distances
/// reflect content words, not glue. Sorted, for the binary search.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "her", "his", "i", "in", "is", "it", "its", "of", "on", "or", "our", "she", "so", "that",
    "the", "their", "there", "they", "this", "to", "was", "we", "were", "will", "with", "you",
];

/// No stopword is longer, so a longer token skips the search.
const LONGEST_STOPWORD: usize = 5;

/// The one tokenisation rule: calls `f` with each token of `text`, in
/// order. A token is a run of characters that are alphanumeric or an
/// apostrophe, with the apostrophes dropped and the rest lowercased as
/// one string (so context-sensitive mappings such as the final sigma see
/// the whole token); empty results and stopwords are skipped.
///
/// ASCII text is split by bytes, other text by `char`s. Lowercase ASCII
/// runs are handed over as slices of `text`, other ASCII runs of up to 64
/// bytes are lowercased on the stack, and the rest go through `buf`.
pub(crate) fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    let mut inline = [0u8; 64];
    let mut emit = |run: &str| {
        let token = if run.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()) {
            run
        } else if run.is_ascii() && run.len() <= inline.len() {
            let mut len = 0;
            for b in run.bytes().filter(u8::is_ascii_alphanumeric) {
                inline[len] = b.to_ascii_lowercase();
                len += 1;
            }
            std::str::from_utf8(&inline[..len]).expect("ASCII is UTF-8")
        } else {
            buf.clear();
            buf.extend(run.chars().filter(|c| c.is_alphanumeric()));
            *buf = buf.to_lowercase();
            buf.as_str()
        };
        let stopword = token.len() <= LONGEST_STOPWORD && STOPWORDS.binary_search(&token).is_ok();
        if !token.is_empty() && !stopword {
            f(token);
        }
    };
    if !text.is_ascii() {
        return text.split(|c: char| !c.is_alphanumeric() && c != '\'').for_each(emit);
    }
    let mut start = 0;
    for (end, b) in text.bytes().enumerate().chain([(text.len(), b' ')]) {
        if !b.is_ascii_alphanumeric() && b != b'\'' {
            emit(&text[start..end]);
            start = end + 1;
        }
    }
}

/// `text` as `str::to_lowercase` gives it, borrowed if that changes nothing.
pub(crate) fn lowercase(text: &str) -> Cow<'_, str> {
    if text.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

/// Bit `i` is set when `text`, lowercased, contains `phrases[i]` (lowercase
/// ASCII). Only non-ASCII text is lowercased into a copy to search.
pub(crate) fn phrase_mask(text: &str, phrases: &[&str]) -> u32 {
    let fold = text.is_ascii() && text.bytes().any(|b| b.is_ascii_uppercase());
    let lower = if fold { Cow::Borrowed(text) } else { lowercase(text) };
    let contains = |p: &[u8]| lower.as_bytes().windows(p.len()).any(|w| w.eq_ignore_ascii_case(p));
    let found = |p: &&str| if fold { contains(p.as_bytes()) } else { lower.contains(p) };
    phrases.iter().enumerate().fold(0, |mask, (i, p)| mask | u32::from(found(p)) << i)
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
    use sstd_testkit::oracle::text as definition;

    #[test]
    fn lowercases_and_strips_punctuation() {
        let toks = tokenize("BREAKING: Explosion!!! Near finish-line.");
        assert_eq!(toks, vec!["breaking", "explosion", "near", "finish", "line"]);
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
            "THEIR There'S A An'D wITh YOU'",
            "",
            "   ",
        ] {
            assert_eq!(tokenize(text), definition::tokenize(text), "{text:?}");
            assert_eq!(TokenSet::from_text(text).tokens, definition::token_set(text), "{text:?}");
        }
        let long = format!("{} {}", "Ab'c".repeat(40), "x".repeat(65));
        assert_eq!(tokenize(&long), definition::tokenize(&long));
    }

    #[test]
    fn stopword_table_is_sorted_and_short() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]), "binary search needs the order");
        assert!(STOPWORDS.iter().all(|w| w.len() <= LONGEST_STOPWORD), "the guard skips none");
        assert_eq!(STOPWORDS, definition::STOPWORDS);
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
