//! The text front door by definition. The tokeniser and the three lexicon
//! stages (keyword filter, attitude, hedge uncertainty) as they were
//! written before the token walker: every stage builds the post's
//! `BTreeSet<String>` and lowercases the whole text to look for phrases.
//! `sstd-text` now walks each post once per stage with no set and no
//! copy; tokens, keyword matches, attitudes and uncertainty bits are the
//! reference it must reproduce.
//!
//! Then the clusterer and duplicate window as they were before token
//! postings: every post is compared with every cluster representative and
//! with every post in the duplicate window, one `BTreeSet<String>`
//! intersection at a time. Cost per post grows with the number of claims
//! and with the window, which is why `sstd-text` no longer does this;
//! claim ids, split points, claim sizes and independence scores are the
//! reference its indexed stages must reproduce bit for bit.
//!
//! The clusterer (assign, split, `claim_size`) and the window are
//! `sstd-text`'s former `ClaimClusterer` and `RetweetIndependenceScorer`,
//! kept as they were. They take token sets, not text: this crate does not
//! depend on `sstd-text` (which tests against it), so a test tokenises
//! with the public `sstd_text::tokenize` and feeds both sides.

use sstd_types::{Attitude, Independence, Timestamp, Uncertainty};
use std::collections::{BTreeSet, VecDeque};

/// The stopwords the tokeniser drops, sorted.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "her", "his", "i", "in", "is", "it", "its", "of", "on", "or", "our", "she", "so", "that",
    "the", "their", "there", "they", "this", "to", "was", "we", "were", "will", "with", "you",
];

/// `sstd_text::tokenize` by its definition, one expression: split on every
/// character that is neither alphanumeric nor an apostrophe, keep the
/// alphanumeric characters of each run, lowercase them as one string, and
/// drop empty tokens and stopwords.
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
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

/// The distinct tokens of `text`: `sstd_text::TokenSet::from_text`.
#[must_use]
pub fn token_set(text: &str) -> Tokens {
    tokenize(text).into_iter().collect()
}

/// Whether `text` mentions any of `keywords` as a token, each keyword
/// lowercased: `sstd_text::KeywordFilter::new(keywords).matches(text)`.
#[must_use]
pub fn keyword_matches<S: AsRef<str>>(keywords: &[S], text: &str) -> bool {
    let tokens = token_set(text);
    keywords.iter().any(|k| tokens.contains(&k.as_ref().to_lowercase()))
}

/// The attitude scorer's denial cues, matched as tokens.
pub const DENIAL_CUES: &[&str] = &[
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

/// The attitude scorer's denial phrases, matched in the lowercased text.
pub const DENIAL_PHRASES: &[&str] = &["not true", "no evidence", "not confirmed", "didn't happen"];

/// `sstd_text::LexiconAttitudeScorer`: silent without a token, disagree on
/// a denial cue or phrase, agree otherwise.
#[must_use]
pub fn attitude(text: &str) -> Attitude {
    let tokens = token_set(text);
    if tokens.is_empty() {
        return Attitude::Silent;
    }
    let lower = text.to_lowercase();
    let denies = DENIAL_CUES.iter().any(|c| tokens.contains(*c))
        || DENIAL_PHRASES.iter().any(|p| lower.contains(p));
    if denies {
        Attitude::Disagree
    } else {
        Attitude::Agree
    }
}

/// The hedge scorer's single-word cues, matched as tokens.
pub const HEDGE_CUES: &[&str] = &[
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

/// The hedge scorer's multi-word cues, matched in the lowercased text.
pub const HEDGE_PHRASES: &[&str] = &[
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

/// `sstd_text::HedgeUncertaintyScorer`: 0.3 for each distinct cue and
/// phrase found, saturating at 0.9.
#[must_use]
pub fn uncertainty(text: &str) -> Uncertainty {
    let tokens = token_set(text);
    let lower = text.to_lowercase();
    let cues = HEDGE_CUES.iter().filter(|c| tokens.contains(**c)).count()
        + HEDGE_PHRASES.iter().filter(|p| lower.contains(*p)).count();
    Uncertainty::saturating((cues as f64 * 0.3).min(0.9))
}

/// A post's distinct tokens.
pub type Tokens = BTreeSet<String>;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`; two empty sets are identical.
#[must_use]
pub fn jaccard_similarity(a: &Tokens, b: &Tokens) -> f64 {
    let intersection = a.intersection(b).count();
    let union = a.len() + b.len() - intersection;
    if union == 0 {
        return 1.0;
    }
    intersection as f64 / union as f64
}

/// Jaccard distance `1 − similarity`.
#[must_use]
pub fn jaccard_distance(a: &Tokens, b: &Tokens) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

#[derive(Debug, Clone)]
struct Cluster {
    /// Representative token set (the founding post).
    representative: Tokens,
    /// Recent member token sets, bounded by `sample_size`.
    sample: VecDeque<Tokens>,
    size: usize,
}

impl Cluster {
    fn new(seed: Tokens, sample_size: usize) -> Self {
        let mut sample = VecDeque::with_capacity(sample_size);
        sample.push_back(seed.clone());
        Self { representative: seed, sample, size: 1 }
    }

    fn admit(&mut self, tokens: Tokens, sample_size: usize) {
        if self.sample.len() == sample_size {
            self.sample.pop_front();
        }
        self.sample.push_back(tokens);
        self.size += 1;
    }

    /// Max pairwise Jaccard distance within the retained sample.
    fn diameter(&self) -> f64 {
        let mut d: f64 = 0.0;
        let v: Vec<&Tokens> = self.sample.iter().collect();
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                d = d.max(jaccard_distance(v[i], v[j]));
            }
        }
        d
    }
}

/// The linear-scan online clusterer: nearest representative by a scan,
/// diameter from all sample pairs on every admit.
#[derive(Debug, Clone)]
pub struct ClaimClusterer {
    assign_threshold: f64,
    split_diameter: f64,
    sample_size: usize,
    clusters: Vec<Cluster>,
}

impl ClaimClusterer {
    /// Creates an empty clusterer from the three knobs of `sstd-text`'s
    /// `ClusterConfig`.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are outside `(0, 1]` or `sample_size < 2`.
    #[must_use]
    pub fn new(assign_threshold: f64, split_diameter: f64, sample_size: usize) -> Self {
        assert!(
            assign_threshold > 0.0 && assign_threshold <= 1.0,
            "assign threshold must be in (0, 1]"
        );
        assert!(split_diameter > 0.0 && split_diameter <= 1.0, "split diameter must be in (0, 1]");
        assert!(sample_size >= 2, "diameter needs at least two samples");
        Self { assign_threshold, split_diameter, sample_size, clusters: Vec::new() }
    }

    /// Number of claims discovered so far.
    #[must_use]
    pub fn num_claims(&self) -> usize {
        self.clusters.len()
    }

    /// Number of posts admitted into claim `claim` so far.
    ///
    /// # Panics
    ///
    /// Panics if `claim` was not produced by this clusterer.
    #[must_use]
    pub fn claim_size(&self, claim: usize) -> usize {
        self.clusters[claim].size
    }

    /// The representative of every claim, by claim index — for a test that
    /// wants to know how close a call was.
    pub fn representatives(&self) -> impl Iterator<Item = &Tokens> {
        self.clusters.iter().map(|c| &c.representative)
    }

    /// How many members claim `claim` currently retains.
    ///
    /// # Panics
    ///
    /// Panics if `claim` was not produced by this clusterer.
    #[must_use]
    pub fn sample_len(&self, claim: usize) -> usize {
        self.clusters[claim].sample.len()
    }

    /// Assigns a post to a claim, creating a new one if nothing is close
    /// enough, and splitting the target cluster afterwards if its diameter
    /// exceeded the threshold. Returns the claim's index.
    pub fn assign(&mut self, tokens: Tokens) -> usize {
        // Nearest cluster by distance to representative.
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in self.clusters.iter().enumerate() {
            let d = jaccard_distance(&tokens, &c.representative);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }

        match best {
            Some((i, d)) if d <= self.assign_threshold => {
                self.clusters[i].admit(tokens, self.sample_size);
                if self.clusters[i].diameter() > self.split_diameter {
                    self.split(i);
                }
                i
            }
            _ => {
                self.clusters.push(Cluster::new(tokens, self.sample_size));
                self.clusters.len() - 1
            }
        }
    }

    /// Splits cluster `i`: the sampled member farthest from the
    /// representative seeds a new cluster and pulls the sample members
    /// closer to it than to the old representative.
    fn split(&mut self, i: usize) {
        let (far_idx, _) = {
            let c = &self.clusters[i];
            let mut far = (0usize, -1.0f64);
            for (k, m) in c.sample.iter().enumerate() {
                let d = jaccard_distance(m, &c.representative);
                if d > far.1 {
                    far = (k, d);
                }
            }
            far
        };
        let seed = self.clusters[i].sample[far_idx].clone();
        let mut new_cluster = Cluster::new(seed.clone(), self.sample_size);

        let old_rep = self.clusters[i].representative.clone();
        let mut retained = VecDeque::new();
        let mut moved = 0usize;
        let drained: Vec<Tokens> = self.clusters[i].sample.drain(..).collect();
        for m in drained {
            if jaccard_distance(&m, &seed) < jaccard_distance(&m, &old_rep) {
                moved += 1;
                if m != seed {
                    new_cluster.admit(m, self.sample_size);
                }
            } else {
                retained.push_back(m);
            }
        }
        // Transfer the head-count with the members: posts that left must
        // stop counting against the old cluster, or claim sizes stop
        // summing to the number of posts seen. Unsampled history stays
        // attributed to the old cluster (we cannot know which side it
        // would have chosen).
        self.clusters[i].size -= moved;
        new_cluster.size = moved;
        self.clusters[i].sample = retained;
        self.clusters.push(new_cluster);
    }
}

/// The linear-scan retweet/near-duplicate detector: every post is
/// compared with every post the sliding window still holds.
#[derive(Debug, Clone)]
pub struct DuplicateWindow {
    window_secs: u64,
    similarity_threshold: f64,
    retweet_score: f64,
    duplicate_score: f64,
    recent: VecDeque<(Timestamp, Tokens)>,
}

impl DuplicateWindow {
    /// Creates a window of `window_secs` seconds that treats Jaccard
    /// similarity of `similarity_threshold` or more as a copy, with
    /// `sstd-text`'s default scores (0.1 for a retweet, 0.3 for a copy).
    ///
    /// # Panics
    ///
    /// Panics unless `similarity_threshold` is in `(0, 1]`.
    #[must_use]
    pub fn new(window_secs: u64, similarity_threshold: f64) -> Self {
        assert!(
            similarity_threshold > 0.0 && similarity_threshold <= 1.0,
            "similarity threshold must be in (0, 1]"
        );
        Self {
            window_secs,
            similarity_threshold,
            retweet_score: 0.1,
            duplicate_score: 0.3,
            recent: VecDeque::new(),
        }
    }

    /// Number of posts currently retained in the comparison window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.recent.len()
    }

    /// The retained posts' token sets, oldest first.
    pub fn window(&self) -> impl Iterator<Item = &Tokens> {
        self.recent.iter().map(|(_, tokens)| tokens)
    }

    fn evict_expired(&mut self, now: Timestamp) {
        while let Some((t, _)) = self.recent.front() {
            if now.secs_since(*t) > self.window_secs {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Scores a post published at `time`, updating the window with it.
    pub fn independence(&mut self, time: Timestamp, tokens: Tokens, retweet: bool) -> Independence {
        self.evict_expired(time);

        let score = if retweet {
            self.retweet_score
        } else if self
            .recent
            .iter()
            .any(|(_, prev)| jaccard_similarity(prev, &tokens) >= self.similarity_threshold)
        {
            self.duplicate_score
        } else {
            1.0
        };

        self.recent.push_back((time, tokens));
        Independence::saturating(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(words: &str) -> Tokens {
        words.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn similar_posts_share_a_claim_and_dissimilar_ones_do_not() {
        let mut c = ClaimClusterer::new(0.7, 0.85, 12);
        let a = c.assign(tokens("police chasing suspect near watertown"));
        let b = c.assign(tokens("suspect chased police watertown now"));
        let other = c.assign(tokens("touchdown fighting irish"));
        assert_eq!((a, b, other), (0, 0, 1));
        assert_eq!((c.num_claims(), c.claim_size(0), c.claim_size(1)), (2, 2, 1));
    }

    #[test]
    fn oversized_diameter_splits_and_sizes_still_sum() {
        let mut c = ClaimClusterer::new(0.9, 0.5, 8);
        let _ = c.assign(tokens("alpha beta gamma delta"));
        // Shares one token, distance 6/7: joins under 0.9, blows the diameter.
        let _ = c.assign(tokens("alpha omega sigma tau"));
        assert_eq!(c.num_claims(), 2);
        assert_eq!(c.claim_size(0) + c.claim_size(1), 2);
    }

    #[test]
    fn empty_sets_are_identical() {
        let mut c = ClaimClusterer::new(0.7, 0.85, 12);
        assert_eq!(c.assign(Tokens::new()), c.assign(Tokens::new()));
        assert_eq!(jaccard_similarity(&Tokens::new(), &tokens("flood")), 0.0);
    }

    #[test]
    fn the_lexicon_stages_score_by_their_tables() {
        assert_eq!(
            tokenize("There's a FAKE rumour, İF TRUE"),
            ["theres", "fake", "rumour", "i\u{307}f", "true"]
        );
        assert!(keyword_matches(&["Quake"], "QUAKE downtown"));
        assert!(!keyword_matches(&["quake"], "earthquake downtown"));
        assert_eq!(attitude("police say it's NOT TRUE"), Attitude::Disagree);
        assert_eq!(attitude("🔥 the"), Attitude::Silent);
        assert_eq!(uncertainty("maybe maybe, Sources Say").value(), 0.6);
        assert_eq!(uncertainty("perhaps maybe possibly likely").value(), 0.9);
    }

    #[test]
    fn window_scores_retweets_copies_and_originals() {
        let mut w = DuplicateWindow::new(60, 0.8);
        let mut score = |secs: u64, retweet: bool| {
            let text = tokens("suspect fleeing foot bridge");
            w.independence(Timestamp::from_secs(secs), text, retweet).value()
        };
        assert_eq!(score(0, false), 1.0);
        assert_eq!(score(30, false), 0.3);
        assert_eq!(score(31, true), 0.1);
        assert_eq!(score(300, false), 1.0);
        assert_eq!(w.window_len(), 1, "expired posts evicted");
    }
}
