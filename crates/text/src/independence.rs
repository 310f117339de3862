//! Independence scoring: original observation vs. copied content.
//!
//! The paper "classified the retweets or tweets that are significantly
//! similar to the previous tweets within a time interval as repeated
//! claims and assign them relatively low independent scores" (§V-A2).
//! [`RetweetIndependenceScorer`] implements exactly that: explicit
//! retweets get the lowest score, near-duplicates (high Jaccard
//! similarity to a recent post) get a low score, everything else is
//! treated as an original observation.

use crate::index::{min_overlap, TokenId, TokenIndex};
use crate::jaccard::similarity_of_counts;
use sstd_types::{Independence, RawPost, Timestamp};
use std::collections::VecDeque;

/// The independence score of an explicit retweet.
const RETWEET_SCORE: f64 = 0.1;

/// The independence score of a near-duplicate of a recent post.
const DUPLICATE_SCORE: f64 = 0.3;

/// Assigns an [`Independence`] score `η ∈ [0, 1]` to a post.
///
/// Implementations may be stateful (they typically remember recent posts
/// to detect copies), hence `&mut self`.
pub trait IndependenceScorer {
    /// Scores `post`, updating internal state with it.
    fn independence(&mut self, post: &RawPost) -> Independence;
}

/// Retweet/near-duplicate detector with a sliding time window.
///
/// # Examples
///
/// ```
/// use sstd_text::{IndependenceScorer, RetweetIndependenceScorer};
/// use sstd_types::{RawPost, SourceId, Timestamp};
///
/// let mut s = RetweetIndependenceScorer::new(60, 0.8);
/// let original = RawPost::new(SourceId::new(0), Timestamp::from_secs(0), "bomb at the library");
/// let copy = RawPost::retweet(SourceId::new(1), Timestamp::from_secs(10), "bomb at the library", 0);
/// assert_eq!(s.independence(&original).value(), 1.0);
/// assert!(s.independence(&copy).value() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct RetweetIndependenceScorer {
    window_secs: u64,
    similarity_threshold: f64,
    /// The window, oldest first, as sorted token ids.
    recent: VecDeque<(Timestamp, Vec<TokenId>)>,
    /// Ids of the window's tokens. Each entry is posted under its tokens by
    /// sequence number and taken back when it leaves, so a token no entry
    /// carries any more is forgotten: the index is as large as the window.
    index: TokenIndex,
    /// Sequence number of `recent`'s front.
    front_seq: u64,
    /// Entries without a token: what a token-free post is a copy of.
    empty_entries: usize,
    /// Buffers of entries that left, for the ones to come.
    spare: Vec<Vec<TokenId>>,
    /// Scratch: the entries the current post is compared with.
    candidates: Vec<u64>,
}

impl RetweetIndependenceScorer {
    /// Creates a scorer that compares each post against posts from the
    /// last `window_secs` seconds and treats Jaccard similarity above
    /// `similarity_threshold` as a copy.
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
            recent: VecDeque::new(),
            index: TokenIndex::default(),
            front_seq: 0,
            empty_entries: 0,
            spare: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Number of posts currently retained in the comparison window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.recent.len()
    }

    fn evict_expired(&mut self, now: Timestamp) {
        while let Some((t, _)) = self.recent.front() {
            if now.secs_since(*t) > self.window_secs {
                let (_, tokens) = self.recent.pop_front().expect("front was just seen");
                self.index.unpost_oldest(&tokens, self.front_seq);
                self.index.release(&tokens);
                self.front_seq += 1;
                self.empty_entries -= usize::from(tokens.is_empty());
                self.spare.push(tokens);
            } else {
                break;
            }
        }
    }

    /// Whether an entry of the window is at least `similarity_threshold`
    /// similar to `tokens`, the index's marked set.
    fn has_near_duplicate(&mut self, tokens: &[TokenId]) -> bool {
        // Sharing nothing is similarity 0, under any threshold — except
        // between two token-free posts, which are identical.
        if tokens.is_empty() {
            return self.empty_entries > 0;
        }
        let threshold = self.similarity_threshold;
        let meets = |shared, union| similarity_of_counts(shared, union) >= threshold;
        let needed = min_overlap(tokens.len(), meets);
        self.index.candidates(tokens, needed, &mut self.candidates);
        self.candidates.iter().any(|&seq| {
            let prev = &self.recent[(seq - self.front_seq) as usize].1;
            let shared = self.index.count_marked(prev);
            meets(shared, prev.len() + tokens.len() - shared)
        })
    }
}

impl IndependenceScorer for RetweetIndependenceScorer {
    fn independence(&mut self, post: &RawPost) -> Independence {
        self.evict_expired(post.time());
        let mut tokens = self.spare.pop().unwrap_or_default();
        self.index.intern_text(post.text(), &mut tokens);

        let score = if post.retweet_of().is_some() {
            RETWEET_SCORE
        } else if self.has_near_duplicate(&tokens) {
            DUPLICATE_SCORE
        } else {
            1.0
        };

        self.index.post(&tokens, self.front_seq + self.recent.len() as u64);
        self.empty_entries += usize::from(tokens.is_empty());
        self.recent.push_back((post.time(), tokens));
        Independence::saturating(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::SourceId;

    fn post(src: u32, t: u64, text: &str) -> RawPost {
        RawPost::new(SourceId::new(src), Timestamp::from_secs(t), text)
    }

    #[test]
    fn first_post_is_independent() {
        let mut s = RetweetIndependenceScorer::new(60, 0.8);
        assert_eq!(s.independence(&post(0, 0, "explosion downtown")).value(), 1.0);
    }

    #[test]
    fn explicit_retweet_scores_lowest() {
        let mut s = RetweetIndependenceScorer::new(60, 0.8);
        let rt = RawPost::retweet(SourceId::new(1), Timestamp::from_secs(5), "RT explosion", 0);
        assert_eq!(s.independence(&rt).value(), 0.1);
    }

    #[test]
    fn near_duplicate_within_window_scores_low() {
        let mut s = RetweetIndependenceScorer::new(60, 0.8);
        let _ = s.independence(&post(0, 0, "suspect fleeing on foot near bridge"));
        let dup = s.independence(&post(1, 30, "suspect fleeing on foot near bridge"));
        assert_eq!(dup.value(), 0.3);
    }

    #[test]
    fn duplicate_outside_window_is_independent() {
        let mut s = RetweetIndependenceScorer::new(60, 0.8);
        let _ = s.independence(&post(0, 0, "suspect fleeing on foot near bridge"));
        let later = s.independence(&post(1, 300, "suspect fleeing on foot near bridge"));
        assert_eq!(later.value(), 1.0);
    }

    #[test]
    fn dissimilar_posts_stay_independent() {
        let mut s = RetweetIndependenceScorer::new(60, 0.8);
        let _ = s.independence(&post(0, 0, "explosion near the finish line"));
        let other = s.independence(&post(1, 10, "library locked down as precaution"));
        assert_eq!(other.value(), 1.0);
    }

    #[test]
    fn window_evicts_old_posts() {
        let mut s = RetweetIndependenceScorer::new(10, 0.8);
        let _ = s.independence(&post(0, 0, "first"));
        let _ = s.independence(&post(1, 5, "second"));
        assert_eq!(s.window_len(), 2);
        let _ = s.independence(&post(2, 100, "third"));
        assert_eq!(s.window_len(), 1, "expired posts evicted");
    }

    #[test]
    #[should_panic(expected = "similarity threshold")]
    fn zero_threshold_panics() {
        let _ = RetweetIndependenceScorer::new(60, 0.0);
    }
}
