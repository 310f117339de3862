//! Raw-post streams for the text front door: what the differential
//! suite feeds both `sstd-text`'s indexed stages and the linear-scan
//! [`oracle::text`](crate::oracle::text).
//!
//! A uniform draw of words would almost never land where an index can go
//! wrong, so the generator aims: small overlapping topic vocabularies
//! (ties between clusters), near copies of earlier posts that differ by
//! one word (similarities `n/(n+1)` — 4/5 sits exactly on the default
//! duplicate threshold, and partial copies reach distance 7/10, exactly
//! on the default assign threshold), an event keyword on every post (the
//! token that makes naive postings degenerate), thresholds of exactly 1,
//! token-free posts, tight split diameters with small samples, retweets,
//! timestamps that step backwards, and words whose lowercase form is not
//! ASCII's.

use crate::gen::Gen;
use crate::rng::TestRng;
use sstd_types::{RawPost, SourceId, Timestamp};

/// A post stream with the knobs of the two stateful text stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PostStreamCase {
    /// `ClusterConfig::assign_threshold`, in `(0, 1]`.
    pub assign_threshold: f64,
    /// `ClusterConfig::split_diameter`, in `(0, 1]`.
    pub split_diameter: f64,
    /// `ClusterConfig::sample_size`, 2–12.
    pub sample_size: usize,
    /// Duplicate window, seconds.
    pub window_secs: u64,
    /// Similarity at or above which a post is a copy, in `(0, 1]`.
    pub duplicate_similarity: f64,
    /// The stream, in arrival order — which is not always time order.
    pub posts: Vec<RawPost>,
}

/// Plain words; none is a stopword of `sstd-text`.
const WORDS: [&str; 30] = [
    "flood", "bridge", "closed", "river", "rising", "downtown", "evacuate", "shelter", "power",
    "outage", "storm", "warning", "rescue", "boats", "levee", "breach", "school", "highway",
    "traffic", "blocked", "smoke", "fire", "station", "crowd", "police", "siren", "tower",
    "harbor", "tunnel", "alarm",
];

/// Spellings of one token each that only whole-word Unicode lowercasing
/// brings together: the final sigma, the dotted capital I (which
/// lowercases to two characters), and a sharp s that has no ASCII
/// uppercase.
const FOLDED: [&[&str]; 3] =
    [&["ΣΑΣ", "σας", "Σας"], &["İstanbul", "İSTANBUL"], &["Straße", "STRAßE", "straße"]];

/// What every on-topic post of a keyword case carries.
const KEYWORD: usize = WORDS.len() + FOLDED.len();

const TOKEN_FREE: [&str; 6] = ["", "   ", "!!!", "... --- ...", "🔥🔥🔥", "😱 🚒"];

const SEPARATORS: [&str; 8] = [" ", " ", " ", " ", ", ", " the ", " - ", "! #"];

/// Writes word `id` in one of its spellings.
fn render(id: usize, rng: &mut TestRng, out: &mut String) {
    if id == KEYWORD {
        out.push_str("quake");
    } else if id >= WORDS.len() {
        out.push_str(rng.pick::<&str>(FOLDED[id - WORDS.len()]));
    } else {
        let word = WORDS[id];
        match rng.usize_in(0, 9) {
            0 => out.push_str(&word.to_uppercase()),
            1 => {
                out.push_str(&word[..1].to_uppercase());
                out.push_str(&word[1..]);
            }
            _ => out.push_str(word),
        }
    }
}

fn threshold(rng: &mut TestRng, usual: f64, others: &[f64]) -> f64 {
    match rng.usize_in(0, 9) {
        0..=3 => usual,
        4 | 5 => 1.0,
        6 | 7 => *rng.pick(others),
        _ => rng.f64_in(0.05, 1.0),
    }
}

/// Generates [`PostStreamCase`]s of up to 60 posts. Shrinks by dropping
/// posts — halves first, then singles — which keeps every case valid
/// (nothing in a post refers to another by position except a retweet's
/// `original`, which the text stages only test for presence).
#[must_use]
pub fn post_stream_case() -> Gen<PostStreamCase> {
    Gen::new(|rng| {
        let vocabulary = WORDS.len() + FOLDED.len();
        let topics: Vec<Vec<usize>> = (0..rng.usize_in(1, 5))
            .map(|_| (0..rng.usize_in(3, 8)).map(|_| rng.usize_in(0, vocabulary - 1)).collect())
            .collect();
        let keyword = rng.chance(0.6);
        let window_secs = *rng.pick(&[0u64, 3, 20, 100, 300]);

        let count = rng.usize_in(0, 60);
        let mut words_of: Vec<Vec<usize>> = Vec::with_capacity(count);
        let mut posts = Vec::with_capacity(count);
        let mut clock = 1_000u64;
        for i in 0..count {
            clock += match rng.usize_in(0, 9) {
                0..=2 => 0,
                3..=7 => rng.usize_in(1, 10) as u64,
                _ => rng.usize_in(11, 90) as u64,
            };
            // Every tenth post or so is stamped in the past; the clock
            // itself does not step back.
            let time = if rng.chance(0.1) {
                clock.saturating_sub(rng.usize_in(1, 200) as u64)
            } else {
                clock
            };

            let earlier = (i > 0).then(|| rng.usize_in(0, i - 1));
            let mut words: Vec<usize> = match (rng.usize_in(0, 19), earlier) {
                // A near copy: the same words, or one dropped, added or
                // swapped.
                (0..=4, Some(e)) => {
                    let mut words = words_of[e].clone();
                    let edit = rng.usize_in(0, 3);
                    if (edit == 1 || edit == 3) && !words.is_empty() {
                        words.remove(rng.usize_in(0, words.len() - 1));
                    }
                    if edit >= 2 {
                        words.push(rng.usize_in(0, vocabulary - 1));
                    }
                    words
                }
                // A partial copy: a few of its words, and as many others.
                (5 | 6, Some(e)) => {
                    let mut words: Vec<usize> =
                        words_of[e].iter().copied().filter(|_| rng.chance(0.5)).collect();
                    words.extend((0..rng.usize_in(1, 5)).map(|_| rng.usize_in(0, vocabulary - 1)));
                    words
                }
                // Two topics at once: as close to one cluster as to another.
                (7 | 8, _) => {
                    let (a, b) = (rng.pick(&topics), rng.pick(&topics));
                    a.iter().chain(b).copied().filter(|_| rng.chance(0.5)).collect()
                }
                (9, _) => Vec::new(),
                (10, _) => {
                    (0..rng.usize_in(1, 4)).map(|_| rng.usize_in(0, vocabulary - 1)).collect()
                }
                // On one topic.
                _ => rng.pick(&topics).iter().copied().filter(|_| rng.chance(0.75)).collect(),
            };
            if keyword && !words.is_empty() && !words.contains(&KEYWORD) {
                words.insert(rng.usize_in(0, words.len()), KEYWORD);
            }

            let mut text = String::new();
            if words.is_empty() {
                text.push_str(rng.pick::<&str>(&TOKEN_FREE));
            }
            for (k, &word) in words.iter().enumerate() {
                if k > 0 {
                    text.push_str(rng.pick::<&str>(&SEPARATORS));
                }
                render(word, rng, &mut text);
            }
            let source = SourceId::new(rng.usize_in(0, 9) as u32);
            let time = Timestamp::from_secs(time);
            posts.push(match earlier {
                Some(e) if rng.chance(0.15) => RawPost::retweet(source, time, text, e as u64),
                _ => RawPost::new(source, time, text),
            });
            words_of.push(words);
        }

        PostStreamCase {
            assign_threshold: threshold(rng, 0.7, &[0.3, 0.5, 0.9]),
            split_diameter: match rng.usize_in(0, 9) {
                0..=2 => 0.85,
                3..=7 => rng.f64_in(0.3, 0.6),
                8 => 0.5,
                _ => 1.0,
            },
            sample_size: rng.usize_in(2, 12),
            window_secs,
            duplicate_similarity: threshold(rng, 0.8, &[0.5, 0.75, 2.0 / 3.0]),
            posts,
        }
    })
    .with_shrink(|case: &PostStreamCase| {
        let n = case.posts.len();
        let mut out = Vec::new();
        if n > 1 {
            out.push(PostStreamCase { posts: case.posts[..n / 2].to_vec(), ..case.clone() });
            out.push(PostStreamCase { posts: case.posts[n / 2..].to_vec(), ..case.clone() });
        }
        for i in 0..n {
            let mut posts = case.posts.clone();
            posts.remove(i);
            out.push(PostStreamCase { posts, ..case.clone() });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_valid_and_shrink_by_dropping_posts() {
        let g = post_stream_case();
        let mut rng = TestRng::new(11);
        let (mut retweets, mut backwards, mut keyword_cases) = (0, 0, 0);
        for _ in 0..200 {
            let case = g.generate(&mut rng);
            for knob in [case.assign_threshold, case.split_diameter, case.duplicate_similarity] {
                assert!(knob > 0.0 && knob <= 1.0, "{knob} outside (0, 1]");
            }
            assert!((2..=12).contains(&case.sample_size) && case.posts.len() <= 60);
            retweets += case.posts.iter().filter(|p| p.retweet_of().is_some()).count();
            backwards += case.posts.windows(2).filter(|w| w[1].time() < w[0].time()).count();
            keyword_cases += usize::from(
                case.posts.len() > 5
                    && case.posts.iter().all(|p| {
                        p.text().contains("quake") || !p.text().chars().any(char::is_alphanumeric)
                    }),
            );
            for s in g.shrink(&case) {
                assert!(s.posts.len() < case.posts.len());
                assert_eq!(s.sample_size, case.sample_size);
            }
        }
        assert!(retweets > 100 && backwards > 100 && keyword_cases > 50);
    }

    #[test]
    fn same_seed_same_stream() {
        let g = post_stream_case();
        assert_eq!(g.generate(&mut TestRng::new(5)), g.generate(&mut TestRng::new(5)));
    }
}
