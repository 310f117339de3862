//! Online claim clustering.
//!
//! "a newly arrived tweet will be clustered into one of the existing
//! clusters based [on] the computed Jaccard distance and a cluster will be
//! broken into two clusters if the diameter of the cluster is larger than
//! some pre-specified threshold" (paper §V-A2). Each cluster is one claim;
//! cluster indices become [`ClaimId`]s.

use crate::index::{min_overlap, TokenId, TokenIndex};
use crate::jaccard::distance_of_counts;
use sstd_types::ClaimId;
use std::collections::VecDeque;

/// Tuning knobs of the online clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Maximum Jaccard distance to the cluster representative for a post
    /// to join the cluster; beyond it a new cluster is opened.
    pub assign_threshold: f64,
    /// Diameter (max pairwise distance within the retained sample) beyond
    /// which a cluster is split in two.
    pub split_diameter: f64,
    /// How many recent member token-sets each cluster retains for
    /// diameter estimation.
    pub sample_size: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self { assign_threshold: 0.7, split_diameter: 0.85, sample_size: 12 }
    }
}

/// Jaccard distance of two sets of `a` and `b` tokens, `shared` by both.
fn distance(shared: usize, a: usize, b: usize) -> f64 {
    distance_of_counts(shared, a + b - shared)
}

#[derive(Debug, Clone, Copy)]
struct Member {
    /// How many of `Cluster::sample_tokens` are this member's.
    len: usize,
    /// The largest distance to a member admitted later. The earlier member
    /// of a pair leaves the sample first, so the pair's distance leaves
    /// with it.
    reach: f64,
}

#[derive(Debug, Clone)]
struct Cluster {
    /// Representative token set: the founding post, never changed.
    representative: Vec<TokenId>,
    /// Recent members, bounded by `sample_size`, oldest first.
    sample: VecDeque<Member>,
    /// The members' token sets, back to back in `sample` order: an admit
    /// walks all of them, so they are kept where one walk finds them.
    sample_tokens: Vec<TokenId>,
    size: usize,
}

/// The token sets laid back to back in `tokens`, one per member.
fn member_sets<'a>(
    sample: &'a VecDeque<Member>,
    mut tokens: &'a [TokenId],
) -> impl Iterator<Item = &'a [TokenId]> {
    sample.iter().map(move |member| {
        let (theirs, later) = tokens.split_at(member.len);
        tokens = later;
        theirs
    })
}

impl Cluster {
    /// A cluster founded on `seed`, which is both its representative and
    /// its first member.
    fn new(seed: &[TokenId], sample_size: usize) -> Self {
        let mut sample = VecDeque::with_capacity(sample_size);
        sample.push_back(Member { len: seed.len(), reach: 0.0 });
        Self { representative: seed.to_vec(), sample, sample_tokens: seed.to_vec(), size: 1 }
    }

    /// Adds a member — `tokens`, which must be `index`'s marked set —
    /// taking over the caller's hold on them and releasing the member
    /// that is pushed out. `counts` is scratch.
    fn admit(
        &mut self,
        tokens: &[TokenId],
        sample_size: usize,
        index: &mut TokenIndex,
        counts: &mut Vec<u32>,
    ) {
        debug_assert_eq!(index.count_marked(tokens), tokens.len());
        if self.sample.len() == sample_size {
            let oldest = self.sample.pop_front().expect("a sample holds two or more");
            index.release(&self.sample_tokens[..oldest.len]);
            self.sample_tokens.drain(..oldest.len);
        }
        // The new member's distance to each of the others, from one walk
        // over all their tokens that does not care where a member ends.
        index.count_marked_prefixes(&self.sample_tokens, counts);
        let mut start = 0;
        for member in &mut self.sample {
            let end = start + member.len;
            let shared = (counts[end] - counts[start]) as usize;
            member.reach = member.reach.max(distance(shared, member.len, tokens.len()));
            start = end;
        }
        self.sample_tokens.extend_from_slice(tokens);
        self.sample.push_back(Member { len: tokens.len(), reach: 0.0 });
        self.size += 1;
    }

    /// Max pairwise Jaccard distance within the retained sample.
    fn diameter(&self) -> f64 {
        self.sample.iter().fold(0.0, |d, member| d.max(member.reach))
    }
}

/// Online single-pass clusterer mapping posts to claims.
///
/// # Examples
///
/// ```
/// use sstd_text::{ClaimClusterer, ClusterConfig};
///
/// let mut c = ClaimClusterer::new(ClusterConfig::default());
/// let a = c.assign("explosion at the marathon finish line");
/// let b = c.assign("explosion reported near marathon finish line");
/// let other = c.assign("library receiving a bomb threat");
/// assert_eq!(a, b);
/// assert_ne!(a, other);
/// ```
#[derive(Debug, Clone)]
pub struct ClaimClusterer {
    config: ClusterConfig,
    clusters: Vec<Cluster>,
    /// Token ids of everything the clusters store; cluster indices are
    /// posted under their representative's tokens.
    index: TokenIndex,
    /// The first cluster founded by a post without tokens.
    first_empty: Option<usize>,
    /// Scratch: the current post's tokens.
    tokens: Vec<TokenId>,
    /// Scratch: the clusters the current post is compared with.
    candidates: Vec<u64>,
    /// Scratch of `Cluster::admit`.
    counts: Vec<u32>,
}

impl ClaimClusterer {
    /// Creates an empty clusterer.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are outside `(0, 1]` or `sample_size < 2`.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            config.assign_threshold > 0.0 && config.assign_threshold <= 1.0,
            "assign threshold must be in (0, 1]"
        );
        assert!(
            config.split_diameter > 0.0 && config.split_diameter <= 1.0,
            "split diameter must be in (0, 1]"
        );
        assert!(config.sample_size >= 2, "diameter needs at least two samples");
        Self {
            config,
            clusters: Vec::new(),
            index: TokenIndex::default(),
            first_empty: None,
            tokens: Vec::new(),
            candidates: Vec::new(),
            counts: Vec::new(),
        }
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
    pub fn claim_size(&self, claim: ClaimId) -> usize {
        self.clusters[claim.index()].size
    }

    /// Assigns `text` to a claim, creating a new one if nothing is close
    /// enough, and splitting the target cluster afterwards if its diameter
    /// exceeded the threshold.
    pub fn assign(&mut self, text: &str) -> ClaimId {
        let mut tokens = std::mem::take(&mut self.tokens);
        self.index.intern_text(text, &mut tokens);
        let claim = match self.nearest(&tokens) {
            Some((i, d)) if d <= self.config.assign_threshold => {
                self.clusters[i].admit(
                    &tokens,
                    self.config.sample_size,
                    &mut self.index,
                    &mut self.counts,
                );
                if self.clusters[i].diameter() > self.config.split_diameter {
                    self.split(i);
                }
                i
            }
            _ => self.open(&tokens),
        };
        self.tokens = tokens;
        ClaimId::new(claim as u32)
    }

    /// The cluster whose representative is nearest to `tokens` (the
    /// index's marked set), the lowest index among equals, and its
    /// distance. That is what comes back whenever the distance is within
    /// the assign threshold; when no cluster is that near, what comes back
    /// is some cluster beyond the threshold or none, and the caller opens
    /// a new one either way.
    fn nearest(&mut self, tokens: &[TokenId]) -> Option<(usize, f64)> {
        let threshold = self.config.assign_threshold;
        let needed = min_overlap(tokens.len(), |shared, union| {
            distance_of_counts(shared, union) <= threshold
        });
        self.index.candidates(tokens, needed, &mut self.candidates);
        let mut best: Option<(usize, f64)> = None;
        for &i in &self.candidates {
            let i = i as usize;
            let theirs = &self.clusters[i].representative;
            let d = distance(self.index.count_marked(theirs), theirs.len(), tokens.len());
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        // No candidate: every cluster within the threshold, if there is
        // one, shares no token with the post. That is distance 0 between a
        // token-free post and a token-free representative, and distance 1
        // — within a threshold of 1 only — for any other pair.
        best.or_else(|| {
            let identical = if tokens.is_empty() { self.first_empty } else { None };
            identical.map(|i| (i, 0.0)).or((!self.clusters.is_empty()).then_some((0, 1.0)))
        })
    }

    /// Founds a cluster on `tokens` and returns its index. The caller's
    /// hold on `tokens` passes to the cluster's first member.
    fn open(&mut self, tokens: &[TokenId]) -> usize {
        let i = self.clusters.len();
        // The representative is a second stored copy, and the one posted.
        self.index.hold(tokens);
        self.index.post(tokens, i as u64);
        if tokens.is_empty() && self.first_empty.is_none() {
            self.first_empty = Some(i);
        }
        self.clusters.push(Cluster::new(tokens, self.config.sample_size));
        i
    }

    /// Splits cluster `i`: the sampled member farthest from the
    /// representative seeds a new cluster and pulls the sample members
    /// closer to it than to the old representative.
    fn split(&mut self, i: usize) {
        let sample_size = self.config.sample_size;
        let old = &self.clusters[i];
        self.index.mark(&old.representative);
        let to_old: Vec<f64> = member_sets(&old.sample, &old.sample_tokens)
            .map(|m| distance(self.index.count_marked(m), m.len(), old.representative.len()))
            .collect();
        let mut far = (0usize, -1.0f64);
        for (k, &d) in to_old.iter().enumerate() {
            if d > far.1 {
                far = (k, d);
            }
        }
        let seed = member_sets(&old.sample, &old.sample_tokens)
            .nth(far.0)
            .expect("a cluster that is split has members")
            .to_vec();
        self.index.hold(&seed);
        let new = self.open(&seed);
        let sample = std::mem::take(&mut self.clusters[i].sample);
        let sample_tokens = std::mem::take(&mut self.clusters[i].sample_tokens);
        self.index.mark(&seed);
        let to_seed: Vec<f64> = member_sets(&sample, &sample_tokens)
            .map(|m| distance(self.index.count_marked(m), m.len(), seed.len()))
            .collect();

        let Self { clusters, index, counts, .. } = self;
        let (before, after) = clusters.split_at_mut(new);
        let (old_cluster, new_cluster) = (&mut before[i], &mut after[0]);
        let old_size = old_cluster.size;
        let mut moved = 0usize;
        // Both samples are rebuilt member by member, which also rebuilds
        // their reaches; the old one only shrinks, so it pushes nothing out.
        for (m, (d_seed, d_old)) in
            member_sets(&sample, &sample_tokens).zip(to_seed.into_iter().zip(to_old))
        {
            index.mark(m);
            if d_seed < d_old {
                moved += 1;
                if m == seed {
                    index.release(m);
                } else {
                    new_cluster.admit(m, sample_size, index, counts);
                }
            } else {
                old_cluster.admit(m, sample_size, index, counts);
            }
        }
        // Transfer the head-count with the members: posts that left must
        // stop counting against the old cluster, or claim sizes stop
        // summing to the number of posts seen. Unsampled history stays
        // attributed to the old cluster (we cannot know which side it
        // would have chosen).
        old_cluster.size = old_size - moved;
        new_cluster.size = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_posts_share_a_claim() {
        let mut c = ClaimClusterer::new(ClusterConfig::default());
        let a = c.assign("police chasing suspect near watertown");
        let b = c.assign("suspect chased by police in watertown now");
        assert_eq!(a, b);
        assert_eq!(c.num_claims(), 1);
        assert_eq!(c.claim_size(a), 2);
    }

    #[test]
    fn dissimilar_posts_open_new_claims() {
        let mut c = ClaimClusterer::new(ClusterConfig::default());
        let a = c.assign("bomb threat at jfk library");
        let b = c.assign("touchdown for the fighting irish");
        assert_ne!(a, b);
        assert_eq!(c.num_claims(), 2);
    }

    #[test]
    fn claim_ids_are_dense_and_stable() {
        let mut c = ClaimClusterer::new(ClusterConfig::default());
        let ids: Vec<ClaimId> =
            ["first topic alpha beta", "second topic gamma delta", "third topic epsilon zeta"]
                .iter()
                .map(|t| c.assign(t))
                .collect();
        assert_eq!(ids.iter().map(|c| c.index()).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Re-assigning similar text returns the original id.
        assert_eq!(c.assign("first topic alpha beta gamma").index(), 0);
    }

    #[test]
    fn oversized_diameter_triggers_split() {
        // Low split threshold forces a split when a borderline post joins.
        let cfg = ClusterConfig { assign_threshold: 0.9, split_diameter: 0.5, sample_size: 8 };
        let mut c = ClaimClusterer::new(cfg);
        let _ = c.assign("alpha beta gamma delta");
        // Shares one token, distance ≈ 6/7 — joins under 0.9 but blows the diameter.
        let _ = c.assign("alpha omega sigma tau");
        assert!(c.num_claims() >= 2, "split should have created a new cluster");
    }

    #[test]
    fn empty_text_posts_cluster_together() {
        let mut c = ClaimClusterer::new(ClusterConfig::default());
        let a = c.assign("");
        let b = c.assign("!!!");
        assert_eq!(a, b, "token-free posts are identical under Jaccard");
    }

    #[test]
    #[should_panic(expected = "assign threshold")]
    fn invalid_config_panics() {
        let _ = ClaimClusterer::new(ClusterConfig {
            assign_threshold: 0.0,
            ..ClusterConfig::default()
        });
    }
}
