//! The end-to-end preprocessing pipeline: raw posts in, scored reports out.

use crate::{
    AttitudeScorer, ClaimClusterer, ClusterConfig, HedgeUncertaintyScorer, IndependenceScorer,
    KeywordFilter, LexiconAttitudeScorer, RetweetIndependenceScorer, UncertaintyScorer,
};
use sstd_types::{Attitude, RawPost, Report};

/// Configuration of the default pipeline stages.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Event keywords; posts matching none are dropped.
    pub keywords: Vec<String>,
    /// Clustering thresholds.
    pub cluster: ClusterConfig,
    /// Near-duplicate window (seconds) for independence scoring.
    pub duplicate_window_secs: u64,
    /// Jaccard similarity above which a post counts as a copy.
    pub duplicate_similarity: f64,
}

impl PipelineConfig {
    /// A sensible default configuration for the given event keywords.
    ///
    /// # Panics
    ///
    /// Panics if `keywords` is empty.
    #[must_use]
    pub fn for_event<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let keywords: Vec<String> = keywords.into_iter().map(|k| k.as_ref().to_string()).collect();
        assert!(!keywords.is_empty(), "event needs at least one keyword");
        Self {
            keywords,
            cluster: ClusterConfig::default(),
            duplicate_window_secs: 300,
            duplicate_similarity: 0.8,
        }
    }
}

/// Streaming preprocessing pipeline (paper §V-A2).
///
/// Feed it [`RawPost`]s in time order; it filters, clusters, scores, and
/// emits fully scored [`Report`]s, assigning each post to a claim.
///
/// Every scorer is a replaceable plugin (paper §VII-2: "the SSTD is
/// designed as a general framework where one can easily update or replace
/// components like uncertainty classifier as a plugin of the system") —
/// see [`with_uncertainty_scorer`](Self::with_uncertainty_scorer) and
/// friends. For example, swap the hedge lexicon for the trained
/// [`NaiveBayesUncertaintyScorer`](crate::NaiveBayesUncertaintyScorer):
///
/// ```
/// use sstd_text::{NaiveBayesUncertaintyScorer, PipelineConfig, ReportPipeline};
///
/// let p = ReportPipeline::new(PipelineConfig::for_event(["boston"]))
///     .with_uncertainty_scorer(NaiveBayesUncertaintyScorer::with_builtin_corpus());
/// drop(p);
/// ```
///
/// # Examples
///
/// ```
/// use sstd_text::{PipelineConfig, ReportPipeline};
/// use sstd_types::{RawPost, SourceId, Timestamp};
///
/// let mut p = ReportPipeline::new(PipelineConfig::for_event(["marathon", "bombing"]));
/// let post = RawPost::new(
///     SourceId::new(0),
///     Timestamp::from_secs(10),
///     "Two explosions reported at the marathon finish line",
/// );
/// let report = p.process(&post).expect("matches keywords");
/// assert_eq!(report.claim().index(), 0);
/// assert!(p.process(&RawPost::new(
///     SourceId::new(1), Timestamp::from_secs(11), "lovely weather",
/// )).is_none());
/// ```
pub struct ReportPipeline {
    filter: KeywordFilter,
    clusterer: ClaimClusterer,
    attitude: Box<dyn AttitudeScorer + Send>,
    uncertainty: Box<dyn UncertaintyScorer + Send>,
    independence: Box<dyn IndependenceScorer + Send>,
    processed: u64,
    dropped: u64,
}

impl std::fmt::Debug for ReportPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportPipeline")
            .field("filter", &self.filter)
            .field("claims", &self.clusterer.num_claims())
            .field("processed", &self.processed)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl ReportPipeline {
    /// Builds the default pipeline for `config` (lexicon attitude scorer,
    /// hedge-lexicon uncertainty scorer, retweet independence scorer).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            filter: KeywordFilter::new(&config.keywords),
            clusterer: ClaimClusterer::new(config.cluster),
            attitude: Box::new(LexiconAttitudeScorer::new()),
            uncertainty: Box::new(HedgeUncertaintyScorer::new()),
            independence: Box::new(RetweetIndependenceScorer::new(
                config.duplicate_window_secs,
                config.duplicate_similarity,
            )),
            processed: 0,
            dropped: 0,
        }
    }

    /// Replaces the uncertainty scorer plugin.
    #[must_use]
    pub fn with_uncertainty_scorer(
        mut self,
        scorer: impl UncertaintyScorer + Send + 'static,
    ) -> Self {
        self.uncertainty = Box::new(scorer);
        self
    }

    /// Processes one post; returns `None` when the post is filtered out
    /// (no keyword match, or no stance taken).
    pub fn process(&mut self, post: &RawPost) -> Option<Report> {
        if !self.filter.matches(post.text()) {
            self.dropped += 1;
            return None;
        }
        let attitude = self.attitude.attitude(post.text());
        if attitude == Attitude::Silent {
            self.dropped += 1;
            return None;
        }
        let claim = self.clusterer.assign(post.text());
        let kappa = self.uncertainty.uncertainty(post.text());
        let eta = self.independence.independence(post);
        self.processed += 1;
        Some(Report::new(post.source(), claim, post.time(), attitude, kappa, eta))
    }

    /// Number of claims discovered so far.
    #[must_use]
    pub fn num_claims(&self) -> usize {
        self.clusterer.num_claims()
    }

    /// `(processed, dropped)` post counters.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.processed, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::{SourceId, Timestamp};

    fn post(src: u32, t: u64, text: &str) -> RawPost {
        RawPost::new(SourceId::new(src), Timestamp::from_secs(t), text)
    }

    fn pipeline() -> ReportPipeline {
        ReportPipeline::new(PipelineConfig::for_event(["boston", "marathon", "bombing"]))
    }

    #[test]
    fn keyword_mismatch_is_dropped() {
        let mut p = pipeline();
        assert!(p.process(&post(0, 0, "what a lovely day")).is_none());
        assert_eq!(p.counters(), (0, 1));
    }

    #[test]
    fn matching_post_becomes_report() {
        let mut p = pipeline();
        let r = p.process(&post(3, 42, "explosion at the boston marathon")).unwrap();
        assert_eq!(r.source(), SourceId::new(3));
        assert_eq!(r.time().as_secs(), 42);
        assert_eq!(r.attitude(), Attitude::Agree);
        assert!(r.contribution_score().value() > 0.0);
    }

    #[test]
    fn denial_post_disagrees() {
        let mut p = pipeline();
        let _ = p.process(&post(0, 0, "second bomb at boston library"));
        let r = p.process(&post(1, 10, "the boston library bomb story is fake")).unwrap();
        assert_eq!(r.attitude(), Attitude::Disagree);
        assert!(r.contribution_score().value() < 0.0);
    }

    #[test]
    fn similar_posts_map_to_same_claim() {
        let mut p = pipeline();
        let a = p.process(&post(0, 0, "boston marathon explosion at finish line")).unwrap();
        let b = p.process(&post(1, 20, "explosion near marathon finish line boston")).unwrap();
        assert_eq!(a.claim(), b.claim());
        assert_eq!(p.num_claims(), 1);
    }

    #[test]
    fn retweet_gets_low_independence() {
        let mut p = pipeline();
        let _ = p.process(&post(0, 0, "boston suspect in custody"));
        let rt = RawPost::retweet(
            SourceId::new(1),
            Timestamp::from_secs(5),
            "boston suspect in custody",
            0,
        );
        let r = p.process(&rt).unwrap();
        assert!(r.independence().value() <= 0.1);
    }

    #[test]
    fn hedged_post_scores_uncertainty() {
        let mut p = pipeline();
        let r = p.process(&post(0, 0, "possibly another bombing in boston, unconfirmed")).unwrap();
        assert!(r.uncertainty().value() >= 0.6);
        // Heavily hedged → small contribution magnitude.
        assert!(r.contribution_score().value().abs() < 0.5);
    }
}
