//! SSTD configuration.

use sstd_types::ConfigError;

/// Tuning parameters for the SSTD truth-discovery scheme.
///
/// Defaults follow the paper's setup: a sliding window of a few intervals
/// (chosen "based on the expected change frequency of the truth", §III-B),
/// sticky initial transitions (truth rarely flips between adjacent
/// intervals), and offline EM training capped at a modest iteration count.
///
/// The `with_*` combinators panic on invalid values; [`builder`](Self::builder)
/// offers the same knobs with fallible validation instead.
///
/// # Examples
///
/// ```
/// use sstd_core::SstdConfig;
///
/// let cfg = SstdConfig::default().with_window(5).with_em_iterations(30);
/// assert_eq!(cfg.window, 5);
/// assert_eq!(cfg.em_iterations, 30);
///
/// let built = SstdConfig::builder().window(5).em_iterations(30).build().unwrap();
/// assert_eq!(built, cfg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SstdConfig {
    /// Sliding window `sw` (in intervals) for ACS aggregation.
    pub window: usize,
    /// When set, the engine picks each claim's window from its evidence
    /// density — roughly one window per evidence-bearing interval, capped
    /// by [`max_window`](Self::max_window) — instead of using the fixed
    /// `window`. This operationalizes the paper's guidance that `sw` is
    /// "decided based on the expected change frequency of the truth":
    /// densely reported claims resolve truth per interval, sparse claims
    /// need wider aggregation.
    pub adaptive_window: bool,
    /// Upper bound on the adaptive window.
    pub max_window: usize,
    /// Initial self-transition probability of the truth chain.
    pub stay_probability: f64,
    /// Maximum Baum–Welch iterations per claim.
    pub em_iterations: usize,
    /// EM convergence tolerance on the log-likelihood.
    pub em_tolerance: f64,
    /// Whether to run EM at all; `false` decodes with the initial
    /// data-scaled model (cheaper; used by the streaming engine and by
    /// the `em-off` ablation).
    pub train: bool,
    /// |ACS| below which a claim is considered evidence-free and defaults
    /// to `False` for every interval.
    pub evidence_floor: f64,
    /// Streaming engine: refit each claim's HMM with EM every this many
    /// closed intervals (0 = never refit; decode with the scaled initial
    /// model only). Matches the paper's deployment, which trains models
    /// offline and refreshes them periodically as the stream accumulates.
    pub streaming_refit: usize,
}

impl Default for SstdConfig {
    fn default() -> Self {
        Self {
            window: 3,
            adaptive_window: true,
            max_window: 8,
            stay_probability: 0.9,
            em_iterations: 25,
            em_tolerance: 1e-4,
            train: true,
            evidence_floor: 1e-9,
            streaming_refit: 20,
        }
    }
}

impl SstdConfig {
    /// Creates the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fallible builder seeded with the defaults.
    ///
    /// Unlike the panicking `with_*` combinators, the builder defers all
    /// validation to [`build`](SstdConfigBuilder::build), which reports
    /// the offending field in a [`ConfigError`].
    #[must_use]
    pub fn builder() -> SstdConfigBuilder {
        SstdConfigBuilder::default()
    }

    /// Sets a fixed ACS sliding window (paper `sw`), disabling the
    /// adaptive choice.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be at least one interval");
        self.window = window;
        self.adaptive_window = false;
        self
    }

    /// Picks the window for a claim given how many of its `intervals`
    /// carry evidence: dense claims get `1`, sparse claims roughly one
    /// window per evidence-bearing interval, capped at `max_window`.
    #[must_use]
    pub fn window_for(&self, intervals: usize, evidence_intervals: usize) -> usize {
        if !self.adaptive_window {
            return self.window;
        }
        if evidence_intervals == 0 {
            return self.window;
        }
        (intervals.div_ceil(evidence_intervals)).clamp(1, self.max_window.max(1))
    }

    /// Sets the initial self-transition probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `(0, 1)`.
    #[must_use]
    pub fn with_stay_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "stay probability must be in (0, 1)");
        self.stay_probability = p;
        self
    }

    /// Caps EM training iterations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_em_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one EM iteration");
        self.em_iterations = n;
        self
    }

    /// Enables or disables EM training (the `em-off` ablation).
    #[must_use]
    pub fn with_training(mut self, train: bool) -> Self {
        self.train = train;
        self
    }

    /// Sets the streaming refit period (0 disables refitting).
    #[must_use]
    pub fn with_streaming_refit(mut self, every: usize) -> Self {
        self.streaming_refit = every;
        self
    }

    /// Validates every field, naming the first invalid one.
    ///
    /// [`SstdConfigBuilder::build`] funnels through this, so a config
    /// assembled from raw struct fields can be held to the same
    /// invariants as a built one.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the offending field:
    /// `window`/`max_window` must be at least one interval,
    /// `stay_probability` must lie in `(0, 1)`, `em_iterations` must be
    /// at least one, `em_tolerance` must be finite and positive, and
    /// `evidence_floor` must be finite and non-negative.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new("window", "must be at least one interval"));
        }
        if self.max_window == 0 {
            return Err(ConfigError::new("max_window", "must be at least one interval"));
        }
        if !(self.stay_probability > 0.0 && self.stay_probability < 1.0) {
            return Err(ConfigError::new(
                "stay_probability",
                format!("must be in (0, 1), got {}", self.stay_probability),
            ));
        }
        if self.em_iterations == 0 {
            return Err(ConfigError::new("em_iterations", "need at least one EM iteration"));
        }
        if !(self.em_tolerance.is_finite() && self.em_tolerance > 0.0) {
            return Err(ConfigError::new(
                "em_tolerance",
                format!("must be finite and positive, got {}", self.em_tolerance),
            ));
        }
        if !(self.evidence_floor.is_finite() && self.evidence_floor >= 0.0) {
            return Err(ConfigError::new(
                "evidence_floor",
                format!("must be finite and non-negative, got {}", self.evidence_floor),
            ));
        }
        Ok(())
    }
}

/// A fallible builder for [`SstdConfig`]: set any subset of fields, then
/// [`build`](Self::build) validates them all at once.
///
/// # Examples
///
/// ```
/// use sstd_core::SstdConfig;
///
/// let cfg = SstdConfig::builder()
///     .stay_probability(0.8)
///     .em_iterations(10)
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.stay_probability, 0.8);
///
/// let err = SstdConfig::builder().stay_probability(1.5).build().unwrap_err();
/// assert_eq!(err.field(), "stay_probability");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SstdConfigBuilder {
    config: SstdConfig,
}

impl SstdConfigBuilder {
    /// Sets a fixed ACS sliding window (paper `sw`), disabling the
    /// adaptive choice.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self.config.adaptive_window = false;
        self
    }

    /// Enables or disables the evidence-density-adaptive window.
    #[must_use]
    pub fn adaptive_window(mut self, adaptive: bool) -> Self {
        self.config.adaptive_window = adaptive;
        self
    }

    /// Caps the adaptive window.
    #[must_use]
    pub fn max_window(mut self, max: usize) -> Self {
        self.config.max_window = max;
        self
    }

    /// Sets the initial self-transition probability.
    #[must_use]
    pub fn stay_probability(mut self, p: f64) -> Self {
        self.config.stay_probability = p;
        self
    }

    /// Caps EM training iterations.
    #[must_use]
    pub fn em_iterations(mut self, n: usize) -> Self {
        self.config.em_iterations = n;
        self
    }

    /// Sets the EM convergence tolerance.
    #[must_use]
    pub fn em_tolerance(mut self, tol: f64) -> Self {
        self.config.em_tolerance = tol;
        self
    }

    /// Enables or disables EM training (the `em-off` ablation).
    #[must_use]
    pub fn train(mut self, train: bool) -> Self {
        self.config.train = train;
        self
    }

    /// Sets the evidence floor below which a claim defaults to `False`.
    #[must_use]
    pub fn evidence_floor(mut self, floor: f64) -> Self {
        self.config.evidence_floor = floor;
        self
    }

    /// Sets the streaming refit period (0 disables refitting).
    #[must_use]
    pub fn streaming_refit(mut self, every: usize) -> Self {
        self.config.streaming_refit = every;
        self
    }

    /// Validates every field and returns the configuration.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first invalid field (see
    /// [`SstdConfig::validate`] for the full invariant list).
    pub fn build(self) -> Result<SstdConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SstdConfig::default();
        assert!(c.window >= 1);
        assert!(c.stay_probability > 0.5, "truth should be sticky by default");
        assert!(c.train);
    }

    #[test]
    fn builder_chains() {
        let c = SstdConfig::new()
            .with_window(7)
            .with_stay_probability(0.8)
            .with_em_iterations(5)
            .with_training(false);
        assert_eq!(c.window, 7);
        assert_eq!(c.stay_probability, 0.8);
        assert_eq!(c.em_iterations, 5);
        assert!(!c.train);
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn zero_window_rejected() {
        let _ = SstdConfig::new().with_window(0);
    }

    #[test]
    #[should_panic(expected = "stay probability")]
    fn bad_stay_probability_rejected() {
        let _ = SstdConfig::new().with_stay_probability(1.0);
    }

    #[test]
    fn fallible_builder_matches_combinators() {
        let a = SstdConfig::new().with_window(4).with_em_iterations(9).with_training(false);
        let b =
            SstdConfig::builder().window(4).em_iterations(9).train(false).build().expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn builder_names_the_offending_field() {
        for (field, build) in [
            ("window", SstdConfig::builder().window(0).build()),
            ("max_window", SstdConfig::builder().max_window(0).build()),
            ("stay_probability", SstdConfig::builder().stay_probability(0.0).build()),
            ("em_iterations", SstdConfig::builder().em_iterations(0).build()),
            ("em_tolerance", SstdConfig::builder().em_tolerance(f64::NAN).build()),
            ("evidence_floor", SstdConfig::builder().evidence_floor(-1.0).build()),
        ] {
            assert_eq!(build.expect_err("invalid").field(), field);
        }
    }

    #[test]
    fn builder_defaults_build_cleanly() {
        assert_eq!(SstdConfig::builder().build().expect("defaults valid"), SstdConfig::default());
    }
}
