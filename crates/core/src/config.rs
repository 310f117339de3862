//! SSTD configuration.

use sstd_types::ConfigError;

/// Tuning parameters for the SSTD truth-discovery scheme.
///
/// Defaults follow the paper's setup: a sliding window of a few intervals
/// (chosen "based on the expected change frequency of the truth", §III-B),
/// sticky initial transitions (truth rarely flips between adjacent
/// intervals), and offline EM training capped at a modest iteration count.
///
/// Set a field by struct literal over the defaults; every engine that
/// takes a config runs [`validate`](SstdConfig::validate) on it first.
///
/// # Examples
///
/// ```
/// use sstd_core::SstdConfig;
///
/// // A fixed window turns the adaptive choice off.
/// let cfg = SstdConfig {
///     window: 5,
///     adaptive_window: false,
///     em_iterations: 30,
///     ..SstdConfig::default()
/// };
/// assert!(cfg.validate().is_ok());
///
/// let bad = SstdConfig { stay_probability: 1.5, ..SstdConfig::default() };
/// assert_eq!(bad.validate().unwrap_err().field(), "stay_probability");
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
    /// data-scaled model (cheaper; the `em-off` ablation). The streaming
    /// engine still refits on schedule, onto a re-scaled initial model.
    pub train: bool,
    /// |ACS| below which a claim is considered evidence-free and defaults
    /// to `False` for every interval.
    pub evidence_floor: f64,
    /// Streaming engine: refit each claim's HMM every this many closed
    /// intervals (at least one; a period longer than the stream never
    /// refits). Matches the paper's deployment, which trains models
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

    /// Validates every field, naming the first invalid one.
    ///
    /// [`SstdEngine::new`](crate::SstdEngine::new) and
    /// [`StreamingSstd::new`](crate::StreamingSstd::new) panic on a
    /// config that fails it; call it first where the values come from
    /// outside the program.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the offending field:
    /// `window`/`max_window` must be at least one interval,
    /// `stay_probability` must lie in `(0, 1)`, `em_iterations` must be
    /// at least one, `em_tolerance` must be finite and positive,
    /// `evidence_floor` must be finite and non-negative, and
    /// `streaming_refit` must be at least one interval.
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
        if self.streaming_refit == 0 {
            return Err(ConfigError::new("streaming_refit", "must be at least one interval"));
        }
        Ok(())
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
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let valid = SstdConfig {
            window: 7,
            adaptive_window: false,
            max_window: 1,
            stay_probability: 0.8,
            em_iterations: 5,
            em_tolerance: 1e-6,
            train: false,
            evidence_floor: 0.0,
            streaming_refit: 1,
        };
        assert_eq!(valid.validate(), Ok(()));
        for (field, config) in [
            ("window", SstdConfig { window: 0, ..valid }),
            ("max_window", SstdConfig { max_window: 0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: 0.0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: 1.0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: f64::NAN, ..valid }),
            ("em_iterations", SstdConfig { em_iterations: 0, ..valid }),
            ("em_tolerance", SstdConfig { em_tolerance: 0.0, ..valid }),
            ("em_tolerance", SstdConfig { em_tolerance: f64::NAN, ..valid }),
            ("evidence_floor", SstdConfig { evidence_floor: -1.0, ..valid }),
            ("evidence_floor", SstdConfig { evidence_floor: f64::INFINITY, ..valid }),
            ("streaming_refit", SstdConfig { streaming_refit: 0, ..valid }),
        ] {
            assert_eq!(config.validate().expect_err("invalid").field(), field, "{config:?}");
        }
    }

    #[test]
    fn a_fixed_window_ignores_the_evidence_density() {
        let fixed = SstdConfig { window: 4, adaptive_window: false, ..SstdConfig::default() };
        assert_eq!(fixed.window_for(100, 1), 4);
        let adaptive = SstdConfig { max_window: 5, ..SstdConfig::default() };
        assert_eq!(adaptive.window_for(100, 1), 5, "capped at max_window");
        assert_eq!(adaptive.window_for(100, 100), 1, "dense claims resolve per interval");
        assert_eq!(adaptive.window_for(100, 0), adaptive.window, "no evidence: the fixed window");
    }
}
