//! SSTD configuration.

use sstd_types::ConfigError;

/// Tuning parameters for the SSTD truth-discovery scheme.
///
/// Defaults follow the paper's setup: a short sliding window (chosen
/// "based on the expected change frequency of the truth", §III-B), a
/// sticky truth chain (truth rarely flips between adjacent intervals),
/// and offline EM training of the emission capped at a modest iteration
/// count.
///
/// Set a field by struct literal over the defaults; every engine that
/// takes a config runs [`validate`](SstdConfig::validate) on it first.
///
/// # Examples
///
/// ```
/// use sstd_core::SstdConfig;
///
/// // For claims whose truth changes slowly: a stickier chain, which EM
/// // keeps as given, and a wider window.
/// let cfg = SstdConfig { window: 4, stay_probability: 0.97, ..SstdConfig::default() };
/// assert!(cfg.validate().is_ok());
///
/// let bad = SstdConfig { stay_probability: 1.5, ..SstdConfig::default() };
/// assert_eq!(bad.validate().unwrap_err().field(), "stay_probability");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SstdConfig {
    /// Sliding window `sw` (in intervals) over which every engine — batch,
    /// distributed and streaming — sums contribution scores into ACS
    /// (paper Eq. 4), for every claim.
    pub window: usize,
    /// Self-transition probability of the truth chain: every claim's HMM
    /// stays in its state with this probability and flips with the rest.
    /// It is a constant of the model, not EM's starting point — EM fits
    /// only the emission (DESIGN.md §6).
    pub stay_probability: f64,
    /// Maximum Baum–Welch iterations per claim.
    pub em_iterations: usize,
    /// Whether to run EM at all; `false` decodes with the initial
    /// data-scaled model (cheaper; the `em-off` ablation). The streaming
    /// engine still refits on schedule, onto a re-scaled initial model.
    pub train: bool,
    /// Streaming engine: refit each claim's HMM every this many closed
    /// intervals (at least one; a period longer than the stream never
    /// refits). Matches the paper's deployment, which trains models
    /// offline and refreshes them periodically as the stream accumulates.
    pub streaming_refit: usize,
}

impl Default for SstdConfig {
    fn default() -> Self {
        Self {
            window: 2,
            stay_probability: 0.9,
            em_iterations: 25,
            train: true,
            streaming_refit: 20,
        }
    }
}

impl SstdConfig {
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
    /// `window` must be at least one interval, `stay_probability` must lie
    /// in `(0, 1)`, `em_iterations` must be at least one, and
    /// `streaming_refit` must be at least one interval.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new("window", "must be at least one interval"));
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
            stay_probability: 0.8,
            em_iterations: 5,
            train: false,
            streaming_refit: 1,
        };
        assert_eq!(valid.validate(), Ok(()));
        for (field, config) in [
            ("window", SstdConfig { window: 0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: 0.0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: 1.0, ..valid }),
            ("stay_probability", SstdConfig { stay_probability: f64::NAN, ..valid }),
            ("em_iterations", SstdConfig { em_iterations: 0, ..valid }),
            ("streaming_refit", SstdConfig { streaming_refit: 0, ..valid }),
        ] {
            assert_eq!(config.validate().expect_err("invalid").field(), field, "{config:?}");
        }
    }
}
