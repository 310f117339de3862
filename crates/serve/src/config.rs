//! Service configuration: shard count, queue bounds, checkpoint cadence.

use sstd_core::SstdConfig;
use sstd_types::{ConfigError, Timeline};

/// Configuration of an [`IngestService`](crate::IngestService) /
/// [`IngestServer`](crate::IngestServer): how many shards to run, how
/// deep each shard's bounded ingest queue is, how often each shard
/// checkpoints, and the engine parameters every shard shares.
///
/// Build one with [`builder`](Self::builder); `build()` validates every
/// field (including the embedded [`SstdConfig`]) and names the first
/// offending one in a [`ConfigError`].
///
/// # Examples
///
/// ```
/// use sstd_serve::ServeConfig;
/// use sstd_types::{Timeline, Timestamp};
///
/// let timeline = Timeline::new(Timestamp::from_secs(3600), 12);
/// let cfg = ServeConfig::builder()
///     .shards(4)
///     .queue_capacity(1024)
///     .timeline_from(timeline.clone())
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.shards, 4);
///
/// let err = ServeConfig::builder().shards(0).timeline_from(timeline).build().unwrap_err();
/// assert_eq!(err.field(), "shards");
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of independent shards; reports route by `ClaimId` hash.
    pub shards: usize,
    /// Bound of each shard's ingest queue; a full queue refuses with
    /// [`IngestError::Backpressure`](crate::IngestError::Backpressure).
    pub queue_capacity: usize,
    /// A shard checkpoints after this many applied reports
    /// (0 = never checkpoint; a crashed shard then replays its whole
    /// journal).
    pub checkpoint_every: usize,
    /// Engine parameters shared by every shard.
    pub engine: SstdConfig,
    /// The timeline every shard discretizes against.
    pub timeline: Timeline,
}

impl ServeConfig {
    /// Starts a builder with one shard, a 1024-deep queue, and
    /// checkpoints every 256 applied reports.
    #[must_use]
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Validates every field, naming the first invalid one.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`]: `shards` and `queue_capacity` must be at least
    /// one, and the embedded engine config must pass
    /// [`SstdConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::new("shards", "must run at least one shard"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must hold at least one report"));
        }
        self.engine.validate()
    }
}

/// Fallible builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    shards: usize,
    queue_capacity: usize,
    checkpoint_every: usize,
    engine: SstdConfig,
    timeline: Option<Timeline>,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_capacity: 1024,
            checkpoint_every: 256,
            engine: SstdConfig::default(),
            timeline: None,
        }
    }
}

impl ServeConfigBuilder {
    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard ingest queue bound.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-shard checkpoint cadence in applied reports
    /// (0 disables checkpointing).
    #[must_use]
    pub fn checkpoint_every(mut self, reports: usize) -> Self {
        self.checkpoint_every = reports;
        self
    }

    /// Sets the engine parameters every shard shares.
    #[must_use]
    pub fn engine(mut self, engine: SstdConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the timeline every shard discretizes against (required).
    #[must_use]
    pub fn timeline_from(mut self, timeline: Timeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Validates every field and returns the configuration.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first invalid field (see
    /// [`ServeConfig::validate`]).
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let Some(timeline) = self.timeline else {
            return Err(ConfigError::new("timeline", "required: call `.timeline_from(...)`"));
        };
        let config = ServeConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            checkpoint_every: self.checkpoint_every,
            engine: self.engine,
            timeline,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_types::Timestamp;

    fn timeline() -> Timeline {
        Timeline::new(Timestamp::from_secs(600), 6)
    }

    #[test]
    fn builder_defaults_build_cleanly() {
        let cfg = ServeConfig::builder().timeline_from(timeline()).build().expect("valid");
        assert_eq!(cfg.shards, 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.checkpoint_every > 0);
    }

    #[test]
    fn builder_names_the_offending_field() {
        let missing = ServeConfig::builder().build().unwrap_err();
        assert_eq!(missing.field(), "timeline");

        let cases = [
            ("shards", ServeConfig::builder().shards(0).timeline_from(timeline()).build()),
            (
                "queue_capacity",
                ServeConfig::builder().queue_capacity(0).timeline_from(timeline()).build(),
            ),
            (
                "stay_probability",
                ServeConfig::builder()
                    .engine(SstdConfig { stay_probability: 2.0, ..SstdConfig::default() })
                    .timeline_from(timeline())
                    .build(),
            ),
            (
                "streaming_refit",
                ServeConfig::builder()
                    .engine(SstdConfig { streaming_refit: 0, ..SstdConfig::default() })
                    .timeline_from(timeline())
                    .build(),
            ),
        ];
        for (field, built) in cases {
            assert_eq!(built.expect_err("invalid").field(), field);
        }
    }
}
