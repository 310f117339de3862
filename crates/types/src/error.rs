//! The unified error surface of the public SSTD API.
//!
//! Three concrete error families live here, plus [`SstdError`], the enum
//! every fallible public entry point returns:
//!
//! - [`ScoreError`] — a domain value (uncertainty/independence score)
//!   outside its documented range;
//! - [`ConfigError`] — a configuration's `validate()` rejected one of
//!   its fields;
//! - [`BackendError`] — an execution backend refused an operation (e.g. a
//!   task whose resource requirements fit no cluster node).
//!
//! Layer-specific errors that cannot live in this base crate (like
//! `sstd_core::DistributedError`) are carried through
//! [`SstdError::Distributed`] as a boxed source and can be recovered with
//! [`SstdError::distributed_as`].

use std::error::Error;
use std::fmt;

/// Error returned when a score value lies outside its documented range.
///
/// The SSTD paper constrains the uncertainty score `κ` and the independence
/// score `η` to `[0, 1]` (Definitions 2–3). Constructors of the score
/// newtypes enforce that invariant and return this error on violation.
///
/// # Examples
///
/// ```
/// use sstd_types::Uncertainty;
///
/// let err = Uncertainty::new(1.5).unwrap_err();
/// assert!(err.to_string().contains("uncertainty"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreError {
    kind: &'static str,
    value: f64,
}

impl ScoreError {
    pub(crate) fn new(kind: &'static str, value: f64) -> Self {
        Self { kind, value }
    }

    /// The offending value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The score family that rejected the value (e.g. `"uncertainty"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} score {} is outside the valid range [0, 1] or not finite",
            self.kind, self.value
        )
    }
}

impl Error for ScoreError {}

/// An invalid configuration value, reported by a configuration's
/// `validate()` (or by an entry point validating its inputs).
///
/// # Examples
///
/// ```
/// use sstd_types::error::ConfigError;
///
/// let err = ConfigError::new("window", "must be at least 1");
/// assert_eq!(err.field(), "window");
/// assert!(err.to_string().contains("window"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    message: String,
}

impl ConfigError {
    /// Creates an error for `field` with a human-readable explanation.
    #[must_use]
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        Self { field, message: message.into() }
    }

    /// The rejected configuration field.
    #[must_use]
    pub const fn field(&self) -> &'static str {
        self.field
    }

    /// Why the value was rejected.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid `{}`: {}", self.field, self.message)
    }
}

impl Error for ConfigError {}

/// An execution backend refused or failed an operation — a task whose
/// requirements fit no node, an invalid resize, a submission the backend
/// cannot honor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    op: &'static str,
    detail: String,
}

impl BackendError {
    /// Creates an error for the backend operation `op` (e.g. `"submit"`).
    #[must_use]
    pub fn new(op: &'static str, detail: impl Into<String>) -> Self {
        Self { op, detail: detail.into() }
    }

    /// The refused operation.
    #[must_use]
    pub const fn op(&self) -> &'static str {
        self.op
    }

    /// What went wrong.
    #[must_use]
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend {} failed: {}", self.op, self.detail)
    }
}

impl Error for BackendError {}

/// The unified error of the public SSTD surface: every fallible entry
/// point (`run_distributed`, the DTM `run` family, `JobBackend::submit_job`)
/// returns this instead of panicking on misuse.
///
/// # Examples
///
/// ```
/// use sstd_types::error::{ConfigError, SstdError};
///
/// let err: SstdError = ConfigError::new("max_workers", "must be ≥ initial_workers").into();
/// assert!(matches!(err, SstdError::Config(_)));
/// assert!(err.to_string().contains("max_workers"));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum SstdError {
    /// An invalid configuration or input.
    Config(ConfigError),
    /// An execution backend refused or failed an operation.
    Backend(BackendError),
    /// A distributed run failed; the boxed source is the layer-specific
    /// error (e.g. `sstd_core::DistributedError`), recoverable via
    /// [`distributed_as`](Self::distributed_as).
    Distributed(Box<dyn Error + Send + Sync + 'static>),
    /// Crash recovery failed — a corrupt or mismatched snapshot or a
    /// journal that would not decode. The boxed source is the layer-specific error (e.g.
    /// `sstd_core::RecoveryError`), recoverable via
    /// [`recovery_as`](Self::recovery_as).
    Recovery(Box<dyn Error + Send + Sync + 'static>),
    /// Live ingest refused a report — most commonly backpressure from a
    /// saturated shard queue. The boxed source is the layer-specific
    /// error (e.g. `sstd_serve::IngestError`), recoverable via
    /// [`ingest_as`](Self::ingest_as).
    Ingest(Box<dyn Error + Send + Sync + 'static>),
}

impl SstdError {
    /// Wraps a layer-specific distributed-run error.
    #[must_use]
    pub fn distributed(err: impl Error + Send + Sync + 'static) -> Self {
        Self::Distributed(Box::new(err))
    }

    /// Wraps a layer-specific crash-recovery error.
    #[must_use]
    pub fn recovery(err: impl Error + Send + Sync + 'static) -> Self {
        Self::Recovery(Box::new(err))
    }

    /// Wraps a layer-specific live-ingest error.
    #[must_use]
    pub fn ingest(err: impl Error + Send + Sync + 'static) -> Self {
        Self::Ingest(Box::new(err))
    }

    /// The configuration error, if that is what this is.
    #[must_use]
    pub const fn as_config(&self) -> Option<&ConfigError> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }

    /// The backend error, if that is what this is.
    #[must_use]
    pub const fn as_backend(&self) -> Option<&BackendError> {
        match self {
            Self::Backend(e) => Some(e),
            _ => None,
        }
    }

    /// Downcasts the boxed distributed-run source to a concrete type.
    #[must_use]
    pub fn distributed_as<E: Error + 'static>(&self) -> Option<&E> {
        match self {
            Self::Distributed(boxed) => boxed.downcast_ref::<E>(),
            _ => None,
        }
    }

    /// Downcasts the boxed crash-recovery source to a concrete type.
    #[must_use]
    pub fn recovery_as<E: Error + 'static>(&self) -> Option<&E> {
        match self {
            Self::Recovery(boxed) => boxed.downcast_ref::<E>(),
            _ => None,
        }
    }

    /// Downcasts the boxed live-ingest source to a concrete type.
    #[must_use]
    pub fn ingest_as<E: Error + 'static>(&self) -> Option<&E> {
        match self {
            Self::Ingest(boxed) => boxed.downcast_ref::<E>(),
            _ => None,
        }
    }
}

impl fmt::Display for SstdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => e.fmt(f),
            Self::Backend(e) => e.fmt(f),
            Self::Distributed(e) => write!(f, "distributed run failed: {e}"),
            Self::Recovery(e) => write!(f, "recovery failed: {e}"),
            Self::Ingest(e) => write!(f, "ingest failed: {e}"),
        }
    }
}

impl Error for SstdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Backend(e) => Some(e),
            Self::Distributed(e) => Some(e.as_ref()),
            Self::Recovery(e) => Some(e.as_ref()),
            Self::Ingest(e) => Some(e.as_ref()),
        }
    }
}

impl From<ConfigError> for SstdError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<BackendError> for SstdError {
    fn from(e: BackendError) -> Self {
        Self::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_kind_and_value() {
        let e = ScoreError::new("independence", 2.0);
        let msg = e.to_string();
        assert!(msg.contains("independence"));
        assert!(msg.contains('2'));
    }

    #[test]
    fn accessors_expose_fields() {
        let e = ScoreError::new("uncertainty", -0.1);
        assert_eq!(e.kind(), "uncertainty");
        assert_eq!(e.value(), -0.1);
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ScoreError>();
        assert_err::<ConfigError>();
        assert_err::<BackendError>();
        assert_err::<SstdError>();
    }

    #[test]
    fn sstd_error_wraps_and_recovers_each_family() {
        let cfg: SstdError = ConfigError::new("window", "must be ≥ 1").into();
        assert_eq!(cfg.as_config().map(ConfigError::field), Some("window"));
        assert!(cfg.as_backend().is_none());

        let be: SstdError = BackendError::new("submit", "no node fits").into();
        assert_eq!(be.as_backend().map(BackendError::op), Some("submit"));

        let dist = SstdError::distributed(ScoreError::new("uncertainty", 2.0));
        let inner = dist.distributed_as::<ScoreError>().expect("downcast");
        assert_eq!(inner.kind(), "uncertainty");
        assert!(dist.distributed_as::<ConfigError>().is_none());

        let rec = SstdError::recovery(ScoreError::new("independence", -1.0));
        let inner = rec.recovery_as::<ScoreError>().expect("downcast");
        assert_eq!(inner.kind(), "independence");
        assert!(rec.recovery_as::<ConfigError>().is_none());
        assert!(rec.distributed_as::<ScoreError>().is_none());
        assert!(rec.to_string().contains("recovery failed"));

        let ing = SstdError::ingest(ScoreError::new("uncertainty", 9.0));
        let inner = ing.ingest_as::<ScoreError>().expect("downcast");
        assert_eq!(inner.value(), 9.0);
        assert!(ing.ingest_as::<ConfigError>().is_none());
        assert!(ing.recovery_as::<ScoreError>().is_none());
        assert!(ing.to_string().contains("ingest failed"));
    }

    #[test]
    fn sstd_error_display_and_source_delegate() {
        use std::error::Error as _;
        let err: SstdError = BackendError::new("resize", "zero workers").into();
        assert!(err.to_string().contains("resize"));
        assert!(err.source().is_some());
    }
}
