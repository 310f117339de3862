//! Recovery telemetry: what the checkpoint/restore machinery did and what
//! it cost.
//!
//! The crash-recovery subsystem (see DESIGN.md §13) records one
//! [`RecoveryEvent`] per checkpoint written, crash observed and restore
//! completed with
//! [`EventStore::record_recovery`](crate::EventStore::record_recovery)
//! (chained checkpoint → crash → restore). The counters a long-running
//! ingest service would alert on — checkpoints written, crashes
//! survived, reports replayed, recovery latency — are
//! [`Query::recovery`](crate::Query::recovery) reductions.

/// One event in the life of a supervised, checkpointed ingest loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEvent {
    /// A checkpoint was written.
    CheckpointWritten {
        /// The open interval at checkpoint time.
        interval: usize,
        /// Reports ingested since the previous checkpoint (the journal
        /// suffix a restore would replay).
        journal_len: u64,
        /// Encoded snapshot size in bytes.
        bytes: usize,
    },
    /// The ingest loop crashed (injected or real); recovery begins.
    CrashObserved {
        /// Reports successfully ingested before the crash.
        reports_ingested: u64,
    },
    /// State was restored from the last checkpoint plus journal replay.
    Restored {
        /// Reports replayed from the journal to catch up.
        replayed: u64,
        /// Wall-clock seconds from crash to caught-up (0 when timing is
        /// disabled).
        latency: f64,
    },
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CheckpointWritten { interval, journal_len, bytes } => {
                write!(f, "checkpoint(interval={interval}, journal={journal_len}, bytes={bytes})")
            }
            Self::CrashObserved { reports_ingested } => {
                write!(f, "crash(ingested={reports_ingested})")
            }
            Self::Restored { replayed, latency } => {
                write!(f, "restored(replayed={replayed}, latency={latency:.6})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = RecoveryEvent::CheckpointWritten { interval: 2, journal_len: 7, bytes: 99 };
        assert!(e.to_string().contains("interval=2"));
        assert!(RecoveryEvent::CrashObserved { reports_ingested: 3 }
            .to_string()
            .contains("ingested=3"));
        assert!(RecoveryEvent::Restored { replayed: 4, latency: 0.5 }
            .to_string()
            .contains("replayed=4"));
    }
}
