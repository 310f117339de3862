//! Streaming telemetry: the per-interval sample the streaming engine
//! records with [`EventStore::record_stream`](crate::EventStore::record_stream)
//! (chained interval → interval) and readers reduce through
//! [`Query::stream`](crate::Query::stream).

/// One closed streaming interval as the engine saw it (paper §V measures
/// exactly these: ingest rate, window occupancy, decision latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTick {
    /// The interval index (0-based).
    pub interval: u64,
    /// Reports ingested during the interval.
    pub reports: u64,
    /// Claims with at least one report in the ACS window.
    pub active_claims: usize,
    /// Mean ACS window occupancy across active claims (observations per
    /// claim window).
    pub window_occupancy: f64,
    /// Wall-clock seconds spent decoding the interval's decisions
    /// (0 when timing is disabled).
    pub decode_latency: f64,
    /// Claims whose decision flipped relative to the previous interval.
    pub decision_flips: usize,
    /// Reports that arrived timestamped before the open interval and were
    /// folded into it (far-past / stale arrivals).
    pub late_reports: u64,
    /// Reports rejected at ingest for failing integrity checks (e.g. a
    /// non-finite contribution score from a corrupted payload).
    pub rejected_reports: u64,
}
