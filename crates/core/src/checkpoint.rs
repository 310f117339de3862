//! Versioned, checksummed snapshots of the streaming engine.
//!
//! A [`StreamCheckpoint`] captures everything [`StreamingSstd`] needs to
//! continue a stream bit-identically after a crash: the interval cursor,
//! ingest counters, and per claim the contribution-score window, the
//! retained ACS ring (the last `REFIT_HORIZON + streaming_refit − 1`
//! values at most) and the decisions. Its size is one byte per closed
//! interval plus a term bounded by the refit horizon, whatever the age of
//! the stream.
//!
//! The decoder and model are deliberately *not* serialized: they are a
//! pure deterministic function of `(config, retained ring)`, so
//! [`StreamingSstd::restore`] rebuilds them by re-running the last refit
//! on the slice it saw and pushing the values that arrived since through
//! the exact code path the live engine used (see DESIGN.md §13).
//!
//! The byte encoding is self-describing and tamper-evident:
//!
//! ```text
//! magic "SSTDCKP1" · version u32 · fingerprint u64 · payload · fnv1a u64
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns. The
//! trailing FNV-1a checksum covers every preceding byte, so a flipped bit
//! anywhere — magic, cursor, a window value — surfaces as a typed
//! [`RecoveryError`], never a panic and never a silently wrong restore.
//!
//! [`StreamingSstd`]: crate::StreamingSstd
//! [`StreamingSstd::restore`]: crate::StreamingSstd::restore

use crate::SstdConfig;
use sstd_types::{ClaimId, SstdError, Timeline, TruthLabel};
use std::fmt;

/// Snapshot format version written by this build. Version 2 replaced the
/// full per-claim ACS history of version 1 with the bounded ring and an
/// optional decoder forward state; version 3 drops the forward state, as
/// every engine now refits; version 4 fingerprints the five
/// [`SstdConfig`] fields, as the window rule is one fixed `window`;
/// version 5 keeps version 4's layout, but its ring is replayed under a
/// fixed truth chain, where a version-4 ring was fitted with a learned
/// one. Snapshots of versions 1–4 are refused.
pub const CHECKPOINT_VERSION: u32 = 5;

/// The 8-byte magic prefixing every encoded checkpoint.
const MAGIC: &[u8; 8] = b"SSTDCKP1";

/// Why a snapshot (or journal) was rejected during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The bytes are damaged: bad magic, truncation, a checksum mismatch,
    /// or internal state that fails structural validation.
    Corrupt {
        /// What exactly failed to decode or validate.
        detail: String,
    },
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot was taken under a different configuration or timeline
    /// than the one offered for restore — continuing would silently
    /// produce different decisions, so it is refused.
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        found: u64,
        /// Fingerprint of the configuration offered for restore.
        expected: u64,
    },
    /// A report journal failed to decode or replay.
    Journal {
        /// What exactly went wrong.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            Self::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} is not the supported version {expected}")
            }
            Self::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match the offered \
                 config/timeline fingerprint {expected:#018x}"
            ),
            Self::Journal { detail } => write!(f, "corrupt journal: {detail}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<RecoveryError> for SstdError {
    fn from(e: RecoveryError) -> Self {
        Self::recovery(e)
    }
}

/// FNV-1a over a byte slice — the tamper-evidence checksum. Not
/// cryptographic; it guards against rot and truncation, not adversaries.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints a `(config, timeline)` pair: every field that influences
/// streaming decisions is folded in bit-exactly, so two fingerprints are
/// equal iff a stream checkpointed under one can continue under the other.
#[must_use]
pub fn config_fingerprint(config: &SstdConfig, timeline: &Timeline) -> u64 {
    let mut bytes = Vec::with_capacity(56);
    push_u64(&mut bytes, config.window as u64);
    push_f64(&mut bytes, config.stay_probability);
    push_u64(&mut bytes, config.em_iterations as u64);
    push_u64(&mut bytes, u64::from(config.train));
    push_u64(&mut bytes, config.streaming_refit as u64);
    push_u64(&mut bytes, timeline.horizon().as_secs());
    push_u64(&mut bytes, timeline.num_intervals() as u64);
    fnv1a(&bytes)
}

/// One claim's streaming state inside a [`StreamCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClaimCheckpoint {
    pub(crate) claim: ClaimId,
    pub(crate) start_interval: usize,
    pub(crate) open_cs: f64,
    pub(crate) window: Vec<f64>,
    /// The retained ACS ring, oldest value first.
    pub(crate) history: Vec<f64>,
    pub(crate) decisions: Vec<TruthLabel>,
}

/// A versioned, serializable snapshot of a [`StreamingSstd`] engine.
///
/// Produced by [`StreamingSstd::checkpoint`]; consumed by
/// [`StreamingSstd::restore`]. Encode with [`to_bytes`](Self::to_bytes)
/// and decode with [`from_bytes`](Self::from_bytes) — decoding verifies
/// the magic, format version and trailing checksum and returns a typed
/// [`RecoveryError`] on any damage.
///
/// # Examples
///
/// ```
/// use sstd_core::{SstdConfig, StreamCheckpoint, StreamingSstd};
/// use sstd_types::*;
///
/// let timeline = Timeline::new(Timestamp::from_secs(40), 4);
/// let mut s = StreamingSstd::new(SstdConfig::default(), timeline.clone());
/// for t in 0..20u64 {
///     s.push(&Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::from_secs(t * 2),
///         Attitude::Agree));
/// }
/// let bytes = s.checkpoint().to_bytes();
/// let back = StreamCheckpoint::from_bytes(&bytes).expect("intact snapshot decodes");
/// let resumed = StreamingSstd::restore(SstdConfig::default(), timeline, &back)
///     .expect("same config restores");
/// assert_eq!(resumed.reports_seen(), 20);
/// ```
///
/// [`StreamingSstd`]: crate::StreamingSstd
/// [`StreamingSstd::checkpoint`]: crate::StreamingSstd::checkpoint
/// [`StreamingSstd::restore`]: crate::StreamingSstd::restore
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    pub(crate) fingerprint: u64,
    pub(crate) current_interval: usize,
    pub(crate) reports_seen: u64,
    pub(crate) interval_reports: u64,
    pub(crate) interval_late: u64,
    pub(crate) interval_rejected: u64,
    pub(crate) total_late: u64,
    pub(crate) total_rejected: u64,
    pub(crate) claims: Vec<ClaimCheckpoint>,
}

impl StreamCheckpoint {
    /// The `(config, timeline)` fingerprint the snapshot was taken under.
    #[must_use]
    pub const fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The interval that was open at snapshot time.
    #[must_use]
    pub const fn interval(&self) -> usize {
        self.current_interval
    }

    /// Reports the engine had consumed at snapshot time.
    #[must_use]
    pub const fn reports_seen(&self) -> u64 {
        self.reports_seen
    }

    /// Claims with streaming state in the snapshot.
    #[must_use]
    pub fn num_claims(&self) -> usize {
        self.claims.len()
    }

    /// Encodes the snapshot: magic, version, payload, FNV-1a checksum.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length of the encoding, so a buffer sized by it never grows.
    pub(crate) fn encoded_len(&self) -> usize {
        let per_claim = |c: &ClaimCheckpoint| {
            8 * 6 + 8 * (c.window.len() + c.history.len()) + c.decisions.len()
        };
        MAGIC.len() + 4 + 8 * 9 + self.claims.iter().map(per_claim).sum::<usize>() + 8
    }

    /// Appends the encoding to `out`; the checksum covers the appended
    /// bytes only, so the snapshot can sit inside a larger blob.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(MAGIC);
        push_u32(out, CHECKPOINT_VERSION);
        push_u64(out, self.fingerprint);
        push_u64(out, self.current_interval as u64);
        push_u64(out, self.reports_seen);
        push_u64(out, self.interval_reports);
        push_u64(out, self.interval_late);
        push_u64(out, self.interval_rejected);
        push_u64(out, self.total_late);
        push_u64(out, self.total_rejected);
        push_u64(out, self.claims.len() as u64);
        for c in &self.claims {
            push_u64(out, c.claim.index() as u64);
            push_u64(out, c.start_interval as u64);
            push_f64(out, c.open_cs);
            push_u64(out, c.window.len() as u64);
            for &v in &c.window {
                push_f64(out, v);
            }
            push_u64(out, c.history.len() as u64);
            for &v in &c.history {
                push_f64(out, v);
            }
            push_u64(out, c.decisions.len() as u64);
            for &d in &c.decisions {
                out.push(u8::from(d.as_bool()));
            }
        }
        let checksum = fnv1a(&out[start..]);
        push_u64(out, checksum);
    }

    /// Decodes a snapshot, verifying magic, version and checksum.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Corrupt`] on truncation, bad magic, a checksum
    /// mismatch or malformed payload structure;
    /// [`RecoveryError::VersionMismatch`] when the format version is not
    /// [`CHECKPOINT_VERSION`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RecoveryError> {
        let min_len = MAGIC.len() + 4 + 8;
        if bytes.len() < min_len {
            return Err(corrupt(format!(
                "{} bytes is shorter than any valid snapshot",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("split at 8"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = Reader { bytes: body, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(corrupt("bad magic; not an SSTD checkpoint".to_string()));
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(RecoveryError::VersionMismatch {
                found: version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let fingerprint = r.u64()?;
        let current_interval = r.usize()?;
        let reports_seen = r.u64()?;
        let interval_reports = r.u64()?;
        let interval_late = r.u64()?;
        let interval_rejected = r.u64()?;
        let total_late = r.u64()?;
        let total_rejected = r.u64()?;
        let num_claims = r.usize()?;
        // A length prefix cannot promise more entries than there are bytes
        // left; each claim needs at least its fixed-size fields (three
        // words and three length prefixes).
        if num_claims > r.remaining() / 48 {
            return Err(corrupt(format!("claim count {num_claims} exceeds payload size")));
        }
        let mut claims = Vec::with_capacity(num_claims);
        let mut prev_claim: Option<usize> = None;
        for _ in 0..num_claims {
            let claim_index = r.usize()?;
            if claim_index > u32::MAX as usize {
                return Err(corrupt(format!("claim id {claim_index} out of range")));
            }
            if prev_claim.is_some_and(|p| p >= claim_index) {
                return Err(corrupt("claim ids are not strictly increasing".to_string()));
            }
            prev_claim = Some(claim_index);
            let start_interval = r.usize()?;
            let open_cs = r.f64()?;
            let window = r.f64_vec()?;
            let history = r.f64_vec()?;
            let num_decisions = r.usize()?;
            if num_decisions > r.remaining() {
                return Err(corrupt(format!(
                    "decision count {num_decisions} exceeds payload size"
                )));
            }
            let mut decisions = Vec::with_capacity(num_decisions);
            for _ in 0..num_decisions {
                match r.u8()? {
                    0 => decisions.push(TruthLabel::False),
                    1 => decisions.push(TruthLabel::True),
                    b => return Err(corrupt(format!("invalid truth label byte {b}"))),
                }
            }
            claims.push(ClaimCheckpoint {
                claim: ClaimId::new(claim_index as u32),
                start_interval,
                open_cs,
                window,
                history,
                decisions,
            });
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes after payload", r.remaining())));
        }
        Ok(Self {
            fingerprint,
            current_interval,
            reports_seen,
            interval_reports,
            interval_late,
            interval_rejected,
            total_late,
            total_rejected,
            claims,
        })
    }
}

pub(crate) fn corrupt(detail: String) -> RecoveryError {
    RecoveryError::Corrupt { detail }
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked little-endian byte reader; every failure is a typed
/// [`RecoveryError`], never a slice panic.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, RecoveryError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, RecoveryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, RecoveryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, RecoveryError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("value {v} does not fit in usize")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, RecoveryError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn f64_vec(&mut self) -> Result<Vec<f64>, RecoveryError> {
        let n = self.usize()?;
        if n > self.remaining() / 8 {
            return Err(corrupt(format!("float count {n} exceeds payload size")));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            current_interval: 4,
            reports_seen: 41,
            interval_reports: 3,
            interval_late: 1,
            interval_rejected: 0,
            total_late: 2,
            total_rejected: 1,
            claims: vec![
                ClaimCheckpoint {
                    claim: ClaimId::new(0),
                    start_interval: 0,
                    open_cs: 1.25,
                    window: vec![0.5, -0.25],
                    history: vec![1.0, 0.25, -0.5, 0.75],
                    decisions: vec![
                        TruthLabel::True,
                        TruthLabel::True,
                        TruthLabel::False,
                        TruthLabel::True,
                    ],
                },
                ClaimCheckpoint {
                    claim: ClaimId::new(3),
                    start_interval: 2,
                    open_cs: -0.5,
                    window: vec![],
                    history: vec![],
                    decisions: vec![TruthLabel::False, TruthLabel::False],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let ckp = sample();
        let bytes = ckp.to_bytes();
        assert_eq!(bytes.len(), ckp.encoded_len(), "the buffer is sized exactly");
        let back = StreamCheckpoint::from_bytes(&bytes).expect("intact bytes decode");
        assert_eq!(back, ckp);
        assert_eq!(back.num_claims(), 2);
        assert_eq!(back.interval(), 4);
        assert_eq!(back.reports_seen(), 41);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[i] ^= 1 << bit;
                assert!(
                    StreamCheckpoint::from_bytes(&dam).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                StreamCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_is_a_typed_corruption() {
        // Re-checksum so only the magic is wrong.
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = StreamCheckpoint::from_bytes(&bytes).expect_err("bad magic");
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn future_version_is_a_typed_mismatch() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = StreamCheckpoint::from_bytes(&bytes).expect_err("future version");
        assert_eq!(err, RecoveryError::VersionMismatch { found: 99, expected: CHECKPOINT_VERSION });
    }

    #[test]
    fn snapshots_older_than_version_5_are_refused() {
        // Magic and checksum of an older snapshot are valid; the version
        // word is read before any of its payload (or its fingerprint). A
        // version-4 snapshot has this build's layout byte for byte, and is
        // refused all the same: its decisions came from a learned chain.
        for old in [1u32, 2, 3, 4] {
            let mut bytes = sample().to_bytes();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let body_len = bytes.len() - 8;
            let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&sum);
            let err = StreamCheckpoint::from_bytes(&bytes).expect_err("older version");
            assert_eq!(err, RecoveryError::VersionMismatch { found: old, expected: 5 });
        }
    }

    #[test]
    fn a_claim_with_no_closed_interval_passes_the_claim_count_guard() {
        // Such a claim encodes to its fixed-size fields alone, 48 bytes:
        // a snapshot of nothing else must still decode.
        let ckp = StreamCheckpoint {
            claims: vec![ClaimCheckpoint {
                claim: ClaimId::new(7),
                start_interval: 4,
                open_cs: 0.5,
                window: vec![],
                history: vec![],
                decisions: vec![],
            }],
            ..sample()
        };
        let bytes = ckp.to_bytes();
        assert_eq!(bytes.len(), 8 + 4 + 8 * 9 + 48 + 8);
        assert_eq!(StreamCheckpoint::from_bytes(&bytes).expect("decodes"), ckp);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        // Claim count claims u64::MAX entries; the guard must reject it
        // before reserving memory.
        let mut bytes = sample().to_bytes();
        let claims_off = 8 + 4 + 8 * 8; // magic + version + 8 u64 header fields
        bytes[claims_off..claims_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = StreamCheckpoint::from_bytes(&bytes).expect_err("oversized count");
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn fingerprint_separates_configs_and_timelines() {
        use sstd_types::Timestamp;
        let tl = Timeline::new(Timestamp::from_secs(100), 10);
        let base = config_fingerprint(&SstdConfig::default(), &tl);
        assert_eq!(base, config_fingerprint(&SstdConfig::default(), &tl), "deterministic");
        let other_cfg = SstdConfig { streaming_refit: 7, ..SstdConfig::default() };
        assert_ne!(base, config_fingerprint(&other_cfg, &tl));
        let other_tl = Timeline::new(Timestamp::from_secs(100), 20);
        assert_ne!(base, config_fingerprint(&SstdConfig::default(), &other_tl));
    }

    #[test]
    fn errors_display_their_cause() {
        let e = RecoveryError::ConfigMismatch { found: 1, expected: 2 };
        assert!(e.to_string().contains("fingerprint"));
        let e: SstdError = RecoveryError::Journal { detail: "short read".into() }.into();
        assert!(e.to_string().contains("recovery failed"));
        assert!(e.recovery_as::<RecoveryError>().is_some());
    }
}
