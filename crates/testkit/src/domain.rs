//! Arbitrary-but-valid SSTD domain values: report streams, claim
//! windows, ACS sequences, HMM parameter sets, fault plans, engine
//! configurations, and raw-post streams — each with a shrinker that only
//! proposes *still valid* simpler cases.
//!
//! Validity is the point: every value these generators produce satisfies
//! the constructor invariants of the production types (stochastic rows,
//! in-range intervals, claims below `num_claims`, …), so a property
//! failure is always a real finding, never a malformed input.

mod post_stream;
pub mod scenario;

pub use post_stream::{post_stream_case, PostStreamCase};

use crate::gen::{gens, Gen};
use crate::oracle::hmm::{ReferenceHmm, SymmetricGaussian};
use sstd_control::DtmConfig;
use sstd_core::{CheckpointPolicy, SstdConfig};
use sstd_hmm::{Hmm, SymmetricGaussianEmission};
use sstd_runtime::FaultPlan;
use sstd_stats::SplitMix64;
use sstd_types::{
    ClaimId, GroundTruth, Independence, Report, SourceId, Timeline, Timestamp, Trace, TruthLabel,
    Uncertainty,
};

// ---------------------------------------------------------------------
// HMM parameter sets
// ---------------------------------------------------------------------

/// A two-state Gaussian HMM plus an observation sequence, kept as raw
/// tables so the shrinker can simplify them. `π` and each row of `A` are
/// general stochastic rows, so asymmetric chains are covered as well as
/// the sticky symmetric one the engine runs.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmCase {
    /// Initial distribution (two entries, stochastic).
    pub init: Vec<f64>,
    /// Transition matrix (two rows of two, row-stochastic).
    pub trans: Vec<Vec<f64>>,
    /// The emission's separation `μ` and shared `σ`.
    pub emit: (f64, f64),
    /// Observed ACS values, all finite.
    pub obs: Vec<f64>,
}

impl HmmCase {
    fn emission(&self) -> SymmetricGaussianEmission {
        let (mu, std) = self.emit;
        SymmetricGaussianEmission::new(mu, std).expect("generated emissions are valid")
    }

    /// Builds the production model from the tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables are not stochastic — generated and shrunk
    /// cases always are.
    #[must_use]
    pub fn hmm(&self) -> Hmm {
        Hmm::new(self.init.clone(), self.trans.clone(), self.emission())
            .expect("generated parameters are stochastic")
    }

    /// The same tables as a model of the reference EM loops
    /// ([`crate::oracle::hmm`]).
    #[must_use]
    pub fn reference(&self) -> ReferenceHmm {
        let (mu, std) = self.emit;
        let emission =
            SymmetricGaussian { mu, std, min_std: SymmetricGaussianEmission::DEFAULT_MIN_STD };
        ReferenceHmm::new(self.init.clone(), &self.trans, emission)
    }
}

/// Draws a stochastic row of `n` entries, floored away from zero so no
/// path has probability exactly 0 (ties and -inf scores would otherwise
/// make oracle comparisons ambiguous).
fn stochastic_row(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n).map(|_| rng.f64_in(0.05, 1.0)).collect();
    let sum: f64 = row.iter().sum();
    for p in &mut row {
        *p /= sum;
    }
    row
}

fn uniform_row(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}

/// Generates [`HmmCase`]s: `μ` in `[0.2, 3]`, `σ` in `[0.3, 2.5]`,
/// observations in `[−4, 4]`, length `1..=max_obs`. Shrinking shortens
/// the observations, then snaps probability rows to uniform (the
/// simplest stochastic row) one table at a time.
///
/// # Panics
///
/// Panics if `max_obs` is zero.
#[must_use]
pub fn hmm_case(max_obs: usize) -> Gen<HmmCase> {
    assert!(max_obs > 0, "need at least one observation");
    Gen::new(move |rng| {
        let init = stochastic_row(rng, 2);
        let trans = (0..2).map(|_| stochastic_row(rng, 2)).collect();
        let emit = (rng.f64_in(0.2, 3.0), rng.f64_in(0.3, 2.5));
        let len = rng.usize_in(1, max_obs);
        let obs = (0..len).map(|_| rng.f64_in(-4.0, 4.0)).collect();
        HmmCase { init, trans, emit, obs }
    })
    .with_shrink(|case: &HmmCase| {
        let mut out: Vec<HmmCase> = shrink_length(&case.obs)
            .into_iter()
            .map(|obs| HmmCase { obs, ..case.clone() })
            .collect();
        if case.init != uniform_row(2) {
            out.push(HmmCase { init: uniform_row(2), ..case.clone() });
        }
        for i in 0..2 {
            if case.trans[i] != uniform_row(2) {
                let mut trans = case.trans.clone();
                trans[i] = uniform_row(2);
                out.push(HmmCase { trans, ..case.clone() });
            }
        }
        out
    })
}

/// Shorter observation sequences: both halves, then each of the first 12
/// single removals. Nothing for a single observation.
fn shrink_length(obs: &[f64]) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let t = obs.len();
    if t > 1 {
        let keep = (t / 2).max(1);
        out.push(obs[..keep].to_vec());
        out.push(obs[t - keep..].to_vec());
        for i in 0..t.min(12) {
            let mut shorter = obs.to_vec();
            shorter.remove(i);
            out.push(shorter);
        }
    }
    out
}

/// The truth model's shape — a sticky two-state chain over a
/// sign-symmetric Gaussian — with an observation sequence that is
/// allowed to be hostile.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEmCase {
    /// Self-transition probability of both states, in `[0.5, 1)`.
    pub stay: f64,
    /// Initial separation `μ` (finite; may be 0 or huge).
    pub mu: f64,
    /// Initial shared `σ` (positive).
    pub std: f64,
    /// Floor applied to `σ` during re-estimation.
    pub min_std: f64,
    /// Observations: anything an `f64` can hold, NaN and ±∞ included.
    pub obs: Vec<f64>,
}

impl SymmetricEmCase {
    fn trans(&self) -> Vec<Vec<f64>> {
        vec![vec![self.stay, 1.0 - self.stay], vec![1.0 - self.stay, self.stay]]
    }

    /// Builds the production model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid — generated cases never are.
    #[must_use]
    pub fn hmm(&self) -> Hmm {
        let emission = SymmetricGaussianEmission::new(self.mu, self.std)
            .expect("generated parameters are valid")
            .with_min_std(self.min_std);
        Hmm::new(vec![0.5, 0.5], self.trans(), emission).expect("stochastic by construction")
    }

    /// The same parameters as a model of the reference EM loops.
    #[must_use]
    pub fn reference(&self) -> ReferenceHmm {
        let emission = SymmetricGaussian { mu: self.mu, std: self.std, min_std: self.min_std };
        ReferenceHmm::new(vec![0.5, 0.5], &self.trans(), emission)
    }
}

/// Shrinks an observation sequence: [`shrink_length`], then special
/// values (zero is the simplest observation) one at a time.
fn shrink_observations(obs: &[f64]) -> Vec<Vec<f64>> {
    let mut out = shrink_length(obs);
    let t = obs.len();
    for i in (0..t).filter(|&i| obs[i] != 0.0).take(12) {
        let mut zeroed = obs.to_vec();
        zeroed[i] = 0.0;
        out.push(zeroed);
    }
    out
}

/// Generates [`SymmetricEmCase`]s of `1..=max_obs` observations (lengths
/// 1 and 2 over-represented). The signal is a sign-flipping `±μ` plus
/// noise at a scale of 10⁻³, 1 or 10³; on top of it come all-zero
/// stretches and, in a third of the cases, a few observations replaced
/// by `±10³⁰⁰`, `±10¹⁵⁰`, `±∞` or NaN. `σ` starts at its floor in a fifth
/// of the cases, `stay` is near 0.5, near 1 or in between, and `μ` is
/// occasionally 0. Shrinks the observations only.
///
/// # Panics
///
/// Panics if `max_obs` is zero.
#[must_use]
pub fn symmetric_em_case(max_obs: usize) -> Gen<SymmetricEmCase> {
    assert!(max_obs > 0, "need at least one observation");
    Gen::new(move |rng| {
        let scale = *rng.pick(&[1e-3, 1.0, 1.0, 1e3]);
        let stay = match rng.usize_in(0, 3) {
            0 => rng.f64_in(0.5, 0.5 + 1e-6),
            1 => 1.0 - rng.f64_in(1e-12, 1e-6),
            _ => rng.f64_in(0.55, 0.99),
        };
        let min_std = *rng.pick(&[1e-3, 1e-3, 1e-6, 0.5]);
        let std = if rng.chance(0.2) { min_std } else { scale * rng.f64_in(0.05, 3.0) };
        let mu = if rng.chance(0.05) { 0.0 } else { scale * rng.f64_in(0.05, 5.0) };
        let len = match rng.usize_in(0, 9) {
            0 => 1,
            1 => 2,
            _ => rng.usize_in(1, max_obs),
        };
        let truth = scale * rng.f64_in(0.1, 5.0);
        let mut sign = 1.0;
        let mut obs: Vec<f64> = (0..len)
            .map(|_| {
                if rng.chance(0.08) {
                    sign = -sign;
                }
                sign * truth + scale * rng.f64_in(-1.5, 1.5)
            })
            .collect();
        for _ in 0..rng.usize_in(0, 2) {
            let start = rng.usize_in(0, len - 1);
            let end = (start + rng.usize_in(1, 40)).min(len);
            obs[start..end].fill(0.0);
        }
        if rng.chance(0.33) {
            const HOSTILE: [f64; 7] =
                [1e300, -1e300, 1e150, -1e150, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for _ in 0..rng.usize_in(1, 4) {
                obs[rng.usize_in(0, len - 1)] = *rng.pick(&HOSTILE);
            }
        }
        SymmetricEmCase { stay, mu, std, min_std, obs }
    })
    .with_shrink(|case: &SymmetricEmCase| {
        shrink_observations(&case.obs)
            .into_iter()
            .map(|obs| SymmetricEmCase { obs, ..case.clone() })
            .collect()
    })
}

// ---------------------------------------------------------------------
// ACS sequences and claim windows
// ---------------------------------------------------------------------

/// A claim's raw per-interval contribution scores plus the sliding
/// window to aggregate them with.
#[derive(Debug, Clone, PartialEq)]
pub struct AcsCase {
    /// Number of timeline intervals (≥ 1).
    pub num_intervals: usize,
    /// Sliding window `sw` (≥ 1; may exceed `num_intervals`).
    pub window: usize,
    /// `(interval, contribution score)` pairs, every interval in range.
    pub scores: Vec<(usize, f64)>,
}

/// Generates [`AcsCase`]s with up to `max_intervals` intervals and up to
/// `max_scores` individual scores. Shrinks by dropping scores, zeroing
/// score values, and pulling the window toward 1.
///
/// # Panics
///
/// Panics if `max_intervals` is zero.
#[must_use]
pub fn acs_case(max_intervals: usize, max_scores: usize) -> Gen<AcsCase> {
    assert!(max_intervals > 0, "need at least one interval");
    Gen::new(move |rng| {
        let num_intervals = rng.usize_in(1, max_intervals);
        let window = rng.usize_in(1, max_intervals + 4);
        let count = rng.usize_in(0, max_scores);
        let scores = (0..count)
            .map(|_| (rng.usize_in(0, num_intervals - 1), rng.f64_in(-2.0, 2.0)))
            .collect();
        AcsCase { num_intervals, window, scores }
    })
    .with_shrink(|case: &AcsCase| {
        let mut out = Vec::new();
        let k = case.scores.len();
        if k > 0 {
            out.push(AcsCase { scores: case.scores[..k / 2].to_vec(), ..case.clone() });
            for i in 0..k.min(12) {
                let mut scores = case.scores.clone();
                scores.remove(i);
                out.push(AcsCase { scores, ..case.clone() });
            }
        }
        if case.window > 1 {
            out.push(AcsCase { window: 1, ..case.clone() });
            out.push(AcsCase { window: case.window / 2, ..case.clone() });
        }
        for i in 0..k.min(8) {
            if case.scores[i].1 != 0.0 {
                let mut scores = case.scores.clone();
                scores[i].1 = 0.0;
                out.push(AcsCase { scores, ..case.clone() });
            }
        }
        out
    })
}

// ---------------------------------------------------------------------
// Report streams / traces
// ---------------------------------------------------------------------

/// Bounds for [`trace_case`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceShape {
    /// Maximum number of claims (≥ 1).
    pub max_claims: usize,
    /// Maximum number of sources (≥ 1).
    pub max_sources: usize,
    /// Maximum timeline intervals (≥ 2).
    pub max_intervals: usize,
    /// Maximum reports per (claim, interval) pair.
    pub max_reports_per_interval: usize,
    /// Lower bound on the fraction of honest reports (the rest flip
    /// their attitude).
    pub min_honest_rate: f64,
}

impl Default for TraceShape {
    fn default() -> Self {
        Self {
            max_claims: 4,
            max_sources: 5,
            max_intervals: 8,
            max_reports_per_interval: 3,
            min_honest_rate: 0.6,
        }
    }
}

/// A generated report stream with its ground truth, kept in raw parts so
/// the shrinker can drop reports and rebuild the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCase {
    /// Claims in the trace (every report's claim is below this).
    pub num_claims: usize,
    /// Sources in the trace.
    pub num_sources: usize,
    /// Timeline intervals; the horizon is `10` seconds per interval.
    pub num_intervals: usize,
    /// Per-claim hidden truth timelines (`num_claims` rows of
    /// `num_intervals` labels).
    pub truth: Vec<Vec<TruthLabel>>,
    /// The scored report stream.
    pub reports: Vec<Report>,
}

impl TraceCase {
    /// Seconds per timeline interval in generated traces.
    pub const SECS_PER_INTERVAL: u64 = 10;

    /// Assembles the production [`Trace`] (reports are sorted by time by
    /// the constructor).
    #[must_use]
    pub fn trace(&self) -> Trace {
        let mut gt = GroundTruth::new(self.num_intervals);
        for (c, labels) in self.truth.iter().enumerate() {
            gt.insert(ClaimId::new(c as u32), labels.clone());
        }
        Trace::new(
            "testkit",
            self.reports.clone(),
            self.num_sources,
            self.num_claims,
            self.timeline(),
            gt,
        )
    }

    /// The trace's timeline: `num_intervals` intervals of
    /// [`SECS_PER_INTERVAL`](Self::SECS_PER_INTERVAL) seconds.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        let horizon = Timestamp::from_secs(self.num_intervals as u64 * Self::SECS_PER_INTERVAL);
        Timeline::new(horizon, self.num_intervals)
    }
}

/// Generates [`TraceCase`]s within `shape`: sticky per-claim truth
/// chains, and for each (claim, interval) a burst of reports whose
/// attitudes are honest with a per-trace rate in
/// `[shape.min_honest_rate, 1]`. Shrinking drops reports — halves
/// first, then singles — which is the lever that matters when a
/// pipeline property fails.
///
/// # Panics
///
/// Panics if `shape` has a zero bound or an honest rate outside `[0, 1]`.
#[must_use]
pub fn trace_case(shape: TraceShape) -> Gen<TraceCase> {
    assert!(
        shape.max_claims > 0 && shape.max_sources > 0 && shape.max_intervals > 1,
        "degenerate trace shape"
    );
    assert!((0.0..=1.0).contains(&shape.min_honest_rate), "honest rate outside [0, 1]");
    Gen::new(move |rng| {
        let num_claims = rng.usize_in(1, shape.max_claims);
        let num_sources = rng.usize_in(1, shape.max_sources);
        let num_intervals = rng.usize_in(2, shape.max_intervals);
        let honest_rate = rng.f64_in(shape.min_honest_rate, 1.0);
        let truth: Vec<Vec<TruthLabel>> = (0..num_claims)
            .map(|_| {
                let mut label = TruthLabel::from_bool(rng.chance(0.5));
                (0..num_intervals)
                    .map(|_| {
                        if rng.chance(0.2) {
                            label = label.flipped();
                        }
                        label
                    })
                    .collect()
            })
            .collect();
        let mut reports = Vec::new();
        for (c, labels) in truth.iter().enumerate() {
            for (iv, label) in labels.iter().enumerate() {
                for _ in 0..rng.usize_in(0, shape.max_reports_per_interval) {
                    let t = iv as u64 * TraceCase::SECS_PER_INTERVAL
                        + rng.usize_in(0, TraceCase::SECS_PER_INTERVAL as usize - 1) as u64;
                    let honest = rng.chance(honest_rate);
                    let attitude = if honest {
                        label.honest_attitude()
                    } else {
                        label.honest_attitude().flipped()
                    };
                    reports.push(Report::new(
                        SourceId::new(rng.usize_in(0, num_sources - 1) as u32),
                        ClaimId::new(c as u32),
                        Timestamp::from_secs(t),
                        attitude,
                        Uncertainty::saturating(rng.f64_in(0.0, 0.5)),
                        Independence::saturating(rng.f64_in(0.5, 1.0)),
                    ));
                }
            }
        }
        TraceCase { num_claims, num_sources, num_intervals, truth, reports }
    })
    .with_shrink(|case: &TraceCase| {
        let mut out = Vec::new();
        let k = case.reports.len();
        if k > 0 {
            out.push(TraceCase { reports: case.reports[..k / 2].to_vec(), ..case.clone() });
            out.push(TraceCase { reports: case.reports[k / 2..].to_vec(), ..case.clone() });
            for i in 0..k.min(16) {
                let mut reports = case.reports.clone();
                reports.remove(i);
                out.push(TraceCase { reports, ..case.clone() });
            }
        }
        out
    })
}

// ---------------------------------------------------------------------
// Fault plans and configurations
// ---------------------------------------------------------------------

/// A seeded fault plan in raw parts, shrinkable toward the fault-free
/// plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanCase {
    /// Plan seed (decisions are pure in `(seed, task, attempt)`).
    pub seed: u64,
    /// Transient task-failure probability.
    pub transient_rate: f64,
}

impl FaultPlanCase {
    /// Builds the runtime [`FaultPlan`].
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan { seed: self.seed, transient_rate: self.transient_rate, ..FaultPlan::default() }
    }
}

/// Generates [`FaultPlanCase`]s with transient failures (no crashes —
/// crash recovery is a liveness concern, not an equivalence one). Shrinks
/// the rate toward zero, i.e. toward the fault-free plan.
#[must_use]
pub fn fault_plan_case() -> Gen<FaultPlanCase> {
    Gen::new(|rng| FaultPlanCase {
        seed: rng.next_u64() % 1_000_000,
        transient_rate: rng.f64_in(0.0, 0.45),
    })
    .with_shrink(|case: &FaultPlanCase| {
        let mut out = Vec::new();
        if case.transient_rate != 0.0 {
            out.push(FaultPlanCase { transient_rate: 0.0, ..*case });
        }
        if case.seed != 0 {
            out.push(FaultPlanCase { seed: 0, ..*case });
        }
        out
    })
}

/// Generates valid [`SstdConfig`]s across the engine's knob space:
/// windows of 1–6 intervals, variable stickiness, EM on/off, and
/// streaming refit periods of 1–8. Every draw passes
/// [`SstdConfig::validate`] by construction.
#[must_use]
pub fn sstd_config() -> Gen<SstdConfig> {
    Gen::new(|rng| {
        let config = SstdConfig {
            stay_probability: rng.f64_in(0.55, 0.95),
            em_iterations: rng.usize_in(1, 8),
            train: rng.chance(0.8),
            streaming_refit: rng.usize_in(1, 8),
            window: rng.usize_in(1, 6),
        };
        config.validate().expect("generated configuration is valid");
        config
    })
}

/// Generates valid [`DtmConfig`]s: PID gains, knob multipliers, worker
/// bounds, and control on/off. Every draw passes `DtmConfig::validate`.
#[must_use]
pub fn dtm_config() -> Gen<DtmConfig> {
    Gen::new(|rng| {
        let initial = rng.usize_in(1, 8);
        let max = rng.usize_in(initial, 32);
        let config = DtmConfig {
            kp: rng.f64_in(0.1, 3.0),
            ki: rng.f64_in(0.0, 1.0),
            kd: rng.f64_in(0.0, 1.0),
            theta3: rng.f64_in(1.0, 4.0),
            theta4: rng.f64_in(1.0, 3.0),
            sample_period: rng.f64_in(0.5, 2.0),
            initial_workers: initial,
            max_workers: max,
            control_enabled: rng.chance(0.5),
            ..DtmConfig::default()
        };
        config.validate().expect("generated configuration is valid");
        config
    })
}

// ---------------------------------------------------------------------
// Crash/recovery scenarios
// ---------------------------------------------------------------------

/// A complete crash-recovery scenario: a report stream, a seeded chaos
/// plan for the data path, a crash schedule, and a checkpoint cadence —
/// everything the differential suite needs to compare a crashed-and-
/// recovered ingest run against an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCase {
    /// The underlying report stream with planted truth.
    pub trace: TraceCase,
    /// Chaos plan seed.
    pub seed: u64,
    /// Ingest drop probability.
    pub drop_rate: f64,
    /// Ingest duplicate probability.
    pub duplicate_rate: f64,
    /// Ingest reorder probability.
    pub reorder_rate: f64,
    /// Maximum reorder displacement (≥ 1).
    pub reorder_depth: u32,
    /// Payload-corruption probability.
    pub corrupt_rate: f64,
    /// Crash points as fractions of the delivered stream length, in
    /// `[0, 1)`; resolve with [`crash_positions`](Self::crash_positions).
    pub crash_fracs: Vec<f64>,
    /// Records the at-least-once transport re-delivers after each crash.
    pub redelivery: usize,
    /// Checkpoint cadence in applied reports (`0` = never checkpoint, so
    /// recovery replays the whole journal).
    pub checkpoint_every: u64,
}

impl RecoveryCase {
    /// Builds the runtime [`FaultPlan`] carrying the ingest chaos.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            ingest_drop_rate: self.drop_rate,
            ingest_duplicate_rate: self.duplicate_rate,
            ingest_reorder_rate: self.reorder_rate,
            ingest_reorder_depth: self.reorder_depth,
            ingest_corrupt_rate: self.corrupt_rate,
            ..FaultPlan::default()
        }
    }

    /// The supervisor's checkpoint cadence.
    #[must_use]
    pub fn policy(&self) -> CheckpointPolicy {
        if self.checkpoint_every == 0 {
            CheckpointPolicy::DISABLED
        } else {
            CheckpointPolicy::every_reports(self.checkpoint_every)
        }
    }

    /// Resolves the crash fractions against a delivered stream of
    /// `delivered_len` records: sorted, deduplicated consume indices.
    #[must_use]
    pub fn crash_positions(&self, delivered_len: usize) -> Vec<usize> {
        if delivered_len == 0 {
            return Vec::new();
        }
        let mut out: Vec<usize> = self
            .crash_fracs
            .iter()
            .map(|f| ((f * delivered_len as f64) as usize).min(delivered_len - 1))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Generates [`RecoveryCase`]s: a generated trace, moderate seeded chaos
/// on the data path (rates low enough that the combined budget stays
/// well under 1), up to three crash points, and a checkpoint cadence
/// that is sometimes disabled. Shrinking removes the chaos first, then
/// the crashes, then thins the report stream — so a minimized failure
/// names the smallest interference that still breaks the guarantee.
#[must_use]
pub fn recovery_case(shape: TraceShape) -> Gen<RecoveryCase> {
    let traces = trace_case(shape);
    Gen::new(move |rng| RecoveryCase {
        trace: traces.generate(rng),
        seed: rng.next_u64() % 1_000_000,
        drop_rate: rng.f64_in(0.0, 0.08),
        duplicate_rate: rng.f64_in(0.0, 0.08),
        reorder_rate: rng.f64_in(0.0, 0.12),
        reorder_depth: rng.usize_in(1, 5) as u32,
        corrupt_rate: rng.f64_in(0.0, 0.05),
        crash_fracs: (0..rng.usize_in(0, 3)).map(|_| rng.f64_in(0.0, 0.999)).collect(),
        redelivery: rng.usize_in(0, 6),
        checkpoint_every: if rng.chance(0.2) { 0 } else { rng.usize_in(1, 64) as u64 },
    })
    .with_shrink(|case: &RecoveryCase| {
        let mut out = Vec::new();
        let chaotic = case.drop_rate != 0.0
            || case.duplicate_rate != 0.0
            || case.reorder_rate != 0.0
            || case.corrupt_rate != 0.0;
        if chaotic {
            out.push(RecoveryCase {
                drop_rate: 0.0,
                duplicate_rate: 0.0,
                reorder_rate: 0.0,
                corrupt_rate: 0.0,
                ..case.clone()
            });
        }
        if !case.crash_fracs.is_empty() {
            out.push(RecoveryCase { crash_fracs: Vec::new(), ..case.clone() });
            for i in 0..case.crash_fracs.len() {
                let mut fracs = case.crash_fracs.clone();
                fracs.remove(i);
                out.push(RecoveryCase { crash_fracs: fracs, ..case.clone() });
            }
        }
        if case.checkpoint_every != 0 {
            out.push(RecoveryCase { checkpoint_every: 0, ..case.clone() });
        }
        let k = case.trace.reports.len();
        if k > 0 {
            let mut half = case.trace.clone();
            half.reports.truncate(k / 2);
            out.push(RecoveryCase { trace: half, ..case.clone() });
        }
        out
    })
}

// ---------------------------------------------------------------------
// Sharded live-ingest scenarios
// ---------------------------------------------------------------------

/// A complete sharded-service scenario: a report stream (to be fed in
/// global time order), a shard count, queue and checkpoint parameters,
/// and a shard-crash schedule — everything the `serve_differential`
/// suite needs to compare the sharded service against one streaming
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCase {
    /// The underlying report stream with planted truth.
    pub trace: TraceCase,
    /// Shards to run (≥ 1).
    pub shards: usize,
    /// Per-shard ingest queue bound (≥ 1).
    pub queue_capacity: usize,
    /// Per-shard checkpoint cadence in applied reports (0 = never).
    pub checkpoint_every: usize,
    /// Crash points as fractions of the time-sorted stream, in
    /// `[0, 1)`; every shard crashes at each point.
    pub crash_fracs: Vec<f64>,
}

impl ServiceCase {
    /// The stream in global time order (stable, so each claim's
    /// relative report order is preserved) — the ordering under which
    /// the sharded service promises bit-identity with a single engine.
    #[must_use]
    pub fn sorted_reports(&self) -> Vec<Report> {
        let mut reports = self.trace.reports.clone();
        reports.sort_by_key(Report::time);
        reports
    }

    /// The trace's timeline.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        self.trace.timeline()
    }

    /// Resolves the crash fractions against a stream of `len` reports:
    /// sorted, deduplicated ingest indices.
    #[must_use]
    pub fn crash_positions(&self, len: usize) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        let mut out: Vec<usize> =
            self.crash_fracs.iter().map(|f| ((f * len as f64) as usize).min(len - 1)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Generates [`ServiceCase`]s: a generated trace, 1–4 shards, a small
/// bounded queue, a checkpoint cadence that is sometimes disabled, and
/// up to three crash points. Shrinking removes the crashes first, then
/// collapses to one shard, then disables checkpointing, then thins the
/// report stream — so a minimized failure names the smallest service
/// configuration that still breaks the equivalence.
#[must_use]
pub fn service_case(shape: TraceShape) -> Gen<ServiceCase> {
    let traces = trace_case(shape);
    Gen::new(move |rng| ServiceCase {
        trace: traces.generate(rng),
        shards: rng.usize_in(1, 4),
        queue_capacity: rng.usize_in(4, 64),
        checkpoint_every: if rng.chance(0.25) { 0 } else { rng.usize_in(1, 48) },
        crash_fracs: (0..rng.usize_in(0, 3)).map(|_| rng.f64_in(0.0, 0.999)).collect(),
    })
    .with_shrink(|case: &ServiceCase| {
        let mut out = Vec::new();
        if !case.crash_fracs.is_empty() {
            out.push(ServiceCase { crash_fracs: Vec::new(), ..case.clone() });
            for i in 0..case.crash_fracs.len() {
                let mut fracs = case.crash_fracs.clone();
                fracs.remove(i);
                out.push(ServiceCase { crash_fracs: fracs, ..case.clone() });
            }
        }
        if case.shards > 1 {
            out.push(ServiceCase { shards: 1, ..case.clone() });
            out.push(ServiceCase { shards: case.shards - 1, ..case.clone() });
        }
        if case.checkpoint_every != 0 {
            out.push(ServiceCase { checkpoint_every: 0, ..case.clone() });
        }
        let k = case.trace.reports.len();
        if k > 0 {
            let mut half = case.trace.clone();
            half.reports.truncate(k / 2);
            out.push(ServiceCase { trace: half, ..case.clone() });
        }
        out
    })
}

// ---------------------------------------------------------------------
// Long streams: the refit ring wraps
// ---------------------------------------------------------------------

/// A stream long enough that the streaming engine's refit ring wraps —
/// which the 2–8 interval traces of [`trace_case`] never reach — with the
/// engine configuration to run it under and the places to cut it.
#[derive(Debug, Clone, PartialEq)]
pub struct LongStreamCase {
    /// Engine configuration; `streaming_refit` spans 1–8.
    pub config: SstdConfig,
    /// The stream: reports in time order, every claim reported in every
    /// interval.
    pub trace: TraceCase,
    /// Closed-interval counts at which to cut the run (checkpoint, crash,
    /// restore), ascending and below `trace.num_intervals`: just before
    /// the ring first fills, when it is exactly full, after its first
    /// eviction, on a refit boundary past that, and one drawn anywhere.
    pub cuts: Vec<usize>,
    /// Shards for the sharded-service properties (1–3).
    pub shards: usize,
    /// Checkpoint cadence in applied reports besides the forced cuts
    /// (0 = only at the cuts).
    pub checkpoint_every: usize,
}

impl LongStreamCase {
    /// The trace's timeline.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        self.trace.timeline()
    }

    /// For each of [`cuts`](Self::cuts), the index of the first report of
    /// that interval: an engine that has consumed the stream up to and
    /// including it has closed exactly that many intervals.
    #[must_use]
    pub fn cut_positions(&self) -> Vec<usize> {
        let timeline = self.timeline();
        self.cuts
            .iter()
            .map(|&cut| {
                self.trace.reports.partition_point(|r| timeline.interval_of(r.time()) < cut)
            })
            .collect()
    }
}

/// Generates [`LongStreamCase`]s of `min_intervals..=max_intervals`
/// intervals × 1–3 claims × 1–2 reports per claim and interval, under a
/// [`sstd_config`] draw with EM capped at three iterations (what is
/// retained does not depend on how long EM runs; how long a thousand
/// cases take does). Shrinking drops cuts, then claims, then cuts the
/// stream short after the last remaining cut.
///
/// # Panics
///
/// Panics unless `2 <= min_intervals <= max_intervals`.
#[must_use]
pub fn long_stream_case(min_intervals: usize, max_intervals: usize) -> Gen<LongStreamCase> {
    assert!(2 <= min_intervals && min_intervals <= max_intervals, "bad interval range");
    let configs = sstd_config();
    Gen::new(move |rng| {
        let mut config = configs.generate(rng);
        config.em_iterations = config.em_iterations.min(3);
        let num_claims = rng.usize_in(1, 3);
        let num_sources = rng.usize_in(2, 6);
        let num_intervals = rng.usize_in(min_intervals, max_intervals);
        let honest_rate = rng.f64_in(0.6, 1.0);
        let mut label: Vec<TruthLabel> =
            (0..num_claims).map(|_| TruthLabel::from_bool(rng.chance(0.5))).collect();
        let mut truth = vec![Vec::with_capacity(num_intervals); num_claims];
        let mut reports = Vec::new();
        for iv in 0..num_intervals {
            let from = reports.len();
            for c in 0..num_claims {
                if rng.chance(0.04) {
                    label[c] = label[c].flipped();
                }
                truth[c].push(label[c]);
                for _ in 0..rng.usize_in(1, 2) {
                    let t = iv as u64 * TraceCase::SECS_PER_INTERVAL
                        + rng.usize_in(0, TraceCase::SECS_PER_INTERVAL as usize - 1) as u64;
                    let honest = label[c].honest_attitude();
                    reports.push(Report::new(
                        SourceId::new(rng.usize_in(0, num_sources - 1) as u32),
                        ClaimId::new(c as u32),
                        Timestamp::from_secs(t),
                        if rng.chance(honest_rate) { honest } else { honest.flipped() },
                        Uncertainty::saturating(rng.f64_in(0.0, 0.5)),
                        Independence::saturating(rng.f64_in(0.5, 1.0)),
                    ));
                }
            }
            reports[from..].sort_by_key(Report::time);
        }
        // The ring holds the horizon plus what arrives between two
        // refits.
        let refit = config.streaming_refit;
        let full = sstd_core::REFIT_HORIZON + refit - 1;
        let boundary = (full + 2).next_multiple_of(refit);
        let mut cuts = vec![full - 1, full, full + 1, boundary, rng.usize_in(1, num_intervals - 1)];
        cuts.retain(|&c| c < num_intervals);
        cuts.sort_unstable();
        cuts.dedup();
        LongStreamCase {
            config,
            trace: TraceCase { num_claims, num_sources, num_intervals, truth, reports },
            cuts,
            shards: rng.usize_in(1, 3),
            checkpoint_every: if rng.chance(0.5) { 0 } else { rng.usize_in(1, 400) },
        }
    })
    .with_shrink(move |case: &LongStreamCase| {
        let mut out = Vec::new();
        for i in 0..case.cuts.len() {
            let mut cuts = case.cuts.clone();
            cuts.remove(i);
            out.push(LongStreamCase { cuts, ..case.clone() });
        }
        if case.trace.num_claims > 1 {
            let mut trace = case.trace.clone();
            trace.num_claims = 1;
            trace.truth.truncate(1);
            trace.reports.retain(|r| r.claim().index() == 0);
            out.push(LongStreamCase { trace, ..case.clone() });
        }
        let keep = (case.cuts.last().map_or(0, |c| c + 2)).max(min_intervals);
        if keep < case.trace.num_intervals {
            let mut trace = case.trace.clone();
            trace.num_intervals = keep;
            for labels in &mut trace.truth {
                labels.truncate(keep);
            }
            let end = keep as u64 * TraceCase::SECS_PER_INTERVAL;
            trace.reports.retain(|r| r.time().as_secs() < end);
            out.push(LongStreamCase { trace, ..case.clone() });
        }
        if case.shards > 1 {
            out.push(LongStreamCase { shards: 1, ..case.clone() });
        }
        if case.checkpoint_every != 0 {
            out.push(LongStreamCase { checkpoint_every: 0, ..case.clone() });
        }
        out
    })
}

// ---------------------------------------------------------------------
// Social-media text
// ---------------------------------------------------------------------

/// A word pool that exercises the text substrate's edge cases: ASCII,
/// accented latin, CJK, Cyrillic, emoji, apostrophes, digits, and pure
/// punctuation.
#[must_use]
pub fn unicode_words() -> Vec<String> {
    [
        "the",
        "flood",
        "bridge",
        "closed",
        "Explosion",
        "DOWNTOWN",
        "café",
        "naïve",
        "日本語",
        "서울",
        "москва",
        "🔥",
        "🚒",
        "😱",
        "it's",
        "don't",
        "42",
        "no1",
        "#hashtag",
        "@user",
        "...",
        "—",
        "",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect()
}

/// Generates token lists over [`unicode_words`] (0–10 words), shrinking
/// by dropping words. Join with spaces for a post string.
#[must_use]
pub fn post_tokens() -> Gen<Vec<String>> {
    gens::vec_of(gens::one_of(unicode_words()), 0, 10)
}

/// Generates whole post strings (space-joined [`post_tokens`]).
#[must_use]
pub fn post_text() -> Gen<String> {
    post_tokens().map(|words| words.join(" "))
}

/// Generates posts for the lexicon stages (keyword filter, attitude,
/// hedge uncertainty). Every denial and hedge cue, every word of their
/// phrases and every whole phrase comes up, among stopwords and filler,
/// each in lower, upper or mixed case, now and then with an apostrophe
/// dropped in; a tenth of the posts are stopwords and apostrophes only.
/// Half the posts are ASCII; the other half carry the Unicode lowercasing
/// hazards: the Kelvin sign U+212A (lowercases to ASCII `k`), `İ` (to `i`
/// and a combining dot), final and medial `Σ`, `ß` (uppercases to `SS`),
/// and the right single quote U+2019, which is not an apostrophe. Shrinks
/// by dropping characters.
#[must_use]
pub fn lexicon_text() -> Gen<String> {
    use crate::oracle::text::{DENIAL_CUES, DENIAL_PHRASES, HEDGE_CUES, HEDGE_PHRASES};
    const FILLER: [&str; 8] = ["quake", "the", "there", "it's", "bridge", "42", "a", "you"];
    const GLUE: [&str; 5] = ["the", "there", "it's", "a", "'"];
    const HAZARDS: [&str; 10] =
        ["\u{212A}", "li\u{212A}ely", "İ", "İf", "ΣΑΣ", "όσος", "Σ", "ß", "straße", "can\u{2019}t"];
    const ASCII_SEPARATORS: [&str; 7] = [" ", " ", " ", "  ", ", ", "!\n", "-"];
    const HAZARD_SEPARATORS: [&str; 3] = ["\u{2019}", "🔥", "\u{a0}"];
    let phrases: Vec<&str> = DENIAL_PHRASES.iter().chain(HEDGE_PHRASES).copied().collect();
    let ascii_words: Vec<&str> = DENIAL_CUES
        .iter()
        .chain(HEDGE_CUES)
        .copied()
        .chain(phrases.iter().flat_map(|p| p.split(' ')))
        .chain(FILLER)
        .collect();
    Gen::new(move |rng| {
        let (hazards, glue) = (rng.chance(0.5), rng.chance(0.1));
        let lowercase = rng.chance(0.3);
        let mut text = String::new();
        for k in 0..rng.usize_in(0, 10) {
            if k > 0 {
                let separators: &[&str] =
                    if hazards && rng.chance(0.2) { &HAZARD_SEPARATORS } else { &ASCII_SEPARATORS };
                text.push_str(rng.pick::<&str>(separators));
            }
            let unit = *if glue {
                rng.pick(&GLUE)
            } else if hazards && rng.chance(0.3) {
                rng.pick(&HAZARDS)
            } else if rng.chance(0.25) {
                rng.pick(&phrases)
            } else {
                rng.pick(&ascii_words)
            };
            let mut unit: String = match (lowercase, rng.usize_in(0, 2)) {
                (true, _) | (false, 0) => unit.to_owned(),
                (false, 1) => unit.to_uppercase(),
                (false, _) => {
                    unit.chars()
                        .map(|c| {
                            if rng.chance(0.5) {
                                c.to_uppercase().collect()
                            } else {
                                c.to_string()
                            }
                        })
                        .collect()
                }
            };
            if rng.chance(0.1) {
                let at = rng.usize_in(0, unit.chars().count());
                let at = unit.char_indices().nth(at).map_or(unit.len(), |(i, _)| i);
                unit.insert(at, '\'');
            }
            text.push_str(&unit);
        }
        text
    })
    .with_shrink(|text: &String| {
        let chars: Vec<char> = text.chars().collect();
        let mut out: Vec<String> = Vec::new();
        if chars.len() > 1 {
            out.push(chars[..chars.len() / 2].iter().collect());
            out.push(chars[chars.len() / 2..].iter().collect());
        }
        for i in 0..chars.len().min(32) {
            out.push(chars.iter().enumerate().filter(|&(k, _)| k != i).map(|(_, c)| c).collect());
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_with, CheckConfig};

    #[test]
    fn hmm_cases_are_always_stochastic() {
        let g = hmm_case(12);
        let n = check_with(CheckConfig::new(300), &g, |case| {
            let _ = case.hmm(); // panics if any row is not stochastic
            if case.obs.iter().all(|o| o.is_finite()) {
                Ok(())
            } else {
                Err("observation is not finite".into())
            }
        })
        .expect("every generated HMM is valid");
        assert_eq!(n, 300);
    }

    #[test]
    fn hmm_shrinks_stay_valid() {
        let g = hmm_case(12);
        let mut rng = SplitMix64::new(31);
        for _ in 0..50 {
            let case = g.generate(&mut rng);
            for s in g.shrink(&case) {
                let _ = s.hmm();
                assert!(!s.obs.is_empty(), "shrinker never drops below one observation");
            }
        }
    }

    #[test]
    fn acs_cases_keep_intervals_in_range() {
        let g = acs_case(16, 30);
        let n = check_with(CheckConfig::new(300), &g, |case| {
            if case.scores.iter().all(|&(i, _)| i < case.num_intervals) {
                Ok(())
            } else {
                Err("score interval out of range".into())
            }
        })
        .expect("every case is in range");
        assert_eq!(n, 300);
        let mut rng = SplitMix64::new(7);
        let case = g.generate(&mut rng);
        for s in g.shrink(&case) {
            assert!(s.scores.iter().all(|&(i, _)| i < s.num_intervals));
            assert!(s.window >= 1);
        }
    }

    #[test]
    fn trace_cases_build_valid_traces() {
        let g = trace_case(TraceShape::default());
        let n = check_with(CheckConfig::new(100), &g, |case| {
            let trace = case.trace(); // panics on invalid references
            if trace.timeline().num_intervals() == case.num_intervals {
                Ok(())
            } else {
                Err("interval mismatch".into())
            }
        })
        .expect("every trace is valid");
        assert_eq!(n, 100);
    }

    #[test]
    fn trace_shrinks_only_drop_reports() {
        let g = trace_case(TraceShape::default());
        let mut rng = SplitMix64::new(3);
        let case = g.generate(&mut rng);
        for s in g.shrink(&case) {
            assert!(s.reports.len() < case.reports.len());
            assert_eq!(s.truth, case.truth, "truth timelines are preserved");
            let _ = s.trace();
        }
    }

    #[test]
    fn fault_plans_shrink_toward_fault_free() {
        let g = fault_plan_case();
        let mut rng = SplitMix64::new(9);
        let case = g.generate(&mut rng);
        case.plan().validate().expect("generated plan is valid");
        if case.transient_rate != 0.0 {
            assert_eq!(g.shrink(&case)[0].transient_rate, 0.0);
        }
    }

    #[test]
    fn recovery_cases_are_valid_and_shrink_toward_calm() {
        let g = recovery_case(TraceShape::default());
        let n = check_with(CheckConfig::new(200), &g, |case| {
            case.plan().validate().map_err(|e| e.to_string())?;
            let _ = case.policy();
            let positions = case.crash_positions(37);
            if positions.iter().all(|&p| p < 37) && positions.windows(2).all(|w| w[0] < w[1]) {
                Ok(())
            } else {
                Err("crash positions out of range or unsorted".into())
            }
        })
        .expect("every recovery case is valid");
        assert_eq!(n, 200);

        let mut rng = SplitMix64::new(41);
        let case = g.generate(&mut rng);
        if case.drop_rate != 0.0 || case.corrupt_rate != 0.0 {
            let first = &g.shrink(&case)[0];
            assert_eq!(first.drop_rate, 0.0);
            assert_eq!(first.corrupt_rate, 0.0);
        }
        for s in g.shrink(&case) {
            s.plan().validate().expect("shrunk plan is valid");
            let _ = s.trace.trace();
        }
    }

    #[test]
    fn service_cases_are_valid_and_shrink_toward_one_calm_shard() {
        let g = service_case(TraceShape::default());
        let n = check_with(CheckConfig::new(200), &g, |case| {
            if case.shards == 0 || case.queue_capacity == 0 {
                return Err("degenerate service shape".into());
            }
            let sorted = case.sorted_reports();
            if sorted.windows(2).any(|w| w[0].time() > w[1].time()) {
                return Err("sorted_reports is not time-ordered".into());
            }
            let positions = case.crash_positions(sorted.len().max(1));
            if positions.windows(2).any(|w| w[0] >= w[1]) {
                return Err("crash positions unsorted or duplicated".into());
            }
            let _ = case.timeline();
            Ok(())
        })
        .expect("every service case is valid");
        assert_eq!(n, 200);

        let mut rng = SplitMix64::new(23);
        let case = g.generate(&mut rng);
        if !case.crash_fracs.is_empty() {
            assert!(g.shrink(&case)[0].crash_fracs.is_empty(), "crashes shrink away first");
        }
        for s in g.shrink(&case) {
            assert!(s.shards >= 1);
            let _ = s.timeline();
        }
    }

    #[test]
    fn long_stream_cases_cut_around_the_first_wrap_and_shrink_validly() {
        let g = long_stream_case(150, 400);
        let n = check_with(CheckConfig::new(50), &g, |case| {
            let n = case.trace.num_intervals;
            if !(150..=400).contains(&n) || !(1..=8).contains(&case.config.streaming_refit) {
                return Err(format!("{n} intervals, refit {}", case.config.streaming_refit));
            }
            if case.trace.reports.windows(2).any(|w| w[0].time() > w[1].time()) {
                return Err("reports are not time-ordered".into());
            }
            let refit = case.config.streaming_refit;
            let full = sstd_core::REFIT_HORIZON + refit - 1;
            for wanted in [full - 1, full, full + 1] {
                if !case.cuts.contains(&wanted) {
                    return Err(format!("no cut at {wanted} closed intervals"));
                }
            }
            if !case.cuts.iter().any(|&c| c > full + 1 && c % refit == 0) {
                return Err("no cut on a refit boundary past the wrap".into());
            }
            let timeline = case.timeline();
            for (&cut, &pos) in case.cuts.iter().zip(&case.cut_positions()) {
                let here = timeline.interval_of(case.trace.reports[pos].time());
                let before =
                    pos.checked_sub(1).map(|p| timeline.interval_of(case.trace.reports[p].time()));
                if here != cut || before.is_some_and(|b| b >= cut) {
                    return Err(format!("cut {cut} resolves to report {pos} of interval {here}"));
                }
            }
            Ok(())
        })
        .expect("every long-stream case is valid");
        assert_eq!(n, 50);

        let mut rng = SplitMix64::new(29);
        let case = g.generate(&mut rng);
        for s in g.shrink(&case) {
            assert!(s.cuts.iter().all(|&c| c < s.trace.num_intervals));
            assert_eq!(s.cut_positions().len(), s.cuts.len());
            let _ = s.trace.trace();
            assert_ne!(s, case, "every proposal is a different case");
        }
    }

    #[test]
    fn generated_configs_validate() {
        let mut rng = SplitMix64::new(17);
        let sg = sstd_config();
        let dg = dtm_config();
        for _ in 0..200 {
            let c = sg.generate(&mut rng);
            assert!(c.window >= 1 && c.em_iterations >= 1 && c.streaming_refit >= 1);
            let d = dg.generate(&mut rng);
            d.validate().expect("generated DTM config is valid");
            assert!(d.initial_workers <= d.max_workers);
        }
    }

    #[test]
    fn post_text_is_deterministic_per_seed() {
        let g = post_text();
        let a = g.generate(&mut SplitMix64::new(5));
        let b = g.generate(&mut SplitMix64::new(5));
        assert_eq!(a, b);
    }
}
