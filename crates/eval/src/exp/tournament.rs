//! Truth-discovery tournament: every paper-table scheme against every
//! adversarial scenario family, with CI regression gates.
//!
//! The paper's accuracy tables (III–V) compare schemes on three traces
//! that are all benign in the same way: many honest independent sources
//! and slowly drifting truth. The tournament instead sweeps the five
//! adversarial axes of [`sstd_testkit::domain::scenario`] — coverage
//! skew, conflict ratio, long-tail populations, copy/collusion
//! communities, and truth drift — at several adversity levels, running
//! SSTD ([`StreamingSstd`]) and every baseline of
//! [`SchemeKind::paper_table`] under the identical per-interval
//! protocol.
//!
//! Per cell (scheme × family × level) it records accuracy/F1/Brier (via
//! [`crate::metrics`]), wall-clock, per-interval latency tails (one
//! [`StreamTick`] per interval into a per-cell [`EventStore`], reduced
//! through the query layer), and — when the caller installs a
//! [`MemProbe`] (the `tournament` binary's counting allocator) — peak
//! working set. The result renders as a human leaderboard and as
//! `leaderboard.json` in the repository's `BENCH_*.json` trajectory
//! shape (numeric `points`, with `schemes`/`families` legend arrays
//! mapping the indices).
//!
//! Two regression gates make this a CI job rather than a report:
//! every cell must produce complete, finite estimates, and SSTD's mean
//! accuracy over the paper-like cells (lowest adversity level) must not
//! fall below [`SSTD_PAPER_FLOOR`]. The collusion and fast-drift
//! degradation rows are recorded (not gated): they are the quantified
//! motivation for the model-extension roadmap items.

use crate::metrics::{brier_score, score_estimates};
use crate::schemes::{run_streaming, streaming_scheme, SchemeKind};
use sstd_core::{ConfidenceEstimates, SstdConfig, StreamingSstd, TruthEstimates};
use sstd_obs::{json_f64, EventStore, StreamTick};
use sstd_stats::mix64;
use sstd_testkit::domain::scenario::{Family, ScenarioSpec};
use sstd_types::Trace;
use std::time::Instant;

/// Adversity level treated as "paper-like" (the benign corner every
/// family shares); must be the smallest level in the grid.
pub const PAPER_LIKE_LEVEL: f64 = 0.1;

/// Regression floor for SSTD's mean accuracy across the paper-like
/// cells of the quick grid. The grid is fully deterministic, so the
/// floor has no noise margin. On the pinned CI seed (2017) the 60-interval
/// grid, whose SSTD streams refit twice, measures 0.8988: below the floor
/// (DESIGN.md §16). The 12-interval grid it replaced measured 0.9104 only
/// because SSTD never trained on it.
pub const SSTD_PAPER_FLOOR: f64 = 0.90;

/// Hooks into the driver binary's counting global allocator, letting
/// the library measure peak working set per cell without owning an
/// allocator itself.
#[derive(Debug, Clone, Copy)]
pub struct MemProbe {
    /// Resets the high-water mark to the current live size.
    pub reset: fn(),
    /// Bytes at the high-water mark since the last reset.
    pub peak_bytes: fn() -> u64,
}

/// Tournament grid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentConfig {
    /// Base seed; each cell derives its own scenario seed from it.
    pub seed: u64,
    /// Adversity levels swept per family (ascending, quantized to 0.1).
    pub levels: Vec<f64>,
    /// Claims per scenario.
    pub num_claims: usize,
    /// Sources per scenario.
    pub num_sources: usize,
    /// Timeline intervals per scenario: at least three refit periods
    /// ([`SstdConfig::streaming_refit`]), so SSTD's stream is decoded by
    /// trained models and not only by the untrained initial one.
    pub num_intervals: usize,
    /// Ordinary reports per claim and interval.
    pub reports_per_cell: usize,
}

impl TournamentConfig {
    /// The CI grid: 2 levels × 5 families × 7 schemes = 70 cells, a few
    /// seconds end to end.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            levels: vec![PAPER_LIKE_LEVEL, 0.9],
            num_claims: 8,
            num_sources: 12,
            num_intervals: 60,
            reports_per_cell: 3,
        }
    }

    /// The full grid: 5 levels × 5 families × 7 schemes = 175 cells.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self {
            levels: vec![PAPER_LIKE_LEVEL, 0.3, 0.5, 0.7, 0.9],
            num_claims: 10,
            num_sources: 16,
            num_intervals: 60,
            reports_per_cell: 3,
            ..Self::quick(seed)
        }
    }

    fn spec(&self, family: Family, level: f64) -> ScenarioSpec {
        ScenarioSpec {
            family,
            level,
            // One scenario per (family, level) cell group, shared by all
            // schemes so the comparison is paired.
            seed: mix64(self.seed ^ ((family.index() as u64) << 32) ^ (level * 10.0) as u64),
            num_claims: self.num_claims,
            num_sources: self.num_sources,
            num_intervals: self.num_intervals,
            reports_per_cell: self.reports_per_cell,
        }
    }
}

/// One (scheme × family × level) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Scenario family name.
    pub family: &'static str,
    /// Adversity level of the scenario.
    pub level: f64,
    /// Label accuracy against the planted truth.
    pub accuracy: f64,
    /// F1 over (claim, interval) decisions.
    pub f1: f64,
    /// Brier score of the hard-label confidences (lower is better).
    pub brier: f64,
    /// End-to-end wall clock for the cell, milliseconds.
    pub wall_ms: f64,
    /// p99 of per-interval processing latency, milliseconds.
    pub p99_interval_ms: f64,
    /// Worst per-interval processing latency, milliseconds.
    pub max_interval_ms: f64,
    /// Peak working set during the run, bytes (0 without a probe).
    pub peak_bytes: u64,
    /// Claims the scheme produced estimates for.
    pub claims_estimated: usize,
}

/// SSTD's accuracy drop from the paper-like to the most adversarial
/// level of one family.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Scenario family name.
    pub family: &'static str,
    /// SSTD accuracy at [`PAPER_LIKE_LEVEL`].
    pub paper_like: f64,
    /// SSTD accuracy at the highest swept level.
    pub adversarial: f64,
}

impl Degradation {
    /// Accuracy lost to the adversary (positive = degraded).
    #[must_use]
    pub fn drop(&self) -> f64 {
        self.paper_like - self.adversarial
    }
}

/// The tournament result: all cells, the SSTD degradation profile, and
/// any gate violations.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Base seed the grid ran with.
    pub seed: u64,
    /// Every measured cell, in (family, level, scheme) grid order.
    pub cells: Vec<Cell>,
    /// SSTD's paper-like → adversarial accuracy drop per family.
    pub degradation: Vec<Degradation>,
    /// Violated gate invariants; empty means the gates passed.
    pub violations: Vec<String>,
}

impl Leaderboard {
    /// `true` when every regression gate held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// SSTD's mean accuracy over the paper-like cells.
    #[must_use]
    pub fn sstd_paper_like_accuracy(&self) -> f64 {
        let accs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.scheme == SchemeKind::Sstd.name() && c.level <= PAPER_LIKE_LEVEL)
            .map(|c| c.accuracy)
            .collect();
        if accs.is_empty() {
            f64::NAN
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        }
    }

    /// Renders `leaderboard.json`: the `BENCH_*.json` trajectory shape
    /// (`bench` + numeric `points`) plus legend arrays mapping the
    /// `scheme`/`family` indices, the degradation rows, and the gate
    /// verdict.
    #[must_use]
    pub fn to_json(&self) -> String {
        let schemes: Vec<&'static str> =
            SchemeKind::paper_table().iter().map(|k| k.name()).collect();
        let families: Vec<&'static str> = Family::ALL.iter().map(|f| f.name()).collect();
        let legend = |names: &[&str]| {
            names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ")
        };
        let points = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"scheme\": {}, \"family\": {}, \"level\": {}, \"accuracy\": {}, \
                     \"f1\": {}, \"brier\": {}, \"wall_ms\": {}, \"p99_interval_ms\": {}, \
                     \"max_interval_ms\": {}, \"peak_bytes\": {}, \"claims_estimated\": {}}}",
                    schemes.iter().position(|s| *s == c.scheme).expect("scheme in legend"),
                    families.iter().position(|f| *f == c.family).expect("family in legend"),
                    json_f64(c.level),
                    json_f64(c.accuracy),
                    json_f64(c.f1),
                    json_f64(c.brier),
                    json_f64(c.wall_ms),
                    json_f64(c.p99_interval_ms),
                    json_f64(c.max_interval_ms),
                    c.peak_bytes,
                    c.claims_estimated,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        let degradation = self
            .degradation
            .iter()
            .map(|d| {
                format!(
                    "{{\"family\": {}, \"paper_like\": {}, \"adversarial\": {}, \"drop\": {}}}",
                    families.iter().position(|f| *f == d.family).expect("family in legend"),
                    json_f64(d.paper_like),
                    json_f64(d.adversarial),
                    json_f64(d.drop()),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        let violations = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"tournament_leaderboard\",\n",
                "  \"seed\": {},\n",
                "  \"schemes\": [{}],\n",
                "  \"families\": [{}],\n",
                "  \"sstd_paper_like_accuracy\": {},\n",
                "  \"sstd_paper_floor\": {},\n",
                "  \"points\": [\n    {}\n  ],\n",
                "  \"degradation\": [\n    {}\n  ],\n",
                "  \"violations\": [{}]\n",
                "}}\n"
            ),
            self.seed,
            legend(&schemes),
            legend(&families),
            json_f64(self.sstd_paper_like_accuracy()),
            json_f64(SSTD_PAPER_FLOOR),
            points,
            degradation,
            violations,
        )
    }

    /// Renders the human leaderboard for the CI log: one table per
    /// family × level, schemes ranked by accuracy, then the SSTD
    /// degradation profile and the gate verdict.
    #[must_use]
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("truth-discovery tournament (seed {})\n", self.seed));
        let mut groups: Vec<(&'static str, f64)> = Vec::new();
        for c in &self.cells {
            if !groups.contains(&(c.family, c.level)) {
                groups.push((c.family, c.level));
            }
        }
        for (family, level) in groups {
            out.push_str(&format!("\n  {family} @ level {level:.1}\n"));
            let mut ranked: Vec<&Cell> =
                self.cells.iter().filter(|c| c.family == family && c.level == level).collect();
            ranked.sort_by(|a, b| b.accuracy.total_cmp(&a.accuracy));
            for c in ranked {
                out.push_str(&format!(
                    "    {:<12} acc {:.3}  f1 {:.3}  brier {:.3}  wall {:>7.2}ms  p99 {:>6.2}ms  peak {:>6}KiB\n",
                    c.scheme,
                    c.accuracy,
                    c.f1,
                    c.brier,
                    c.wall_ms,
                    c.p99_interval_ms,
                    c.peak_bytes / 1024,
                ));
            }
        }
        out.push_str("\n  SSTD degradation (paper-like -> adversarial)\n");
        for d in &self.degradation {
            out.push_str(&format!(
                "    {:<14} {:.3} -> {:.3}  (drop {:+.3})\n",
                d.family,
                d.paper_like,
                d.adversarial,
                d.drop(),
            ));
        }
        out.push_str(&format!(
            "\n  SSTD paper-like accuracy {:.3} (floor {SSTD_PAPER_FLOOR})\n",
            self.sstd_paper_like_accuracy()
        ));
        if self.passed() {
            out.push_str("  PASS: all gates held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("  VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Runs the tournament without a memory probe (peak bytes report 0).
#[must_use]
pub fn run(config: &TournamentConfig) -> Leaderboard {
    run_with_probe(config, None)
}

/// Runs the full grid, measuring peak working set through `probe` when
/// one is installed.
#[must_use]
pub fn run_with_probe(config: &TournamentConfig, probe: Option<&MemProbe>) -> Leaderboard {
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    for family in Family::ALL {
        for &level in &config.levels {
            let trace = config.spec(family, level).build().trace();
            for kind in SchemeKind::paper_table() {
                let cell = run_cell(kind, family, level, &trace, probe);
                audit_cell(&cell, &trace, &mut violations);
                cells.push(cell);
            }
        }
    }

    let sstd = SchemeKind::Sstd.name();
    let max_level = config.levels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let acc_of = |family: &str, level: f64| {
        cells
            .iter()
            .find(|c| c.scheme == sstd && c.family == family && c.level == level)
            .map_or(f64::NAN, |c| c.accuracy)
    };
    let degradation: Vec<Degradation> = Family::ALL
        .iter()
        .map(|f| Degradation {
            family: f.name(),
            paper_like: acc_of(f.name(), PAPER_LIKE_LEVEL),
            adversarial: acc_of(f.name(), max_level),
        })
        .collect();

    let mut board = Leaderboard { seed: config.seed, cells, degradation, violations };
    // One level of the families × schemes grid is 35 cells; fewer than
    // this is not a leaderboard, and a family whose degradation row has
    // no SSTD cell at either end has no profile.
    if board.cells.len() < 30 {
        board.violations.push(format!("the grid has {} cells, fewer than 30", board.cells.len()));
    }
    for d in &board.degradation {
        if !(d.paper_like.is_finite() && d.adversarial.is_finite()) {
            board.violations.push(format!(
                "{}: no SSTD cell at the paper-like or the most adversarial level",
                d.family
            ));
        }
    }
    let paper_like = board.sstd_paper_like_accuracy();
    // NaN must trip the gate too, so test for "holds" and negate.
    let floor_holds = paper_like >= SSTD_PAPER_FLOOR;
    if !floor_holds {
        board.violations.push(format!(
            "SSTD paper-like accuracy {paper_like:.4} fell below the {SSTD_PAPER_FLOOR} floor"
        ));
    }
    board
}

fn audit_cell(cell: &Cell, trace: &Trace, violations: &mut Vec<String>) {
    let ctx = format!("{}/{}@{:.1}", cell.scheme, cell.family, cell.level);
    for (name, v) in [("accuracy", cell.accuracy), ("f1", cell.f1), ("brier", cell.brier)] {
        if !v.is_finite() {
            violations.push(format!("{ctx}: {name} is not finite ({v})"));
        }
    }
    if cell.claims_estimated != trace.num_claims() {
        violations.push(format!(
            "{ctx}: estimates cover {} of {} claims",
            cell.claims_estimated,
            trace.num_claims()
        ));
    }
}

fn run_cell(
    kind: SchemeKind,
    family: Family,
    level: f64,
    trace: &Trace,
    probe: Option<&MemProbe>,
) -> Cell {
    let store = EventStore::new();
    if let Some(p) = probe {
        (p.reset)();
    }
    let start = Instant::now();
    let estimates = drive_instrumented(kind, trace, &store);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let peak_bytes = probe.map_or(0, |p| (p.peak_bytes)());

    let m = score_estimates(trace.ground_truth(), &estimates);
    let brier = brier_score(trace.ground_truth(), &hard_confidence(&estimates));
    let latency = |e: &sstd_obs::Event| e.stream_tick().map(|t| t.decode_latency * 1e3);
    let p99_interval_ms = store.query().stream().percentile(0.99, latency).unwrap_or(f64::NAN);
    let max_interval_ms = store.query().stream().max(latency).unwrap_or(f64::NAN);

    Cell {
        scheme: kind.name(),
        family: family.name(),
        level,
        accuracy: m.accuracy(),
        f1: m.f1(),
        brier,
        wall_ms,
        p99_interval_ms,
        max_interval_ms,
        peak_bytes,
        claims_estimated: estimates.num_claims(),
    }
}

/// Drives one scheme over the trace interval by interval, recording a
/// [`StreamTick`] per interval so latency tails come out of the query
/// layer like every other pipeline metric in this repo.
fn drive_instrumented(kind: SchemeKind, trace: &Trace, store: &EventStore) -> TruthEstimates {
    let n = trace.timeline().num_intervals();
    if kind == SchemeKind::Sstd {
        let mut sstd = StreamingSstd::new(SstdConfig::default(), trace.timeline().clone());
        for iv in 0..n {
            let reports = trace.reports_in_interval(iv);
            let t0 = Instant::now();
            for r in reports {
                let _ = sstd.push(r);
            }
            record_tick(store, iv, reports.len(), t0.elapsed().as_secs_f64());
        }
        return sstd.finish();
    }

    let scheme = streaming_scheme(kind, trace.num_sources(), trace.num_claims());
    run_streaming(scheme, trace, |iv, reports, secs| record_tick(store, iv, reports, secs))
}

fn record_tick(store: &EventStore, interval: usize, reports: usize, latency_secs: f64) {
    store.record_stream(StreamTick {
        interval: interval as u64,
        reports: reports as u64,
        active_claims: 0,
        window_occupancy: 0.0,
        decode_latency: latency_secs,
        decision_flips: 0,
        late_reports: 0,
        rejected_reports: 0,
    });
}

/// Hard-label confidences (1.0 for `True`, 0.0 for `False`) so the
/// Brier score is computable uniformly: most baselines expose only
/// labels, so every scheme is scored on its decisions, not its internal
/// beliefs.
fn hard_confidence(estimates: &TruthEstimates) -> ConfidenceEstimates {
    let mut conf = ConfidenceEstimates::new(estimates.num_intervals());
    for (claim, labels) in estimates.iter() {
        conf.insert(claim, labels.iter().map(|l| f64::from(u8::from(l.as_bool()))).collect());
    }
    conf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::run_scheme;

    fn tiny() -> TournamentConfig {
        TournamentConfig {
            num_claims: 4,
            num_sources: 8,
            num_intervals: 6,
            reports_per_cell: 2,
            ..TournamentConfig::quick(2017)
        }
    }

    #[test]
    fn grid_covers_every_scheme_family_level() {
        let board = run(&tiny());
        assert_eq!(board.cells.len(), 7 * 5 * 2);
        for c in &board.cells {
            assert!(c.accuracy.is_finite(), "{}/{}", c.scheme, c.family);
            assert!(c.f1.is_finite());
            assert!(c.brier.is_finite());
            assert!(c.wall_ms >= 0.0);
            assert!(c.p99_interval_ms.is_finite());
            assert_eq!(c.claims_estimated, 4);
        }
        assert_eq!(board.degradation.len(), 5);
    }

    #[test]
    fn leaderboard_renders_json_and_text() {
        let board = run(&tiny());
        let json = board.to_json();
        for key in [
            "\"bench\": \"tournament_leaderboard\"",
            "\"schemes\"",
            "\"families\"",
            "\"points\"",
            "\"degradation\"",
            "\"violations\"",
            "\"sstd_paper_like_accuracy\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let text = board.format();
        assert!(text.contains("SSTD degradation"));
        assert!(text.contains("collusion"));
    }

    #[test]
    fn an_incomplete_grid_is_a_violation() {
        let board = run(&TournamentConfig { levels: Vec::new(), ..tiny() });
        assert!(board.violations.iter().any(|v| v.contains("fewer than 30")), "{board:?}");
        assert!(board.violations.iter().any(|v| v.contains("no SSTD cell")), "{board:?}");
        let complete = run(&tiny());
        assert!(
            !complete.violations.iter().any(|v| v.contains("fewer than") || v.contains("no SSTD")),
            "the complete grid trips neither: {:?}",
            complete.violations
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_accuracies() {
        // Wall-clock columns jitter run to run; every accuracy column is
        // a pure function of the seed.
        let fingerprint = |b: &Leaderboard| -> Vec<(String, f64, f64, f64)> {
            b.cells
                .iter()
                .map(|c| {
                    (format!("{}/{}/{}", c.scheme, c.family, c.level), c.accuracy, c.f1, c.brier)
                })
                .collect()
        };
        let (a, b) = (run(&tiny()), run(&tiny()));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn baselines_estimate_as_run_scheme_does() {
        let trace = TournamentConfig::quick(2017).spec(Family::Collusion, 0.9).build().trace();
        for kind in SchemeKind::paper_table().into_iter().filter(|&k| k != SchemeKind::Sstd) {
            let tournament = drive_instrumented(kind, &trace, &EventStore::new());
            assert_eq!(tournament, run_scheme(kind, &trace), "{}", kind.name());
        }
    }

    #[test]
    fn memory_probe_is_read_per_cell() {
        fn reset() {}
        fn peak() -> u64 {
            4096
        }
        let probe = MemProbe { reset, peak_bytes: peak };
        let mut cfg = tiny();
        cfg.levels = vec![PAPER_LIKE_LEVEL];
        let board = run_with_probe(&cfg, Some(&probe));
        assert!(board.cells.iter().all(|c| c.peak_bytes == 4096));
    }
}
