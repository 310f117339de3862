//! Accuracy-side ablations of the SSTD design choices (DESIGN.md §5):
//! the window `sw`, EM training, transition stickiness, and the
//! contribution-score components (uncertainty / independence discounts).
//!
//! Usage: `cargo run -p sstd-eval --bin ablation [-- <scale> [seed]]`

use sstd_core::{smooth_dependencies, ClaimDependency, SstdConfig, SstdEngine};
use sstd_data::{Scenario, TraceBuilder};
use sstd_eval::metrics::score_estimates;
use sstd_types::{ClaimId, Independence, Report, Trace, Uncertainty};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.005);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);
    println!("(scale = {scale}, seed = {seed})\n");

    for scenario in [Scenario::BostonBombing, Scenario::ParisShooting, Scenario::CollegeFootball] {
        let trace = TraceBuilder::scenario(scenario).scale(scale).seed(seed).build();
        println!("=== {} ===", trace.name());

        println!("-- engine configuration ablations");
        let full = SstdConfig::default();
        for (label, cfg) in [
            ("full SSTD (sw=3, EM)", full),
            ("window sw=1", SstdConfig { window: 1, ..full }),
            ("window sw=8", SstdConfig { window: 8, ..full }),
            ("EM off (scaled initial model)", SstdConfig { train: false, ..full }),
            ("loose transitions (stay=0.6)", SstdConfig { stay_probability: 0.6, ..full }),
            ("sticky transitions (stay=0.97)", SstdConfig { stay_probability: 0.97, ..full }),
        ] {
            report(label, &trace, cfg);
        }

        println!("-- contribution-score component ablations (paper Eq. 1; full CS = full SSTD)");
        report_on("ignore uncertainty (kappa=0)", &strip_uncertainty(&trace));
        report_on("ignore independence (eta=1)", &strip_independence(&trace));
        report_on("attitude only", &strip_independence(&strip_uncertainty(&trace)));
        println!();
    }

    correlation_experiment(scale, seed);

    println!();
    let sweep = sstd_eval::exp::tuning::run(&[0.0, 0.4, 1.2, 2.4]);
    print!("{}", sstd_eval::exp::tuning::format(&sweep));
}

/// Paper §VII-1: decode a trace whose first 16 claim pairs share ground
/// truth, with and without the dependency-smoothing pass.
fn correlation_experiment(scale: f64, seed: u64) {
    println!("=== correlated claims (paper §VII-1 extension) ===");
    let mut builder = TraceBuilder::scenario(Scenario::Synthetic).scale(scale).seed(seed);
    builder.config_mut().correlated_claim_pairs = 16;
    let trace = builder.build();
    let estimates = SstdEngine::new(SstdConfig::default()).run(&trace);
    let deps: Vec<ClaimDependency> = (0..16u32)
        .map(|k| ClaimDependency::positive(ClaimId::new(2 * k), ClaimId::new(2 * k + 1)))
        .collect();
    let smoothed = smooth_dependencies(&estimates, &deps);

    let base = score_estimates(trace.ground_truth(), &estimates);
    let after = score_estimates(trace.ground_truth(), &smoothed);
    println!(
        "  independent decoding                acc {:.3}  f1 {:.3}",
        base.accuracy(),
        base.f1()
    );
    println!(
        "  + dependency smoothing              acc {:.3}  f1 {:.3}",
        after.accuracy(),
        after.f1()
    );
}

fn report(label: &str, trace: &Trace, cfg: SstdConfig) {
    let m = score_estimates(trace.ground_truth(), &SstdEngine::new(cfg).run(trace));
    println!("  {label:<34} acc {:.3}  f1 {:.3}", m.accuracy(), m.f1());
}

fn report_on(label: &str, trace: &Trace) {
    report(label, trace, SstdConfig::default());
}

/// Rebuilds the trace with every report's uncertainty zeroed.
fn strip_uncertainty(trace: &Trace) -> Trace {
    rebuild(trace, |r| {
        Report::new(
            r.source(),
            r.claim(),
            r.time(),
            r.attitude(),
            Uncertainty::saturating(0.0),
            r.independence(),
        )
    })
}

/// Rebuilds the trace with every report treated as fully independent.
fn strip_independence(trace: &Trace) -> Trace {
    rebuild(trace, |r| {
        Report::new(
            r.source(),
            r.claim(),
            r.time(),
            r.attitude(),
            r.uncertainty(),
            Independence::saturating(1.0),
        )
    })
}

fn rebuild(trace: &Trace, f: impl Fn(&Report) -> Report) -> Trace {
    Trace::new(
        trace.name(),
        trace.reports().iter().map(f).collect(),
        trace.num_sources(),
        trace.num_claims(),
        trace.timeline().clone(),
        trace.ground_truth().clone(),
    )
}
