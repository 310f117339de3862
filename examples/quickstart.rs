//! Quickstart: generate a synthetic social-sensing trace and decode the
//! evolving truth of every claim with SSTD.
//!
//! Run with: `cargo run --example quickstart`

use sstd::core::{SstdConfig, SstdEngine};
use sstd::data::{Scenario, TraceBuilder};
use sstd::eval::metrics::score_estimates;
use sstd::types::ClaimId;

fn main() {
    // 1. A small Paris-Shooting-like trace (1% of the paper's volume).
    let trace = TraceBuilder::scenario(Scenario::ParisShooting).scale(0.01).seed(42).build();
    println!("{}", trace.stats());

    // 2. Run the SSTD engine: per-claim ACS aggregation + HMM decoding.
    let engine = SstdEngine::new(SstdConfig::default());
    let estimates = engine.run(&trace);

    // 3. Score against the generated ground truth.
    let matrix = score_estimates(trace.ground_truth(), &estimates);
    println!("SSTD effectiveness: {matrix}");

    // 4. Inspect one dynamic claim: decoded vs. true timeline. Only a
    //    claim with at least one report per interval on average carries
    //    the evidence to track; among those, show the one whose truth
    //    flips most often (the better reported one on a tie).
    let intervals = trace.timeline().num_intervals();
    let reports = |c: ClaimId| trace.reports_for_claim(c).len();
    let flips = |c: ClaimId| {
        let timeline = trace.ground_truth().timeline(c).unwrap_or(&[]);
        timeline.windows(2).filter(|w| w[0] != w[1]).count()
    };
    let claim = (0..trace.num_claims())
        .map(|i| ClaimId::new(i as u32))
        .filter(|&c| reports(c) >= intervals)
        .max_by_key(|&c| (flips(c), reports(c)))
        .expect("trace has a well-reported claim");
    let truth = trace.ground_truth().timeline(claim).expect("labeled");
    let decoded = estimates.labels(claim).expect("estimated");
    let render = |labels: &[sstd::types::TruthLabel]| -> String {
        labels.iter().map(|l| if l.as_bool() { 'T' } else { 'f' }).collect()
    };
    println!(
        "\nmost dynamic well-reported claim: {claim} ({} flips, {} reports)",
        flips(claim),
        reports(claim)
    );
    println!("truth  : {}", render(truth));
    println!("decoded: {}", render(decoded));
    let correct = truth.iter().zip(decoded).filter(|(a, b)| a == b).count();
    println!("agreement: {correct}/{} intervals", truth.len());
}
