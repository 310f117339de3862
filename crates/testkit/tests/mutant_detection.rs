//! The harness must catch a deliberately broken implementation — and
//! report it with a reproducible seed and a *small* shrunk case.
//!
//! The mutant here is the classic transcription bug: decoding with the
//! transition matrix transposed. The differential property (mutant
//! Viterbi vs. the exhaustive-enumeration oracle) has to flag it within
//! the default case budget, replay it from the printed seed, and shrink
//! the counterexample to a handful of observations.

use sstd_hmm::{viterbi_into, DecodeWorkspace, Hmm, SymmetricGaussianEmission};
use sstd_testkit::{check_with, domain, oracle, CheckConfig};

fn viterbi(hmm: &Hmm, obs: &[f64]) -> Vec<usize> {
    viterbi_into(hmm, obs, &mut DecodeWorkspace::new()).to_vec()
}

/// Decodes with the rows and columns of the transition matrix swapped —
/// a bug an optimized reimplementation could plausibly introduce.
fn transposed_viterbi(case: &domain::HmmCase) -> Vec<usize> {
    let n = case.trans.len();
    let mut transposed = vec![vec![0.0; n]; n];
    for (i, row) in case.trans.iter().enumerate() {
        for (j, &p) in row.iter().enumerate() {
            transposed[j][i] = p;
        }
    }
    // Transposing a stochastic matrix does not keep rows stochastic, so
    // renormalize each row: the mutant is still a "valid-looking" model.
    for row in &mut transposed {
        let sum: f64 = row.iter().sum();
        for p in row.iter_mut() {
            *p /= sum;
        }
    }
    let (mu, std) = case.emit;
    let mutant = Hmm::new(
        case.init.clone(),
        transposed,
        SymmetricGaussianEmission::new(mu, std).expect("generated emissions are valid"),
    )
    .expect("renormalized mutant is a valid model");
    viterbi(&mutant, &case.obs)
}

fn mutant_disagrees_with_oracle(case: &domain::HmmCase) -> Result<(), String> {
    let expected = oracle::hmm::best_path(&case.hmm(), &case.obs);
    let got = transposed_viterbi(case);
    // Compare by achieved score, not by path: a different path with the
    // same joint probability is not a bug.
    let hmm = case.hmm();
    let best = oracle::hmm::log_joint(&hmm, &case.obs, &expected);
    let achieved = oracle::hmm::log_joint(&hmm, &case.obs, &got);
    if achieved < best - 1e-9 {
        Err(format!("mutant path {got:?} scores {achieved}, oracle {expected:?} scores {best}"))
    } else {
        Ok(())
    }
}

#[test]
fn transposed_transition_matrix_is_caught_and_shrunk() {
    let gen = domain::hmm_case(10);
    let cex = check_with(CheckConfig::new(1_000), &gen, mutant_disagrees_with_oracle)
        .expect_err("the transposed-matrix mutant must be caught within 1000 cases");

    // The report carries everything needed to reproduce by hand.
    let report = cex.report("transposed_transition_matrix");
    assert!(report.contains(&format!("TESTKIT_SEED={}", cex.case_seed)), "{report}");
    assert!(report.contains("TESTKIT_CASES=1"), "{report}");

    // The shrinker must have reduced the case to a genuinely small one.
    assert!(
        cex.minimized.obs.len() <= 4,
        "expected a minimal counterexample of at most 4 observations, got {:?}",
        cex.minimized
    );
    assert!(
        mutant_disagrees_with_oracle(&cex.minimized).is_err(),
        "the minimized case must still expose the mutant"
    );

    // And the printed seed must replay the same failing draw.
    let replay = check_with(
        CheckConfig::new(1).with_seed(cex.case_seed),
        &gen,
        mutant_disagrees_with_oracle,
    )
    .expect_err("replay from the printed seed fails identically");
    assert_eq!(replay.original, cex.original, "seed line reproduces the exact case");
}

#[test]
fn unmutated_viterbi_survives_the_same_property() {
    // Control: the real implementation passes the identical differential
    // property, so the mutant test above measures the harness, not noise.
    let gen = domain::hmm_case(10);
    let n = check_with(CheckConfig::new(1_000), &gen, |case| {
        let hmm = case.hmm();
        let expected = oracle::hmm::best_path(&hmm, &case.obs);
        let got = viterbi(&hmm, &case.obs);
        let best = oracle::hmm::log_joint(&hmm, &case.obs, &expected);
        let achieved = oracle::hmm::log_joint(&hmm, &case.obs, &got);
        if achieved < best - 1e-9 {
            Err(format!("production path {got:?} underscores oracle {expected:?}"))
        } else {
            Ok(())
        }
    })
    .expect("production Viterbi is score-optimal on every case");
    assert_eq!(n, 1_000);
}
