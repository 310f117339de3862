//! Differential + metamorphic properties of the HMM machinery against
//! the brute-force enumeration oracles, on seeded generated cases — and
//! bit-identity of the flat-slice EM kernel with the loops it replaced
//! (`sstd_testkit::oracle::hmm`), degenerate observations included.
//!
//! Any failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact (already minimized) counterexample.

use sstd_hmm::{
    forward_backward_into, viterbi_into, BaumWelch, DecodeWorkspace, EmWorkspace, Hmm,
    StreamingViterbi, SymmetricGaussianEmission,
};
use sstd_testkit::oracle::hmm::{ReferenceHmm, ReferenceTrainer, ReferenceWorkspace};
use sstd_testkit::{check, domain, gens, oracle, Gen};

/// Number of cases per differential suite (overridable via
/// `TESTKIT_CASES`).
const CASES: usize = 1_000;

/// Viterbi in a fresh workspace.
fn viterbi(hmm: &Hmm, obs: &[f64]) -> Vec<usize> {
    viterbi_into(hmm, obs, &mut DecodeWorkspace::new()).to_vec()
}

/// Baum–Welch from `model` in a fresh workspace.
fn train(trainer: BaumWelch, model: &mut Hmm, obs: &[f64]) -> f64 {
    trainer.train_into(model, obs, &mut EmWorkspace::new()).log_likelihood
}

#[test]
fn viterbi_is_score_optimal_vs_enumeration() {
    check("viterbi_is_score_optimal_vs_enumeration", CASES, &domain::hmm_case(8), |case| {
        let hmm = case.hmm();
        let got = viterbi(&hmm, &case.obs);
        let best = oracle::hmm::best_path(&hmm, &case.obs);
        let got_score = oracle::hmm::log_joint(&hmm, &case.obs, &got);
        let best_score = oracle::hmm::log_joint(&hmm, &case.obs, &best);
        if got_score < best_score - 1e-9 {
            return Err(format!(
                "DP path {got:?} (score {got_score}) is beaten by {best:?} (score {best_score})"
            ));
        }
        // When the optimum is unique by a clear margin, the DP must also
        // return the oracle's exact path, not merely an equal-scoring one.
        if (got_score - best_score).abs() <= 1e-9 && got != best {
            let margin_unique = {
                let mut better_or_equal = 0usize;
                let mut stack: Vec<Vec<usize>> = vec![vec![]];
                for _ in 0..case.obs.len() {
                    let mut next = Vec::new();
                    for s in &stack {
                        for i in 0..2 {
                            let mut e = s.clone();
                            e.push(i);
                            next.push(e);
                        }
                    }
                    stack = next;
                }
                for s in &stack {
                    if oracle::hmm::log_joint(&hmm, &case.obs, s) >= best_score - 1e-9 {
                        better_or_equal += 1;
                    }
                }
                better_or_equal == 1
            };
            if margin_unique {
                return Err(format!("unique optimum {best:?} but DP returned {got:?}"));
            }
        }
        Ok(())
    });
}

#[test]
fn viterbi_matches_oracle_on_long_two_state_chains() {
    // The oracle's advertised envelope: all 2^T sequences for T <= 12.
    let gen: Gen<(Vec<f64>, f64)> =
        gens::pair(gens::vec_of(gens::f64_in(-3.0, 3.0), 1, 12), gens::f64_in(0.55, 0.95));
    check("viterbi_matches_oracle_on_long_two_state_chains", 300, &gen, |(obs, stay)| {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![*stay, 1.0 - stay], vec![1.0 - stay, *stay]],
            SymmetricGaussianEmission::new(1.5, 1.0).unwrap(),
        )
        .unwrap();
        let got = viterbi(&hmm, obs);
        let best = oracle::hmm::best_path(&hmm, obs);
        let got_score = oracle::hmm::log_joint(&hmm, obs, &got);
        let best_score = oracle::hmm::log_joint(&hmm, obs, &best);
        if (got_score - best_score).abs() > 1e-9 {
            Err(format!("T={}: DP score {got_score} != oracle score {best_score}", obs.len()))
        } else {
            Ok(())
        }
    });
}

/// After every push the filter's decision is the last state of the batch
/// Viterbi path over the observations pushed so far: both run the one
/// max-product step, so they agree bit for bit until the filter rescales.
fn filter_decides_as_batch_prefixes(
    hmm: &Hmm,
    obs: &[f64],
    ws: &mut DecodeWorkspace,
) -> Result<(), String> {
    let mut filter = StreamingViterbi::new(hmm.clone());
    for t in 0..obs.len() {
        let got = filter.push(obs[t]);
        let want = *viterbi_into(hmm, &obs[..=t], ws).last().expect("non-empty prefix");
        if got != want {
            return Err(format!("after push {t} the filter decides {got}, batch ends in {want}"));
        }
    }
    Ok(())
}

/// Whether `|δ|` provably stays within the filter's rescale threshold
/// (10⁶) on `obs`: each step moves it by at most the largest `|ln A|` plus
/// the largest `|ln b(o_t)|`.
fn never_rescales(hmm: &Hmm, obs: &[f64]) -> bool {
    let largest = |xs: &mut dyn Iterator<Item = f64>| xs.fold(0.0, |m: f64, x| m.max(x.abs()));
    let step = largest(&mut hmm.trans().iter().flatten().map(|p| p.ln()));
    let mut bound = largest(&mut hmm.init().iter().map(|p| p.ln()));
    obs.iter().all(|&x| {
        bound += step + largest(&mut (0..2).map(|s| hmm.emission().log_prob(s, x)));
        bound <= 1e6
    })
}

#[test]
fn streaming_decisions_are_the_batch_path_ends_on_generated_chains() {
    let mut ws = DecodeWorkspace::new();
    check(
        "streaming_decisions_are_the_batch_path_ends_on_generated_chains",
        CASES,
        &domain::hmm_case(64),
        |case| {
            let hmm = case.hmm();
            if !never_rescales(&hmm, &case.obs) {
                return Err("an hmm_case chain crossed the rescale threshold".into());
            }
            filter_decides_as_batch_prefixes(&hmm, &case.obs, &mut ws)
        },
    );
}

#[test]
fn streaming_decisions_are_the_batch_path_ends_on_symmetric_chains() {
    let mut ws = DecodeWorkspace::new();
    check(
        "streaming_decisions_are_the_batch_path_ends_on_symmetric_chains",
        CASES,
        &domain::symmetric_em_case(120),
        |case| {
            let hmm = case.hmm();
            if !never_rescales(&hmm, &case.obs) {
                return Ok(());
            }
            filter_decides_as_batch_prefixes(&hmm, &case.obs, &mut ws)
        },
    );
}

#[test]
fn forward_likelihood_matches_direct_sum() {
    check("forward_likelihood_matches_direct_sum", CASES, &domain::hmm_case(8), |case| {
        let hmm = case.hmm();
        let scaled = forward_backward_into(&hmm, &case.obs, &mut EmWorkspace::new());
        let direct = oracle::hmm::log_likelihood(&hmm, &case.obs);
        let tol = 1e-8 * (1.0 + direct.abs());
        if (scaled - direct).abs() > tol {
            Err(format!("scaled forward ll {scaled} != direct-sum ll {direct}"))
        } else {
            Ok(())
        }
    });
}

#[test]
fn posteriors_match_enumeration_and_normalize() {
    check("posteriors_match_enumeration_and_normalize", CASES, &domain::hmm_case(8), |case| {
        let hmm = case.hmm();
        let mut ws = EmWorkspace::new();
        let _ = forward_backward_into(&hmm, &case.obs, &mut ws);
        let expected = oracle::hmm::posteriors(&hmm, &case.obs);
        for (t, (got, want)) in ws.gamma().iter().zip(&expected).enumerate() {
            let row_sum: f64 = got.iter().sum();
            if (row_sum - 1.0).abs() > 1e-9 {
                return Err(format!("gamma[{t}] sums to {row_sum}"));
            }
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                if (g - w).abs() > 1e-8 {
                    return Err(format!("gamma[{t}][{i}] = {g}, enumeration says {w}"));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn baum_welch_likelihood_is_monotone_and_rows_stay_stochastic() {
    check(
        "baum_welch_likelihood_is_monotone_and_rows_stay_stochastic",
        CASES,
        &domain::hmm_case(8),
        |case| {
            let mut model = case.hmm();
            let mut prev = f64::NEG_INFINITY;
            for step in 0..5 {
                let ll = train(BaumWelch::default().max_iterations(1), &mut model, &case.obs);
                // Metamorphic: each EM iteration may not decrease the
                // data log-likelihood (up to the probability floor).
                if ll < prev - 1e-6 {
                    return Err(format!("EM step {step} decreased the likelihood: {prev} -> {ll}"));
                }
                prev = ll;
                // Normalization invariants after every update.
                let init_sum: f64 = model.init().iter().sum();
                if (init_sum - 1.0).abs() > 1e-9 {
                    return Err(format!("step {step}: init sums to {init_sum}"));
                }
                for (i, row) in model.trans().iter().enumerate() {
                    let s: f64 = row.iter().sum();
                    if (s - 1.0).abs() > 1e-9 {
                        return Err(format!("step {step}: trans row {i} sums to {s}"));
                    }
                }
                let e = model.emission();
                if !(e.mu().is_finite() && e.std() >= SymmetricGaussianEmission::DEFAULT_MIN_STD) {
                    return Err(format!("step {step}: emission left its domain: {e:?}"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn trained_model_never_scores_below_its_start() {
    check("trained_model_never_scores_below_its_start", 300, &domain::hmm_case(8), |case| {
        let mut model = case.hmm();
        let mut ws = EmWorkspace::new();
        let before = forward_backward_into(&model, &case.obs, &mut ws);
        let _ = train(BaumWelch::default().max_iterations(10), &mut model, &case.obs);
        let after = forward_backward_into(&model, &case.obs, &mut ws);
        if after < before - 1e-6 {
            Err(format!("training regressed the likelihood: {before} -> {after}"))
        } else {
            Ok(())
        }
    });
}

// ---------------------------------------------------------------------
// Bit-identity with the reference EM loops
// ---------------------------------------------------------------------

/// Bit-equality, with every NaN equal to every other: which payload a
/// NaN carries out of an addition depends on operand order, which the
/// compiler is free to commute.
fn same_bits(name: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{name} has {} entries, reference has {}", got.len(), want.len()));
    }
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
            return Err(format!("{name}[{k}] = {g:e}, reference says {w:e}"));
        }
    }
    Ok(())
}

/// One workspace pair serves every case of a property, so a table left
/// dirty by the previous case cannot hide in the comparison.
#[derive(Default)]
struct Workspaces {
    kernel: EmWorkspace,
    reference: ReferenceWorkspace,
}

impl Workspaces {
    fn same_tables(&self) -> Result<(), String> {
        let (ws, reference) = (&self.kernel, &self.reference);
        same_bits("gamma", ws.gamma().as_flattened(), reference.gamma().as_slice())?;
        same_bits("xi_sum", ws.xi_sum().as_flattened(), reference.xi_sum().as_slice())
    }

    /// Trains both sides the way the engine does (`SstdConfig`'s 25
    /// iterations at 1e-4, `BaumWelch`'s default floor) and compares every
    /// parameter and table.
    fn train_both(
        &mut self,
        model: &mut Hmm,
        reference: &mut ReferenceHmm,
        obs: &[f64],
    ) -> Result<(), String> {
        let got = BaumWelch::default().max_iterations(25).tolerance(1e-4).train_into(
            model,
            obs,
            &mut self.kernel,
        );
        let want = ReferenceTrainer { max_iterations: 25, tolerance: 1e-4, prob_floor: 1e-6 }
            .train_into(reference, obs, &mut self.reference);
        same_bits("log-likelihood", &[got.log_likelihood], &[want.log_likelihood])?;
        if (got.iterations, got.converged) != (want.iterations, want.converged) {
            return Err(format!("stopped at {got:?}, reference at {want:?}"));
        }
        same_bits("init", model.init(), &reference.init)?;
        same_bits("trans", model.trans().as_flattened(), reference.trans.as_slice())?;
        let (e, r) = (model.emission(), &reference.emission);
        same_bits("(mu, std)", &[e.mu(), e.std()], &[r.mu, r.std])?;
        self.same_tables()
    }
}

#[test]
fn two_state_em_is_bit_identical_to_the_reference_loops() {
    // General π and A rows, asymmetric ones included.
    let mut ws = Workspaces::default();
    check(
        "two_state_em_is_bit_identical_to_the_reference_loops",
        CASES,
        &domain::hmm_case(64),
        |case| {
            let (mut model, mut reference) = (case.hmm(), case.reference());
            let got = forward_backward_into(&model, &case.obs, &mut ws.kernel);
            let want = oracle::hmm::forward_backward_into(&reference, &case.obs, &mut ws.reference);
            same_bits("log-likelihood", &[got], &[want])?;
            ws.same_tables()?;
            ws.train_both(&mut model, &mut reference, &case.obs)
        },
    );
}

#[test]
fn symmetric_gaussian_training_is_bit_identical_to_the_reference_loops() {
    let mut ws = Workspaces::default();
    check(
        "symmetric_gaussian_training_is_bit_identical_to_the_reference_loops",
        CASES,
        &domain::symmetric_em_case(300),
        |case| {
            let (mut model, mut reference) = (case.hmm(), case.reference());
            ws.train_both(&mut model, &mut reference, &case.obs)?;
            let (e, r) = (model.emission(), &reference.emission);
            // What the decoders read, one call at a time, with the trained σ.
            for &x in &case.obs {
                let (got, want) =
                    ([e.log_prob(0, x), e.log_prob(1, x)], [r.log_prob(0, x), r.log_prob(1, x)]);
                same_bits("log_prob", &got, &want)?;
            }
            Ok(())
        },
    );
}
