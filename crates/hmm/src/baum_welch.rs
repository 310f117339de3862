//! Baum–Welch: unsupervised EM estimation of `λ = (A, B, π)`
//! (paper §III-C, Eq. 5).

// Index-based loops are kept deliberately in this module: the math is
// written against matrix subscripts (states i/j, claims u, sources s,
// time t) and mirroring the paper's notation beats iterator chains for
// auditability.
#![allow(clippy::needless_range_loop)]

use crate::forward::{forward_backward_into, EmWorkspace};
use crate::{Hmm, TrainableEmission};

/// Configuration for the Baum–Welch trainer.
///
/// # Examples
///
/// ```
/// use sstd_hmm::BaumWelch;
///
/// let trainer = BaumWelch::default().max_iterations(50).tolerance(1e-6);
/// assert_eq!(format!("{trainer:?}").is_empty(), false);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaumWelch {
    max_iterations: usize,
    tolerance: f64,
}

/// Floor applied to `π` and `A` entries after each M-step, so no
/// transition becomes permanently impossible.
const PROB_FLOOR: f64 = 1e-6;

/// Result of a training run: the re-estimated model plus convergence
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome<E> {
    /// The trained model.
    pub model: Hmm<E>,
    /// Log-likelihood of the data under the final parameters.
    pub log_likelihood: f64,
    /// EM iterations actually performed.
    pub iterations: usize,
    /// Whether the log-likelihood improvement dropped below the tolerance
    /// before the iteration cap was hit.
    pub converged: bool,
}

/// Convergence diagnostics of an in-place [`BaumWelch::train_into`] run
/// (the model itself is updated through the `&mut` argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Log-likelihood of the data under the final parameters.
    pub log_likelihood: f64,
    /// EM iterations actually performed.
    pub iterations: usize,
    /// Whether the log-likelihood improvement dropped below the tolerance
    /// before the iteration cap was hit.
    pub converged: bool,
}

impl Default for BaumWelch {
    fn default() -> Self {
        Self { max_iterations: 100, tolerance: 1e-6 }
    }
}

impl BaumWelch {
    /// Caps the number of EM iterations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one iteration");
        self.max_iterations = n;
        self
    }

    /// Stops when the per-iteration log-likelihood gain falls below `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is negative or not finite.
    #[must_use]
    pub fn tolerance(mut self, tol: f64) -> Self {
        assert!(tol.is_finite() && tol >= 0.0, "tolerance must be non-negative");
        self.tolerance = tol;
        self
    }

    /// Runs EM from `initial` on `observations` until convergence or the
    /// iteration cap.
    ///
    /// Allocating wrapper over [`train_into`](Self::train_into): same
    /// numerics, fresh internal workspace. Training on an empty
    /// observation sequence returns the initial model unchanged (zero
    /// iterations, converged).
    pub fn train<E: TrainableEmission>(
        &self,
        initial: Hmm<E>,
        observations: &[E::Obs],
    ) -> TrainOutcome<E> {
        let mut model = initial;
        let mut ws = EmWorkspace::new();
        let stats = self.train_into(&mut model, observations, &mut ws);
        TrainOutcome {
            model,
            log_likelihood: stats.log_likelihood,
            iterations: stats.iterations,
            converged: stats.converged,
        }
    }

    /// Runs EM in place on `model`, using `ws` for every E-step table and
    /// re-estimating `(π, A, B)` directly into the model's storage.
    ///
    /// After the workspace has warmed up to the sequence shape, each EM
    /// iteration performs **zero heap allocations** — the property the
    /// per-claim task loop relies on when one workspace serves thousands
    /// of claims on a worker.
    ///
    /// An empty observation sequence leaves `model` untouched (zero
    /// iterations, converged).
    pub fn train_into<E: TrainableEmission>(
        &self,
        model: &mut Hmm<E>,
        observations: &[E::Obs],
        ws: &mut EmWorkspace,
    ) -> TrainStats {
        let n = model.num_states();
        if observations.is_empty() {
            return TrainStats { log_likelihood: 0.0, iterations: 0, converged: true };
        }

        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        let mut last_ll = prev_ll;

        for _ in 0..self.max_iterations {
            last_ll = forward_backward_into(model, observations, ws);
            iterations += 1;
            if (last_ll - prev_ll).abs() < self.tolerance && prev_ll.is_finite() {
                converged = true;
                break;
            }
            prev_ll = last_ll;

            // M-step, in place. `floor_and_normalize` keeps every row
            // stochastic, so the model invariants hold without a rebuild.
            let (gamma, xi_sum) = (ws.gamma(), ws.xi_sum().as_slice());
            let (init, trans, emission) = model.m_step_mut();
            let trans = trans.as_mut_slice();
            // Same two instantiations as the E-step's loop body.
            if n == 2 {
                reestimate_chain(init, trans, gamma.as_slice(), xi_sum, 2);
            } else {
                reestimate_chain(init, trans, gamma.as_slice(), xi_sum, n);
            }
            emission.reestimate_gamma(observations, gamma);
            model.refresh_log_trans();
        }

        TrainStats { log_likelihood: last_ll, iterations, converged }
    }
}

/// The `(π, A)` half of the M-step over flat `T×n` and `n×n` slices.
#[inline(always)]
fn reestimate_chain(init: &mut [f64], trans: &mut [f64], gamma: &[f64], xi_sum: &[f64], n: usize) {
    // π update: γ_0, floored and renormalized.
    init.copy_from_slice(&gamma[..n]);
    floor_and_normalize(init);
    // A update: ξ sums over γ sums (excluding the last step).
    let before_last = &gamma[..gamma.len() - n];
    for (i, (row, xi_row)) in trans.chunks_exact_mut(n).zip(xi_sum.chunks_exact(n)).enumerate() {
        let mut denom = 0.0;
        for g in before_last.chunks_exact(n) {
            denom += g[i];
        }
        for j in 0..n {
            row[j] = if denom > 0.0 { xi_row[j] / denom } else { 1.0 / n as f64 };
        }
        floor_and_normalize(row);
    }
}

fn floor_and_normalize(row: &mut [f64]) {
    let mut sum = 0.0;
    for p in row.iter_mut() {
        if !p.is_finite() || *p < PROB_FLOOR {
            *p = PROB_FLOOR;
        }
        sum += *p;
    }
    for p in row.iter_mut() {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::{CategoricalEmission, SymmetricGaussianEmission};
    use sstd_stats::{Normal, SplitMix64};

    fn two_state_gaussian(mu: f64) -> Hmm<SymmetricGaussianEmission> {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.8, 0.2], vec![0.2, 0.8]],
            SymmetricGaussianEmission::new(mu, 2.0).unwrap(),
        )
        .unwrap()
    }

    /// Simulate a sticky 2-state chain emitting Gaussians.
    fn simulate(n: usize, stay: f64, mu: f64, seed: u64) -> (Vec<f64>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let mut state = 0usize;
        let mut obs = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.unit() > stay {
                state = 1 - state;
            }
            let mean = if state == 0 { mu } else { -mu };
            obs.push(Normal::new(mean, 1.0).expect("unit variance").sample(&mut rng));
            states.push(state);
        }
        (obs, states)
    }

    #[test]
    fn empty_observations_return_initial() {
        let init = two_state_gaussian(1.0);
        let out = BaumWelch::default().train(init.clone(), &[]);
        assert_eq!(out.model, init);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
    }

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let (obs, _) = simulate(200, 0.95, 2.0, 5);
        let mut model = two_state_gaussian(0.5);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..10 {
            let out = BaumWelch::default().max_iterations(1).train(model, &obs);
            assert!(
                out.log_likelihood >= prev - 1e-6,
                "EM decreased the likelihood: {} -> {}",
                prev,
                out.log_likelihood
            );
            prev = out.log_likelihood;
            model = out.model;
        }
    }

    #[test]
    fn recovers_emission_means() {
        let (obs, _) = simulate(2_000, 0.97, 3.0, 9);
        let out = BaumWelch::default().max_iterations(60).train(two_state_gaussian(1.0), &obs);
        let (m0, m1) = (out.model.emission().mean(0), out.model.emission().mean(1));
        let (hi, lo) = if m0 > m1 { (m0, m1) } else { (m1, m0) };
        assert!((hi - 3.0).abs() < 0.4, "hi = {hi}");
        assert!((lo + 3.0).abs() < 0.4, "lo = {lo}");
    }

    #[test]
    fn recovers_sticky_transitions() {
        let (obs, _) = simulate(4_000, 0.95, 3.0, 23);
        let out = BaumWelch::default().max_iterations(60).train(two_state_gaussian(1.0), &obs);
        // Both self-transition probabilities should be clearly sticky.
        assert!(out.model.trans_prob(0, 0) > 0.85, "a00 = {}", out.model.trans_prob(0, 0));
        assert!(out.model.trans_prob(1, 1) > 0.85, "a11 = {}", out.model.trans_prob(1, 1));
    }

    #[test]
    fn trained_model_beats_initial_likelihood() {
        let (obs, _) = simulate(500, 0.9, 2.5, 77);
        let initial = two_state_gaussian(0.5);
        let before = forward_backward_into(&initial, &obs, &mut EmWorkspace::new());
        let out = BaumWelch::default().train(initial, &obs);
        assert!(out.log_likelihood > before);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn categorical_training_learns_biased_symbols() {
        // State 0 emits symbol 0, state 1 emits symbol 1; sticky chain.
        let obs: Vec<usize> = (0..400).map(|t| usize::from((t / 50) % 2 == 1)).collect();
        let init = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.7, 0.3], vec![0.3, 0.7]],
            CategoricalEmission::new(vec![vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap(),
        )
        .unwrap();
        let out = BaumWelch::default().max_iterations(80).train(init, &obs);
        let e = out.model.emission();
        assert!(e.prob(0, 0) > 0.9 || e.prob(1, 0) > 0.9, "one state owns symbol 0");
    }

    #[test]
    fn converged_flag_set_on_fixed_point() {
        let (obs, _) = simulate(300, 0.95, 3.0, 31);
        let out = BaumWelch::default().max_iterations(500).train(two_state_gaussian(2.0), &obs);
        assert!(out.converged, "should converge well before 500 iterations");
        assert!(out.iterations < 500);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = BaumWelch::default().max_iterations(0);
    }

    #[test]
    fn train_into_matches_train_exactly() {
        let (obs, _) = simulate(300, 0.95, 2.0, 11);
        let trainer = BaumWelch::default().max_iterations(20);
        let initial = two_state_gaussian(0.8);
        let out = trainer.train(initial.clone(), &obs);
        let mut model = initial;
        let mut ws = EmWorkspace::new();
        let stats = trainer.train_into(&mut model, &obs, &mut ws);
        assert_eq!(model, out.model, "in-place training must be bit-identical");
        assert_eq!(stats.log_likelihood, out.log_likelihood);
        assert_eq!(stats.iterations, out.iterations);
        assert_eq!(stats.converged, out.converged);
    }

    #[test]
    fn train_into_empty_observations_leave_model_untouched() {
        let init = two_state_gaussian(1.0);
        let mut model = init.clone();
        let mut ws = EmWorkspace::new();
        let stats = BaumWelch::default().train_into(&mut model, &[], &mut ws);
        assert_eq!(model, init);
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }
}
