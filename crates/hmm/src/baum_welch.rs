//! Baum–Welch: unsupervised EM estimation of the emission `B` under a
//! fixed truth chain `(π, A)`.
//!
//! Paper Eq. 5 re-estimates `A` as well. Here the chain is a constant of
//! the model — the sticky prior it was built with — and EM fits only the
//! emission's `(μ, σ)`. One claim's ACS sequence is too short to pin
//! down a transition matrix, and a learned one picks up spurious flips on
//! sparse claims (DESIGN.md §6).

use crate::forward::{forward_backward_into, EmWorkspace};
use crate::Hmm;

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

    /// Runs EM in place on `model`, using `ws` for every E-step table and
    /// re-estimating the emission `B` directly into the model's storage;
    /// `π` and `A` are left exactly as they were.
    ///
    /// After the workspace has warmed up to the sequence shape, each EM
    /// iteration performs **zero heap allocations** — the property the
    /// per-claim task loop relies on when one workspace serves thousands
    /// of claims on a worker.
    ///
    /// An empty observation sequence leaves `model` untouched (zero
    /// iterations, converged).
    pub fn train_into(
        &self,
        model: &mut Hmm,
        observations: &[f64],
        ws: &mut EmWorkspace,
    ) -> TrainStats {
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

            // M-step, in place: the emission only.
            model.emission_mut().reestimate_gamma(observations, ws.gamma());
        }

        TrainStats { log_likelihood: last_ll, iterations, converged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::SymmetricGaussianEmission;
    use sstd_stats::{Normal, SplitMix64};

    fn two_state_gaussian(mu: f64) -> Hmm {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.8, 0.2], vec![0.2, 0.8]],
            SymmetricGaussianEmission::new(mu, 2.0).unwrap(),
        )
        .unwrap()
    }

    /// Trains a copy of `initial` in a fresh workspace.
    fn train(trainer: BaumWelch, initial: &Hmm, obs: &[f64]) -> (Hmm, TrainStats) {
        let mut model = initial.clone();
        let stats = trainer.train_into(&mut model, obs, &mut EmWorkspace::new());
        (model, stats)
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
    fn log_likelihood_is_monotone_nondecreasing() {
        let (obs, _) = simulate(200, 0.95, 2.0, 5);
        let mut model = two_state_gaussian(0.5);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..10 {
            let (next, stats) = train(BaumWelch::default().max_iterations(1), &model, &obs);
            assert!(
                stats.log_likelihood >= prev - 1e-6,
                "EM decreased the likelihood: {} -> {}",
                prev,
                stats.log_likelihood
            );
            prev = stats.log_likelihood;
            model = next;
        }
    }

    #[test]
    fn recovers_emission_means() {
        let (obs, _) = simulate(2_000, 0.97, 3.0, 9);
        let (model, _) =
            train(BaumWelch::default().max_iterations(60), &two_state_gaussian(1.0), &obs);
        let (m0, m1) = (model.emission().mean(0), model.emission().mean(1));
        let (hi, lo) = if m0 > m1 { (m0, m1) } else { (m1, m0) };
        assert!((hi - 3.0).abs() < 0.4, "hi = {hi}");
        assert!((lo + 3.0).abs() < 0.4, "lo = {lo}");
    }

    #[test]
    fn trained_model_beats_initial_likelihood() {
        let (obs, _) = simulate(500, 0.9, 2.5, 77);
        let initial = two_state_gaussian(0.5);
        let before = forward_backward_into(&initial, &obs, &mut EmWorkspace::new());
        let (_, stats) = train(BaumWelch::default(), &initial, &obs);
        assert!(stats.log_likelihood > before);
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn converged_flag_set_on_fixed_point() {
        let (obs, _) = simulate(300, 0.95, 3.0, 31);
        let (_, stats) =
            train(BaumWelch::default().max_iterations(500), &two_state_gaussian(2.0), &obs);
        assert!(stats.converged, "should converge well before 500 iterations");
        assert!(stats.iterations < 500);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = BaumWelch::default().max_iterations(0);
    }

    #[test]
    fn reused_workspace_trains_as_a_fresh_one() {
        let (obs, _) = simulate(300, 0.95, 2.0, 11);
        let trainer = BaumWelch::default().max_iterations(20);
        let initial = two_state_gaussian(0.8);
        let (want, want_stats) = train(trainer, &initial, &obs);
        let mut ws = EmWorkspace::new();
        let _ = forward_backward_into(&initial, &obs[..17], &mut ws);
        let mut model = initial;
        let stats = trainer.train_into(&mut model, &obs, &mut ws);
        assert_eq!(model, want, "a dirty workspace must train bit-identically");
        assert_eq!(stats, want_stats);
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
