//! HMM oracles: exhaustive enumeration, and the EM loops the production
//! kernel replaced.
//!
//! The enumeration oracles (`best_path`, `log_likelihood`, `posteriors`,
//! `log_joint`) are re-exported from [`sstd_hmm::exhaustive`].
//!
//! The rest of this module is `sstd_hmm`'s forward–backward pass,
//! Baum–Welch M-step and emission arithmetic **as they stood before the
//! flat-slice kernel**: a `log_prob` call (and a logarithm of σ) per state
//! per step, both `exp` calls per row, γ and ξ in separate passes, γ read
//! through [`Mat`]'s `(r, c)` index. The code is kept verbatim — only the
//! container types are this module's own, because the production ones keep
//! their fields private — and it is the specification of the kernel's
//! arithmetic: `crates/hmm/tests/oracle_differential.rs` holds the two
//! bit-identical (parameters, γ, Σξ, log-likelihood, iteration count) on
//! generated cases, degenerate observations included.

// The loops below are a frozen copy; they keep the subscripts they had.
#![allow(clippy::needless_range_loop)]

pub use sstd_hmm::exhaustive::{best_path, log_joint, log_likelihood, posteriors};

use sstd_hmm::{Mat, TrainStats};

/// The reference counterpart of `sstd_hmm::TrainableEmission`.
pub trait ReferenceEmission {
    /// The observation type.
    type Obs: Copy;

    /// Log-probability of observing `obs` in `state`.
    fn log_prob(&self, state: usize, obs: Self::Obs) -> f64;

    /// Re-estimates the parameters from `gamma[(t, state)]`.
    fn reestimate_gamma(&mut self, observations: &[Self::Obs], gamma: &Mat);
}

/// `λ = (A, B, π)` with public tables, so a test can build it from the
/// same numbers as the production `Hmm` and compare them afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceHmm<E> {
    /// Initial state distribution `π`.
    pub init: Vec<f64>,
    /// Transition matrix `A` (`N×N`).
    pub trans: Mat,
    /// Emission model `B`.
    pub emission: E,
}

impl<E: ReferenceEmission> ReferenceHmm<E> {
    /// Assembles a model from nested transition rows.
    #[must_use]
    pub fn new(init: Vec<f64>, trans: &[Vec<f64>], emission: E) -> Self {
        Self { init, trans: Mat::from_rows(trans), emission }
    }

    fn num_states(&self) -> usize {
        self.init.len()
    }

    fn init(&self) -> &[f64] {
        &self.init
    }

    fn trans_prob(&self, from: usize, to: usize) -> f64 {
        self.trans[(from, to)]
    }

    fn log_emit(&self, state: usize, obs: E::Obs) -> f64 {
        self.emission.log_prob(state, obs)
    }
}

/// The reference E-step tables (the former `EmWorkspace`).
#[derive(Debug, Clone, Default)]
pub struct ReferenceWorkspace {
    emit: Mat,
    logmax: Vec<f64>,
    alpha: Mat,
    beta: Mat,
    gamma: Mat,
    xi_sum: Mat,
    xi_t: Mat,
    scale: Vec<f64>,
}

impl ReferenceWorkspace {
    /// State posteriors `γ` of the most recent pass (`T×N`).
    #[must_use]
    pub fn gamma(&self) -> &Mat {
        &self.gamma
    }

    /// Summed pairwise posteriors `Σ_t ξ_t` of the most recent pass.
    #[must_use]
    pub fn xi_sum(&self) -> &Mat {
        &self.xi_sum
    }

    fn ensure(&mut self, t_len: usize, n: usize) {
        self.emit.resize(t_len, n);
        self.logmax.resize(t_len, 0.0);
        self.alpha.resize(t_len, n);
        self.beta.resize(t_len, n);
        self.gamma.resize(t_len, n);
        self.xi_sum.resize(n, n);
        self.xi_t.resize(n, n);
        self.scale.resize(t_len, 0.0);
    }
}

/// Scaled forward–backward as `sstd_hmm::forward_backward_into` computed
/// it before the flat-slice kernel; returns `ln P(O | λ)`.
pub fn forward_backward_into<E: ReferenceEmission>(
    hmm: &ReferenceHmm<E>,
    observations: &[E::Obs],
    ws: &mut ReferenceWorkspace,
) -> f64 {
    let n = hmm.num_states();
    let t_len = observations.len();
    ws.ensure(t_len, n);
    ws.xi_sum.fill(0.0);
    if t_len == 0 {
        return 0.0;
    }

    // Emission probabilities are computed once, in linear (scaled) space.
    // Each row is divided by its max to avoid underflow before scaling.
    for (t, &obs) in observations.iter().enumerate() {
        let row = ws.emit.row_mut(t);
        for i in 0..n {
            row[i] = hmm.log_emit(i, obs);
        }
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ws.logmax[t] = max;
        for i in 0..n {
            row[i] = if max.is_finite() { (row[i] - max).exp() } else { 1.0 };
        }
    }

    // Forward pass with per-step scaling.
    {
        let first = ws.alpha.row_mut(0);
        let emit0 = ws.emit.row(0);
        for i in 0..n {
            first[i] = hmm.init()[i] * emit0[i];
        }
        ws.scale[0] = normalize(first);
    }
    for t in 1..t_len {
        let (prev, cur) = ws.alpha.adjacent_rows_mut(t - 1);
        let emit_t = ws.emit.row(t);
        for j in 0..n {
            let mut acc = 0.0;
            for i in 0..n {
                acc += prev[i] * hmm.trans_prob(i, j);
            }
            cur[j] = acc * emit_t[j];
        }
        ws.scale[t] = normalize(cur);
    }

    // Backward pass using the same scale factors.
    ws.beta.row_mut(t_len - 1).fill(1.0);
    for t in (0..t_len - 1).rev() {
        let (cur, next) = ws.beta.adjacent_rows_mut(t);
        let emit_next = ws.emit.row(t + 1);
        let denom = ws.scale[t + 1].max(f64::MIN_POSITIVE);
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += hmm.trans_prob(i, j) * emit_next[j] * next[j];
            }
            cur[i] = acc / denom;
        }
    }

    // Posteriors.
    for t in 0..t_len {
        let g = ws.gamma.row_mut(t);
        let a = ws.alpha.row(t);
        let b = ws.beta.row(t);
        for i in 0..n {
            g[i] = a[i] * b[i];
        }
        normalize(g);
    }

    for t in 0..t_len - 1 {
        let mut total = 0.0;
        let alpha_t = ws.alpha.row(t);
        let beta_next = ws.beta.row(t + 1);
        let emit_next = ws.emit.row(t + 1);
        for i in 0..n {
            let xi_row = ws.xi_t.row_mut(i);
            for j in 0..n {
                let v = alpha_t[i] * hmm.trans_prob(i, j) * emit_next[j] * beta_next[j];
                xi_row[j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for i in 0..n {
                let src = ws.xi_t.row(i);
                let dst = ws.xi_sum.row_mut(i);
                for j in 0..n {
                    dst[j] += src[j] / total;
                }
            }
        }
    }

    // ln P(O|λ) = Σ ln(scale_t) + Σ max-shifts. The per-row max shift on
    // `emit` cancels in all posteriors but must be restored here.
    let mut log_likelihood: f64 =
        ws.scale[..t_len].iter().map(|&c| c.max(f64::MIN_POSITIVE).ln()).sum();
    for t in 0..t_len {
        if ws.logmax[t].is_finite() {
            log_likelihood += ws.logmax[t];
        }
    }
    log_likelihood
}

fn normalize(row: &mut [f64]) -> f64 {
    let sum: f64 = row.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for x in row.iter_mut() {
            *x /= sum;
        }
        sum
    } else {
        let u = 1.0 / row.len() as f64;
        for x in row.iter_mut() {
            *x = u;
        }
        0.0_f64.max(f64::MIN_POSITIVE)
    }
}

/// The two settings of `sstd_hmm::BaumWelch`, whose fields are private,
/// and the probability floor it keeps as a private constant (1e-6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceTrainer {
    /// Cap on EM iterations (at least 1).
    pub max_iterations: usize,
    /// Stop once the log-likelihood gain falls below this.
    pub tolerance: f64,
    /// Floor applied to `π` and `A` entries after each M-step.
    pub prob_floor: f64,
}

impl ReferenceTrainer {
    /// Baum–Welch as `sstd_hmm::BaumWelch::train_into` ran it before the
    /// flat-slice kernel: in place on `model`, tables in `ws`.
    pub fn train_into<E: ReferenceEmission>(
        &self,
        model: &mut ReferenceHmm<E>,
        observations: &[E::Obs],
        ws: &mut ReferenceWorkspace,
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

            // M-step, in place. (The production model also refreshed its
            // cached `ln A` here; only the decoders read that.)
            {
                let gamma = ws.gamma();
                let xi_sum = ws.xi_sum();
                let t_len = gamma.rows();
                let (init, trans, emission) =
                    (&mut model.init, &mut model.trans, &mut model.emission);
                // π update: γ_0, floored and renormalized.
                init.copy_from_slice(gamma.row(0));
                floor_and_normalize(init, self.prob_floor);
                // A update: ξ sums over γ sums (excluding the last step).
                for i in 0..n {
                    let mut denom = 0.0;
                    for t in 0..t_len - 1 {
                        denom += gamma[(t, i)];
                    }
                    let row = trans.row_mut(i);
                    for j in 0..n {
                        row[j] = if denom > 0.0 { xi_sum[(i, j)] / denom } else { 1.0 / n as f64 };
                    }
                    floor_and_normalize(row, self.prob_floor);
                }
                emission.reestimate_gamma(observations, gamma);
            }
        }

        TrainStats { log_likelihood: last_ll, iterations, converged }
    }
}

fn floor_and_normalize(row: &mut [f64], floor: f64) {
    let mut sum = 0.0;
    for p in row.iter_mut() {
        if !p.is_finite() || *p < floor {
            *p = floor;
        }
        sum += *p;
    }
    for p in row.iter_mut() {
        *p /= sum;
    }
}

/// The former `SymmetricGaussianEmission`: state 0 emits `N(+μ, σ²)`,
/// state 1 emits `N(−μ, σ²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricGaussian {
    /// Separation `μ`.
    pub mu: f64,
    /// Shared standard deviation `σ`.
    pub std: f64,
    /// Floor applied to `σ` during re-estimation.
    pub min_std: f64,
}

impl SymmetricGaussian {
    fn mean(&self, state: usize) -> f64 {
        match state {
            0 => self.mu,
            1 => -self.mu,
            _ => panic!("symmetric emission has exactly two states"),
        }
    }
}

impl ReferenceEmission for SymmetricGaussian {
    type Obs = f64;

    fn log_prob(&self, state: usize, obs: f64) -> f64 {
        let z = (obs - self.mean(state)) / self.std;
        -0.5 * z * z - self.std.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn reestimate_gamma(&mut self, observations: &[f64], gamma: &Mat) {
        let g = |t, s| gamma[(t, s)];
        if observations.is_empty() {
            return;
        }
        let n = observations.len() as f64;
        // μ maximizes the constrained likelihood:
        // μ = Σ_t (γ₀(t) − γ₁(t))·x_t / Σ_t (γ₀(t) + γ₁(t)).
        let mu: f64 =
            observations.iter().enumerate().map(|(t, &x)| (g(t, 0) - g(t, 1)) * x).sum::<f64>() / n;
        // Shared σ² over both states' residuals.
        let var: f64 = observations
            .iter()
            .enumerate()
            .map(|(t, &x)| g(t, 0) * (x - mu) * (x - mu) + g(t, 1) * (x + mu) * (x + mu))
            .sum::<f64>()
            / n;
        self.mu = mu;
        self.std = var.sqrt().max(self.min_std);
    }
}

/// The former `CategoricalEmission`, without its log cache (`ln` of the
/// same probability is the same bits, cached or not).
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// `probs[(state, symbol)]`, each row stochastic.
    pub probs: Mat,
    /// Probability floor applied after re-estimation.
    pub floor: f64,
}

impl ReferenceEmission for Categorical {
    type Obs = usize;

    fn log_prob(&self, state: usize, obs: usize) -> f64 {
        self.probs[(state, obs)].ln()
    }

    fn reestimate_gamma(&mut self, observations: &[usize], gamma: &Mat) {
        let g = |t, s| gamma[(t, s)];
        for s in 0..self.probs.rows() {
            let weight: f64 = (0..observations.len()).map(|t| g(t, s)).sum();
            if weight <= f64::EPSILON {
                continue;
            }
            let row = self.probs.row_mut(s);
            row.fill(0.0);
            for (t, &o) in observations.iter().enumerate() {
                row[o] += g(t, s);
            }
            // Floor and renormalize.
            let mut total = 0.0;
            for p in row.iter_mut() {
                *p = (*p / weight).max(self.floor);
                total += *p;
            }
            for p in row.iter_mut() {
                *p /= total;
            }
        }
    }
}
