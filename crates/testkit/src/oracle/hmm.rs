//! HMM oracles: exhaustive enumeration, and the EM loops the production
//! kernel replaced.
//!
//! The enumeration oracles ([`best_path`], [`log_likelihood`],
//! [`posteriors`], [`log_joint`]) walk all `2^T` hidden-state sequences
//! of the production two-state [`Hmm`], so they are only usable for tiny
//! problems — which is exactly what the property tests need: an
//! independent oracle to check the dynamic-programming implementations
//! against.
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

use sstd_hmm::{Hmm, TrainStats};
use sstd_stats::log_sum_exp;
use std::ops::Index;

/// Log joint probability `ln P(O, S | λ)` of one complete state sequence.
///
/// # Panics
///
/// Panics if `states.len() != observations.len()`.
#[must_use]
pub fn log_joint(hmm: &Hmm, observations: &[f64], states: &[usize]) -> f64 {
    assert_eq!(states.len(), observations.len(), "sequence lengths must match");
    if states.is_empty() {
        return 0.0;
    }
    let log_emit = |s: usize, x: f64| hmm.emission().log_prob(s, x);
    let mut lp = hmm.init()[states[0]].ln() + log_emit(states[0], observations[0]);
    for t in 1..states.len() {
        lp += hmm.trans()[states[t - 1]][states[t]].ln() + log_emit(states[t], observations[t]);
    }
    lp
}

/// Every state sequence of length `len`, in lexicographic order.
fn all_sequences(len: usize) -> Vec<Vec<usize>> {
    let mut seqs = vec![vec![]];
    for _ in 0..len {
        let mut next = Vec::with_capacity(seqs.len() * 2);
        for s in &seqs {
            for i in 0..2 {
                let mut e = s.clone();
                e.push(i);
                next.push(e);
            }
        }
        seqs = next;
    }
    seqs
}

/// Log-likelihood `ln P(O | λ)` by full enumeration.
///
/// # Examples
///
/// ```
/// use sstd_hmm::{Hmm, SymmetricGaussianEmission};
/// use sstd_testkit::oracle::hmm;
///
/// let model = Hmm::new(
///     vec![0.5, 0.5],
///     vec![vec![0.5, 0.5], vec![0.5, 0.5]],
///     SymmetricGaussianEmission::new(1.0, 1.0).unwrap(),
/// ).unwrap();
/// // Uniform π and A: P(O) is the product of the per-step mixtures.
/// let mix = |x: f64| {
///     let e = model.emission();
///     0.5 * e.log_prob(0, x).exp() + 0.5 * e.log_prob(1, x).exp()
/// };
/// let ll = hmm::log_likelihood(&model, &[0.3, -1.0]);
/// assert!((ll - (mix(0.3) * mix(-1.0)).ln()).abs() < 1e-12);
/// ```
#[must_use]
pub fn log_likelihood(hmm: &Hmm, observations: &[f64]) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    let joints: Vec<f64> =
        all_sequences(observations.len()).iter().map(|s| log_joint(hmm, observations, s)).collect();
    log_sum_exp(&joints)
}

/// State posteriors `P(s_t = i | O, λ)` by full enumeration.
#[must_use]
pub fn posteriors(hmm: &Hmm, observations: &[f64]) -> Vec<[f64; 2]> {
    let t_len = observations.len();
    if t_len == 0 {
        return vec![];
    }
    let seqs = all_sequences(t_len);
    let joints: Vec<f64> = seqs.iter().map(|s| log_joint(hmm, observations, s)).collect();
    let total = log_sum_exp(&joints);
    let mut gamma = vec![[0.0; 2]; t_len];
    for (seq, &lp) in seqs.iter().zip(&joints) {
        let w = (lp - total).exp();
        for (t, &s) in seq.iter().enumerate() {
            gamma[t][s] += w;
        }
    }
    gamma
}

/// The most likely complete state sequence, by full enumeration (the
/// Viterbi oracle). Ties break toward the lexicographically smallest
/// sequence, matching the DP's preference for lower state indices.
#[must_use]
pub fn best_path(hmm: &Hmm, observations: &[f64]) -> Vec<usize> {
    let mut best: Option<(f64, Vec<usize>)> = None;
    for s in all_sequences(observations.len()) {
        let lp = log_joint(hmm, observations, &s);
        let better = match &best {
            None => true,
            Some((b, seq)) => lp > *b + 1e-12 || ((lp - b).abs() <= 1e-12 && s < *seq),
        };
        if better {
            best = Some((lp, s));
        }
    }
    best.map(|(_, s)| s).unwrap_or_default()
}

/// A dense row-major `rows × cols` matrix of `f64` in one buffer: the
/// container the reference loops index, with only the accessors they use.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mat {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { data, rows: rows.len(), cols }
    }

    const fn rows(&self) -> usize {
        self.rows
    }

    /// The whole buffer in row-major order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Reshapes to `rows × cols`, keeping the existing buffer when it is
    /// large enough (entries are *not* reset).
    fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Rows `r` and `r + 1` as simultaneously borrowed mutable slices.
    fn adjacent_rows_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        assert!(r + 1 < self.rows, "row {} out of range for {} rows", r + 1, self.rows);
        let c = self.cols;
        let (lo, hi) = self.data.split_at_mut((r + 1) * c);
        (&mut lo[r * c..], &mut hi[..c])
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of range");
        &self.data[r * self.cols + c]
    }
}

/// `λ = (A, B, π)` with public tables, so a test can build it from the
/// same numbers as the production `Hmm` and compare them afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceHmm {
    /// Initial state distribution `π`.
    pub init: Vec<f64>,
    /// Transition matrix `A` (`N×N`).
    pub trans: Mat,
    /// Emission model `B`.
    pub emission: SymmetricGaussian,
}

impl ReferenceHmm {
    /// Assembles a model from nested transition rows.
    #[must_use]
    pub fn new(init: Vec<f64>, trans: &[Vec<f64>], emission: SymmetricGaussian) -> Self {
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

    fn log_emit(&self, state: usize, obs: f64) -> f64 {
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
pub fn forward_backward_into(
    hmm: &ReferenceHmm,
    observations: &[f64],
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
    pub fn train_into(
        &self,
        model: &mut ReferenceHmm,
        observations: &[f64],
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

    /// Log-density of observing `obs` in `state`.
    #[must_use]
    pub fn log_prob(&self, state: usize, obs: f64) -> f64 {
        let z = (obs - self.mean(state)) / self.std;
        -0.5 * z * z - self.std.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Re-estimates `(μ, σ)` from `gamma[(t, state)]`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_hmm::SymmetricGaussianEmission;

    fn tiny() -> Hmm {
        Hmm::new(
            vec![0.6, 0.4],
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            SymmetricGaussianEmission::new(1.0, 0.8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn joint_of_empty_sequence_is_zero() {
        assert_eq!(log_joint(&tiny(), &[], &[]), 0.0);
    }

    #[test]
    fn likelihood_sums_over_sequences_t1() {
        let hmm = tiny();
        let b = |s, x| hmm.emission().log_prob(s, x).exp();
        let ll = log_likelihood(&hmm, &[0.5]);
        assert!((ll - (0.6 * b(0, 0.5) + 0.4 * b(1, 0.5)).ln()).abs() < 1e-12);
    }

    #[test]
    fn posteriors_rows_sum_to_one() {
        for row in posteriors(&tiny(), &[-0.2, 1.0, 0.7]) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn best_path_beats_all_others() {
        let hmm = tiny();
        let obs = [1.0, -0.3, 0.9];
        let best_lp = log_joint(&hmm, &obs, &best_path(&hmm, &obs));
        for s in all_sequences(3) {
            assert!(log_joint(&hmm, &obs, &s) <= best_lp + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let _ = log_joint(&tiny(), &[0.0], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn resize_reuses_buffer() {
        let mut m = Mat::from_rows(&vec![vec![0.0; 2]; 4]);
        m.resize(2, 2);
        let cap = m.data.capacity();
        m.resize(4, 2); // grow back within capacity
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.rows(), 4);
    }

    #[test]
    fn adjacent_rows_are_disjoint() {
        let mut m = Mat::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let (a, b) = m.adjacent_rows_mut(1);
        assert_eq!(a, &[2.0, 2.0]);
        assert_eq!(b, &[3.0, 3.0]);
        b[0] = 9.0;
        assert_eq!(m[(2, 0)], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adjacent_rows_bound_checked() {
        let mut m = Mat::from_rows(&vec![vec![0.0; 2]; 2]);
        let _ = m.adjacent_rows_mut(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bound_checked() {
        let m = Mat::from_rows(&vec![vec![0.0; 2]; 2]);
        let _ = m[(2, 0)];
    }
}
