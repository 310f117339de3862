//! The per-claim truth HMM (paper §III-B/C/D).

use crate::SstdConfig;
use sstd_hmm::{
    forward_backward_into, viterbi_into, BaumWelch, DecodeWorkspace, EmWorkspace, Hmm,
    SymmetricGaussianEmission,
};
use sstd_types::TruthLabel;

/// Baum–Welch stops once an iteration raises the log-likelihood by less
/// than this.
const EM_TOLERANCE: f64 = 1e-4;

/// A trained two-state truth model for one claim.
///
/// Hidden state semantics follow the paper: one state is "claim is true",
/// the other "claim is false". After unsupervised training the states are
/// identified by their emission means — honest majorities push the ACS
/// positive while a claim is true and negative while it is false, so the
/// state with the larger mean is `True`.
///
/// # Examples
///
/// ```
/// use sstd_core::{ClaimTruthModel, SstdConfig};
/// use sstd_types::TruthLabel;
///
/// // Strongly positive then strongly negative evidence.
/// let acs = vec![4.0, 4.2, 3.9, -4.1, -4.0, -3.8];
/// let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
/// let labels = model.decode(&acs);
/// assert_eq!(labels[0], TruthLabel::True);
/// assert_eq!(labels[5], TruthLabel::False);
/// ```
#[derive(Debug, Clone)]
pub struct ClaimTruthModel {
    hmm: Hmm,
    trained: bool,
}

impl ClaimTruthModel {
    /// Builds the initial (untrained) model scaled to the observation
    /// sequence: emission means at ±σ(ACS), on the sticky truth chain.
    #[must_use]
    pub fn initial(config: &SstdConfig, acs: &[f64]) -> Self {
        let scale = spread(acs).max(1.0);
        let hmm = sticky_hmm(
            config.stay_probability,
            SymmetricGaussianEmission::new(scale, scale)
                .expect("positive scale yields a valid emission")
                // Variance floor at a quarter of the data scale: stops EM
                // from collapsing the shared variance onto outliers.
                .with_min_std((0.25 * scale).max(SymmetricGaussianEmission::DEFAULT_MIN_STD)),
        );
        Self { hmm, trained: false }
    }

    /// Trains the model's emission on a claim's ACS sequence with
    /// Baum–Welch (paper Eq. 5, the chain held fixed), unless
    /// `config.train` is off, in which case the scaled initial model is
    /// returned.
    #[must_use]
    pub fn fit(config: &SstdConfig, acs: &[f64]) -> Self {
        Self::fit_with(config, acs, &mut EmWorkspace::new())
    }

    /// [`fit`](Self::fit) against a caller-owned EM scratch arena, so a
    /// worker fitting many claims reuses one set of forward–backward
    /// tables instead of allocating them per claim. Identical results.
    #[must_use]
    pub fn fit_with(config: &SstdConfig, acs: &[f64], em: &mut EmWorkspace) -> Self {
        let mut model = Self::initial(config, acs);
        if !config.train || acs.len() < 2 {
            return model;
        }
        BaumWelch::default()
            .max_iterations(config.em_iterations)
            .tolerance(EM_TOLERANCE)
            .train_into(&mut model.hmm, acs, em);
        model.trained = true;
        model
    }

    /// Emission mean of a hidden state.
    fn state_mean(&self, state: usize) -> f64 {
        self.hmm.emission().mean(state)
    }

    /// Whether EM training ran.
    #[must_use]
    pub const fn is_trained(&self) -> bool {
        self.trained
    }

    /// The underlying HMM.
    #[must_use]
    pub fn hmm(&self) -> &Hmm {
        &self.hmm
    }

    /// Gives up the underlying HMM, for a caller that keeps decoding with
    /// it (the streaming engine moves it into its online decoder).
    #[must_use]
    pub fn into_hmm(self) -> Hmm {
        self.hmm
    }

    /// Converts a hidden-state index into a truth label.
    ///
    /// The label is the *sign* of the state's emission mean: positive
    /// aggregate evidence means the crowd supports the claim. When every
    /// observation is positive, EM fits both states to positive means and
    /// both correctly map to `True` (and symmetrically for `False`) — the
    /// two states then only model evidence *intensity*, not a truth flip.
    #[must_use]
    pub fn label_of(&self, state: usize) -> TruthLabel {
        TruthLabel::from_bool(self.state_mean(state) > 0.0)
    }

    /// Decodes the truth sequence for `acs` with Viterbi (paper Eq. 6–8).
    #[must_use]
    pub fn decode(&self, acs: &[f64]) -> Vec<TruthLabel> {
        let mut out = Vec::new();
        self.decode_into(acs, &mut DecodeWorkspace::new(), &mut out);
        out
    }

    /// [`decode`](Self::decode) into caller-owned buffers: the Viterbi
    /// lattice lives in `decode`, the labels land in `out` (cleared
    /// first). Identical results.
    pub fn decode_into(
        &self,
        acs: &[f64],
        decode: &mut DecodeWorkspace,
        out: &mut Vec<TruthLabel>,
    ) {
        let path = viterbi_into(&self.hmm, acs, decode);
        out.clear();
        out.reserve(path.len());
        for &s in path {
            out.push(self.label_of(s));
        }
    }

    /// Per-interval posterior probability that the claim is *true*, from
    /// forward–backward smoothing: `P(truth_t = True | ACS sequence)`.
    ///
    /// Complements [`decode`](Self::decode): Viterbi commits to the
    /// single best sequence, the posterior quantifies how sure the model
    /// is at each instant — the calibration signal a downstream consumer
    /// (say, an alerting threshold) actually wants.
    #[must_use]
    pub fn posterior_true(&self, acs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.posterior_true_into(acs, &mut EmWorkspace::new(), &mut out);
        out
    }

    /// [`posterior_true`](Self::posterior_true) against caller-owned
    /// buffers: the smoothing tables live in `em`, the posteriors land in
    /// `out` (cleared first). Identical results.
    pub fn posterior_true_into(&self, acs: &[f64], em: &mut EmWorkspace, out: &mut Vec<f64>) {
        forward_backward_into(&self.hmm, acs, em);
        let gamma = em.gamma();
        out.clear();
        out.reserve(gamma.len());
        for row in gamma.iter() {
            out.push(
                row.iter()
                    .enumerate()
                    .filter(|&(s, _)| self.label_of(s) == TruthLabel::True)
                    .map(|(_, &g)| g)
                    .sum(),
            );
        }
    }
}

/// The two-state truth chain of every claim model: a uniform initial
/// distribution and symmetric transitions that stay with probability
/// `stay`. Training fits the emission only, so a model keeps this chain
/// for life.
pub(crate) fn sticky_hmm(stay: f64, emission: SymmetricGaussianEmission) -> Hmm {
    Hmm::from_arrays([0.5, 0.5], [[stay, 1.0 - stay], [1.0 - stay, stay]], emission)
        .expect("hand-built parameters are stochastic")
}

/// Standard deviation of `xs` (0 when fewer than 2 values).
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_sequence() -> Vec<f64> {
        // Truth flips every 10 intervals; |ACS| ≈ 5 with mild noise.
        (0..60)
            .map(|t| {
                let sign = if (t / 10) % 2 == 0 { 1.0 } else { -1.0 };
                sign * (5.0 + 0.3 * ((t % 7) as f64 - 3.0))
            })
            .collect()
    }

    #[test]
    fn initial_model_is_symmetric_and_sticky() {
        let m = ClaimTruthModel::initial(&SstdConfig::default(), &flip_sequence());
        assert!(!m.is_trained());
        assert!(m.hmm().trans()[0][0] > 0.5);
        assert!(m.hmm().emission().mean(0) > 0.0);
        assert!(m.hmm().emission().mean(1) < 0.0);
    }

    #[test]
    fn decode_tracks_truth_flips() {
        let acs = flip_sequence();
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
        let labels = model.decode(&acs);
        assert_eq!(labels.len(), 60);
        // Check the midpoint of each regime (boundaries may smear ±1).
        for block in 0..6 {
            let want = if block % 2 == 0 { TruthLabel::True } else { TruthLabel::False };
            assert_eq!(labels[block * 10 + 5], want, "block {block}");
        }
    }

    #[test]
    fn training_flag_and_state_identification() {
        let acs = flip_sequence();
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
        assert!(model.is_trained());
        // The state with the larger emission mean is the one labelled True.
        let e = model.hmm().emission();
        let (true_state, other) = if e.mean(0) > e.mean(1) { (0, 1) } else { (1, 0) };
        assert_eq!(model.label_of(true_state), TruthLabel::True);
        assert_eq!(model.label_of(other), TruthLabel::False);
    }

    #[test]
    fn untrained_config_skips_em() {
        let cfg = SstdConfig { train: false, ..SstdConfig::default() };
        let model = ClaimTruthModel::fit(&cfg, &flip_sequence());
        assert!(!model.is_trained());
        // Decoding still works with the scaled initial model.
        let labels = model.decode(&[6.0, 6.0, -6.0]);
        assert_eq!(labels, vec![TruthLabel::True, TruthLabel::True, TruthLabel::False]);
    }

    #[test]
    fn short_sequences_fall_back_to_initial() {
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &[2.0]);
        assert!(!model.is_trained());
        assert_eq!(model.decode(&[2.0]), vec![TruthLabel::True]);
    }

    #[test]
    fn posterior_tracks_evidence_strength() {
        let acs = flip_sequence();
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
        let post = model.posterior_true(&acs);
        assert_eq!(post.len(), acs.len());
        assert!(post.iter().all(|p| (0.0..=1.0).contains(p)));
        // Mid-regime intervals are confidently classified.
        assert!(post[5] > 0.9, "true regime: {}", post[5]);
        assert!(post[15] < 0.1, "false regime: {}", post[15]);
    }

    #[test]
    fn posterior_is_uncertain_without_evidence() {
        let model = ClaimTruthModel::initial(&SstdConfig::default(), &[]);
        let post = model.posterior_true(&[0.0, 0.0, 0.0]);
        for p in post {
            assert!((p - 0.5).abs() < 0.05, "no-evidence posterior ≈ 0.5: {p}");
        }
    }

    #[test]
    fn workspace_paths_match_allocating_paths_exactly() {
        let acs = flip_sequence();
        let cfg = SstdConfig::default();
        let mut em = EmWorkspace::new();
        let mut dec = DecodeWorkspace::new();
        let mut labels = Vec::new();
        let mut post = Vec::new();
        // Run twice with the same reused workspaces: results must be
        // bit-identical to the allocating wrappers both times.
        for _ in 0..2 {
            let with_ws = ClaimTruthModel::fit_with(&cfg, &acs, &mut em);
            let plain = ClaimTruthModel::fit(&cfg, &acs);
            assert_eq!(with_ws.hmm(), plain.hmm());
            assert_eq!(with_ws.is_trained(), plain.is_trained());
            with_ws.decode_into(&acs, &mut dec, &mut labels);
            assert_eq!(labels, plain.decode(&acs));
            with_ws.posterior_true_into(&acs, &mut em, &mut post);
            assert_eq!(post, plain.posterior_true(&acs));
        }
    }

    #[test]
    fn noise_robustness_mild_outlier() {
        // A single mildly-contradicting interval inside a long true regime
        // should be smoothed away by the sticky transitions (the paper's
        // robustness claim for dynamic truth): the dip to −0.5 is closer
        // to the False regime's mean, but not by enough to pay the
        // transition cost of leaving a sticky chain for one step.
        let mut acs = flip_sequence();
        acs[5] = -0.5;
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
        let labels = model.decode(&acs);
        assert_eq!(labels[5], TruthLabel::True, "mild dip must be smoothed");
        assert_eq!(labels[4], TruthLabel::True);
        assert_eq!(labels[6], TruthLabel::True);
    }

    #[test]
    fn strong_contradiction_does_flip() {
        // Conversely, a sustained strong contradiction must flip — SSTD is
        // robust to noise, not blind to real transitions.
        let mut acs = vec![5.0; 30];
        for a in acs.iter_mut().skip(12).take(6) {
            *a = -5.0;
        }
        let model = ClaimTruthModel::fit(&SstdConfig::default(), &acs);
        let labels = model.decode(&acs);
        assert_eq!(labels[14], TruthLabel::False);
        assert_eq!(labels[25], TruthLabel::True);
    }
}
