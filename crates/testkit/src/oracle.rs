//! Brute-force reference oracles: obviously correct, unashamedly slow.
//!
//! Each oracle recomputes from the definition what a production code
//! path computes incrementally or by dynamic programming, so the
//! differential suites can compare the two on thousands of seeded cases.
//! The HMM oracles (exhaustive Viterbi over all `N^T` sequences,
//! direct-sum likelihood, enumerated posteriors) live in
//! [`sstd_hmm::exhaustive`] and are re-exported here under [`hmm`] so the
//! testkit is a one-stop import for every oracle, beside the EM loops the
//! flat-slice kernel replaced; the linear-scan text stages are under
//! [`text`].

pub mod hmm;
pub mod text;

/// Runs the HMM kernels on one model + observation sequence in the
/// caller's reused scratch arenas and compares them with a run in fresh
/// ones (the reuse is the point: a dirty workspace must not leak into the
/// next case). The contract is *bit*-equality — the same arithmetic runs
/// either way.
///
/// # Errors
///
/// Returns a description of the first divergence: log-likelihood bits,
/// γ/ξ table shape or entries, or the Viterbi path.
pub fn check_workspace_kernels<E: sstd_hmm::Emission>(
    hmm: &sstd_hmm::Hmm<E>,
    obs: &[E::Obs],
    em: &mut sstd_hmm::EmWorkspace,
    decode: &mut sstd_hmm::DecodeWorkspace,
) -> Result<(), String> {
    let mut fresh = sstd_hmm::EmWorkspace::new();
    let want_ll = sstd_hmm::forward_backward_into(hmm, obs, &mut fresh);
    let ll = sstd_hmm::forward_backward_into(hmm, obs, em);
    if ll.to_bits() != want_ll.to_bits() {
        return Err(format!("log-likelihood diverged: reused {ll} vs fresh {want_ll}"));
    }
    for (name, got, want) in
        [("gamma", em.gamma(), fresh.gamma()), ("xi_sum", em.xi_sum(), fresh.xi_sum())]
    {
        if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
            return Err(format!(
                "{name} is {}x{}, fresh is {}x{}",
                got.rows(),
                got.cols(),
                want.rows(),
                want.cols()
            ));
        }
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            if g.to_bits() != w.to_bits() {
                let (r, c) = (k / got.cols(), k % got.cols());
                return Err(format!("{name}[{r}][{c}] = {g}, fresh says {w}"));
            }
        }
    }
    let want_path = sstd_hmm::viterbi(hmm, obs);
    let got_path = sstd_hmm::viterbi_into(hmm, obs, decode);
    if got_path != want_path {
        return Err(format!("viterbi path diverged: workspace {got_path:?} vs {want_path:?}"));
    }
    Ok(())
}

/// Compares [`BaumWelch::train`](sstd_hmm::BaumWelch::train) against
/// [`train_into`](sstd_hmm::BaumWelch::train_into) on one starting model:
/// the trained parameters, final log-likelihood bits, iteration count,
/// and convergence flag must all agree.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_workspace_training<E>(
    trainer: &sstd_hmm::BaumWelch,
    initial: &sstd_hmm::Hmm<E>,
    obs: &[E::Obs],
    em: &mut sstd_hmm::EmWorkspace,
) -> Result<(), String>
where
    E: sstd_hmm::TrainableEmission + Clone + PartialEq + std::fmt::Debug,
{
    let reference = trainer.train(initial.clone(), obs);
    let mut model = initial.clone();
    let stats = trainer.train_into(&mut model, obs, em);
    if model != reference.model {
        return Err(format!(
            "trained models diverged:\n  workspace  {model:?}\n  allocating {:?}",
            reference.model
        ));
    }
    if stats.log_likelihood.to_bits() != reference.log_likelihood.to_bits() {
        return Err(format!(
            "final log-likelihood diverged: workspace {} vs allocating {}",
            stats.log_likelihood, reference.log_likelihood
        ));
    }
    if stats.iterations != reference.iterations || stats.converged != reference.converged {
        return Err(format!(
            "convergence diverged: workspace ({}, {}) vs allocating ({}, {})",
            stats.iterations, stats.converged, reference.iterations, reference.converged
        ));
    }
    Ok(())
}

/// The streaming engine with the **full-history refit** it had before the
/// refit horizon: every `streaming_refit` closed intervals each claim's
/// HMM is fitted on *every* ACS value since the claim appeared, and the
/// whole history is replayed through the reset decoder. Cost per claim is
/// quadratic in stream age, which is why the engine no longer does this;
/// decisions are the reference for the bounded engine on any stream it
/// must not change — at most [`sstd_core::REFIT_HORIZON`] closed
/// intervals per claim — and locate the first divergence on longer ones.
///
/// The per-claim state and its three methods are the engine's former
/// `ClaimStream`, kept as it was; around them is only what it takes to
/// feed them a time-ordered report stream and collect
/// [`TruthEstimates`](sstd_core::TruthEstimates) (no late or rejected
/// reports, telemetry or checkpoints).
#[must_use]
pub fn full_history_streaming(
    config: &sstd_core::SstdConfig,
    timeline: &sstd_types::Timeline,
    reports: &[sstd_types::Report],
) -> sstd_core::TruthEstimates {
    use sstd_core::{ClaimTruthModel, SstdConfig};
    use sstd_hmm::{EmWorkspace, Hmm, StreamingViterbi, SymmetricGaussianEmission};
    use sstd_types::{ClaimId, TruthLabel};
    use std::collections::{BTreeMap, VecDeque};

    struct ClaimStream {
        start_interval: usize,
        open_cs: f64,
        window: VecDeque<f64>,
        decoder: Option<StreamingViterbi<SymmetricGaussianEmission>>,
        model: Option<ClaimTruthModel>,
        history: Vec<f64>,
        decisions: Vec<TruthLabel>,
    }

    impl ClaimStream {
        fn maybe_refit(&mut self, config: &SstdConfig, em: &mut EmWorkspace) {
            if !config.train || config.streaming_refit == 0 {
                return;
            }
            if !self.history.len().is_multiple_of(config.streaming_refit) || self.history.is_empty()
            {
                return;
            }
            let model = ClaimTruthModel::fit_with(config, &self.history, em);
            let decoder = match &mut self.decoder {
                Some(dec) => {
                    dec.reset(model.hmm().clone());
                    dec
                }
                None => self
                    .decoder
                    .insert(StreamingViterbi::new(model.hmm().clone()).with_max_pending(64)),
            };
            for &obs in &self.history {
                let _ = decoder.push(obs);
            }
            self.model = Some(model);
        }

        fn close_interval(&mut self, config: &SstdConfig, em: &mut EmWorkspace) {
            let acs: f64 = self.open_cs + self.window.iter().sum::<f64>();
            self.advance(acs, config, em);
            self.window.push_back(self.open_cs);
            if self.window.len() >= config.window {
                self.window.pop_front();
            }
            self.open_cs = 0.0;
        }

        fn advance(&mut self, acs: f64, config: &SstdConfig, em: &mut EmWorkspace) {
            let decoder = self.decoder.get_or_insert_with(|| {
                let scale = acs.abs().max(1.0);
                let stay = config.stay_probability;
                let hmm = Hmm::new(
                    vec![0.5, 0.5],
                    vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]],
                    SymmetricGaussianEmission::new(scale, scale).expect("positive scale"),
                )
                .expect("stochastic by construction");
                StreamingViterbi::new(hmm).with_max_pending(64)
            });
            let state = decoder.push(acs);
            let label = match &self.model {
                Some(m) => m.label_of(state),
                None => {
                    if state == 0 {
                        TruthLabel::True
                    } else {
                        TruthLabel::False
                    }
                }
            };
            self.decisions.push(label);

            self.history.push(acs);
            self.maybe_refit(config, em);
        }
    }

    let mut em = EmWorkspace::new();
    let mut claims: BTreeMap<ClaimId, ClaimStream> = BTreeMap::new();
    let mut close = |claims: &mut BTreeMap<ClaimId, ClaimStream>| {
        for stream in claims.values_mut() {
            stream.close_interval(config, &mut em);
        }
    };
    let mut current = 0;
    for report in reports {
        let interval = timeline.interval_of(report.time());
        assert!(interval >= current, "the full-history reference takes time-ordered reports");
        while current < interval {
            close(&mut claims);
            current += 1;
        }
        let stream = claims.entry(report.claim()).or_insert_with(|| ClaimStream {
            start_interval: current,
            open_cs: 0.0,
            window: VecDeque::new(),
            decoder: None,
            model: None,
            history: Vec::new(),
            decisions: Vec::new(),
        });
        stream.open_cs += report.contribution_score().value();
    }
    let n = timeline.num_intervals();
    while current < n {
        close(&mut claims);
        current += 1;
    }
    let mut out = sstd_core::TruthEstimates::new(n);
    for (claim, stream) in claims {
        let mut labels = vec![TruthLabel::False; stream.start_interval];
        labels.extend(&stream.decisions);
        out.insert(claim, labels);
    }
    out
}

/// Naive sliding-window ACS recomputation (paper Eq. 4, from the
/// definition): `ACS_u^t = Σ_{max(0, t−sw+1)}^{t} cs_i`, one windowed
/// sum per interval, each computed from scratch in O(window).
///
/// Differential partner of `AcsAggregator::sequence` (O(T) rolling) and
/// `AcsAggregator::acs_at`.
///
/// # Examples
///
/// ```
/// use sstd_testkit::oracle::naive_acs;
///
/// assert_eq!(naive_acs(&[1.0, 2.0, 4.0], 2), vec![1.0, 3.0, 6.0]);
/// ```
#[must_use]
pub fn naive_acs(interval_sums: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be at least one interval");
    (0..interval_sums.len())
        .map(|t| {
            let lo = (t + 1).saturating_sub(window);
            interval_sums[lo..=t].iter().sum()
        })
        .collect()
}

/// Exact `p`-quantile of a finite sample by sorting, with linear
/// interpolation between order statistics (the "type 7" definition used
/// by R and NumPy): `h = (n−1)p`, `q = x_(⌊h⌋) + (h−⌊h⌋)(x_(⌊h⌋+1) −
/// x_(⌊h⌋))`.
///
/// This definition is continuous in `p` and symmetric under reflection
/// (`q_p(x) = −q_{1−p}(−x)`), which the differential suite checks the
/// P² estimator's small-sample path against.
///
/// Delegates to [`sstd_stats::exact_quantile`] — the one shared
/// implementation across the workspace — and is kept here so oracle
/// imports stay stable.
///
/// # Panics
///
/// Panics if `samples` is empty, contains a NaN, or `p` is outside
/// `[0, 1]`.
#[must_use]
pub fn exact_quantile(samples: &[f64], p: f64) -> f64 {
    sstd_stats::exact_quantile(samples, p)
}

/// The bin a sample falls into, by linear scan over explicit bin edges:
/// bin `k` covers `[lo + k·w, lo + (k+1)·w)` with `w = (hi − lo)/bins`,
/// out-of-range samples clamp to the end bins.
///
/// Differential partner of `Histogram::bin_of`. Near a bin edge the two
/// can legitimately disagree by one bin when the edge itself is not
/// exactly representable; [`near_bin_edge`] identifies those samples so
/// a differential test can exclude them.
///
/// # Panics
///
/// Panics if `bins == 0` or the range is not an ordered pair of finite
/// bounds.
#[must_use]
pub fn scan_bin_of(lo: f64, hi: f64, bins: usize, x: f64) -> usize {
    assert!(bins > 0 && lo.is_finite() && hi.is_finite() && lo < hi, "bad histogram shape");
    if x.is_nan() {
        return 0;
    }
    for k in 0..bins {
        let upper = lo + (hi - lo) * (k as f64 + 1.0) / bins as f64;
        if x < upper {
            return k;
        }
    }
    bins - 1
}

/// Whether `x` lies within `tol` (relative to the bin width) of any bin
/// edge of the `[lo, hi]`/`bins` histogram.
#[must_use]
pub fn near_bin_edge(lo: f64, hi: f64, bins: usize, x: f64, tol: f64) -> bool {
    if x.is_nan() {
        return false;
    }
    let width = (hi - lo) / bins as f64;
    (0..=bins).any(|k| {
        let edge = lo + (hi - lo) * k as f64 / bins as f64;
        (x - edge).abs() <= tol * width
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_acs_matches_hand_computation() {
        // window 3 over sums [1, 0, 2, 0, 1].
        assert_eq!(naive_acs(&[1.0, 0.0, 2.0, 0.0, 1.0], 3), vec![1.0, 1.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn naive_acs_window_one_is_identity() {
        let sums = [0.5, -1.0, 2.0];
        assert_eq!(naive_acs(&sums, 1), sums.to_vec());
    }

    #[test]
    fn naive_acs_huge_window_is_running_total() {
        assert_eq!(naive_acs(&[1.0, 1.0, 1.0], 99), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn exact_quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(exact_quantile(&xs, 0.5), 2.0);
        assert_eq!(exact_quantile(&xs, 0.25), 1.5);
        assert_eq!(exact_quantile(&xs, 0.0), 1.0);
        assert_eq!(exact_quantile(&xs, 1.0), 3.0);
    }

    #[test]
    fn exact_quantile_is_reflection_symmetric() {
        let xs = [3.0, -1.0, 7.0, 2.0];
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        for p in [0.1, 0.25, 0.4, 0.75, 0.9] {
            let q = exact_quantile(&xs, p);
            let mirrored = -exact_quantile(&neg, 1.0 - p);
            assert!((q - mirrored).abs() < 1e-12, "p={p}: {q} vs {mirrored}");
        }
    }

    #[test]
    fn scan_bin_clamps_and_covers() {
        assert_eq!(scan_bin_of(0.0, 1.0, 4, -3.0), 0);
        assert_eq!(scan_bin_of(0.0, 1.0, 4, 0.3), 1);
        assert_eq!(scan_bin_of(0.0, 1.0, 4, 99.0), 3);
        assert_eq!(scan_bin_of(0.0, 1.0, 4, f64::NAN), 0);
    }

    #[test]
    fn near_bin_edge_flags_boundaries_only() {
        assert!(near_bin_edge(0.0, 1.0, 10, 0.300000000001, 1e-9));
        assert!(!near_bin_edge(0.0, 1.0, 10, 0.35, 1e-9));
    }
}
