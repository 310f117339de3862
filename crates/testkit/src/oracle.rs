//! Brute-force reference oracles: obviously correct, unashamedly slow.
//!
//! Each oracle recomputes from the definition what a production code
//! path computes incrementally or by dynamic programming, so the
//! differential suites can compare the two on thousands of seeded cases.
//! The HMM oracles (exhaustive Viterbi over all `2^T` sequences,
//! direct-sum likelihood, enumerated posteriors) live in [`hmm`], beside
//! the EM loops the flat-slice kernel replaced; the linear-scan text
//! stages are under [`text`], and [`WalkEveryClaim`] is a shard's change
//! stream computed by visiting every claim at every close.

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
/// γ length or entries, Σξ entries, or the Viterbi path.
pub fn check_workspace_kernels(
    hmm: &sstd_hmm::Hmm,
    obs: &[f64],
    em: &mut sstd_hmm::EmWorkspace,
    decode: &mut sstd_hmm::DecodeWorkspace,
) -> Result<(), String> {
    let mut fresh = sstd_hmm::EmWorkspace::new();
    let want_ll = sstd_hmm::forward_backward_into(hmm, obs, &mut fresh);
    let ll = sstd_hmm::forward_backward_into(hmm, obs, em);
    if ll.to_bits() != want_ll.to_bits() {
        return Err(format!("log-likelihood diverged: reused {ll} vs fresh {want_ll}"));
    }
    if em.gamma().len() != fresh.gamma().len() {
        return Err(format!(
            "gamma has {} rows, fresh has {}",
            em.gamma().len(),
            fresh.gamma().len()
        ));
    }
    for (name, got, want) in [
        ("gamma", em.gamma().as_flattened(), fresh.gamma().as_flattened()),
        ("xi_sum", em.xi_sum().as_flattened(), fresh.xi_sum().as_flattened()),
    ] {
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                let (r, c) = (k / 2, k % 2);
                return Err(format!("{name}[{r}][{c}] = {g}, fresh says {w}"));
            }
        }
    }
    let want_path =
        sstd_hmm::viterbi_into(hmm, obs, &mut sstd_hmm::DecodeWorkspace::new()).to_vec();
    let got_path = sstd_hmm::viterbi_into(hmm, obs, decode);
    if got_path != want_path {
        return Err(format!("viterbi path diverged: reused {got_path:?} vs fresh {want_path:?}"));
    }
    Ok(())
}

/// Trains one starting model with [`BaumWelch::train_into`](sstd_hmm::BaumWelch::train_into)
/// in the caller's reused workspace and in a fresh one: the trained
/// parameters, final log-likelihood bits, iteration count, and
/// convergence flag must all agree.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_workspace_training(
    trainer: &sstd_hmm::BaumWelch,
    initial: &sstd_hmm::Hmm,
    obs: &[f64],
    em: &mut sstd_hmm::EmWorkspace,
) -> Result<(), String> {
    let mut want = initial.clone();
    let want_stats = trainer.train_into(&mut want, obs, &mut sstd_hmm::EmWorkspace::new());
    let mut model = initial.clone();
    let stats = trainer.train_into(&mut model, obs, em);
    if model != want {
        return Err(format!("trained models diverged:\n  reused {model:?}\n  fresh  {want:?}"));
    }
    if stats.log_likelihood.to_bits() != want_stats.log_likelihood.to_bits() {
        return Err(format!(
            "final log-likelihood diverged: reused {} vs fresh {}",
            stats.log_likelihood, want_stats.log_likelihood
        ));
    }
    if stats.iterations != want_stats.iterations || stats.converged != want_stats.converged {
        return Err(format!(
            "convergence diverged: reused ({}, {}) vs fresh ({}, {})",
            stats.iterations, stats.converged, want_stats.iterations, want_stats.converged
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
/// `ClaimStream`, kept as it was except that, like the engine, it refits
/// whether or not `train` is set (without training a refit is the
/// re-scaled initial model); around them is only what it takes to
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
        decoder: Option<StreamingViterbi>,
        model: Option<ClaimTruthModel>,
        history: Vec<f64>,
        decisions: Vec<TruthLabel>,
    }

    impl ClaimStream {
        fn maybe_refit(&mut self, config: &SstdConfig, em: &mut EmWorkspace) {
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
                None => self.decoder.insert(StreamingViterbi::new(model.hmm().clone())),
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
                StreamingViterbi::new(hmm)
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

/// One entry of a reference change stream: `claim`'s decided label from
/// `interval` on became `new`, having been `old` (`None` for its first
/// decision). The `k`-th change of a stream carries version `k + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Change {
    /// The claim whose label changed.
    pub claim: sstd_types::ClaimId,
    /// The interval the new label takes effect.
    pub interval: usize,
    /// The label before (`None` for the claim's first decision).
    pub old: Option<sstd_types::TruthLabel>,
    /// The new label.
    pub new: sstd_types::TruthLabel,
}

/// The change stream of one `sstd-serve` shard as it was emitted before
/// the engine listed its changed claims: after every push that closes an
/// interval, *every* claim is walked in id order from its cursor, and a
/// [`Change`] is written wherever its label differs from the last one
/// written. At [`finish`](Self::finish) the tail is walked the same way,
/// a claim first decided there starting at its first interval.
///
/// Differential partner of the shard's `emit_committed`, which visits the
/// changed claims only.
#[derive(Debug, Default)]
pub struct WalkEveryClaim {
    /// Per claim: intervals emitted through, and the last label emitted.
    cursors:
        std::collections::BTreeMap<sstd_types::ClaimId, (usize, Option<sstd_types::TruthLabel>)>,
    seen_interval: usize,
    changes: Vec<Change>,
}

impl WalkEveryClaim {
    /// Emits what `engine` committed since the last call, if it closed an
    /// interval since then. Call it after every push.
    pub fn observe(&mut self, engine: &sstd_core::StreamingSstd) {
        if engine.current_interval() <= self.seen_interval {
            return;
        }
        self.seen_interval = engine.current_interval();
        for claim in engine.claim_ids() {
            let (start, labels) = engine.decisions(claim).expect("listed claims have state");
            self.emit(claim, start, labels);
        }
    }

    /// Closes `engine`'s remaining intervals, emits the tail, and returns
    /// its estimates with the whole change stream.
    #[must_use]
    pub fn finish(
        mut self,
        engine: sstd_core::StreamingSstd,
    ) -> (sstd_core::TruthEstimates, Vec<Change>) {
        for claim in engine.claim_ids() {
            let start = engine.decisions(claim).expect("listed claims have state").0;
            self.cursors.entry(claim).or_insert((start, None));
        }
        let estimates = engine.finish();
        for (claim, labels) in estimates.iter() {
            self.emit(claim, 0, labels);
        }
        (estimates, self.changes)
    }

    fn emit(
        &mut self,
        claim: sstd_types::ClaimId,
        start: usize,
        labels: &[sstd_types::TruthLabel],
    ) {
        let (emitted, last) = self.cursors.entry(claim).or_default();
        for (idx, &label) in labels.iter().enumerate().skip(emitted.saturating_sub(start)) {
            if *last != Some(label) {
                self.changes.push(Change { claim, interval: start + idx, old: *last, new: label });
                *last = Some(label);
            }
        }
        *emitted = (*emitted).max(start + labels.len());
    }
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
}
