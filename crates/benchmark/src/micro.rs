//! Workload-independent layer timings: the HMM kernels, a claim refit,
//! and the telemetry store, each on a fixed input.
//!
//! The HMM protocol is the frozen one of `crates/bench/src/bin/kernels.rs`
//! (xorshift observations whose sign flips every 25 steps, a two-state
//! stay-0.9 model with µ = 4.0 and σ = 1.5, Baum–Welch at 25 iterations
//! and tolerance 0, best of three), so `BENCH_PR5.json` and
//! `BENCH_PR7.json` stay comparable with what is printed here.

use crate::metrics::Metrics;
use sstd_core::{ClaimTruthModel, SstdConfig};
use sstd_hmm::{
    viterbi_into, BaumWelch, DecodeWorkspace, EmWorkspace, Hmm, StreamingViterbi,
    SymmetricGaussianEmission,
};
use sstd_obs::{EventStore, StreamTick};
use std::hint::black_box;
use std::time::Instant;

fn observation_sequence(len: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|t| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            let sign = if (t / 25) % 2 == 0 { 1.0 } else { -1.0 };
            sign * 4.0 + noise
        })
        .collect()
}

fn truth_hmm() -> Hmm<SymmetricGaussianEmission> {
    Hmm::new(
        vec![0.5, 0.5],
        vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        SymmetricGaussianEmission::new(4.0, 1.5).expect("valid emission"),
    )
    .expect("valid model")
}

/// Best-of-3 wall time of `f`, in microseconds.
fn best_us(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let at = Instant::now();
            f();
            at.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn hmm_kernels(m: &mut Metrics) {
    let trainer = BaumWelch::default().max_iterations(25).tolerance(0.0);
    let mut em = EmWorkspace::new();
    for (name, len) in [("hmm.em_us_t1k", 1_000), ("hmm.em_us_t10k", 10_000)] {
        let obs = observation_sequence(len);
        m.set(
            name,
            best_us(|| {
                let mut model = truth_hmm();
                black_box(trainer.train_into(&mut model, &obs, &mut em));
            }),
        );
    }
    let obs = observation_sequence(10_000);
    let hmm = truth_hmm();
    let mut decode = DecodeWorkspace::new();
    m.set(
        "hmm.viterbi_us_t10k",
        best_us(|| {
            black_box(viterbi_into(&hmm, &obs, &mut decode).len());
        }),
    );
    let mut streaming = StreamingViterbi::new(truth_hmm()).with_max_pending(64);
    m.set(
        "hmm.stream_push_us_t10k",
        best_us(|| {
            streaming.reset(truth_hmm());
            for &o in &obs {
                black_box(streaming.push(o));
            }
        }),
    );
}

/// `ClaimTruthModel::fit_with` under the default config, which is what a
/// streaming refit and a batch claim both call.
pub fn claim_refit(m: &mut Metrics) {
    let config = SstdConfig::default();
    let mut em = EmWorkspace::new();
    for (name, len) in [("core.refit_ms_t100", 100), ("core.refit_ms_t1k", 1_000)] {
        let acs = observation_sequence(len);
        let us = best_us(|| {
            black_box(ClaimTruthModel::fit_with(&config, &acs, &mut em).is_trained());
        });
        m.set(name, us * 1e-3);
    }
}

/// Recording a stream tick, and a percentile query over 100 000 of them.
pub fn telemetry_store(m: &mut Metrics) {
    const TICKS: u64 = 100_000;
    let store = EventStore::new();
    let at = Instant::now();
    for interval in 0..TICKS {
        store.record_stream(StreamTick {
            interval,
            reports: 100,
            active_claims: 10,
            window_occupancy: 2.0,
            decode_latency: (interval % 997) as f64 * 1e-6,
            decision_flips: 1,
            late_reports: 0,
            rejected_reports: 0,
        });
    }
    m.set("obs.record_stream_ns", at.elapsed().as_secs_f64() * 1e9 / TICKS as f64);
    m.set(
        "obs.query_percentile_us",
        best_us(|| {
            let q = store.query().stream();
            black_box(q.percentile(0.99, |e| e.stream_tick().map(|t| t.decode_latency)));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_metric_is_set() {
        let mut m = Metrics::default();
        hmm_kernels(&mut m);
        claim_refit(&mut m);
        telemetry_store(&mut m);
        for name in [
            "hmm.em_us_t1k",
            "hmm.em_us_t10k",
            "hmm.viterbi_us_t10k",
            "hmm.stream_push_us_t10k",
            "core.refit_ms_t100",
            "core.refit_ms_t1k",
            "obs.record_stream_ns",
            "obs.query_percentile_us",
        ] {
            assert!(m.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
