//! The metric vocabulary: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` lists the same names; the smoke
//! test holds the two together.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("events_per_s", "1/s"),
    higher("accuracy", "share"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers; printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // text
    lower("text.process_us_per_post", "us"),
    lower("text.filter_us_per_post", "us"),
    lower("text.attitude_us_per_post", "us"),
    lower("text.cluster_us_per_post", "us"),
    lower("text.uncertainty_us_per_post", "us"),
    lower("text.independence_us_per_post", "us"),
    higher("text.posts_in", "count"),
    higher("text.reports_out", "count"),
    lower("text.dropped_share", "share"),
    lower("text.claims", "count"),
    lower("text.dup_window_len_mean", "count"),
    lower("text.allocs_per_post", "count"),
    // core, streaming
    lower("core.push_ns_per_report", "ns"),
    lower("core.close_p50_ms", "ms"),
    lower("core.close_p99_ms", "ms"),
    lower("core.close_max_ms", "ms"),
    lower("core.close_refit_due_mean_ms", "ms"),
    lower("core.close_other_mean_ms", "ms"),
    lower("core.close_share", "share"),
    lower("core.refit_ms_t100", "ms"),
    lower("core.refit_ms_t1k", "ms"),
    lower("core.allocs_per_report", "count"),
    // core, durability, at 10 %, 50 % and 90 % of the stream
    lower("core.checkpoint_ms_a10", "ms"),
    lower("core.checkpoint_ms_a50", "ms"),
    lower("core.checkpoint_ms_a90", "ms"),
    lower("core.checkpoint_encode_ms_a10", "ms"),
    lower("core.checkpoint_encode_ms_a50", "ms"),
    lower("core.checkpoint_encode_ms_a90", "ms"),
    lower("core.checkpoint_bytes_a10", "B"),
    lower("core.checkpoint_bytes_a50", "B"),
    lower("core.checkpoint_bytes_a90", "B"),
    lower("core.checkpoint_bytes_per_claim_a10", "B"),
    lower("core.checkpoint_bytes_per_claim_a50", "B"),
    lower("core.checkpoint_bytes_per_claim_a90", "B"),
    lower("core.restore_ms_a10", "ms"),
    lower("core.restore_ms_a50", "ms"),
    lower("core.restore_ms_a90", "ms"),
    lower("core.journal_append_ns_a10", "ns"),
    lower("core.journal_append_ns_a50", "ns"),
    lower("core.journal_append_ns_a90", "ns"),
    lower("core.journal_encode_ms_a10", "ms"),
    lower("core.journal_encode_ms_a50", "ms"),
    lower("core.journal_encode_ms_a90", "ms"),
    lower("core.journal_decode_ms_a10", "ms"),
    lower("core.journal_decode_ms_a50", "ms"),
    lower("core.journal_decode_ms_a90", "ms"),
    // core, batch
    lower("core.batch_claim_us", "us"),
    lower("core.batch_scan_share", "share"),
    lower("core.acs_ns_per_report", "ns"),
    // hmm kernels, the frozen protocol of crates/bench/src/bin/kernels.rs
    lower("hmm.em_us_t1k", "us"),
    lower("hmm.em_us_t10k", "us"),
    lower("hmm.viterbi_us_t10k", "us"),
    lower("hmm.stream_push_us_t10k", "us"),
    // serve
    lower("serve.try_ingest_ns", "ns"),
    lower("serve.pump_ns_per_report", "ns"),
    lower("serve.overhead_ns_per_report", "ns"),
    lower("serve.emit_us_per_close", "us"),
    higher("serve.updates_out", "count"),
    higher("serve.updates_per_close", "count"),
    lower("serve.drain_ns_per_update", "ns"),
    lower("serve.checkpoint_ms", "ms"),
    lower("serve.crash_recover_ms", "ms"),
    lower("serve.update_p50_ms", "ms"),
    lower("serve.update_p99_ms", "ms"),
    lower("serve.recover_s", "s"),
    lower("serve.backpressure_retries", "count"),
    lower("serve.max_queue_depth", "count"),
    // obs
    lower("obs.record_stream_ns", "ns"),
    lower("obs.query_percentile_us", "us"),
    higher("obs.events_recorded", "count"),
    lower("obs.telemetry_share", "share"),
    // runtime
    higher("runtime.tasks", "count"),
    lower("runtime.attempts", "count"),
    lower("runtime.retries", "count"),
    lower("runtime.overhead_share", "share"),
    higher("runtime.parallel_efficiency", "share"),
    lower("runtime.decided_p99_ms", "ms"),
    lower("runtime.resume_s", "s"),
    // where the traced time went, and what tracing cost
    lower("trace.text_share", "share"),
    lower("trace.core_share", "share"),
    lower("trace.serve_share", "share"),
    lower("trace.runtime_share", "share"),
    lower("trace.overhead_share", "share"),
    lower("trace.unattributed_share", "share"),
];

/// The values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be a listed metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Sets every per-layer metric under `prefix` that has no value yet
    /// to 0: the layer did nothing on this workload.
    pub fn idle_layer(&mut self, prefix: &str) {
        for def in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
            self.0.entry(def.name).or_insert(0.0);
        }
    }

    /// The values for `defs`, in their order; the names that are missing
    /// or not finite come back as the error.
    pub fn collect(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, Vec<&'static str>> {
        let bad: Vec<&'static str> = defs
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect();
        if bad.is_empty() {
            Ok(defs.iter().map(|d| (*d, self.0[d.name])).collect())
        } else {
            Err(bad)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-quantile by nearest rank (`p` in `(0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads computed here match the driver's.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn collect_names_what_is_missing() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("accuracy", f64::NAN);
        let missing = m.collect(&END_TO_END[..3]).unwrap_err();
        assert_eq!(missing, ["events_per_s", "accuracy"]);
        m.idle_layer("text.");
        assert_eq!(m.get("text.claims"), Some(0.0));
    }
}
