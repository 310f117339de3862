//! One benchmark run: generate the inputs from the seed, drive the
//! workload, check the outputs, and assemble the metrics.

use crate::batch::{self, BatchInput};
use crate::gen::{PostStream, ScoredStream};
use crate::metrics::{median, percentile, MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::micro;
use crate::stream::{self, StreamInput};
use crate::trace::{Span, SpanTotals, Tracer};
use sstd_core::{SstdConfig, TruthEstimates};
use sstd_obs::EventStore;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RawFirehose,
    ScoredWide,
    LongStream,
    BatchClaims,
}

/// The frozen size of a workload: claims (planted topics for posts),
/// events per interval (posts in all, or reports per claim), intervals.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub claims: usize,
    pub per_interval: usize,
    pub intervals: usize,
}

impl Workload {
    pub const ALL: [Self; 4] =
        [Self::RawFirehose, Self::ScoredWide, Self::LongStream, Self::BatchClaims];

    pub fn name(self) -> &'static str {
        match self {
            Self::RawFirehose => "raw_firehose",
            Self::ScoredWide => "scored_wide",
            Self::LongStream => "long_stream",
            Self::BatchClaims => "batch_claims",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes are calibrated so that one pass takes two to three seconds
    /// on the two-core sandbox (README, "Calibration"); `quick` is about
    /// a twentieth of the work, for smoke tests only.
    pub fn sizes(self, quick: bool) -> Sizes {
        let (claims, per_interval, intervals) = match (self, quick) {
            (Self::RawFirehose, false) => (150, 60, 100),
            (Self::RawFirehose, true) => (25, 15, 24),
            (Self::ScoredWide, false) => (5_000, 8, 50),
            (Self::ScoredWide, true) => (200, 8, 24),
            (Self::LongStream, false) => (128, 4, 600),
            (Self::LongStream, true) => (16, 4, 120),
            (Self::BatchClaims, false) => (1_400, 2, 250),
            (Self::BatchClaims, true) => (200, 2, 50),
        };
        Sizes { claims, per_interval, intervals }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

#[derive(Debug)]
pub struct RunResult {
    /// Every output check passed and every metric is present and finite.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// With tracing off: the per-layer metrics the threaded passes yield
    /// anyway (update latency, recovery). Printed and written to `--out`
    /// sets, but not part of the bounded result.
    pub extras: Vec<(MetricDef, f64)>,
    /// What failed, when `correct` is false.
    pub problems: Vec<String>,
    /// The traced pass's spans; empty with tracing off.
    pub spans: Vec<Span>,
}

/// Set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET_S` is spent, so a set-up of a fraction of a millisecond
/// still gets a steady median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 2001;
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Default)]
struct Run {
    m: Metrics,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

impl Run {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_string());
        }
    }
}

pub fn run(args: RunArgs) -> RunResult {
    let mut run = Run::default();
    match (args.workload, args.trace) {
        (Workload::BatchClaims, false) => batch_end_to_end(args, &mut run),
        (Workload::BatchClaims, true) => batch_per_layer(args, &mut run),
        (_, false) => stream_end_to_end(args, &mut run),
        (_, true) => stream_per_layer(args, &mut run),
    }
    if args.trace {
        micro::hmm_kernels(&mut run.m);
        micro::claim_refit(&mut run.m);
        micro::telemetry_store(&mut run.m);
    } else {
        run.m.set("peak_rss_mb", peak_rss_mb());
    }
    let failed = run.failed;
    run.check(failed == 0, "events failed");
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = run.m.collect(defs).unwrap_or_else(|missing| {
        run.problems.push(format!("metrics missing or not finite: {}", missing.join(", ")));
        defs.iter()
            .map(|d| (*d, run.m.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0)))
            .collect()
    });
    let extras = if args.trace {
        Vec::new()
    } else {
        PER_LAYER.iter().filter_map(|d| Some((*d, run.m.get(d.name)?))).collect()
    };
    run.check(
        extras.iter().all(|(_, v)| v.is_finite()),
        "an update latency or recovery time is missing",
    );
    RunResult {
        correct: run.problems.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        extras,
        problems: run.problems,
        spans: run.spans,
    }
}

/// Calls `pass` until the next call would overrun `seconds`; at least once.
fn repeat_for(seconds: f64, mut pass: impl FnMut()) {
    let started = Instant::now();
    let mut passes = 0.0;
    loop {
        pass();
        passes += 1.0;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes > seconds {
            break;
        }
    }
}

/// Sets up repeatedly — input generation plus whatever is built before
/// the first event — records the median as `setup_s`, and hands back the
/// last input.
fn timed_setups<I>(run: &mut Run, mut set_up: impl FnMut() -> (I, f64)) -> I {
    let (mut input, mut spent) = set_up();
    let mut took = vec![spent];
    while took.len() < MIN_SETUPS || (took.len() < MAX_SETUPS && spent < SETUP_BUDGET_S) {
        let (again, t) = set_up();
        input = again;
        spent += t;
        took.push(t);
    }
    run.m.set("setup_s", median(&took));
    input
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn generate_stream(args: RunArgs) -> StreamInput {
    let Sizes { claims, per_interval, intervals } = args.workload.sizes(args.quick);
    match args.workload {
        Workload::RawFirehose => {
            StreamInput::Posts(PostStream::generate(args.seed, claims, per_interval, intervals))
        }
        _ => {
            StreamInput::Scored(ScoredStream::generate(args.seed, claims, per_interval, intervals))
        }
    }
}

fn generate_batch(args: RunArgs) -> BatchInput {
    let Sizes { claims, per_interval, intervals } = args.workload.sizes(args.quick);
    BatchInput::generate(args.seed, claims, per_interval, intervals)
}

fn stream_end_to_end(args: RunArgs, run: &mut Run) {
    let off = Tracer::new(false);
    let input = timed_setups(run, || {
        let at = Instant::now();
        let input = generate_stream(args);
        let prepared = stream::prepare(&input, &off);
        let took = at.elapsed().as_secs_f64();
        prepared.shut_down();
        (input, took)
    });

    let reference = stream::bare_pass(&input, &off, None, false);
    let (right, decisions) = stream::score(&input, &reference.estimates, &reference.claim_of_post);
    run.m.set("accuracy", right as f64 / decisions as f64);

    let mut passes = Passes::default();
    repeat_for(args.seconds, || {
        let out = stream::threaded_pass(&input, stream::prepare(&input, &off));
        run.attempted += input.events();
        run.failed += out.failed;
        check_stream_outputs(
            run,
            "threaded server",
            &out.estimates,
            &out.updates,
            &reference.estimates,
        );
        passes.record(input.events(), out.wall_s, out.recover_s, &out.update_latency_ms);
    });
    passes.report(run, "serve.recover_s", "serve.update_p99_ms");
}

/// What the passes of one untraced run measured, pass by pass.
#[derive(Default)]
struct Passes {
    events_per_s: Vec<f64>,
    recover_s: Vec<f64>,
    p99_ms: Vec<f64>,
}

impl Passes {
    /// Adds one pass and says so on stderr.
    fn record(&mut self, events: u64, wall_s: f64, recover_s: f64, latency_ms: &[f64]) {
        self.events_per_s.push(events as f64 / wall_s);
        self.recover_s.push(recover_s);
        self.p99_ms.push(tail_ms(latency_ms));
        eprintln!(
            "pass {}: {:.0} events/s, recover {recover_s:.4} s, p99 {:.3} ms over {} samples",
            self.p99_ms.len(),
            events as f64 / wall_s,
            self.p99_ms[self.p99_ms.len() - 1],
            latency_ms.len(),
        );
    }

    /// Sets `events_per_s` and the two unbounded metrics to the medians.
    fn report(&self, run: &mut Run, recover_name: &str, p99_name: &str) {
        run.m.set("events_per_s", median(&self.events_per_s));
        run.m.set(recover_name, median(&self.recover_s));
        run.m.set(p99_name, median(&self.p99_ms));
    }
}

/// P99 of one pass's latency sample; NaN — which fails the run — when
/// the pass produced none.
fn tail_ms(latency_ms: &[f64]) -> f64 {
    if latency_ms.is_empty() {
        f64::NAN
    } else {
        percentile(latency_ms, 0.99)
    }
}

fn check_stream_outputs(
    run: &mut Run,
    who: &str,
    estimates: &TruthEstimates,
    updates: &[sstd_serve::TruthUpdate],
    reference: &TruthEstimates,
) {
    run.check(estimates == reference, &format!("{who}: estimates differ from the bare engine's"));
    let replayed = stream::replay_updates(updates, reference.num_intervals());
    run.check(
        &replayed == estimates,
        &format!("{who}: replayed updates do not rebuild its estimates"),
    );
}

fn stream_per_layer(args: RunArgs, run: &mut Run) {
    let input = generate_stream(args);
    let off = Tracer::new(false);

    // The bare engine, traced: `core` on its own, and the reference.
    let tracer = Tracer::new(true);
    let bare = stream::bare_pass(&input, &tracer, None, true);
    let bare_spans = tracer.into_spans();
    let a = SpanTotals::of(&bare_spans);

    let close_ms = |due: Option<bool>| -> Vec<f64> {
        let refit = SstdConfig::default().streaming_refit as u64;
        bare_spans
            .iter()
            .filter(|s| s.name == "core.close" && due.is_none_or(|d| (s.tag % refit == 0) == d))
            .map(|s| s.nanos() as f64 * 1e-6)
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let closes = close_ms(None);
    let pushed = bare.reports - (closes.len() as u64 - 1);
    let push_ns = a.secs("core.push") * 1e9 / pushed as f64;
    let journal_ns = a.secs("core.journal_append") * 1e9 / bare.reports as f64;
    run.m.set("core.push_ns_per_report", push_ns);
    run.m.set("core.close_p50_ms", median(&closes));
    run.m.set("core.close_p99_ms", percentile(&closes, 0.99));
    run.m.set("core.close_max_ms", percentile(&closes, 1.0));
    run.m.set("core.close_refit_due_mean_ms", mean(&close_ms(Some(true))));
    run.m.set("core.close_other_mean_ms", mean(&close_ms(Some(false))));
    run.m.set(
        "core.close_share",
        a.secs("core.close") / (a.secs("core.close") + a.secs("core.push")),
    );
    run.m.set("core.allocs_per_report", bare.engine_allocations as f64 / bare.reports as f64);
    for (probe, age) in bare.probes.iter().zip(["a10", "a50", "a90"]) {
        for (stem, value) in [
            ("checkpoint_ms", probe.checkpoint_ms),
            ("checkpoint_encode_ms", probe.checkpoint_encode_ms),
            ("checkpoint_bytes", probe.checkpoint_bytes),
            ("checkpoint_bytes_per_claim", probe.checkpoint_bytes_per_claim),
            ("restore_ms", probe.restore_ms),
            ("journal_append_ns", probe.journal_append_ns),
            ("journal_encode_ms", probe.journal_encode_ms),
            ("journal_decode_ms", probe.journal_decode_ms),
        ] {
            run.m.set(&format!("core.{stem}_{age}"), value);
        }
    }

    // Telemetry's cost: the bare engine without and with a store, taking
    // turns, the fastest of four each (a pass is only ever slowed down).
    let (mut without, mut with) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        without = without.min(stream::bare_pass(&input, &off, None, false).engine_s);
        let telemetered = stream::bare_pass(&input, &off, Some(Arc::new(EventStore::new())), false);
        run.check(
            telemetered.estimates == bare.estimates,
            "telemetry changed the bare engine's estimates",
        );
        with = with.min(telemetered.engine_s);
    }
    run.m.set("obs.telemetry_share", (with - without) / without);

    // The deterministic service, traced and untraced taking turns; the
    // first traced pass is the one whose spans are kept.
    let tracer = Tracer::new(true);
    let service = stream::service_pass(&input, &tracer);
    let spans = tracer.into_spans();
    let b = SpanTotals::of(&spans);
    check_stream_outputs(run, "service", &service.estimates, &service.updates, &bare.estimates);
    run.failed += service.failed;
    let (mut traced_s, mut untraced_s) = (service.wall_s, f64::INFINITY);
    for _ in 0..2 {
        let untraced = stream::service_pass(&input, &off);
        run.check(untraced.estimates == bare.estimates, "untraced service: estimates differ");
        untraced_s = untraced_s.min(untraced.wall_s);
        traced_s = traced_s.min(stream::service_pass(&input, &Tracer::new(true)).wall_s);
    }

    let pumped = (service.reports - service.closes) as f64;
    let pump_ns = b.secs("serve.pump") * 1e9 / pumped;
    let updates = service.updates.len() as f64;
    run.m.set("serve.try_ingest_ns", b.secs("serve.try_ingest") * 1e9 / service.reports as f64);
    run.m.set("serve.pump_ns_per_report", pump_ns);
    run.m.set("serve.overhead_ns_per_report", pump_ns - journal_ns - push_ns);
    run.m.set(
        "serve.emit_us_per_close",
        (b.secs("serve.pump_close") - service.engine_close_s) * 1e6 / service.closes as f64,
    );
    run.m.set("serve.updates_out", updates);
    run.m.set("serve.updates_per_close", updates / (service.closes + 1) as f64);
    run.m.set("serve.drain_ns_per_update", b.secs("serve.drain") * 1e9 / updates.max(1.0));
    run.m.set("serve.checkpoint_ms", b.secs("serve.checkpoint") * 1e3);
    run.m.set("serve.crash_recover_ms", b.secs("serve.crash_recover") * 1e3);
    run.m.set("obs.events_recorded", service.events_recorded as f64);

    // Where the traced wall-clock went. `serve` calls into `core`, which
    // cannot be seen from outside: interval closes are taken from the
    // shard's own ticks, pushes and journal appends from the bare
    // engine's spans over the same reports, and a checkpoint or a crash
    // recovery is `core` work from end to end.
    let wall = service.wall_s;
    let (text_s, serve_s) = (b.self_secs("text."), b.self_secs("serve."));
    let core_s = (service.engine_close_s
        + (push_ns + journal_ns) * 1e-9 * service.reports as f64
        + b.secs("serve.checkpoint")
        + b.secs("serve.crash_recover"))
    .min(serve_s);
    let unattributed = 1.0 - (text_s + serve_s + b.self_secs("bench.generate")) / wall;
    run.m.set("trace.text_share", text_s / wall);
    run.m.set("trace.core_share", core_s / wall);
    run.m.set("trace.serve_share", (serve_s - core_s) / wall);
    run.m.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    run.m.set("trace.unattributed_share", unattributed);
    run.check(
        args.quick || unattributed < 0.05,
        "layer spans cover less than 95 % of the traced wall-clock",
    );

    // Three passes through the threaded server: its estimates, the update
    // latencies and the recovery only it can show, and its queue counts.
    let (mut p50, mut p99, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let threaded = stream::threaded_pass(&input, stream::prepare(&input, &off));
        check_stream_outputs(
            run,
            "threaded server",
            &threaded.estimates,
            &threaded.updates,
            &bare.estimates,
        );
        run.failed += threaded.failed;
        p50.push(percentile(&threaded.update_latency_ms, 0.5));
        p99.push(tail_ms(&threaded.update_latency_ms));
        recover.push(threaded.recover_s);
        run.m.set("serve.backpressure_retries", threaded.backpressure_retries as f64);
        run.m.set("serve.max_queue_depth", threaded.max_queue_depth as f64);
    }
    run.attempted = input.events();
    run.m.set("serve.update_p50_ms", median(&p50));
    run.m.set("serve.update_p99_ms", median(&p99));
    run.m.set("serve.recover_s", median(&recover));

    if let StreamInput::Posts(posts) = &input {
        let n = posts.posts.len() as f64;
        let (claims, processed, dropped) = service.text;
        run.m.set("text.posts_in", n);
        run.m.set("text.reports_out", processed as f64);
        run.m.set("text.dropped_share", dropped as f64 / n);
        run.m.set("text.claims", claims as f64);
        run.m.set("text.allocs_per_post", service.text_allocations as f64 / n);
        let layer = stream::text_layer(posts);
        run.m.set("text.process_us_per_post", layer.process_us_per_post);
        let stages = [
            "text.filter_us_per_post",
            "text.attitude_us_per_post",
            "text.cluster_us_per_post",
            "text.uncertainty_us_per_post",
            "text.independence_us_per_post",
        ];
        for (name, us) in stages.into_iter().zip(layer.stage_us_per_post) {
            run.m.set(name, us);
        }
        run.m.set("text.dup_window_len_mean", layer.dup_window_len_mean);
        let stage_sum: f64 = layer.stage_us_per_post.iter().sum();
        run.check(
            args.quick || (stage_sum / layer.process_us_per_post - 1.0).abs() < 0.05,
            "the text stage split is more than 5 % off ReportPipeline::process",
        );
    }
    for idle in ["text.", "core.batch_", "core.acs_", "runtime.", "trace.runtime_share"] {
        run.m.idle_layer(idle);
    }
    run.spans = spans;
}

fn batch_end_to_end(args: RunArgs, run: &mut Run) {
    let input = timed_setups(run, || {
        let at = Instant::now();
        let input = generate_batch(args);
        let backends = batch::prepare();
        let took = at.elapsed().as_secs_f64();
        drop(backends);
        (input, took)
    });

    let reference = batch::reference(&input);
    let (right, decisions) = batch::score(&input, &reference);
    run.m.set("accuracy", right as f64 / decisions as f64);

    let mut passes = Passes::default();
    repeat_for(args.seconds, || {
        let out = batch::batch_pass(&input, batch::prepare());
        run.attempted += input.events();
        run.failed += out.failed;
        run.check(out.estimates == reference, "run_distributed differs from SstdEngine::run");
        run.check(out.resumed == reference, "resume_distributed differs from SstdEngine::run");
        passes.record(input.events(), out.wall_s, out.recover_s, &out.decided_after_ms);
    });
    passes.report(run, "runtime.resume_s", "runtime.decided_p99_ms");
}

fn batch_per_layer(args: RunArgs, run: &mut Run) {
    let input = generate_batch(args);
    let reference = batch::reference(&input);
    let claims = input.trace.num_claims() as f64;

    let tracer = Tracer::new(true);
    let layers = batch::batch_layers(&input, &tracer);
    let spans = tracer.into_spans();
    let t = SpanTotals::of(&spans);
    let (_, untraced_serial_s) = batch::serial_pass(&input, &Tracer::new(false));
    let pass = batch::batch_pass(&input, batch::prepare());
    run.check(pass.estimates == reference, "run_distributed differs from SstdEngine::run");
    run.check(pass.resumed == reference, "resume_distributed differs from SstdEngine::run");
    run.failed += pass.failed;
    run.m.set("runtime.decided_p99_ms", tail_ms(&pass.decided_after_ms));
    run.m.set("runtime.resume_s", pass.recover_s);
    run.check(layers.serial_estimates == reference, "Σ run_claim differs from SstdEngine::run");
    run.check(
        layers.two_worker_estimates == reference,
        "run_distributed differs from SstdEngine::run",
    );
    run.attempted = input.events();

    let claim_s = t.secs("core.run_claim");
    run.m.set("core.batch_claim_us", claim_s * 1e6 / claims);
    run.m.set("core.batch_scan_share", t.secs("core.scan") / claim_s);
    run.m.set("core.acs_ns_per_report", t.secs("core.acs") * 1e9 / input.events() as f64);
    run.m.set("runtime.tasks", layers.tasks as f64);
    run.m.set("runtime.attempts", layers.attempts as f64);
    run.m.set("runtime.retries", layers.retries as f64);
    run.m.set("runtime.overhead_share", (layers.one_worker_s - claim_s) / layers.one_worker_s);
    run.m.set(
        "runtime.parallel_efficiency",
        layers.one_worker_s / (batch::WORKERS as f64 * layers.two_worker_s),
    );
    // The one-worker job is the traced whole: what is not `run_claim`
    // is the runtime's.
    let core_share = (claim_s / layers.one_worker_s).min(1.0);
    let unattributed = t.self_secs("bench.pass") / layers.serial_wall_s;
    run.m.set("trace.core_share", core_share);
    run.m.set("trace.runtime_share", 1.0 - core_share);
    run.m.set(
        "trace.overhead_share",
        (layers.serial_wall_s - untraced_serial_s) / untraced_serial_s,
    );
    run.m.set("trace.unattributed_share", unattributed);
    run.check(
        args.quick || unattributed < 0.05,
        "layer spans cover less than 95 % of the traced wall-clock",
    );
    for idle in ["text.", "serve.", "core.", "obs.events_recorded", "obs.telemetry_share", "trace."]
    {
        run.m.idle_layer(idle);
    }
    run.spans = spans;
}
