//! The one benchmark for SSTD: raw post → `TruthUpdate`, four workloads,
//! a per-layer trace. See `README.md` beside this crate.
//!
//! ```text
//! sstd-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>]
//!                    [--trace [0|1]] [--quick] [--out <file>]
//! sstd-benchmark compare <setA> <setB> [--spec <BENCHMARK.json>]
//! ```

mod batch;
mod compare;
mod gen;
mod json;
mod metrics;
mod micro;
mod run;
mod stream;
mod trace;

use run::{RunArgs, RunResult, Workload};
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

/// Measured seconds per run unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` gives as `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

struct RunCli {
    workload: Option<Workload>,
    args: RunArgs,
    out: Option<String>,
}

fn parse_run(
    mut argv: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<RunCli, String> {
    let mut cli = RunCli {
        workload: None,
        args: RunArgs {
            workload: Workload::RawFirehose,
            seed: 2017,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workload = Some(known);
            }
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.args.seconds = seconds;
            }
            "--out" => cli.out = Some(value()?),
            "--quick" => cli.args.quick = true,
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => match argv.next_if(|v| v == "0" || v == "1") {
                Some(v) => cli.args.trace = v == "1",
                None => cli.args.trace = true,
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// A result line. Printed, it is the line the driver reads: exactly
/// `correct`, `attempted`, `failed` and `metrics`. Written to a set, it
/// carries `front` (workload, seed) and the unbounded `extras` as well.
fn result_json(result: &RunResult, front: &str, with_extras: bool) -> String {
    let extras = if with_extras { result.extras.as_slice() } else { &[] };
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .chain(extras)
        .map(|(def, value)| {
            format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{{front}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

fn run_one(cli: &RunCli, workload: Workload) -> Result<bool, String> {
    let args = RunArgs { workload, ..cli.args };
    let result = run::run(args);
    for (def, value) in result.metrics.iter().chain(&result.extras) {
        println!("{}\t{}\t{value}\t{}", workload.name(), def.name, def.unit);
    }
    for problem in &result.problems {
        eprintln!("{}: CHECK FAILED: {problem}", workload.name());
    }
    if let Some(out) = &cli.out {
        let front = format!(
            "\"workload\":\"{}\",\"seed\":{},\"trace\":{},",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{out}: {e}"))?;
        writeln!(file, "{}", result_json(&result, &front, true))
            .map_err(|e| format!("{out}: {e}"))?;
        if args.trace {
            let path = format!("{out}.{}.trace.json", workload.name());
            std::fs::write(&path, trace::spans_to_json(&result.spans))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    println!("{}", result_json(&result, "", false));
    Ok(result.correct)
}

/// Without `--workload`, every workload runs in a process of its own, so
/// each reports its own peak memory.
fn run_all(cli: &RunCli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", workload.name()]);
        child.args([
            "--seed",
            &cli.args.seed.to_string(),
            "--seconds",
            &cli.args.seconds.to_string(),
        ]);
        child.args(["--trace", if cli.args.trace { "1" } else { "0" }]);
        if cli.args.quick {
            child.arg("--quick");
        }
        if let Some(out) = &cli.out {
            child.args(["--out", out]);
        }
        let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = match argv.next().as_deref() {
        Some("run") => parse_run(argv).and_then(|cli| match cli.workload {
            Some(workload) => run_one(&cli, workload),
            None => run_all(&cli),
        }),
        Some("compare") => {
            let mut paths = Vec::new();
            let mut spec = "BENCHMARK.json".to_string();
            while let Some(arg) = argv.next() {
                match (arg.as_str(), argv.peek()) {
                    ("--spec", Some(_)) => spec = argv.next().expect("peeked"),
                    _ => paths.push(arg),
                }
            }
            match paths.as_slice() {
                [a, b] => match compare::compare(a, b, &spec) {
                    Ok(code) => return ExitCode::from(code as u8),
                    Err(e) => Err(e),
                },
                _ => Err("compare takes two result sets".to_string()),
            }
        }
        _ => Err("usage: sstd-benchmark run|compare ... (see README.md)".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sstd-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The smoke test: every workload, quick, both modes, in this process —
/// and `BENCHMARK.json` held against the names, units and directions the
/// code prints.
#[cfg(test)]
mod smoke {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};

    fn spec() -> Json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = dir
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json sits at the root of the repository");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        let text =
            |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        spec.get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    }

    fn coded(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.better == Better::Higher { "higher" } else { "lower" };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_code_prints() {
        let spec = spec();
        let keys: Vec<&str> = spec.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(listed(&spec, "end_to_end"), coded(END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), coded(PER_LAYER));
        for metric in spec.get("end_to_end").unwrap().as_array() {
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(spec.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn every_workload_runs_quick_and_checks_out() {
        for workload in Workload::ALL {
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let args = RunArgs { workload, seed: 5, seconds: 0.05, trace, quick: true };
                let result = run::run(args);
                assert!(result.correct, "{} trace={trace}: {:?}", workload.name(), result.problems);
                assert!(result.attempted >= 1 && result.failed == 0);
                let names: Vec<&str> = result.metrics.iter().map(|(d, _)| d.name).collect();
                assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
                assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
                if !trace {
                    assert!(result
                        .metrics
                        .iter()
                        .all(|(d, v)| *v > 0.0 || panic!("{} is 0", d.name)));
                }
                assert_eq!(result.spans.is_empty(), !trace);
                assert_eq!(result.extras.is_empty(), trace);
                let line = result_json(&result, "", false);
                let parsed = Json::parse(&line).expect("the result line is JSON");
                assert_eq!(parsed.as_object().unwrap().len(), 4);
                assert_eq!(parsed.get("metrics").unwrap().as_object().unwrap().len(), defs.len());
            }
        }
    }
}
