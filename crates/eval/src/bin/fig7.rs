//! Regenerates paper Fig. 7 (SSTD speedup vs. workers).
//!
//! Usage: `cargo run -p sstd-eval --bin fig7 [-- --quick] [-- --json PATH]`
//!
//! `--quick` shrinks the sweep for CI smoke runs; `--json PATH` writes the
//! measured points as a `BENCH_*.json`-compatible trajectory via
//! `sstd_obs::BenchReport`.

use sstd_eval::exp::fig7;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json requires a path").clone());

    // Sizes bracket the paper's largest real event (16.9M tweets,
    // Super Bowl 2016); --quick keeps one mid-size curve for CI.
    let (sizes, workers): (Vec<u64>, Vec<usize>) = if quick {
        (vec![1_000_000, 16_900_000], vec![1, 4, 16])
    } else {
        (vec![100_000, 1_000_000, 4_000_000, 16_900_000, 50_000_000], vec![1, 2, 4, 8, 16, 32, 64])
    };
    let pts = fig7::run(&sizes, &workers);
    print!("{}", fig7::format(&pts));
    // One trajectory point per (size, workers) pair — six under
    // `--quick`; a sweep that lost one fails here, not in whoever reads
    // the JSON.
    let report = fig7::bench_report(&pts);
    if report.len() != sizes.len() * workers.len() {
        eprintln!("{} points for a {}x{} sweep", report.len(), sizes.len(), workers.len());
        std::process::exit(1);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write bench JSON");
        eprintln!("wrote {} points to {path}", report.len());
    }
}
