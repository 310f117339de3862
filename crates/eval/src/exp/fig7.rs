//! Fig. 7: SSTD speedup vs. number of workers for growing data sizes.
//!
//! `Speedup(N)` is the ratio of serial execution time to execution time
//! on `N` workers. The paper pushes trace sizes past the largest
//! real-world events (16.9M tweets, Super Bowl 2016) and shows the
//! speedup curve improving with data size — large traces amortize the
//! per-task initialization and tail-straggler overheads that cap small
//! traces well below the ideal `N`.
//!
//! The measurement is written against [`ExecutionBackend`], so the same
//! sweep runs on the virtual-clock DES (the default, [`run`]) or on real
//! OS threads ([`run_on`] with a `ThreadedEngine` factory) with no
//! backend-specific forks.

use sstd_runtime::{Cluster, DesEngine, ExecutionBackend, ExecutionModel, JobId, TaskSpec};

/// One measured point of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Trace size in tweets.
    pub data_size: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// `makespan(1 worker) / makespan(workers)`.
    pub speedup: f64,
}

/// Tweets per task — the chunk size the Dynamic Task Manager uses when
/// splitting TD jobs.
const CHUNK: u64 = 25_000;

/// The simulated TD task cost model (per-task init time and per-tweet
/// cost, calibrated to the SSTD engine's measured throughput order).
/// Shared by the sweep, the benchmarks, and threaded backends via
/// `ThreadedEngine::set_simulation`.
#[must_use]
pub fn model() -> ExecutionModel {
    ExecutionModel::new(0.3, 4.0e-5, 4.8e-5)
}

/// Makespan of one TD job of `data` tweets on `backend`, in the backend's
/// native seconds. Submits `data / 25k` equal chunk tasks through the
/// trait and runs them to completion.
pub fn makespan<B: ExecutionBackend + ?Sized>(backend: &mut B, data: u64) -> f64 {
    let num_tasks = data.div_ceil(CHUNK).max(1);
    let per_task = data as f64 / num_tasks as f64;
    for _ in 0..num_tasks {
        backend.submit(TaskSpec::new(JobId::new(0), per_task));
    }
    backend.run_to_completion().makespan
}

/// Runs the sweep on the DES: every data size × every worker count.
///
/// # Examples
///
/// ```
/// use sstd_eval::exp::fig7;
///
/// let pts = fig7::run(&[100_000], &[1, 4]);
/// assert_eq!(pts.len(), 2);
/// let s4 = pts.iter().find(|p| p.workers == 4).unwrap();
/// assert!(s4.speedup > 1.0);
/// ```
#[must_use]
pub fn run(data_sizes: &[u64], worker_counts: &[usize]) -> Vec<SpeedupPoint> {
    run_on(data_sizes, worker_counts, |w| {
        DesEngine::<()>::new(Cluster::homogeneous(w, 1.0), model(), w)
    })
}

/// Runs the sweep on backends built by `make_backend(workers)` — the DES
/// for the paper's 1,900-machine scale, a `ThreadedEngine` to measure the
/// same workload on real threads.
#[must_use]
pub fn run_on<B, F>(
    data_sizes: &[u64],
    worker_counts: &[usize],
    mut make_backend: F,
) -> Vec<SpeedupPoint>
where
    B: ExecutionBackend,
    F: FnMut(usize) -> B,
{
    let mut out = Vec::new();
    for &data in data_sizes {
        let serial = makespan(&mut make_backend(1), data);
        for &workers in worker_counts {
            let parallel =
                if workers == 1 { serial } else { makespan(&mut make_backend(workers), data) };
            out.push(SpeedupPoint { data_size: data, workers, speedup: serial / parallel });
        }
    }
    out
}

/// Packs the sweep into a `BENCH_*.json`-compatible trajectory: one point
/// per `(data_size, workers)` cell.
///
/// # Examples
///
/// ```
/// use sstd_eval::exp::fig7;
///
/// let report = fig7::bench_report(&fig7::run(&[100_000], &[1, 2]));
/// assert_eq!(report.name(), "fig7_speedup");
/// assert_eq!(report.len(), 2);
/// assert!(report.to_json().contains("\"workers\":2"));
/// ```
#[must_use]
pub fn bench_report(points: &[SpeedupPoint]) -> sstd_obs::BenchReport {
    let mut report = sstd_obs::BenchReport::new("fig7_speedup");
    for p in points {
        report.push_point(&[
            ("data_size", p.data_size as f64),
            ("workers", p.workers as f64),
            ("speedup", p.speedup),
        ]);
    }
    report
}

/// Formats points as one series per data size.
#[must_use]
pub fn format(points: &[SpeedupPoint]) -> String {
    let mut out = String::from("Fig. 7 — Speedup of the SSTD scheme\n");
    let mut sizes: Vec<u64> = points.iter().map(|p| p.data_size).collect();
    sizes.dedup();
    for size in sizes {
        out.push_str(&format!("{:>10} tweets:", size));
        for p in points.iter().filter(|p| p.data_size == size) {
            out.push_str(&format!(" {}w={:.2}x |", p.workers, p.speedup));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_runtime::ThreadedEngine;

    #[test]
    fn speedup_of_one_worker_is_one() {
        let pts = run(&[1_000_000], &[1]);
        assert!((pts[0].speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_increases_with_workers() {
        let pts = run(&[16_900_000], &[1, 2, 4, 8, 16]);
        let series: Vec<f64> = pts.iter().map(|p| p.speedup).collect();
        assert!(series.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{series:?}");
        assert!(series.last().unwrap() > &8.0, "16 workers on a big trace: {series:?}");
    }

    #[test]
    fn larger_traces_speed_up_better() {
        // The paper's key observation: speedup improves with trace size.
        let pts = run(&[100_000, 1_000_000, 16_900_000], &[16]);
        let speedups: Vec<f64> = pts.iter().map(|p| p.speedup).collect();
        assert!(
            speedups.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "speedup should grow with data: {speedups:?}"
        );
    }

    #[test]
    fn speedup_never_exceeds_ideal() {
        let pts = run(&[16_900_000], &[2, 8, 32]);
        for p in pts {
            assert!(
                p.speedup <= p.workers as f64 + 1e-9,
                "{}w gave super-linear {}",
                p.workers,
                p.speedup
            );
        }
    }

    #[test]
    fn threaded_backend_reproduces_the_speedup_trend() {
        // The same job on real OS threads: simulated task durations
        // compressed 1000× (a 1.3s chunk sleeps 1.3ms), so four workers
        // genuinely parallelize the sleeps. A sleep only ever stretches
        // under load, so each worker count is timed as its fastest of five
        // passes; the bounds stay loose, but parallel must clearly beat
        // serial.
        let fastest = |workers: usize| {
            (0..5)
                .map(|_| {
                    let mut engine: ThreadedEngine<()> = ThreadedEngine::new(workers);
                    engine.set_simulation(model(), 1.0e-3);
                    makespan(&mut engine, 1_000_000)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let s4 = fastest(1) / fastest(4);
        assert!(s4 > 1.5, "4 real workers must beat serial: {s4:.2}x");
        assert!(s4 <= 4.5, "cannot beat the ideal by more than jitter: {s4:.2}x");
    }
}
