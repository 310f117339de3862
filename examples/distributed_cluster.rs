//! Distributed execution demo: the interval workloads of a bursty trace
//! run as TD jobs on the simulated HTCondor cluster, with and without the
//! PID-controlled Dynamic Task Manager — the paper's §IV machinery.
//!
//! Run with: `cargo run --example distributed_cluster`

use sstd::control::{DtmConfig, DtmJob, DynamicTaskManager};
use sstd::data::{Scenario, TraceBuilder};
use sstd::runtime::{Cluster, ExecutionModel, JobId};

fn main() {
    let trace = TraceBuilder::scenario(Scenario::CollegeFootball).scale(0.02).seed(9).build();
    println!("{}\n", trace.stats());

    // One TD job per evaluation interval; data size = tweet volume.
    let deadline = 3.0; // seconds per interval
    let jobs: Vec<DtmJob> = (0..trace.timeline().num_intervals())
        .map(|iv| {
            let volume = trace.reports_in_interval(iv).len() as f64;
            DtmJob::new(JobId::new(iv as u32), volume.max(1.0), deadline, 4)
        })
        .collect();
    let volumes: Vec<f64> = jobs.iter().map(|j| j.data_size).collect();
    let max = volumes.iter().copied().fold(0.0f64, f64::max);
    let mean = volumes.iter().sum::<f64>() / volumes.len() as f64;
    println!("interval volumes: mean {mean:.0} tweets, burst max {max:.0} tweets");

    // Per-tweet cost representative of a TD task.
    let model = ExecutionModel::new(0.05, 0.002, 0.0024);
    let cluster = Cluster::notre_dame_like(32);

    for (label, control) in [("PID-controlled DTM", true), ("static allocation", false)] {
        let config = DtmConfig {
            control_enabled: control,
            initial_workers: 4,
            max_workers: 32,
            ..DtmConfig::default()
        };
        config.validate().expect("valid DTM configuration");
        let mut dtm = DynamicTaskManager::new(config, cluster.clone(), model);
        let outcome = dtm.run(&jobs).expect("validated above");
        println!(
            "{label:<20} job deadline hit rate {:>5.1}%  final workers {}",
            outcome.job_hit_rate() * 100.0,
            outcome.final_workers
        );
    }
    println!("\nThe controller grows the worker pool through traffic bursts and");
    println!("raises the priority of lagging intervals, rescuing deadlines the");
    println!("static allocation misses.");
}
