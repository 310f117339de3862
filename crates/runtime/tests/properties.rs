//! Properties of the stride-scheduled task pool and of the discrete-event
//! backend under eviction storms, resize churn and seeded fault mixes.

use sstd_runtime::prelude::*;
use sstd_runtime::TaskPool;
use sstd_testkit::{check, gens, Gen};

fn fill(pool: &mut TaskPool, job: u32, n: usize) {
    for _ in 0..n {
        pool.submit(TaskSpec::new(JobId::new(job), 1.0));
    }
}

fn engine(workers: usize) -> DesEngine {
    DesEngine::new(
        Cluster::homogeneous(workers.max(1), 1.0),
        ExecutionModel::new(0.0, 0.01, 0.01),
        workers,
    )
}

fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

#[test]
fn pops_exactly_what_was_submitted() {
    let gen = gens::vec_of(gens::usize_in(0, 9), 1, 5);
    check("pops_exactly_what_was_submitted", 256, &gen, |counts| {
        let mut pool = TaskPool::new();
        for (j, &n) in counts.iter().enumerate() {
            fill(&mut pool, j as u32, n);
        }
        let total: usize = counts.iter().sum();
        ensure(pool.len() == total, || format!("len {} != {total}", pool.len()))?;
        let mut popped = 0;
        while pool.pop().is_some() {
            popped += 1;
        }
        ensure(popped == total, || format!("popped {popped} != {total}"))
    });
}

/// Stride scheduling stays priority-proportional under arbitrary
/// interleavings of pops and evict-requeues: requeues restore work
/// without granting or charging extra scheduling turns, so pop counts
/// track shares with the classic ±1-per-job stride error bound.
#[test]
fn stride_stays_proportional_under_requeue_interleavings() {
    let gen = gens::pair(gens::f64_in(1.0, 8.0), gens::vec_of(gens::boolean(), 20, 149));
    check("stride_stays_proportional_under_requeue_interleavings", 256, &gen, |(prio, ops)| {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 400);
        fill(&mut pool, 1, 400);
        pool.set_priority(JobId::new(0), *prio);
        let mut last_popped: Option<(TaskId, TaskSpec)> = None;
        let mut pops = [0usize; 2];
        for &do_pop in ops {
            if do_pop || last_popped.is_none() {
                let entry = pool.pop().expect("800 tasks outlast 150 pops");
                pops[entry.1.job().index()] += 1;
                last_popped = Some(entry);
            } else if let Some((id, spec)) = last_popped.take() {
                pool.requeue(id, spec); // evict: the attempt was lost
            }
        }
        let total = (pops[0] + pops[1]) as f64;
        let expected0 = total * prio / (prio + 1.0);
        ensure((pops[0] as f64 - expected0).abs() <= 2.0, || {
            format!("prio {prio}: job0 popped {} of {total}, expected ~{expected0}", pops[0])
        })
    });
}

/// The same operation sequence always yields the same pop order — the
/// scheduler is deterministic (no randomness, stable ties).
#[test]
fn pop_order_is_deterministic() {
    let gen =
        gens::pair(gens::vec_of(gens::usize_in(1, 7), 2, 4), gens::vec_of(gens::boolean(), 0, 19));
    check("pop_order_is_deterministic", 256, &gen, |(counts, requeue_mask)| {
        let run = || {
            let mut pool = TaskPool::new();
            for (j, &n) in counts.iter().enumerate() {
                fill(&mut pool, j as u32, n);
            }
            let mut order = Vec::new();
            let mut mask = requeue_mask.iter();
            while let Some((id, spec)) = pool.pop() {
                order.push(id);
                if mask.next() == Some(&true) {
                    pool.requeue(id, spec);
                    // Pop it right back out so the loop terminates.
                    let (id2, _) = pool.pop().expect("just requeued");
                    order.push(id2);
                }
            }
            order
        };
        let (a, b) = (run(), run());
        ensure(a == b, || format!("{a:?} then {b:?}"))
    });
}

#[test]
fn stride_respects_ratios() {
    check("stride_respects_ratios", 256, &gens::f64_in(1.0, 8.0), |&prio| {
        let mut pool = TaskPool::new();
        fill(&mut pool, 0, 200);
        fill(&mut pool, 1, 200);
        pool.set_priority(JobId::new(0), prio);
        let n = 100;
        let job0 = (0..n).filter(|_| pool.pop().expect("400 tasks").1.job().index() == 0).count();
        let expected = n as f64 * prio / (prio + 1.0);
        ensure((job0 as f64 - expected).abs() <= 2.0, || {
            format!("prio {prio}: got {job0}, expected ~{expected}")
        })
    });
}

#[test]
fn no_task_is_ever_lost_under_eviction_storms() {
    let gen = gens::pair(
        gens::vec_of(gens::f64_in(0.0, 20.0), 0, 4),
        gens::pair(gens::usize_in(1, 19), gens::usize_in(2, 7)),
    );
    check(
        "no_task_is_ever_lost_under_eviction_storms",
        256,
        &gen,
        |(evictions, (tasks, workers))| {
            let mut des = engine(*workers);
            for i in 0..*tasks {
                des.submit(TaskSpec::new(JobId::new(i as u32 % 3), 100.0));
            }
            for &t in evictions {
                des.schedule_eviction(t);
            }
            // Keep at least one worker alive by re-adding capacity after the
            // last eviction could have fired.
            des.run_until(25.0);
            des.set_num_workers(*workers);
            let report = des.run_to_completion();
            ensure(report.completed.len() == *tasks, || {
                format!(
                    "{} of {tasks} completed, retries: {}",
                    report.completed.len(),
                    des.retries()
                )
            })
        },
    );
}

/// Work conservation under arbitrary resize churn: however the pool is
/// grown/shrunk mid-run, every submitted task completes exactly once.
#[test]
fn resize_churn_never_loses_or_duplicates_tasks() {
    let resize = gens::pair(gens::f64_in(0.0, 10.0), gens::usize_in(1, 11));
    let gen = gens::pair(gens::vec_of(resize, 0, 5), gens::usize_in(1, 24));
    check("resize_churn_never_loses_or_duplicates_tasks", 256, &gen, |(resizes, tasks)| {
        let mut des = DesEngine::<()>::new(
            Cluster::homogeneous(4, 1.0),
            ExecutionModel::new(0.0, 0.01, 0.01),
            4,
        );
        for i in 0..*tasks {
            des.submit(TaskSpec::new(JobId::new(i as u32 % 4), 150.0));
        }
        let mut ordered = resizes.clone();
        ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, n) in ordered {
            des.run_until(t);
            des.set_num_workers(n);
        }
        let report = des.run_to_completion();
        let mut ids: Vec<_> = report.completed.iter().map(|c| c.task).collect();
        ids.sort();
        ids.dedup();
        ensure(report.completed.len() == *tasks && ids.len() == *tasks, || {
            format!("{} completions, {} distinct, of {tasks}", report.completed.len(), ids.len())
        })
    });
}

/// Timestamps are always sane: start ≥ submit, finish > start.
#[test]
fn completion_timestamps_are_ordered() {
    let gen = gens::pair(gens::usize_in(1, 19), gens::usize_in(1, 5));
    check("completion_timestamps_are_ordered", 256, &gen, |&(tasks, workers)| {
        let mut des = DesEngine::<()>::new(
            Cluster::homogeneous(workers, 1.0),
            ExecutionModel::default(),
            workers,
        );
        for i in 0..tasks {
            des.submit(TaskSpec::new(JobId::new(i as u32), 50.0));
        }
        let report = des.run_to_completion();
        for c in &report.completed {
            ensure(
                c.started_at >= c.submitted_at - 1e-12
                    && c.finished_at > c.started_at
                    && c.finished_at <= report.makespan + 1e-12,
                || format!("{c:?} in a makespan of {}", report.makespan),
            )?;
        }
        Ok(())
    });
}

/// The knobs of one seeded fault mix: plan seed, transient and crash
/// rates, tasks and workers.
type FaultMix = (u64, f64, f64, usize, usize);

fn fault_mix() -> Gen<FaultMix> {
    let rates = gens::pair(gens::f64_in(0.0, 0.3), gens::f64_in(0.0, 0.1));
    let sizes = gens::pair(gens::usize_in(1, 19), gens::usize_in(1, 4));
    gens::pair(gens::usize_in(0, 999), gens::pair(rates, sizes)).map(
        |(seed, ((transient, crash), (tasks, workers)))| {
            (seed as u64, transient, crash, tasks, workers)
        },
    )
}

/// Under arbitrary seeded fault mixes, the books always balance and no
/// task is both completed and failed (exactly-once).
#[test]
fn accounting_reconciles_under_arbitrary_fault_mixes() {
    check(
        "accounting_reconciles_under_arbitrary_fault_mixes",
        256,
        &fault_mix(),
        |&(seed, transient, crash, tasks, workers)| {
            let mut des = engine(workers);
            des.set_fault_plan(FaultPlan {
                seed,
                transient_rate: transient,
                crash_rate: crash,
                ..FaultPlan::default()
            });
            for i in 0..tasks {
                des.submit(TaskSpec::new(JobId::new(i as u32 % 3), 100.0));
            }
            let report = des.run_to_completion();
            ensure(report.faults.reconciles(), || report.faults.to_string())?;
            let mut ids: Vec<_> = report.completed.iter().map(|c| c.task).collect();
            ids.extend(des.failed().iter().map(|f| f.task));
            let outcomes = ids.len();
            ids.sort();
            ids.dedup();
            ensure(outcomes == tasks && ids.len() == tasks, || {
                format!("{outcomes} outcomes, {} distinct, of {tasks}", ids.len())
            })
        },
    );
}
