//! The Dynamic Task Manager: the closed control loop over an execution
//! backend (paper Fig. 2 and 3).
//!
//! The DTM is written against [`ExecutionBackend`], so the same PID /
//! knob machinery drives the virtual-clock simulator (the default, via
//! [`DynamicTaskManager::run`] and [`DynamicTaskManager::run_with_faults`])
//! or real OS threads (via [`DynamicTaskManager::run_on`] with a
//! `ThreadedEngine`) without a single backend-specific branch.

use crate::{GlobalKnob, LocalKnob, PidController};
use sstd_obs::{ControlTick, EventStore};
use sstd_runtime::{
    Cluster, DesEngine, ExecutionBackend, ExecutionModel, ExecutionReport, FaultPlan, FaultStats,
    JobId, RetryPolicy, TaskSpec,
};
use sstd_types::{ConfigError, SstdError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One truth-discovery job as the DTM sees it: a data volume with a soft
/// deadline, split into equal tasks (paper §IV-C4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmJob {
    /// Job identity.
    pub job: JobId,
    /// Total data volume (abstract units, e.g. tweets).
    pub data_size: f64,
    /// Soft deadline in virtual seconds from submission.
    pub deadline: f64,
    /// Number of equal tasks to split into ("we keep the number of tasks
    /// in each TD job small", §IV-C4).
    pub num_tasks: usize,
}

impl DtmJob {
    /// Creates a job description.
    ///
    /// # Panics
    ///
    /// Panics unless `data_size >= 0`, `deadline > 0` and `num_tasks > 0`.
    #[must_use]
    pub fn new(job: JobId, data_size: f64, deadline: f64, num_tasks: usize) -> Self {
        assert!(data_size >= 0.0, "data size must be non-negative");
        assert!(deadline > 0.0, "deadline must be positive");
        assert!(num_tasks > 0, "need at least one task");
        Self { job, data_size, deadline, num_tasks }
    }
}

/// DTM configuration: PID gains, knob factors, sampling period, pool
/// bounds and the scheduling policy handed to the execution backend.
/// Defaults are the paper's tuned values.
///
/// Set a field by struct literal over the defaults; every run checks
/// the result with [`validate`](Self::validate) first.
///
/// This struct is the *single* configuration path for a DTM run: when the
/// DTM takes over a backend (its own DES, or an external engine via
/// [`DynamicTaskManager::run_on`]) it installs `initial_workers` and
/// `retry` on the backend before submitting work, overwriting anything
/// preset there. Policy set directly on a backend therefore
/// cannot silently diverge from what the controller assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmConfig {
    /// Proportional gain (paper: 1.2).
    pub kp: f64,
    /// Integral gain (paper: 0.3).
    pub ki: f64,
    /// Derivative gain (paper: 0.2).
    pub kd: f64,
    /// LCK multiplier θ₃ (paper: 2).
    pub theta3: f64,
    /// GCK multiplier θ₄ (paper: 1.5).
    pub theta4: f64,
    /// Controller sampling period (paper: 1 second).
    pub sample_period: f64,
    /// Initial worker count.
    pub initial_workers: usize,
    /// Worker-pool cap.
    pub max_workers: usize,
    /// Whether feedback control is active (off = static allocation
    /// ablation).
    pub control_enabled: bool,
    /// Retry/backoff policy handed to the execution engine.
    pub retry: RetryPolicy,
}

impl Default for DtmConfig {
    fn default() -> Self {
        Self {
            kp: 1.2,
            ki: 0.3,
            kd: 0.2,
            theta3: 2.0,
            theta4: 1.5,
            sample_period: 1.0,
            initial_workers: 4,
            max_workers: 64,
            control_enabled: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl DtmConfig {
    /// Checks every field, naming the first invalid one.
    ///
    /// The DTM run family calls this before touching the backend, so a
    /// hand-assembled struct literal with a bad value surfaces as an
    /// [`SstdError::Config`] instead of a panic deep inside the PID.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] when a gain is negative or non-finite, a knob
    /// factor or the sampling period is non-positive or non-finite, the
    /// pool starts empty, the pool cap is below the initial size, or the
    /// `retry` policy fails its own `validate`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, g) in [("kp", self.kp), ("ki", self.ki), ("kd", self.kd)] {
            if !(g.is_finite() && g >= 0.0) {
                return Err(ConfigError::new(
                    name,
                    format!("gain must be finite and non-negative, got {g}"),
                ));
            }
        }
        for (name, v) in [("theta3", self.theta3), ("theta4", self.theta4)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::new(
                    name,
                    format!("knob factor must be finite and positive, got {v}"),
                ));
            }
        }
        if !(self.sample_period.is_finite() && self.sample_period > 0.0) {
            return Err(ConfigError::new(
                "sample_period",
                format!("must be finite and positive, got {}", self.sample_period),
            ));
        }
        if self.initial_workers == 0 {
            return Err(ConfigError::new("initial_workers", "need at least one worker"));
        }
        if self.max_workers < self.initial_workers {
            return Err(ConfigError::new(
                "max_workers",
                format!(
                    "cap {} is below the initial pool of {}",
                    self.max_workers, self.initial_workers
                ),
            ));
        }
        self.retry.validate()
    }
}

/// Result of a DTM run.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmOutcome {
    /// The raw execution report.
    pub report: ExecutionReport,
    /// Per-job completion time.
    pub job_completion: BTreeMap<JobId, f64>,
    /// Per-job deadline verdict.
    pub job_met_deadline: BTreeMap<JobId, bool>,
    /// Final worker count after control.
    pub final_workers: usize,
    /// Tasks re-queued after losing an attempt (eviction or injected
    /// fault).
    pub retries: u64,
    /// Failed-attempt accounting (also available as `report.faults`).
    pub faults: FaultStats,
    /// Control-loop telemetry: one [`ControlTick`] per job per sampling
    /// epoch (empty when `control_enabled` is off or no epoch had pending
    /// work), in order. Deterministic on the DES backend.
    pub control: Vec<ControlTick>,
}

impl DtmOutcome {
    /// Fraction of jobs that met their deadline.
    #[must_use]
    pub fn job_hit_rate(&self) -> f64 {
        if self.job_met_deadline.is_empty() {
            return 1.0;
        }
        self.job_met_deadline.values().filter(|&&m| m).count() as f64
            / self.job_met_deadline.len() as f64
    }
}

/// The deadline-driven Dynamic Task Manager (paper §IV-C).
#[derive(Debug)]
pub struct DynamicTaskManager {
    config: DtmConfig,
    cluster: Cluster,
    model: ExecutionModel,
    /// Shared trace store control ticks are recorded into; a private
    /// per-run store when unset.
    store: Option<Arc<EventStore>>,
}

impl DynamicTaskManager {
    /// Creates a DTM over `cluster` with cost model `model`. The config is
    /// validated when a run starts, not here.
    #[must_use]
    pub fn new(config: DtmConfig, cluster: Cluster, model: ExecutionModel) -> Self {
        Self { config, cluster, model, store: None }
    }

    /// Routes control ticks into a shared [`EventStore`], so the control
    /// trace interleaves with task/stream/recovery events in one
    /// causally-linked log. Without a store the DTM records into a
    /// private per-run one; either way [`DtmOutcome::control`] is read
    /// back from the store through the query layer.
    #[must_use]
    pub fn with_event_store(mut self, store: Arc<EventStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs `jobs` to completion under feedback control and reports the
    /// outcome.
    ///
    /// # Errors
    ///
    /// [`SstdError::Config`] when the [`DtmConfig`] fails
    /// [`validate`](DtmConfig::validate).
    pub fn run(&mut self, jobs: &[DtmJob]) -> Result<DtmOutcome, SstdError> {
        self.run_with_faults(jobs, &[], None)
    }

    /// Runs `jobs` on the DES while the cluster loses workers at the
    /// given virtual times (HTCondor preemption) and, with a `plan`,
    /// under seeded faults (transient failures, worker crashes). The PID
    /// controller observes evictions through its WCET predictions and
    /// compensates by growing the pool — the resilience the paper gets
    /// for free from Work Queue's elastic workers. Failed attempts show up as lost capacity: the observed
    /// fault ratio inflates the WCET prediction by `1 / (1 − ratio)`, so
    /// the PID grows the pool to compensate for work it expects to lose.
    ///
    /// # Errors
    ///
    /// [`SstdError::Config`] when the [`DtmConfig`] fails
    /// [`validate`](DtmConfig::validate).
    pub fn run_with_faults(
        &mut self,
        jobs: &[DtmJob],
        evictions: &[f64],
        plan: Option<FaultPlan>,
    ) -> Result<DtmOutcome, SstdError> {
        // The DES cannot even be built from a config that would fail
        // `run_on`'s check (an empty pool).
        self.config.validate()?;
        let mut des: DesEngine =
            DesEngine::new(self.cluster.clone(), self.model, self.config.initial_workers);
        self.run_on(&mut des, jobs, evictions, plan)
    }

    /// Runs `jobs` on a caller-supplied execution backend — the DES for
    /// deterministic simulation, or a `ThreadedEngine` for real threads —
    /// through the identical control loop. The DTM first installs its own
    /// [`DtmConfig`] policy (worker count, retry) plus the
    /// given fault plan (`None` installs the zero-rate default) and
    /// evictions on the backend, overwriting any preset values:
    /// configuration flows through one path only.
    ///
    /// Each sampling epoch with pending work records one [`ControlTick`]
    /// per job — what the PID saw (predicted finish vs. deadline) and
    /// what it actuated (priority, pool size) — through the trace store
    /// (shared via [`with_event_store`](Self::with_event_store), private
    /// otherwise); [`DtmOutcome::control`] is read back from the store,
    /// scoped to this run.
    ///
    /// # Errors
    ///
    /// [`SstdError::Config`] when the [`DtmConfig`] fails
    /// [`validate`](DtmConfig::validate). The backend is untouched in
    /// that case.
    pub fn run_on<B: ExecutionBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        jobs: &[DtmJob],
        evictions: &[f64],
        plan: Option<FaultPlan>,
    ) -> Result<DtmOutcome, SstdError> {
        let cfg = self.config;
        cfg.validate()?;
        backend.set_num_workers(cfg.initial_workers);
        backend.set_retry_policy(cfg.retry);
        // No plan is the zero-rate plan, which decides as a fresh backend.
        backend.set_fault_plan(plan.unwrap_or_default());
        for &t in evictions {
            backend.schedule_eviction(t);
        }

        // Submit all tasks up front (one batch per experiment, as in the
        // paper); each task carries the job deadline for reporting.
        let mut job_data: BTreeMap<JobId, f64> = BTreeMap::new();
        for j in jobs {
            job_data.insert(j.job, j.data_size);
            let per_task = j.data_size / j.num_tasks as f64;
            for _ in 0..j.num_tasks {
                backend.submit(TaskSpec::new(j.job, per_task).with_deadline(j.deadline));
            }
        }

        let mut pids: BTreeMap<JobId, PidController> =
            jobs.iter().map(|j| (j.job, PidController::new(cfg.kp, cfg.ki, cfg.kd))).collect();
        let mut lcks: BTreeMap<JobId, LocalKnob> = jobs
            .iter()
            .map(|j| (j.job, LocalKnob::new(cfg.theta3, 1.0, 1.0 / 64.0, 64.0)))
            .collect();
        let mut gck = GlobalKnob::new(cfg.theta4, cfg.initial_workers, 1, cfg.max_workers);
        // Ticks go through the trace store (a shared one when installed
        // via `with_event_store`, else a private per-run one); the
        // outcome's ticks are read back from it, scoped to this run by
        // the sequence watermark.
        let store = self.store.clone().unwrap_or_else(|| Arc::new(EventStore::new()));
        let control_since = store.next_seq();
        // Ticks of the current epoch, buffered so `workers` can reflect
        // the pool size after the GCK actuates on the aggregate signal.
        let mut epoch: Vec<ControlTick> = Vec::new();

        // Start sampling from the backend's current clock (zero for the
        // DES; a threaded engine may already have ticked).
        let mut t = backend.now();
        loop {
            t += cfg.sample_period;
            backend.run_until(t);
            if backend.pending() == 0 && backend.running() == 0 {
                break;
            }
            if !cfg.control_enabled {
                // Without feedback control the Work Queue worker factory
                // still replaces evicted workers up to the configured
                // pool size (`work_queue_factory -w`); otherwise a fully
                // evicted static pool would never drain its queue.
                if backend.num_workers() < cfg.initial_workers {
                    backend.set_num_workers(cfg.initial_workers);
                }
                continue;
            }
            if backend.num_workers() == 0 {
                // All workers evicted between control epochs: restore a
                // seed worker so WCET predictions stay finite; the GCK
                // grows from there.
                backend.set_num_workers(1);
            }

            // Per-job control: predicted finish vs. deadline (Eq. 9 uses
            // measured execution time; prediction via the WCET model lets
            // the controller act before the deadline passes).
            //
            // The GCK reacts to the *worst-off* job: one job about to miss
            // its deadline must grow the pool even when every other job is
            // comfortably early (a sum would let the early jobs outvote
            // the urgent one and shrink the pool under it).
            let mut aggregate = f64::NEG_INFINITY;
            epoch.clear();
            for j in jobs {
                let remaining_tasks = backend.pending_of(j.job);
                if remaining_tasks == 0 {
                    continue;
                }
                let remaining_data = job_data[&j.job] * remaining_tasks as f64 / j.num_tasks as f64;
                let share = self.priority_share(&lcks, j.job);
                let workers = backend.num_workers().max(1);
                // Faults are lost capacity: if a fraction `r` of attempts
                // is being wasted, effective throughput is `(1 − r)×`, so
                // the remaining work takes `1 / (1 − r)` longer.
                let fault_ratio = backend.fault_stats().fault_ratio().min(0.9);
                let fault_inflation = 1.0 / (1.0 - fault_ratio);
                let predicted_finish = backend.now()
                    + fault_inflation
                        * self.model.job_wcet(remaining_data.max(1e-9), workers, share.max(1e-6));
                let error = predicted_finish - j.deadline;
                let signal = pids
                    .get_mut(&j.job)
                    .expect("pid registered per job")
                    .update(error, cfg.sample_period);
                aggregate = aggregate.max(signal);
                let new_priority =
                    lcks.get_mut(&j.job).expect("lck registered per job").apply(signal);
                backend.set_job_priority(j.job, new_priority);
                epoch.push(ControlTick {
                    t: 0.0, // filled in after global actuation
                    job: j.job,
                    setpoint: j.deadline,
                    measured: predicted_finish,
                    error,
                    signal,
                    priority: new_priority,
                    workers: 0, // filled in after global actuation
                    pending: remaining_tasks,
                });
            }
            // Global control on the aggregate signal.
            if aggregate.is_finite() {
                let workers = gck.apply(aggregate);
                backend.set_num_workers(workers);
            }
            let now = backend.now();
            let pool = backend.num_workers();
            for mut tick in epoch.drain(..) {
                tick.t = now;
                tick.workers = pool;
                store.record_control(tick);
            }
        }

        let report = backend.run_to_completion();
        let job_completion = report.job_completion_times();
        let job_met_deadline = jobs
            .iter()
            .map(|j| {
                let done = job_completion.get(&j.job).copied().unwrap_or(f64::INFINITY);
                (j.job, done <= j.deadline)
            })
            .collect();
        Ok(DtmOutcome {
            final_workers: backend.num_workers(),
            retries: backend.retries(),
            faults: report.faults,
            report,
            job_completion,
            job_met_deadline,
            control: store
                .query()
                .control()
                .since_seq(control_since)
                .events()
                .iter()
                .filter_map(|e| e.control_tick().copied())
                .collect(),
        })
    }

    fn priority_share(&self, lcks: &BTreeMap<JobId, LocalKnob>, job: JobId) -> f64 {
        let total: f64 = lcks.values().map(LocalKnob::value).sum();
        if total <= 0.0 {
            return 1.0;
        }
        lcks[&job].value() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_even(n: u32, data: f64, deadline: f64) -> Vec<DtmJob> {
        (0..n).map(|i| DtmJob::new(JobId::new(i), data, deadline, 4)).collect()
    }

    fn dtm(config: DtmConfig) -> DynamicTaskManager {
        DynamicTaskManager::new(config, Cluster::homogeneous(64, 1.0), ExecutionModel::default())
    }

    #[test]
    fn all_jobs_complete() {
        let mut m = dtm(DtmConfig::default());
        let outcome = m.run(&jobs_even(5, 2_000.0, 30.0)).expect("valid config");
        assert_eq!(outcome.job_completion.len(), 5);
        assert_eq!(outcome.report.completed.len(), 20);
    }

    #[test]
    fn loose_deadlines_are_all_met() {
        let mut m = dtm(DtmConfig::default());
        let outcome = m.run(&jobs_even(4, 1_000.0, 1_000.0)).expect("valid config");
        assert!((outcome.job_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn control_beats_static_allocation_under_tight_deadlines() {
        // Heavy load on a small initial pool with a deadline the static
        // pool cannot meet but a grown pool can.
        let jobs = jobs_even(8, 30_000.0, 30.0);
        let controlled = dtm(DtmConfig::default()).run(&jobs).expect("valid config");
        let static_cfg = DtmConfig { control_enabled: false, ..DtmConfig::default() };
        let uncontrolled = dtm(static_cfg).run(&jobs).expect("valid config");
        assert!(
            controlled.job_hit_rate() > uncontrolled.job_hit_rate(),
            "controlled {} vs static {}",
            controlled.job_hit_rate(),
            uncontrolled.job_hit_rate()
        );
        assert!(controlled.final_workers > DtmConfig::default().initial_workers);
    }

    #[test]
    fn urgent_job_gets_priority() {
        // One job with a tight deadline among laggards: control should
        // raise its priority so it finishes earlier than FIFO would.
        let mut jobs = jobs_even(4, 6_000.0, 200.0);
        jobs[3] = DtmJob::new(JobId::new(3), 6_000.0, 8.0, 4);
        let outcome = dtm(DtmConfig::default()).run(&jobs).expect("valid config");
        let urgent = outcome.job_completion[&JobId::new(3)];
        // Compare against a job whose tasks queue behind the first wave
        // (job 0's tasks start instantly at submission, before control).
        let relaxed = outcome.job_completion[&JobId::new(1)];
        assert!(urgent <= relaxed + 1e-9, "urgent finished at {urgent}, relaxed at {relaxed}");
    }

    #[test]
    fn outcome_hit_rate_empty_is_one() {
        let outcome = dtm(DtmConfig::default()).run(&[]).expect("valid config");
        assert_eq!(outcome.job_hit_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn invalid_job_rejected() {
        let _ = DtmJob::new(JobId::new(0), 1.0, 0.0, 1);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let valid = DtmConfig {
            kp: 2.0,
            ki: 0.0,
            kd: 0.5,
            theta3: 1.0,
            theta4: 3.0,
            sample_period: 0.5,
            initial_workers: 2,
            max_workers: 2,
            control_enabled: false,
            retry: RetryPolicy::default(),
        };
        assert_eq!(valid.validate(), Ok(()));
        assert_eq!(DtmConfig::default().validate(), Ok(()));
        let no_attempts = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        for (field, config) in [
            ("kp", DtmConfig { kp: -1.0, ..valid }),
            ("ki", DtmConfig { ki: f64::INFINITY, ..valid }),
            ("kd", DtmConfig { kd: f64::NAN, ..valid }),
            ("theta3", DtmConfig { theta3: 0.0, ..valid }),
            ("theta4", DtmConfig { theta4: -2.0, ..valid }),
            ("sample_period", DtmConfig { sample_period: 0.0, ..valid }),
            ("initial_workers", DtmConfig { initial_workers: 0, ..valid }),
            ("max_workers", DtmConfig { max_workers: 1, ..valid }),
            ("max_attempts", DtmConfig { retry: no_attempts, ..valid }),
        ] {
            assert_eq!(config.validate().expect_err("invalid").field(), field, "{config:?}");
        }
    }

    #[test]
    fn invalid_config_surfaces_as_error_not_panic() {
        let cfg = DtmConfig { kp: f64::NAN, ..DtmConfig::default() };
        let err = dtm(cfg).run(&jobs_even(1, 100.0, 10.0)).expect_err("NaN gain");
        assert_eq!(err.as_config().expect("a config error").field(), "kp");
    }

    #[test]
    fn invalid_retry_policy_surfaces_as_error_not_panic() {
        let retry = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        let cfg = DtmConfig { retry, ..DtmConfig::default() };
        match dtm(cfg).run(&jobs_even(1, 100.0, 10.0)) {
            Err(SstdError::Config(e)) => assert_eq!(e.field(), "max_attempts"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn struct_literal_with_no_workers_surfaces_as_error_not_panic() {
        let cfg = DtmConfig { initial_workers: 0, ..DtmConfig::default() };
        match dtm(cfg).run(&jobs_even(1, 100.0, 10.0)) {
            Err(SstdError::Config(e)) => assert_eq!(e.field(), "initial_workers"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn control_trace_first_tick_matches_pid_hand_computation() {
        let cfg = DtmConfig::default();
        let jobs = vec![DtmJob::new(JobId::new(0), 20_000.0, 20.0, 8)];
        let store = Arc::new(EventStore::new());
        let outcome =
            dtm(cfg).with_event_store(Arc::clone(&store)).run(&jobs).expect("valid config");
        let ticks = &outcome.control;
        assert!(!ticks.is_empty(), "an active run must record control ticks");
        assert_eq!(
            store.query().control().count(),
            ticks.len() as u64,
            "the shared store saw them"
        );
        let k = ticks[0];
        assert_eq!(k.job, JobId::new(0));
        assert_eq!(k.setpoint, 20.0, "setpoint is the job deadline");
        assert!((k.error - (k.measured - k.setpoint)).abs() < 1e-9, "error = measured − setpoint");
        // First PID sample: the derivative term is zero and the integral
        // holds exactly one sample (Eq. 9 with e(0) only).
        let expected =
            cfg.kp * k.error + cfg.ki * (k.error * cfg.sample_period).clamp(-100.0, 100.0);
        assert!(
            (k.signal - expected).abs() < 1e-9,
            "signal {} vs hand-computed {}",
            k.signal,
            expected
        );
        assert!(k.workers >= 1);
        assert!(k.pending > 0);
    }

    #[test]
    fn static_allocation_records_no_control_ticks() {
        let cfg = DtmConfig { control_enabled: false, ..DtmConfig::default() };
        let outcome = dtm(cfg).run(&jobs_even(2, 2_000.0, 50.0)).expect("valid config");
        assert!(outcome.control.is_empty(), "control off ⇒ no telemetry");
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;

    #[test]
    fn control_recovers_from_eviction_storms() {
        // 6 jobs, moderate deadline; at t = 2..5 the cluster loses four
        // workers. The static pool (4 workers) is crippled; the PID
        // controller regrows capacity and keeps hitting deadlines.
        let jobs: Vec<DtmJob> =
            (0..6).map(|i| DtmJob::new(JobId::new(i), 10_000.0, 25.0, 4)).collect();
        let evictions = [2.0, 3.0, 4.0, 5.0];

        let controlled = {
            let mut dtm = DynamicTaskManager::new(
                DtmConfig::default(),
                Cluster::homogeneous(64, 1.0),
                ExecutionModel::default(),
            );
            dtm.run_with_faults(&jobs, &evictions, None).expect("valid config")
        };
        let static_run = {
            let cfg = DtmConfig { control_enabled: false, ..DtmConfig::default() };
            let mut dtm = DynamicTaskManager::new(
                cfg,
                Cluster::homogeneous(64, 1.0),
                ExecutionModel::default(),
            );
            dtm.run_with_faults(&jobs, &evictions, None).expect("valid config")
        };
        assert_eq!(controlled.report.completed.len(), 24, "no task lost");
        assert!(
            controlled.job_hit_rate() >= static_run.job_hit_rate(),
            "controlled {} vs static {}",
            controlled.job_hit_rate(),
            static_run.job_hit_rate()
        );
        assert!(
            controlled.job_hit_rate() > 0.8,
            "control should rescue most jobs: {}",
            controlled.job_hit_rate()
        );
    }

    #[test]
    fn control_beats_static_under_injected_faults() {
        // The acceptance scenario: ≥10% transient faults plus worker
        // crashes. The PID sees the fault ratio as lost capacity and
        // grows the pool; the static pool eats the wasted work.
        let jobs: Vec<DtmJob> =
            (0..6).map(|i| DtmJob::new(JobId::new(i), 10_000.0, 28.0, 4)).collect();
        let plan = FaultPlan {
            seed: 42,
            transient_rate: 0.12,
            crash_rate: 0.04,
            worker_restart_delay: 1.0,
            ..FaultPlan::default()
        };

        let controlled = DynamicTaskManager::new(
            DtmConfig::default(),
            Cluster::homogeneous(64, 1.0),
            ExecutionModel::default(),
        )
        .run_with_faults(&jobs, &[], Some(plan))
        .expect("valid config");
        let static_run = DynamicTaskManager::new(
            DtmConfig { control_enabled: false, ..DtmConfig::default() },
            Cluster::homogeneous(64, 1.0),
            ExecutionModel::default(),
        )
        .run_with_faults(&jobs, &[], Some(plan))
        .expect("valid config");

        assert_eq!(controlled.report.completed.len(), 24, "no task lost to faults");
        assert!(controlled.faults.reconciles(), "{}", controlled.faults);
        assert!(
            controlled.faults.failures() > 0,
            "the plan must actually inject faults: {}",
            controlled.faults
        );
        assert!(
            controlled.job_hit_rate() >= static_run.job_hit_rate(),
            "controlled {} vs static {}",
            controlled.job_hit_rate(),
            static_run.job_hit_rate()
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let jobs: Vec<DtmJob> =
            (0..3).map(|i| DtmJob::new(JobId::new(i), 5_000.0, 20.0, 4)).collect();
        let plan =
            FaultPlan { seed: 7, transient_rate: 0.2, crash_rate: 0.05, ..FaultPlan::default() };
        let cfg = DtmConfig::default();
        let run = || {
            DynamicTaskManager::new(cfg, Cluster::homogeneous(32, 1.0), ExecutionModel::default())
                .run_with_faults(&jobs, &[1.5], Some(plan))
                .expect("valid config")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seeds must replay identically");
        assert!(a.faults.reconciles(), "{}", a.faults);
    }

    #[test]
    fn config_overrides_backend_presets_one_path_only() {
        // Regression for silent config divergence: policy preset directly
        // on a backend must not survive `run_on` — the DtmConfig is the
        // single source of scheduling policy. The preset here (a single
        // attempt, a long backoff) would exhaust tasks under the fault
        // plan if it leaked through.
        let jobs: Vec<DtmJob> =
            (0..3).map(|i| DtmJob::new(JobId::new(i), 5_000.0, 25.0, 4)).collect();
        let plan =
            FaultPlan { seed: 13, transient_rate: 0.3, crash_rate: 0.05, ..FaultPlan::default() };
        let cluster = Cluster::homogeneous(32, 1.0);

        let clean = DynamicTaskManager::new(
            DtmConfig::default(),
            cluster.clone(),
            ExecutionModel::default(),
        )
        .run_with_faults(&jobs, &[], Some(plan))
        .expect("valid config");

        let mut preset: DesEngine = DesEngine::new(
            cluster,
            ExecutionModel::default(),
            DtmConfig::default().initial_workers,
        );
        preset.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            backoff_base: 9.0,
            ..RetryPolicy::default()
        });
        let through_dtm = DynamicTaskManager::new(
            DtmConfig::default(),
            Cluster::homogeneous(32, 1.0),
            ExecutionModel::default(),
        )
        .run_on(&mut preset, &jobs, &[], Some(plan))
        .expect("valid config");

        assert_eq!(through_dtm, clean, "preset backend policy must not leak into the run");
        assert_eq!(through_dtm.faults.exhausted_tasks, 0, "DtmConfig retry budget applied");
        assert_eq!(through_dtm.report.completed.len(), 12);
    }

    #[test]
    fn a_run_without_a_plan_clears_a_preset_plan() {
        // Regression: `run_on` installed the plan only when one was given,
        // so a fault plan preset on the backend stayed in force.
        let jobs: Vec<DtmJob> =
            (0..3).map(|i| DtmJob::new(JobId::new(i), 5_000.0, 25.0, 4)).collect();
        let run = |backend: &mut DesEngine| {
            DynamicTaskManager::new(
                DtmConfig::default(),
                Cluster::homogeneous(32, 1.0),
                ExecutionModel::default(),
            )
            .run_on(backend, &jobs, &[], None)
            .expect("valid config")
        };
        let fresh = || -> DesEngine {
            DesEngine::new(
                Cluster::homogeneous(32, 1.0),
                ExecutionModel::default(),
                DtmConfig::default().initial_workers,
            )
        };
        let clean = run(&mut fresh());
        let mut preset = fresh();
        preset.set_fault_plan(FaultPlan { transient_rate: 0.5, ..FaultPlan::default() });
        let through_dtm = run(&mut preset);

        assert_eq!(through_dtm.faults.attempts, clean.faults.attempts);
        assert_eq!(through_dtm.faults.failures(), 0, "the preset plan injected nothing");
        assert_eq!(through_dtm, clean);
    }

    #[test]
    fn threaded_engine_is_a_drop_in_backend() {
        // The same control loop drives real OS threads: simulated task
        // durations compressed 200× so the run takes tens of
        // milliseconds of wall time.
        use sstd_runtime::ThreadedEngine;
        let jobs: Vec<DtmJob> =
            (0..2).map(|i| DtmJob::new(JobId::new(i), 2_000.0, 1_000.0, 4)).collect();
        let mut engine: ThreadedEngine<()> = ThreadedEngine::new(2);
        engine.set_simulation(ExecutionModel::default(), 0.005);
        let cfg = DtmConfig { initial_workers: 2, max_workers: 8, ..DtmConfig::default() };
        let outcome =
            DynamicTaskManager::new(cfg, Cluster::homogeneous(8, 1.0), ExecutionModel::default())
                .run_on(&mut engine, &jobs, &[], None)
                .expect("valid config");
        assert_eq!(outcome.report.completed.len(), 8, "all tasks ran on real threads");
        assert_eq!(outcome.job_completion.len(), 2);
        assert!((outcome.job_hit_rate() - 1.0).abs() < 1e-12, "loose deadlines met");
        assert!(outcome.faults.reconciles(), "{}", outcome.faults);
        assert!(outcome.final_workers >= 1);
    }

    #[test]
    fn evictions_delay_but_never_lose_jobs() {
        let jobs = vec![DtmJob::new(JobId::new(0), 5_000.0, 100.0, 8)];
        let mut dtm = DynamicTaskManager::new(
            DtmConfig::default(),
            Cluster::homogeneous(16, 1.0),
            ExecutionModel::default(),
        );
        let baseline = dtm.run(&jobs).expect("valid config").job_completion[&JobId::new(0)];
        let mut dtm2 = DynamicTaskManager::new(
            DtmConfig::default(),
            Cluster::homogeneous(16, 1.0),
            ExecutionModel::default(),
        );
        let evicted = dtm2.run_with_faults(&jobs, &[0.5, 1.0], None).expect("valid config");
        assert_eq!(evicted.report.completed.len(), 8);
        assert!(
            evicted.job_completion[&JobId::new(0)] >= baseline - 1e-9,
            "failures cannot speed things up"
        );
    }
}
