//! The trace builder: generative model → [`Trace`].

use crate::{Population, Scenario, TrafficModel, TruthProcess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstd_stats::dist::{Beta, Zipf};
use sstd_types::{
    Attitude, ClaimId, GroundTruth, Independence, Report, Timeline, Timestamp, Trace, TruthLabel,
    Uncertainty,
};

/// Full parameter set of the generative trace model.
///
/// Obtain one from [`Scenario::config`] and tweak, or build from scratch
/// for custom experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace name (becomes [`Trace::name`]).
    pub name: String,
    /// Source population size.
    pub num_sources: usize,
    /// Number of claims.
    pub num_claims: usize,
    /// Evaluation intervals (the paper uses 100).
    pub num_intervals: usize,
    /// Trace duration in seconds.
    pub horizon_secs: u64,
    /// Expected total number of reports.
    pub target_reports: usize,
    /// Fraction of honest sources.
    pub honest_fraction: f64,
    /// Beta parameters of honest-source reliability.
    pub honest_reliability: (f64, f64),
    /// Beta parameters of misinformation-cohort reliability.
    pub misinfo_reliability: (f64, f64),
    /// Zipf exponent of source activity.
    pub source_zipf: f64,
    /// Zipf exponent of claim popularity.
    pub claim_zipf: f64,
    /// Fraction of claims with evolving truth.
    pub dynamic_claim_fraction: f64,
    /// Per-interval flip probability of dynamic claims.
    pub truth_flip_prob: f64,
    /// Number of traffic-spike intervals.
    pub burst_intervals: usize,
    /// Spike amplification factor.
    pub burst_multiplier: f64,
    /// Probability a report is a retweet (low independence, copies an
    /// earlier attitude).
    pub retweet_prob: f64,
    /// Beta parameters of the per-report uncertainty (hedging) score.
    pub hedge_beta: (f64, f64),
    /// Number of claim pairs with *identical* truth timelines (paper
    /// §VII-1's dependent-claims setting): pair `k` couples claims `2k`
    /// and `2k+1`. Must satisfy `2 × pairs ≤ num_claims`.
    pub correlated_claim_pairs: usize,
}

/// Deterministic builder turning a [`TraceConfig`] into a [`Trace`].
///
/// # Examples
///
/// ```
/// use sstd_data::{Scenario, TraceBuilder};
///
/// let trace = TraceBuilder::scenario(Scenario::CollegeFootball)
///     .scale(0.002)
///     .seed(7)
///     .build();
/// assert_eq!(trace.name(), "college-football");
/// assert_eq!(trace.timeline().num_intervals(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    config: TraceConfig,
    seed: u64,
}

impl TraceBuilder {
    /// Starts from a scenario preset.
    #[must_use]
    pub fn scenario(scenario: Scenario) -> Self {
        Self { config: scenario.config(), seed: 0 }
    }

    /// Sets the RNG seed; identical seeds produce identical traces.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales the population and traffic volume, keeping claims and
    /// intervals fixed (so truth dynamics are comparable across scales).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    #[must_use]
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "scale must be positive");
        let c = &mut self.config;
        c.num_sources = ((c.num_sources as f64 * factor).round() as usize).max(10);
        c.target_reports = ((c.target_reports as f64 * factor).round() as usize).max(50);
        self
    }

    /// Mutable access to the configuration for fine-grained overrides.
    pub fn config_mut(&mut self) -> &mut TraceConfig {
        &mut self.config
    }

    /// The current configuration.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero claims, zero
    /// intervals, zero horizon).
    #[must_use]
    pub fn build(self) -> Trace {
        let c = &self.config;
        assert!(c.num_claims > 0, "need at least one claim");
        assert!(c.num_intervals > 0, "need at least one interval");
        assert!(c.horizon_secs > 0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // 1. Population.
        let population = Population::generate(
            &mut rng,
            c.num_sources,
            c.honest_fraction,
            c.honest_reliability,
            c.misinfo_reliability,
            c.source_zipf,
        );

        // 2. Ground truth.
        let truth_process = TruthProcess::new(c.dynamic_claim_fraction, c.truth_flip_prob, 0.5);
        assert!(
            2 * c.correlated_claim_pairs <= c.num_claims,
            "correlated pairs need two claims each"
        );
        let mut ground_truth = GroundTruth::new(c.num_intervals);
        let mut truths: Vec<Vec<TruthLabel>> = Vec::with_capacity(c.num_claims);
        for u in 0..c.num_claims {
            let tl = if u % 2 == 1 && u / 2 < c.correlated_claim_pairs {
                // Claim 2k+1 mirrors claim 2k (paper §VII-1 dependency).
                truths[u - 1].clone()
            } else {
                truth_process.generate(&mut rng, c.num_intervals)
            };
            ground_truth.insert(ClaimId::new(u as u32), tl.clone());
            truths.push(tl);
        }

        // 3. Traffic.
        let traffic = TrafficModel::new(
            c.target_reports,
            c.num_intervals,
            c.burst_intervals,
            c.burst_multiplier,
        );
        let volumes = traffic.generate(&mut rng, c.num_intervals);

        // 4. Reports.
        let timeline = Timeline::new(Timestamp::from_secs(c.horizon_secs), c.num_intervals);
        let claim_popularity = Zipf::new(c.num_claims, c.claim_zipf).expect("valid Zipf");
        let hedge = Beta::new(c.hedge_beta.0, c.hedge_beta.1).expect("valid hedge Beta");
        // Last vocal attitude per claim — what a retweet copies.
        let mut last_attitude: Vec<Option<Attitude>> = vec![None; c.num_claims];
        let mut reports = Vec::with_capacity(volumes.iter().sum::<u64>() as usize);

        for (iv, &volume) in volumes.iter().enumerate() {
            let bounds = timeline.interval(iv);
            let span = bounds.len_secs().max(1);
            for _ in 0..volume {
                let source = population.sample_reporter(&mut rng);
                let claim_idx = claim_popularity.sample(&mut rng) - 1;
                let claim = ClaimId::new(claim_idx as u32);
                let t = Timestamp::from_secs(bounds.start().as_secs() + rng.gen_range(0..span));
                let truth = truths[claim_idx][iv];

                let is_retweet =
                    rng.gen::<f64>() < c.retweet_prob && last_attitude[claim_idx].is_some();
                let (attitude, independence) = if is_retweet {
                    (
                        last_attitude[claim_idx].expect("checked above"),
                        Independence::saturating(0.1),
                    )
                } else {
                    let honest_view = truth.honest_attitude();
                    let attitude = if rng.gen::<f64>() < population.reliability(source) {
                        honest_view
                    } else {
                        honest_view.flipped()
                    };
                    (attitude, Independence::saturating(1.0))
                };
                last_attitude[claim_idx] = Some(attitude);

                let uncertainty = Uncertainty::saturating(hedge.sample(&mut rng));
                reports.push(Report::new(source, claim, t, attitude, uncertainty, independence));
            }
        }

        Trace::new(c.name.clone(), reports, c.num_sources, c.num_claims, timeline, ground_truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: Scenario, seed: u64) -> Trace {
        TraceBuilder::scenario(scenario).scale(0.001).seed(seed).build()
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small(Scenario::BostonBombing, 5);
        let b = small(Scenario::BostonBombing, 5);
        assert_eq!(a, b);
        let c = small(Scenario::BostonBombing, 6);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn volume_tracks_scale() {
        let small_trace = small(Scenario::ParisShooting, 1);
        let bigger = TraceBuilder::scenario(Scenario::ParisShooting).scale(0.004).seed(1).build();
        assert!(bigger.stats().num_reports > 2 * small_trace.stats().num_reports);
    }

    #[test]
    fn reports_reference_valid_population() {
        let t = small(Scenario::CollegeFootball, 2);
        for r in t.reports() {
            assert!(r.source().index() < t.num_sources());
            assert!(r.claim().index() < t.num_claims());
            assert!(r.time() <= Timestamp::from_secs(t.timeline().horizon().as_secs()));
        }
    }

    #[test]
    fn majority_of_evidence_points_at_truth() {
        // With an 80% honest population, the aggregate contribution score
        // should agree with the ground truth for most (claim, interval)
        // cells that have evidence.
        let t = TraceBuilder::scenario(Scenario::Synthetic).scale(0.01).seed(3).build();
        let mut agree = 0usize;
        let mut total = 0usize;
        for iv in 0..t.timeline().num_intervals() {
            let mut acs = vec![0.0f64; t.num_claims()];
            for r in t.reports_in_interval(iv) {
                acs[r.claim().index()] += r.contribution_score().value();
            }
            for (u, &score) in acs.iter().enumerate() {
                if score.abs() < 1e-9 {
                    continue;
                }
                let truth = t
                    .ground_truth()
                    .label(ClaimId::new(u as u32), iv)
                    .expect("every claim labeled");
                total += 1;
                if (score > 0.0) == truth.as_bool() {
                    agree += 1;
                }
            }
        }
        assert!(total > 100, "enough populated cells");
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.7, "evidence agrees with truth {rate}");
    }

    #[test]
    fn retweets_follow_cascades() {
        let t = small(Scenario::BostonBombing, 4);
        let low_independence =
            t.reports().iter().filter(|r| r.independence().value() < 0.5).count();
        let frac = low_independence as f64 / t.reports().len() as f64;
        assert!((0.25..=0.6).contains(&frac), "retweet fraction {frac} near the configured 0.45");
    }

    #[test]
    fn config_overrides_apply() {
        let mut b = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001);
        b.config_mut().num_claims = 3;
        let t = b.build();
        assert_eq!(t.num_claims(), 3);
    }

    #[test]
    fn correlated_pairs_share_ground_truth() {
        let mut b = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001).seed(6);
        b.config_mut().correlated_claim_pairs = 3;
        let t = b.build();
        for k in 0..3u32 {
            assert_eq!(
                t.ground_truth().timeline(ClaimId::new(2 * k)),
                t.ground_truth().timeline(ClaimId::new(2 * k + 1)),
                "pair {k}"
            );
        }
        // Uncorrelated tail claims are independent draws (almost surely
        // different for 100-interval dynamic timelines).
        assert_ne!(
            t.ground_truth().timeline(ClaimId::new(10)),
            t.ground_truth().timeline(ClaimId::new(11)),
        );
    }

    #[test]
    #[should_panic(expected = "two claims each")]
    fn too_many_correlated_pairs_rejected() {
        let mut b = TraceBuilder::scenario(Scenario::Synthetic).scale(0.001);
        b.config_mut().num_claims = 3;
        b.config_mut().correlated_claim_pairs = 2;
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = TraceBuilder::scenario(Scenario::Synthetic).scale(0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Generated traces are always internally consistent, whatever
        /// the knobs: valid ids, labeled ground truth for every claim,
        /// reports inside the horizon, deterministic per seed.
        #[test]
        fn generated_traces_are_well_formed(
            seed in 0u64..1_000,
            scale_milli in 1u64..8,
            honest in 0.3f64..1.0,
            retweet in 0.0f64..0.8,
            flip in 0.0f64..0.3,
        ) {
            let mut b = TraceBuilder::scenario(Scenario::Synthetic)
                .scale(scale_milli as f64 / 1_000.0)
                .seed(seed);
            {
                let c = b.config_mut();
                c.honest_fraction = honest;
                c.retweet_prob = retweet;
                c.truth_flip_prob = flip;
            }
            let t = b.clone().build();
            // Ground truth covers every claim over every interval.
            prop_assert_eq!(t.ground_truth().num_claims(), t.num_claims());
            for r in t.reports() {
                prop_assert!(r.source().index() < t.num_sources());
                prop_assert!(r.claim().index() < t.num_claims());
            }
            // Interval slices partition the reports.
            let total: usize = (0..t.timeline().num_intervals())
                .map(|iv| t.reports_in_interval(iv).len())
                .sum();
            prop_assert_eq!(total, t.reports().len());
            // Determinism.
            prop_assert_eq!(b.build(), t);
        }
    }
}
