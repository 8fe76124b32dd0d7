//! Campaign engine: many systems × many datasets through one shared work pool.
//!
//! The paper's Figure 1 family evaluates *multiple* LPPMs against the same
//! metric suite. Running each sweep through its own
//! [`crate::ExperimentRunner`] wastes work twice: every run re-extracts the
//! actual dataset's POIs and grids at each of its sweep samples, and each
//! run synchronizes on its own thread pool, leaving cores idle at every
//! sweep boundary.
//!
//! [`CampaignRunner`] fixes both. It hands an M-system × K-dataset study to
//! the sweep engine's one executor as M × K cells in a single call: one pool
//! of `(system, dataset, point)` work units that threads claim greedily, each
//! unit measuring every repetition of its point. The executor calls each
//! metric's [`geopriv_metrics::Metric::prepare`] hook exactly once per
//! distinct `(metric configuration, dataset)` pair, sharing the prepared
//! actual-side state across every point, repetition, system and suite
//! position of the campaign. A plain [`crate::ExperimentRunner`] sweep is the
//! one-cell case of the same call.
//!
//! Determinism is preserved exactly: the per-unit RNG seed is derived by the
//! same [`derive_unit_seed`] contract the [`crate::ExperimentRunner`] uses —
//! a function of the master seed, the point index and the repetition index
//! only — and each metric guarantees that prepared evaluation is bit-identical
//! to direct evaluation. A campaign therefore returns the exact
//! [`SweepResult`]s that M × K independent sequential runs would produce.
//!
//! # Examples
//!
//! ```no_run
//! use geopriv_core::campaign::CampaignRunner;
//! use geopriv_core::prelude::*;
//! use geopriv_mobility::generator::TaxiFleetBuilder;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dataset = TaxiFleetBuilder::new().drivers(10).duration_hours(8.0).build(&mut rng)?;
//!
//! let systems = vec![
//!     SystemDefinition::paper_geoi(),
//!     SystemDefinition::with_pair(
//!         Box::new(GaussianPerturbationFactory::new()),
//!         Box::new(geopriv_metrics::PoiRetrieval::default()),
//!         Box::new(geopriv_metrics::AreaCoverage::default()),
//!     )?,
//! ];
//! let campaign = CampaignRunner::new(SweepConfig::default()).run(&systems, &[dataset])?;
//! for run in &campaign.runs {
//!     println!("{}: {} samples", run.system_key, run.result.len());
//! }
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::experiment::{
    assemble_sweep, derive_unit_seed, measure_cells, Cell, ExperimentRunner, SweepConfig,
    SweepMode, SweepPlan, SweepResult,
};
use crate::system::SystemDefinition;
use geopriv_lppm::ConfigPoint;
use geopriv_mobility::Dataset;

/// The sweep of one `(system, dataset)` cell of a campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// Index of the system in the `systems` slice passed to
    /// [`CampaignRunner::run`].
    pub system_index: usize,
    /// Index of the dataset in the `datasets` slice passed to
    /// [`CampaignRunner::run`].
    pub dataset_index: usize,
    /// The system's configuration key ([`SystemDefinition::cache_key`]).
    pub system_key: String,
    /// The sweep measurements, bit-identical to an independent
    /// [`crate::ExperimentRunner::run`] with the same configuration.
    pub result: SweepResult,
}

/// The results of a campaign: one [`CampaignRun`] per `(system, dataset)`
/// cell, ordered by system index then dataset index.
#[derive(Debug)]
pub struct CampaignResult {
    /// The per-cell sweeps.
    pub runs: Vec<CampaignRun>,
}

impl CampaignResult {
    /// The sweep of one `(system, dataset)` cell.
    pub fn get(&self, system_index: usize, dataset_index: usize) -> Option<&SweepResult> {
        self.runs
            .iter()
            .find(|r| r.system_index == system_index && r.dataset_index == dataset_index)
            .map(|r| &r.result)
    }

    /// Number of `(system, dataset)` cells.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` when the campaign produced no runs (never the case for
    /// a successful [`CampaignRunner::run`]).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Runs campaigns of M systems × K datasets on a shared work pool.
///
/// The same [`SweepConfig`] (points, repetitions, master seed, parallelism)
/// applies to every system, exactly as if each were run through its own
/// [`crate::ExperimentRunner`] with that configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRunner {
    plan: SweepPlan,
}

impl CampaignRunner {
    /// Creates a campaign runner with the given per-system sweep
    /// configuration (full-factorial grid mode).
    pub fn new(config: SweepConfig) -> Self {
        Self { plan: SweepPlan::grid(config) }
    }

    /// Creates a campaign runner with an explicit sweep plan (mode and
    /// per-axis point counts), applied to every system.
    pub fn with_plan(plan: SweepPlan) -> Self {
        Self { plan }
    }

    /// The per-system sweep configuration.
    pub fn config(&self) -> SweepConfig {
        self.plan.config
    }

    /// Runs every system against every dataset.
    ///
    /// Results are deterministic for a given `(systems, datasets,
    /// config.seed)` triple regardless of thread count, and bit-identical to
    /// the corresponding independent [`crate::ExperimentRunner::run`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an invalid sweep
    /// configuration, a cached plan ([`SweepPlan::cached`]: the shared pool
    /// neither reads nor writes the measurement cache, so its cells could not
    /// match [`crate::ExperimentRunner::run`] on that plan) or empty
    /// `systems`/`datasets`. A failing work unit short-circuits the rest of
    /// the campaign, as in every pooled sweep: the error propagated is the
    /// first genuine unit error in `(system, dataset, point)` order among the
    /// units that ran (in sequential mode, exactly the first failing unit).
    /// Adaptive plans run cell by cell in `(system, dataset)` order and stop
    /// at the first failing cell.
    pub fn run(
        &self,
        systems: &[SystemDefinition],
        datasets: &[Dataset],
    ) -> Result<CampaignResult, CoreError> {
        self.plan.config.validate()?;
        if self.plan.cache_directory().is_some() {
            return Err(CoreError::InvalidConfiguration {
                reason: "campaigns cannot be cached: the shared work pool does not use the \
                         measurement cache — run each cell through ExperimentRunner::run_cached"
                    .to_string(),
            });
        }
        if systems.is_empty() {
            return Err(CoreError::InvalidConfiguration {
                reason: "a campaign needs at least one system".to_string(),
            });
        }
        if datasets.is_empty() {
            return Err(CoreError::InvalidConfiguration {
                reason: "a campaign needs at least one dataset".to_string(),
            });
        }

        // Adaptive plans trade the campaign's cross-cell pooling for per-cell
        // delegation to the [`crate::ExperimentRunner`] path: their design
        // matrix is chosen at run time (coarse pass → fit → refine) and so
        // cannot be flattened into a static unit list. Cells run one at a
        // time in (system, dataset) order (each cell still drives the shared
        // work pool internally), and the results are bit-identical to
        // independent runs by construction — it *is* that code path.
        if self.plan.mode == SweepMode::Adaptive {
            let runner = ExperimentRunner::with_plan(self.plan.clone());
            let mut runs = Vec::with_capacity(systems.len() * datasets.len());
            for (s, system) in systems.iter().enumerate() {
                for (d, dataset) in datasets.iter().enumerate() {
                    runs.push(CampaignRun {
                        system_index: s,
                        dataset_index: d,
                        system_key: system.cache_key(),
                        result: runner.run(system, dataset)?,
                    });
                }
            }
            return Ok(CampaignResult { runs });
        }

        let design_points: Vec<Vec<ConfigPoint>> =
            systems.iter().map(|s| self.plan.enumerate(&s.space())).collect::<Result<_, _>>()?;
        let master = self.plan.config.seed;
        let seed =
            |p: usize, _: &ConfigPoint, repetition: usize| derive_unit_seed(master, p, repetition);
        // Cells in (system, dataset) order: the order of the runs, and with
        // each cell's points the unit order errors are reported in.
        let mut cells = Vec::with_capacity(systems.len() * datasets.len());
        for (system, points) in systems.iter().zip(&design_points) {
            for dataset in 0..datasets.len() {
                cells.push(Cell { system, dataset, points, seed: &seed });
            }
        }
        let mut measured = measure_cells(
            &cells,
            datasets,
            self.plan.config.repetitions,
            self.plan.grain,
            self.plan.config.parallel,
        )?
        .into_iter();

        let mut runs = Vec::with_capacity(cells.len());
        for (s, (system, points)) in systems.iter().zip(&design_points).enumerate() {
            for d in 0..datasets.len() {
                let per_point: Vec<_> = measured.by_ref().take(points.len()).collect();
                runs.push(CampaignRun {
                    system_index: s,
                    dataset_index: d,
                    system_key: system.cache_key(),
                    result: assemble_sweep(&self.plan, system, points.clone(), &per_point)?,
                });
            }
        }
        Ok(CampaignResult { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{GaussianPerturbationFactory, GridCloakingFactory};
    use geopriv_metrics::{
        AreaCoverage, Direction, DistortionUtility, HotspotPreservation, Metric, MetricError,
        MetricSuite, MetricValue, PoiRetrieval, PreparedState, SuiteMetric,
    };
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new()
            .drivers(3)
            .duration_hours(3.0)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap()
    }

    fn three_systems() -> Vec<SystemDefinition> {
        vec![
            SystemDefinition::paper_geoi(),
            SystemDefinition::with_pair(
                Box::new(GridCloakingFactory::new()),
                Box::new(PoiRetrieval::default()),
                Box::new(AreaCoverage::default()),
            )
            .unwrap(),
            SystemDefinition::with_pair(
                Box::new(GaussianPerturbationFactory::new()),
                Box::new(PoiRetrieval::default()),
                Box::new(AreaCoverage::default()),
            )
            .unwrap(),
        ]
    }

    fn small_config() -> SweepConfig {
        SweepConfig { points: 4, repetitions: 2, seed: 33, parallel: true }
    }

    #[test]
    fn campaign_rejects_degenerate_inputs() {
        let runner = CampaignRunner::new(small_config());
        assert_eq!(runner.config(), small_config());
        let dataset = small_dataset(1);
        assert!(runner.run(&[], std::slice::from_ref(&dataset)).is_err());
        assert!(runner.run(&three_systems(), &[]).is_err());
        let invalid = CampaignRunner::new(SweepConfig { points: 1, ..small_config() });
        assert!(invalid.run(&three_systems(), &[dataset]).is_err());
    }

    #[test]
    fn campaign_covers_every_cell_in_order() {
        let systems = three_systems();
        let datasets = [small_dataset(2), small_dataset(3)];
        let campaign = CampaignRunner::new(small_config()).run(&systems, &datasets).unwrap();
        assert_eq!(campaign.len(), 6);
        assert!(!campaign.is_empty());
        let mut expected_cells = Vec::new();
        for s in 0..3 {
            for d in 0..2 {
                expected_cells.push((s, d));
            }
        }
        let cells: Vec<(usize, usize)> =
            campaign.runs.iter().map(|r| (r.system_index, r.dataset_index)).collect();
        assert_eq!(cells, expected_cells);
        for run in &campaign.runs {
            assert_eq!(run.result.len(), 4);
            assert_eq!(run.system_key, systems[run.system_index].cache_key());
            for column in &run.result.columns {
                for runs in &column.runs {
                    assert_eq!(runs.len(), 2);
                }
            }
        }
        assert!(campaign.get(0, 1).is_some());
        assert!(campaign.get(3, 0).is_none());
    }

    #[test]
    fn campaign_matches_independent_runs() {
        let systems = three_systems();
        let dataset = small_dataset(4);
        let config = small_config();
        let campaign =
            CampaignRunner::new(config).run(&systems, std::slice::from_ref(&dataset)).unwrap();
        for (s, system) in systems.iter().enumerate() {
            let independent = ExperimentRunner::new(config).run(system, &dataset).unwrap();
            assert_eq!(campaign.get(s, 0).unwrap(), &independent, "system {s}");
        }
    }

    #[test]
    fn per_user_campaign_cells_match_independent_per_user_runs() {
        let systems = three_systems();
        let dataset = small_dataset(4);
        let plan = SweepPlan::grid(small_config()).per_user();
        let campaign = CampaignRunner::with_plan(plan.clone())
            .run(&systems, std::slice::from_ref(&dataset))
            .unwrap();
        for (s, system) in systems.iter().enumerate() {
            let independent =
                ExperimentRunner::with_plan(plan.clone()).run(system, &dataset).unwrap();
            // Bit-identical including the user columns.
            assert_eq!(campaign.get(s, 0).unwrap(), &independent, "system {s}");
            assert_eq!(
                campaign.get(s, 0).unwrap().grain,
                crate::experiment::Grain::PerUser,
                "system {s}"
            );
            assert!(!campaign.get(s, 0).unwrap().user_columns.is_empty());
        }
    }

    #[test]
    fn adaptive_campaign_cells_match_independent_adaptive_runs() {
        let systems = three_systems();
        let datasets = [small_dataset(4), small_dataset(8)];
        let plan = SweepPlan::adaptive(small_config(), 7);
        let campaign = CampaignRunner::with_plan(plan.clone()).run(&systems, &datasets).unwrap();
        assert_eq!(campaign.len(), systems.len() * datasets.len());
        for (s, system) in systems.iter().enumerate() {
            for (d, dataset) in datasets.iter().enumerate() {
                let independent =
                    ExperimentRunner::with_plan(plan.clone()).run(system, dataset).unwrap();
                let cell = campaign.get(s, d).unwrap();
                assert_eq!(cell, &independent, "cell ({s}, {d})");
                assert_eq!(cell.mode, SweepMode::Adaptive);
                assert!(cell.len() >= 4, "adaptive cell kept its coarse pass");
            }
        }
    }

    #[test]
    fn cached_plans_are_rejected_up_front() {
        let dir = std::env::temp_dir().join(format!("geopriv-campaign-{}", std::process::id()));
        let plan = SweepPlan::grid(small_config()).cached(&dir);
        let result = CampaignRunner::with_plan(plan).run(&three_systems(), &[small_dataset(4)]);
        assert!(matches!(result, Err(CoreError::InvalidConfiguration { .. })));
        assert!(!dir.exists(), "a rejected campaign must not touch the cache directory");
    }

    #[test]
    fn multi_metric_suites_run_through_campaigns() {
        let suite_system = || {
            SystemDefinition::new(
                Box::new(GaussianPerturbationFactory::new()),
                MetricSuite::new(vec![
                    SuiteMetric::new(PoiRetrieval::default()),
                    SuiteMetric::new(DistortionUtility::default()),
                    SuiteMetric::new(AreaCoverage::default()),
                    SuiteMetric::new(HotspotPreservation::default()),
                ])
                .unwrap(),
            )
        };
        let dataset = small_dataset(9);
        let config = SweepConfig { points: 3, repetitions: 1, seed: 21, parallel: true };
        let campaign = CampaignRunner::new(config)
            .run(&[suite_system()], std::slice::from_ref(&dataset))
            .unwrap();
        let independent = ExperimentRunner::new(config).run(&suite_system(), &dataset).unwrap();
        assert_eq!(campaign.get(0, 0).unwrap(), &independent);
        assert_eq!(independent.columns.len(), 4);
    }

    /// A privacy metric that counts its `prepare` calls, to observe the
    /// campaign's prepared-state sharing.
    struct CountingMetric {
        prepares: Arc<AtomicUsize>,
        inner: PoiRetrieval,
    }

    impl Metric for CountingMetric {
        fn name(&self) -> &str {
            "counting-poi-retrieval"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn evaluate(
            &self,
            actual: &Dataset,
            protected: &Dataset,
        ) -> Result<MetricValue, MetricError> {
            self.inner.evaluate(actual, protected)
        }
        fn prepare(&self, actual: &Dataset) -> Result<PreparedState, MetricError> {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            self.inner.prepare(actual)
        }
        fn evaluate_prepared(
            &self,
            prepared: &PreparedState,
            actual: &Dataset,
            protected: &Dataset,
        ) -> Result<MetricValue, MetricError> {
            self.inner.evaluate_prepared(prepared, actual, protected)
        }
    }

    /// A privacy metric that always fails, counting its evaluation attempts.
    struct FailingMetric {
        evaluations: Arc<AtomicUsize>,
    }

    impl Metric for FailingMetric {
        fn name(&self) -> &str {
            "failing"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn evaluate(&self, _: &Dataset, _: &Dataset) -> Result<MetricValue, MetricError> {
            self.evaluations.fetch_add(1, Ordering::SeqCst);
            Err(MetricError::DatasetMismatch { reason: "always fails".to_string() })
        }
    }

    fn failing_system(evaluations: &Arc<AtomicUsize>) -> SystemDefinition {
        SystemDefinition::with_pair(
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(FailingMetric { evaluations: Arc::clone(evaluations) }),
            Box::new(AreaCoverage::default()),
        )
        .unwrap()
    }

    #[test]
    fn a_failing_unit_short_circuits_the_rest_of_the_campaign() {
        let evaluations = Arc::new(AtomicUsize::new(0));
        let system = failing_system(&evaluations);
        let dataset = small_dataset(7);
        let config = SweepConfig { points: 8, repetitions: 2, seed: 1, parallel: false };
        let result = CampaignRunner::new(config).run(std::slice::from_ref(&system), &[dataset]);
        assert!(result.is_err());
        // Sequential mode: the first unit fails, every later unit is skipped.
        assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_failing_unit_short_circuits_plain_sharded_and_adaptive_sweeps() {
        let dataset = small_dataset(7);
        let config = SweepConfig { points: 8, repetitions: 2, seed: 1, parallel: false };
        let plans = [SweepPlan::grid(config), SweepPlan::adaptive(config, 12)];
        for plan in plans {
            let evaluations = Arc::new(AtomicUsize::new(0));
            let runner = ExperimentRunner::with_plan(plan.clone());
            assert!(runner.run(&failing_system(&evaluations), &dataset).is_err());
            // Sequential mode: the first unit fails, every later unit is skipped.
            assert_eq!(evaluations.load(Ordering::SeqCst), 1, "{plan:?}");
        }
    }

    #[test]
    fn prepared_state_is_shared_across_points_repetitions_and_systems() {
        let prepares = Arc::new(AtomicUsize::new(0));
        let system_with_counter =
            |prepares: &Arc<AtomicUsize>, factory: Box<dyn crate::system::LppmFactory>| {
                SystemDefinition::with_pair(
                    factory,
                    Box::new(CountingMetric {
                        prepares: Arc::clone(prepares),
                        inner: PoiRetrieval::default(),
                    }),
                    Box::new(AreaCoverage::default()),
                )
                .unwrap()
            };
        let systems = vec![
            system_with_counter(&prepares, Box::new(GaussianPerturbationFactory::new())),
            system_with_counter(&prepares, Box::new(GridCloakingFactory::new())),
        ];
        let datasets = [small_dataset(5), small_dataset(6)];
        CampaignRunner::new(small_config()).run(&systems, &datasets).unwrap();
        // 2 systems × 2 datasets × 4 points × 2 repetitions = 32 evaluations,
        // but both systems' metrics share a cache key, so the actual POIs are
        // extracted exactly once per dataset.
        assert_eq!(prepares.load(Ordering::SeqCst), datasets.len());
    }
}
