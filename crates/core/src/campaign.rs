//! Campaign engine: many systems × many datasets through one shared work pool.
//!
//! The paper's Figure 1 family evaluates *multiple* LPPMs against the same
//! metric suite. Running each sweep through its own
//! [`crate::ExperimentRunner`] wastes work twice: every run re-extracts the
//! actual dataset's POIs and grids at each of its sweep samples, and each
//! run synchronizes on its own thread pool, leaving cores idle at every
//! sweep boundary.
//!
//! [`CampaignRunner`] fixes both. It flattens an M-system × K-dataset study
//! into one pool of `(system, dataset, point, repetition)` work units that
//! threads claim greedily, and it calls each metric's
//! [`geopriv_metrics::PrivacyMetric::prepare`] hook exactly once per distinct
//! `(metric configuration, dataset)` pair, sharing the prepared actual-side
//! state across every point, repetition, system and suite position of the
//! campaign.
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
    assemble_sweep, derive_unit_seed, run_indexed, MetricSample, SweepConfig, SweepMode, SweepPlan,
    SweepResult,
};
use crate::system::SystemDefinition;
use geopriv_lppm::ConfigPoint;
use geopriv_metrics::PreparedState;
use geopriv_metrics::{Direction, MetricId};
use geopriv_mobility::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

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

/// One schedulable work unit: a single protection + evaluation.
struct Unit {
    system: usize,
    dataset: usize,
    point: usize,
    repetition: usize,
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
    /// `systems`/`datasets`. A failing work unit
    /// short-circuits the rest of the campaign; the error propagated is the
    /// first genuine unit error in `(system, dataset, point, repetition)`
    /// order among the units that ran (in sequential mode, exactly the first
    /// failing unit).
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

        // Sharded and adaptive plans trade the campaign's cross-cell pooling
        // for per-cell delegation to the [`crate::ExperimentRunner`] path —
        // sharded for the O(shard) memory bound, adaptive because its design
        // matrix is chosen at run time (coarse pass → fit → refine) and so
        // cannot be flattened into a static unit list. Cells run one at a
        // time in (system, dataset) order (each cell still drives the shared
        // work pool internally), and the results are bit-identical to
        // independent runs by construction — it *is* that code path.
        if self.plan.user_shard_size().is_some() || self.plan.mode == SweepMode::Adaptive {
            let runner = crate::experiment::ExperimentRunner::with_plan(self.plan.clone());
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
        let prepared = self.prepare_cells(systems, datasets)?;

        // Flatten the whole campaign into one unit list. Unit index order is
        // the deterministic (system, dataset, point, repetition) order used
        // for both error reporting and result assembly.
        let mut units = Vec::new();
        for (s, points) in design_points.iter().enumerate() {
            for d in 0..datasets.len() {
                for point in 0..points.len() {
                    for repetition in 0..self.plan.config.repetitions {
                        units.push(Unit { system: s, dataset: d, point, repetition });
                    }
                }
            }
        }

        // Short-circuit flag: once any unit fails, remaining units are
        // skipped (`None`) instead of protecting and evaluating for nothing.
        // Skipped slots are distinct from errors so a skip can never mask the
        // genuine failure that caused it, whatever the thread interleaving.
        let abort = std::sync::atomic::AtomicBool::new(false);
        let measurements = run_indexed(units.len(), self.plan.config.parallel, |i| {
            if abort.load(std::sync::atomic::Ordering::Relaxed) {
                return None;
            }
            let resolved = units.get(i).and_then(|unit| {
                Some((
                    systems.get(unit.system)?,
                    datasets.get(unit.dataset)?,
                    prepared.get(unit.system)?.get(unit.dataset)?,
                    unit,
                    design_points.get(unit.system)?.get(unit.point)?,
                ))
            });
            let Some((system, dataset, cell, unit, point)) = resolved else {
                abort.store(true, std::sync::atomic::Ordering::Relaxed);
                return Some(Err(CoreError::Internal {
                    reason: format!("campaign unit {i} of {} out of range", units.len()),
                }));
            };
            let result = self.measure_unit(system, dataset, cell, unit, point);
            if result.is_err() {
                abort.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            Some(result)
        })?;

        self.assemble(systems, datasets, &design_points, &units, measurements)
    }

    /// Prepares the actual-side metric state of every `(system, dataset)`
    /// cell, sharing state between identically configured metrics: each
    /// distinct `(metric cache key, dataset)` pair is prepared exactly once
    /// per campaign, with the distinct preparation jobs running through the
    /// same work pool as the measurement units.
    ///
    /// Returns, per system and dataset, one prepared state per suite metric
    /// (in suite order).
    fn prepare_cells(
        &self,
        systems: &[SystemDefinition],
        datasets: &[Dataset],
    ) -> Result<Vec<Vec<Vec<Arc<PreparedState>>>>, CoreError> {
        /// A distinct preparation job: which system's metric (by suite
        /// position) to prepare against which dataset.
        struct PrepareJob {
            system: usize,
            metric: usize,
            dataset: usize,
        }

        // Deduplicate by (cache key, dataset) in deterministic (system,
        // dataset, suite position) order; the map points each cell's metric
        // at its job index.
        let mut jobs: Vec<PrepareJob> = Vec::new();
        let mut job_index: HashMap<(String, usize), usize> = HashMap::new();
        for (s, system) in systems.iter().enumerate() {
            for d in 0..datasets.len() {
                for (k, metric) in system.suite().iter().enumerate() {
                    job_index.entry((metric.cache_key(), d)).or_insert_with(|| {
                        jobs.push(PrepareJob { system: s, metric: k, dataset: d });
                        jobs.len() - 1
                    });
                }
            }
        }

        let states: Vec<Arc<PreparedState>> =
            run_indexed(jobs.len(), self.plan.config.parallel, |i| {
                let resolved = jobs.get(i).and_then(|job| {
                    let metric = systems.get(job.system)?.suite().metrics().get(job.metric)?;
                    Some((metric, datasets.get(job.dataset)?))
                });
                let Some((metric, dataset)) = resolved else {
                    return Err(CoreError::Internal {
                        reason: format!("preparation job {i} of {} out of range", jobs.len()),
                    });
                };
                metric.prepare(dataset).map_err(CoreError::from)
            })?
            .into_iter()
            .map(|state| state.map(Arc::new))
            .collect::<Result<_, _>>()?;

        systems
            .iter()
            .map(|system| {
                (0..datasets.len())
                    .map(|d| {
                        system
                            .suite()
                            .iter()
                            .map(|metric| {
                                job_index
                                    .get(&(metric.cache_key(), d))
                                    .and_then(|&j| states.get(j))
                                    .map(Arc::clone)
                                    .ok_or_else(|| CoreError::Internal {
                                        reason: format!(
                                            "metric \"{}\" has no prepared state for dataset {d}",
                                            metric.id()
                                        ),
                                    })
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Executes one work unit: instantiate, protect, evaluate every suite
    /// metric against the cell's prepared state, in suite order. At
    /// [`crate::experiment::Grain::PerUser`] the samples keep their
    /// user-keyed breakdowns; at dataset grain they are dropped here, inside
    /// the unit, exactly as [`crate::ExperimentRunner`] does.
    fn measure_unit(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
        cell: &[Arc<PreparedState>],
        unit: &Unit,
        point: &ConfigPoint,
    ) -> Result<Vec<MetricSample>, CoreError> {
        let lppm = system.factory().instantiate_at(point)?;
        let mut rng = StdRng::seed_from_u64(derive_unit_seed(
            self.plan.config.seed,
            unit.point,
            unit.repetition,
        ));
        let protected = lppm.protect_dataset(dataset, &mut rng)?;
        system
            .suite()
            .iter()
            .zip(cell)
            .map(|(metric, state)| {
                let measured = metric.evaluate_prepared(state, dataset, &protected)?;
                Ok(MetricSample::of(&measured, self.plan.grain))
            })
            .collect()
    }

    /// Groups per-unit measurements back into per-cell [`SweepResult`]s,
    /// reproducing [`crate::ExperimentRunner`]'s aggregation arithmetic
    /// exactly (repetitions averaged in repetition order, one column per
    /// suite metric).
    ///
    /// Returns the first genuine unit error in unit order; `None` slots mark
    /// units skipped by the short-circuit after some unit failed.
    fn assemble(
        &self,
        systems: &[SystemDefinition],
        datasets: &[Dataset],
        design_points: &[Vec<ConfigPoint>],
        units: &[Unit],
        measurements: Vec<Option<Result<Vec<MetricSample>, CoreError>>>,
    ) -> Result<CampaignResult, CoreError> {
        // (system, dataset, point) -> per-repetition metric samples.
        // Systems may sweep differently sized designs (a 2-axis grid next to
        // a 1-axis sweep), so slots are laid out with per-system offsets.
        let mut system_offset = Vec::with_capacity(systems.len());
        let mut total = 0usize;
        for points in design_points {
            system_offset.push(total);
            total += datasets.len() * points.len();
        }
        let reps = self.plan.config.repetitions;
        let slot_of = |system: usize, dataset: usize, point: usize| -> Option<usize> {
            Some(*system_offset.get(system)? + dataset * design_points.get(system)?.len() + point)
        };
        let mut per_point: Vec<Vec<Vec<MetricSample>>> = vec![Vec::with_capacity(reps); total];
        let mut skipped = false;
        for (unit, measurement) in units.iter().zip(measurements) {
            let values = match measurement {
                Some(result) => result?,
                None => {
                    skipped = true;
                    continue;
                }
            };
            let slot_samples = slot_of(unit.system, unit.dataset, unit.point)
                .and_then(|slot| per_point.get_mut(slot))
                .ok_or_else(|| CoreError::Internal {
                    reason: format!(
                        "campaign unit ({}, {}, {}) addresses no result slot",
                        unit.system, unit.dataset, unit.point
                    ),
                })?;
            // Units are generated with `repetition` innermost, and
            // `run_indexed` returns results in unit order, so pushes arrive
            // in repetition order — except when an earlier repetition was
            // skipped by the abort flag, in which case the whole campaign is
            // discarded below anyway.
            debug_assert!(skipped || slot_samples.len() == unit.repetition);
            slot_samples.push(values);
        }
        if skipped {
            // Unreachable in practice: units are only skipped after a failed
            // unit, and that failure is returned by the loop above.
            return Err(CoreError::InvalidConfiguration {
                reason: "campaign aborted without a recorded unit error".to_string(),
            });
        }

        let mut runs = Vec::with_capacity(systems.len() * datasets.len());
        for (s, system) in systems.iter().enumerate() {
            let meta: Vec<(MetricId, Direction)> =
                system.suite().iter().map(|m| (m.id(), m.direction())).collect();
            let points = design_points.get(s).ok_or_else(|| CoreError::Internal {
                reason: format!("system {s} has no enumerated design points"),
            })?;
            for d in 0..datasets.len() {
                let cell: Vec<Vec<Vec<MetricSample>>> = (0..points.len())
                    .map(|point| {
                        slot_of(s, d, point)
                            .and_then(|slot| per_point.get_mut(slot))
                            .map(std::mem::take)
                            .ok_or_else(|| CoreError::Internal {
                                reason: format!(
                                    "campaign cell ({s}, {d}, {point}) addresses no result slot"
                                ),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                runs.push(CampaignRun {
                    system_index: s,
                    dataset_index: d,
                    system_key: system.cache_key(),
                    result: assemble_sweep(
                        system.factory().name(),
                        system.space(),
                        self.plan.mode,
                        self.plan.grain,
                        points.clone(),
                        &meta,
                        &cell,
                    )?,
                });
            }
        }
        Ok(CampaignResult { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentRunner;
    use crate::system::{GaussianPerturbationFactory, GridCloakingFactory};
    use geopriv_metrics::{
        AreaCoverage, DistortionUtility, HotspotPreservation, MetricError, MetricSuite,
        MetricValue, PoiRetrieval, PrivacyMetric, SuiteMetric,
    };
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn sharded_campaign_cells_match_independent_sharded_runs() {
        let systems = three_systems();
        let datasets = [small_dataset(4), small_dataset(8)];
        let plan = SweepPlan::grid(small_config()).per_user().shard_users(1);
        let campaign = CampaignRunner::with_plan(plan.clone()).run(&systems, &datasets).unwrap();
        assert_eq!(campaign.len(), systems.len() * datasets.len());
        for (s, system) in systems.iter().enumerate() {
            for (d, dataset) in datasets.iter().enumerate() {
                let independent =
                    ExperimentRunner::with_plan(plan.clone()).run(system, dataset).unwrap();
                assert_eq!(campaign.get(s, d).unwrap(), &independent, "cell ({s}, {d})");
            }
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
                    SuiteMetric::privacy(PoiRetrieval::default()),
                    SuiteMetric::utility(DistortionUtility::default()),
                    SuiteMetric::utility(AreaCoverage::default()),
                    SuiteMetric::utility(HotspotPreservation::default()),
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

    impl PrivacyMetric for CountingMetric {
        fn name(&self) -> &str {
            "counting-poi-retrieval"
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

    impl PrivacyMetric for FailingMetric {
        fn name(&self) -> &str {
            "failing"
        }
        fn evaluate(&self, _: &Dataset, _: &Dataset) -> Result<MetricValue, MetricError> {
            self.evaluations.fetch_add(1, Ordering::SeqCst);
            Err(MetricError::DatasetMismatch { reason: "always fails".to_string() })
        }
    }

    #[test]
    fn a_failing_unit_short_circuits_the_rest_of_the_campaign() {
        let evaluations = Arc::new(AtomicUsize::new(0));
        let system = SystemDefinition::with_pair(
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(FailingMetric { evaluations: Arc::clone(&evaluations) }),
            Box::new(AreaCoverage::default()),
        )
        .unwrap();
        let dataset = small_dataset(7);
        let config = SweepConfig { points: 8, repetitions: 2, seed: 1, parallel: false };
        let result = CampaignRunner::new(config).run(std::slice::from_ref(&system), &[dataset]);
        assert!(result.is_err());
        // Sequential mode: the first unit fails, every later unit is skipped.
        assert_eq!(evaluations.load(Ordering::SeqCst), 1);
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
