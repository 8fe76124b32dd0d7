//! The fluent `AutoConf` facade: define → sweep → fit → require → recommend
//! in one call chain.
//!
//! The explicit path through the framework (build an
//! [`ExperimentRunner`], run it, feed the sweep to a [`Modeler`], wrap the
//! fit in a [`Configurator`], invert under [`Objectives`]) stays available
//! and is what this facade drives underneath — `AutoConf` only removes the
//! plumbing, never changes the numbers. The chain is typestate-shaped:
//! [`AutoConf::dataset`] is needed before [`AutoConfWithData::fit`], and
//! [`FittedAutoConf::recommend`] only exists after `fit()`, so "invert before
//! measuring" is unrepresentable rather than a runtime error.
//!
//! Multi-axis systems (composed pipelines, multi-parameter mechanisms) flow
//! through the same chain: configure the design with
//! [`SweepBuilder::points`] (per axis) and [`SweepBuilder::one_at_a_time`],
//! and the recommendation surfaces a full [`geopriv_core::ConfigPoint`].
//!
//! ```no_run
//! use geopriv::prelude::*;
//! use geopriv::AutoConf;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), geopriv::Error> {
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let dataset = TaxiFleetBuilder::new().drivers(10).duration_hours(8.0).build(&mut rng)?;
//! let recommendation = AutoConf::for_system(SystemDefinition::paper_geoi())
//!     .dataset(&dataset)
//!     .sweep(|s| s.points(25).seed(42))
//!     .fit()?
//!     .require("poi-retrieval", at_most(0.1))?
//!     .require("area-coverage", at_least(0.8))?
//!     .recommend()?;
//! println!("use ε = {:.4}", recommendation.parameter());
//! # Ok(())
//! # }
//! ```

use crate::error::Error;
use geopriv_core::{
    CacheStats, Configurator, Constraint, ExperimentRunner, FittedSuite, Grain, HoldOutValidator,
    MetricId, Modeler, Objectives, ParetoFrontier, PerUserFits, PerUserRecommendation,
    Recommendation, SweepConfig, SweepResult, SystemDefinition, UserRecommendation, UserVerdict,
    ValidationReport,
};
use geopriv_lppm::ConfigPoint;
use geopriv_metrics::DatasetFingerprint;
use geopriv_mobility::{Dataset, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fluent configuration of the underlying sweep
/// ([`geopriv_core::SweepPlan`]), passed to [`AutoConfWithData::sweep`] as
/// a closure argument.
///
/// (Named `SweepBuilder` so the prelude can also export the core
/// [`geopriv_core::SweepPlan`] it configures without a glob collision.)
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBuilder {
    plan: geopriv_core::SweepPlan,
}

impl SweepBuilder {
    fn new(plan: geopriv_core::SweepPlan) -> Self {
        Self { plan }
    }

    /// Number of sweep points on every configuration axis (default 25).
    #[must_use]
    pub fn points(mut self, points: usize) -> Self {
        self.plan.config.points = points;
        self
    }

    /// Switches the design to the paper's one-at-a-time mode: each axis
    /// sweeps in turn while the other axes sit at their defaults (the
    /// default is the full-factorial grid).
    #[must_use]
    pub fn one_at_a_time(mut self) -> Self {
        self.plan.mode = geopriv_core::SweepMode::OneAtATime;
        self
    }

    /// Switches the design to the staged adaptive mode
    /// ([`geopriv_core::SweepMode::Adaptive`]): a coarse grid pass (at the
    /// configured points-per-axis), then model-guided refinement near the
    /// fitted feasibility boundaries until `budget` total evaluations are
    /// spent. A budget at or below the coarse-pass size disables refinement,
    /// which makes the run bit-identical to the plain grid.
    #[must_use]
    pub fn adaptive(mut self, budget: usize) -> Self {
        self.plan = self.plan.refine(budget);
        self
    }

    /// Records per-user response curves alongside the dataset means
    /// ([`Grain::PerUser`]), unlocking
    /// [`FittedAutoConf::recommend_per_user`]. The aggregate columns stay
    /// bit-identical to a dataset-grain sweep with the same seed.
    #[must_use]
    pub fn per_user(mut self) -> Self {
        self.plan = self.plan.per_user();
        self
    }

    /// Number of protection/evaluation repetitions per point (default 1).
    #[must_use]
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.plan.config.repetitions = repetitions;
        self
    }

    /// Master seed of the sweep's deterministic RNG derivation.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.plan.config.seed = seed;
        self
    }

    /// Persists per-user measurements under `dir` and reuses them across
    /// runs — exactly [`geopriv_core::SweepPlan::cached`]: a warm run loads
    /// unchanged users from the on-disk cache, re-measures only changed
    /// users, and is **bit-identical to a cold full run**. Unlocks
    /// [`FittedAutoConf::refresh`] and [`FittedAutoConf::cache_stats`].
    #[must_use]
    pub fn cached(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.plan = self.plan.cached(dir);
        self
    }
}

/// Entry state of the facade: a system, not yet bound to a dataset.
///
/// See the [module docs](self) for the full chain.
pub struct AutoConf {
    system: SystemDefinition,
}

impl AutoConf {
    /// Starts a configuration study for one system.
    pub fn for_system(system: SystemDefinition) -> Self {
        Self { system }
    }

    /// Binds the dataset to study, unlocking [`AutoConfWithData::sweep`]
    /// and [`AutoConfWithData::fit`].
    pub fn dataset(self, dataset: &Dataset) -> AutoConfWithData<'_> {
        let plan = geopriv_core::SweepPlan::grid(SweepConfig::default());
        AutoConfWithData { system: self.system, plan, dataset }
    }
}

/// A system bound to a dataset — ready to measure and fit.
pub struct AutoConfWithData<'a> {
    system: SystemDefinition,
    plan: geopriv_core::SweepPlan,
    dataset: &'a Dataset,
}

impl<'a> AutoConfWithData<'a> {
    /// Adjusts the sweep settings.
    #[must_use]
    pub fn sweep(mut self, configure: impl FnOnce(SweepBuilder) -> SweepBuilder) -> Self {
        self.plan = configure(SweepBuilder::new(self.plan)).plan;
        self
    }

    /// Runs the sweep and fits every suite metric's model — exactly
    /// [`ExperimentRunner::run`] followed by [`Modeler::fit`]. On a
    /// per-user sweep ([`SweepBuilder::per_user`]) the per-user models are
    /// fitted too, from the same single sweep.
    ///
    /// # Errors
    ///
    /// Propagates sweep and modeling errors.
    pub fn fit(self) -> Result<FittedAutoConf<'a>, Error> {
        let runner = ExperimentRunner::with_plan(self.plan.clone());
        let (sweep, cache_stats) = if self.plan.cache_directory().is_some() {
            let cached = runner.run_cached(&self.system, self.dataset)?;
            (cached.result, Some(cached.stats))
        } else {
            (runner.run(&self.system, self.dataset)?, None)
        };
        let fitted = Modeler::new().fit(&sweep)?;
        let per_user = match self.plan.grain {
            Grain::PerUser => Some(Modeler::new().fit_per_user(&sweep)?),
            Grain::Dataset => None,
        };
        let configurator = Configurator::new(fitted);
        Ok(FittedAutoConf {
            system: self.system,
            dataset: self.dataset,
            plan: self.plan,
            sweep,
            per_user,
            configurator,
            objectives: Objectives::new(),
            cache_stats,
        })
    }
}

/// Why one user's recommendation moved in a [`FittedAutoConf::refresh`].
///
/// Reasons are assigned with a fixed precedence (first match wins): a user
/// absent from the previous recommendation is [`MoveReason::NewUser`]; a
/// user whose own traces changed is [`MoveReason::TraceDrift`]; a user
/// riding the dataset-level fallback point when that anchor itself moved is
/// [`MoveReason::FallbackAnchorMoved`]; anything else is
/// [`MoveReason::ModelShift`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveReason {
    /// The user's own trace records changed, so her curves were re-measured
    /// and her models refitted.
    TraceDrift,
    /// The user was not present in the previous dataset at all.
    NewUser,
    /// The user rides the dataset-level fallback point, and that anchor
    /// moved because the dataset-level models shifted.
    FallbackAnchorMoved,
    /// The user's own traces did not change, but her recommendation moved
    /// anyway — e.g. her verdict flipped against the shifted dataset anchor.
    ModelShift,
}

impl MoveReason {
    /// Short machine-stable label (`trace-drift` / `new-user` /
    /// `fallback-anchor-moved` / `model-shift`).
    pub fn label(&self) -> &'static str {
        match self {
            MoveReason::TraceDrift => "trace-drift",
            MoveReason::NewUser => "new-user",
            MoveReason::FallbackAnchorMoved => "fallback-anchor-moved",
            MoveReason::ModelShift => "model-shift",
        }
    }
}

/// One user whose recommendation moved in a [`FittedAutoConf::refresh`]:
/// the old and new points and verdicts, plus why the move happened.
#[derive(Debug, Clone, PartialEq)]
pub struct MovedUser {
    /// The user whose recommendation moved.
    pub user: UserId,
    /// Why it moved (see [`MoveReason`] for the precedence).
    pub reason: MoveReason,
    /// The previously recommended point (`None` for a new user).
    pub old_point: Option<ConfigPoint>,
    /// The previous feasibility verdict (`None` for a new user).
    pub old_verdict: Option<UserVerdict>,
    /// The newly recommended point.
    pub new_point: ConfigPoint,
    /// The new feasibility verdict.
    pub new_verdict: UserVerdict,
}

/// What a [`FittedAutoConf::refresh`] actually did: which users changed,
/// how much measurement and modeling was reused, and whose recommendations
/// moved (with reasons).
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshReport {
    /// Users whose trace records differ from the previous dataset (new
    /// users included), per the per-user [`DatasetFingerprint`]s.
    pub changed_users: Vec<UserId>,
    /// Users present in the previous dataset but absent from the new one
    /// (their cache entries stay on disk; they simply stop being resolved).
    pub removed_users: Vec<UserId>,
    /// Users whose measurements were served from the on-disk cache.
    pub cache_hits: usize,
    /// Users re-measured because their fingerprints changed (or the cache
    /// had no usable entry for them).
    pub remeasured: usize,
    /// Users whose models were refitted (changed or new); everyone else's
    /// [`geopriv_core::UserFit`] was carried over verbatim.
    pub refitted: usize,
    /// Whether the dataset-level recommendation (the fallback anchor) moved.
    pub dataset_point_moved: bool,
    /// Every user whose recommended point or verdict changed, with why.
    pub moved: Vec<MovedUser>,
    /// Cache warnings encountered during the refresh (corrupt or unwritable
    /// cache files). Warnings never change the result, only the cost.
    pub warnings: Vec<String>,
}

impl std::fmt::Display for RefreshReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} changed / {} removed user(s); {} cached, {} re-measured, {} refitted; \
             {} recommendation(s) moved{}",
            self.changed_users.len(),
            self.removed_users.len(),
            self.cache_hits,
            self.remeasured,
            self.refitted,
            self.moved.len(),
            if self.dataset_point_moved { " (dataset anchor moved)" } else { "" },
        )
    }
}

/// The fitted state: models exist, constraints can be stated and inverted.
///
/// Only this state exposes [`FittedAutoConf::recommend`] — the typestate
/// guarantee that inversion never runs before measurement.
pub struct FittedAutoConf<'a> {
    system: SystemDefinition,
    dataset: &'a Dataset,
    plan: geopriv_core::SweepPlan,
    sweep: SweepResult,
    per_user: Option<PerUserFits>,
    configurator: Configurator,
    objectives: Objectives,
    cache_stats: Option<CacheStats>,
}

impl FittedAutoConf<'_> {
    /// Adds a constraint on one suite metric ([`geopriv_core::at_most`] /
    /// [`geopriv_core::at_least`]).
    ///
    /// # Errors
    ///
    /// * [`geopriv_core::CoreError::UnknownMetric`] if `metric` was not part
    ///   of the swept suite (fails fast, at the call naming the metric).
    /// * [`geopriv_core::CoreError::InvalidConfiguration`] for a bound
    ///   outside `[0, 1]`.
    pub fn require(
        mut self,
        metric: impl Into<MetricId>,
        constraint: Constraint,
    ) -> Result<Self, Error> {
        let metric = metric.into();
        if self.fitted().model(&metric).is_none() {
            return Err(geopriv_core::CoreError::UnknownMetric {
                metric: metric.to_string(),
                available: self.fitted().ids().iter().map(MetricId::to_string).collect(),
            }
            .into());
        }
        self.objectives = self.objectives.require(metric, constraint)?;
        Ok(self)
    }

    /// The system under study.
    pub fn system(&self) -> &SystemDefinition {
        &self.system
    }

    /// The measured sweep.
    pub fn sweep_result(&self) -> &SweepResult {
        &self.sweep
    }

    /// The fitted per-metric models.
    pub fn fitted(&self) -> &FittedSuite {
        self.configurator.fitted()
    }

    /// The constraints stated so far.
    pub fn objectives(&self) -> &Objectives {
        &self.objectives
    }

    /// The measured trade-off frontier over the default metric pair (first
    /// lower-is-better vs first higher-is-better metric).
    ///
    /// # Errors
    ///
    /// Propagates [`ParetoFrontier::from_sweep`] errors.
    pub fn frontier(&self) -> Result<ParetoFrontier, Error> {
        Ok(ParetoFrontier::from_sweep(&self.sweep)?)
    }

    /// The measured trade-off frontier over an explicitly chosen metric pair.
    ///
    /// # Errors
    ///
    /// Propagates [`ParetoFrontier::for_pair`] errors.
    pub fn frontier_for(&self, x: &MetricId, y: &MetricId) -> Result<ParetoFrontier, Error> {
        Ok(ParetoFrontier::for_pair(&self.sweep, x, y)?)
    }

    /// Inverts the fitted models under the stated constraints — exactly
    /// [`Configurator::recommend`]. The recommendation carries a full
    /// [`ConfigPoint`] (one value per axis of the system's space).
    ///
    /// # Errors
    ///
    /// * [`geopriv_core::CoreError::InvalidConfiguration`] when no constraint
    ///   was stated.
    /// * [`geopriv_core::CoreError::Infeasible`] when the constraints
    ///   conflict.
    pub fn recommend(&self) -> Result<Recommendation, Error> {
        Ok(self.configurator.recommend(&self.objectives)?)
    }

    /// The per-user fitted models, when the sweep ran at
    /// [`Grain::PerUser`].
    pub fn per_user_models(&self) -> Option<&PerUserFits> {
        self.per_user.as_ref()
    }

    /// Inverts every user's own models under the stated constraints —
    /// exactly [`Configurator::recommend_per_user`]: each user gets her own
    /// [`ConfigPoint`] with an explicit feasibility verdict; infeasible and
    /// unmodeled users fall back to the dataset-level point, per the
    /// normative fallback policy documented on
    /// [`geopriv_core::UserVerdict`].
    ///
    /// # Errors
    ///
    /// * [`geopriv_core::CoreError::InvalidConfiguration`] when the sweep was
    ///   not per-user (request it with `.sweep(|s| s.per_user())`) or no
    ///   constraint was stated.
    /// * [`geopriv_core::CoreError::Infeasible`] when even the dataset-level
    ///   models admit no satisfying configuration (no fallback anchor).
    pub fn recommend_per_user(&self) -> Result<PerUserRecommendation, Error> {
        let Some(per_user) = &self.per_user else {
            return Err(geopriv_core::CoreError::InvalidConfiguration {
                reason: "per-user recommendation needs a per-user sweep — request it with \
                         .sweep(|s| s.per_user()) before fit()"
                    .to_string(),
            }
            .into());
        };
        Ok(self.configurator.recommend_per_user(per_user, &self.objectives)?)
    }

    /// Cache statistics of the sweep behind this fit — how many users were
    /// served from the on-disk measurement cache vs re-measured, plus any
    /// cache warnings. `Some` only when the sweep ran with
    /// [`SweepBuilder::cached`].
    pub fn cache_stats(&self) -> Option<&CacheStats> {
        self.cache_stats.as_ref()
    }

    /// Re-runs the study against a *changed* dataset, reusing every
    /// measurement and model the change did not touch — the facade of the
    /// incremental-recomputation path:
    ///
    /// 1. per-user [`DatasetFingerprint`]s classify users into unchanged /
    ///    changed / new / removed;
    /// 2. the cached sweep ([`geopriv_core::SweepPlan::cached`]) loads
    ///    unchanged users from disk and re-measures only changed users,
    ///    under the same identity-keyed seed streams a cold run would use;
    /// 3. [`Modeler::refit_per_user`] refits only changed users' models;
    /// 4. the constraints carry over and every user's recommendation is
    ///    re-inverted; the [`RefreshReport`] names each user whose
    ///    recommendation moved and why ([`MoveReason`]).
    ///
    /// The refreshed study is **bit-identical to a cold full study of the
    /// changed dataset** (sweep columns, fits, every recommendation) — the
    /// workspace's warm≡cold contract, asserted by the incremental
    /// integration tests and, on the `run_cached` / `refit_per_user` path
    /// underneath, by the `fleet-refresh` benchmark workload on every run.
    ///
    /// Consumes `self`: the refreshed study replaces it, bound to the
    /// changed dataset.
    ///
    /// # Errors
    ///
    /// * [`geopriv_core::CoreError::InvalidConfiguration`] when the study
    ///   did not run with a measurement cache ([`SweepBuilder::cached`]) or
    ///   a per-user sweep ([`SweepBuilder::per_user`]), or when no
    ///   constraint was stated (there are no recommendations to diff).
    /// * Propagates sweep, modeling and inversion errors.
    pub fn refresh<'b>(
        self,
        changed: &'b Dataset,
    ) -> Result<(FittedAutoConf<'b>, RefreshReport), Error> {
        if self.plan.cache_directory().is_none() {
            return Err(geopriv_core::CoreError::InvalidConfiguration {
                reason: "refresh needs a measurement cache — request it with \
                         .sweep(|s| s.cached(dir)) before fit()"
                    .to_string(),
            }
            .into());
        }
        let Some(previous_fits) = self.per_user.as_ref() else {
            return Err(geopriv_core::CoreError::InvalidConfiguration {
                reason: "refresh needs a per-user sweep — request it with \
                         .sweep(|s| s.per_user()) before fit()"
                    .to_string(),
            }
            .into());
        };
        let old_rec = self.recommend_per_user()?;

        // Classify users by per-user fingerprint: changed (new included),
        // removed, unchanged.
        let old_fp = DatasetFingerprint::of(self.dataset);
        let new_fp = DatasetFingerprint::of(changed);
        let changed_users = new_fp.changed_users(&old_fp);
        let changed_set: std::collections::BTreeSet<UserId> =
            changed_users.iter().copied().collect();
        let surviving: std::collections::BTreeSet<UserId> =
            new_fp.per_user().into_iter().map(|(user, _)| user).collect();
        let removed_users: Vec<UserId> = old_fp
            .per_user()
            .into_iter()
            .map(|(user, _)| user)
            .filter(|user| !surviving.contains(user))
            .collect();

        // Warm sweep: unchanged users come from disk, changed users are
        // re-measured under their own identity-keyed seed streams.
        let cached =
            ExperimentRunner::with_plan(self.plan.clone()).run_cached(&self.system, changed)?;
        let stats = cached.stats;
        let sweep = cached.result;
        let fitted = Modeler::new().fit(&sweep)?;

        // Incremental refit: unchanged users' fits carry over verbatim.
        let previously_fitted: std::collections::BTreeSet<UserId> =
            previous_fits.users.iter().map(|fit| fit.user).collect();
        let refitted = sweep
            .users()
            .iter()
            .filter(|user| changed_set.contains(*user) || !previously_fitted.contains(*user))
            .count();
        let per_user = Modeler::new().refit_per_user(&sweep, previous_fits, &changed_users)?;

        let refreshed = FittedAutoConf {
            system: self.system,
            dataset: changed,
            plan: self.plan,
            sweep,
            per_user: Some(per_user),
            configurator: Configurator::new(fitted),
            objectives: self.objectives,
            cache_stats: Some(stats.clone()),
        };
        let new_rec = refreshed.recommend_per_user()?;

        // Diff the recommendations: who moved, and why.
        let dataset_point_moved = new_rec.dataset.point != old_rec.dataset.point;
        let mut old_rows = std::collections::BTreeMap::<UserId, &UserRecommendation>::new();
        for row in &old_rec.users {
            old_rows.entry(row.user).or_insert(row);
        }
        let mut moved = Vec::new();
        for row in &new_rec.users {
            let old_row = old_rows.get(&row.user).copied();
            let unchanged_row =
                old_row.is_some_and(|old| old.point == row.point && old.verdict == row.verdict);
            if unchanged_row {
                continue;
            }
            let reason = if old_row.is_none() {
                MoveReason::NewUser
            } else if changed_set.contains(&row.user) {
                MoveReason::TraceDrift
            } else if !row.verdict.is_feasible() && dataset_point_moved {
                MoveReason::FallbackAnchorMoved
            } else {
                MoveReason::ModelShift
            };
            moved.push(MovedUser {
                user: row.user,
                reason,
                old_point: old_row.map(|old| old.point.clone()),
                old_verdict: old_row.map(|old| old.verdict.clone()),
                new_point: row.point.clone(),
                new_verdict: row.verdict.clone(),
            });
        }

        let report = RefreshReport {
            changed_users,
            removed_users,
            cache_hits: stats.hits,
            remeasured: stats.misses,
            refitted,
            dataset_point_moved,
            moved,
            warnings: stats.warnings,
        };
        Ok((refreshed, report))
    }

    /// Hold-out validation of the fitted models: split the dataset by
    /// alternating users, fit on one half, and measure the per-metric
    /// prediction error on the other — exactly
    /// [`HoldOutValidator::validate`] with this study's sweep plan (at
    /// dataset grain; the split sweeps need no per-user curves).
    ///
    /// # Errors
    ///
    /// Propagates [`HoldOutValidator::validate`] errors (fewer than two
    /// users, sweep or modeling failures on a split half).
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use geopriv::prelude::*;
    /// use geopriv::AutoConf;
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), geopriv::Error> {
    /// # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// # let dataset = TaxiFleetBuilder::new().drivers(8).duration_hours(8.0).build(&mut rng)?;
    /// let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
    ///     .dataset(&dataset)
    ///     .sweep(|s| s.points(15).seed(42))
    ///     .fit()?;
    /// let report = studied.validate()?;
    /// println!("{report}");
    /// # Ok(())
    /// # }
    /// ```
    pub fn validate(&self) -> Result<ValidationReport, Error> {
        let plan = self.plan.clone().grain(Grain::Dataset);
        Ok(HoldOutValidator::with_plan(plan).validate(&self.system, self.dataset)?)
    }

    /// Double-checks a recommendation against the data rather than the
    /// models: instantiate the mechanism at `point`, protect `dataset` with
    /// a fresh RNG seeded from `seed`, and re-measure every suite metric
    /// directly. Returns `(metric id, measured value)` in suite order.
    ///
    /// # Errors
    ///
    /// Propagates instantiation, protection and metric errors.
    pub fn measure_at_point(
        &self,
        dataset: &Dataset,
        point: &ConfigPoint,
        seed: u64,
    ) -> Result<Vec<(MetricId, f64)>, Error> {
        let lppm = self.system.factory().instantiate_at(point)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = lppm.protect_dataset(dataset, &mut rng)?;
        self.system
            .suite()
            .iter()
            .map(|metric| Ok((metric.id(), metric.evaluate(dataset, &protected)?.value())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_core::{
        at_least, at_most, CoreError, GeoIndistinguishabilityFactory, GridCloakingFactory,
        PipelineFactory,
    };
    use geopriv_metrics::{
        AreaCoverage, DistortionUtility, HotspotPreservation, MetricSuite, PoiRetrieval,
        SuiteMetric,
    };
    use geopriv_mobility::generator::TaxiFleetBuilder;

    fn dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(7);
        TaxiFleetBuilder::new()
            .drivers(6)
            .duration_hours(8.0)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap()
    }

    fn composed_system() -> SystemDefinition {
        SystemDefinition::with_pair(
            Box::new(
                PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                    .then(GridCloakingFactory::with_range(100.0, 2000.0).unwrap()),
            ),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .unwrap()
    }

    #[test]
    fn the_facade_reproduces_the_explicit_path_exactly() {
        let dataset = dataset();
        let config = SweepConfig { points: 13, repetitions: 1, seed: 42, parallel: true };

        // Explicit path.
        let system = SystemDefinition::paper_geoi();
        let sweep = ExperimentRunner::new(config).run(&system, &dataset).unwrap();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let configurator = Configurator::new(fitted.clone());

        // Facade path, stated in full, and again with the repetition default
        // left alone.
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(13).repetitions(1).seed(42))
            .fit()
            .unwrap();
        let defaults = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(config.points).seed(config.seed))
            .fit()
            .unwrap();
        assert_eq!((defaults.sweep_result(), defaults.fitted()), (&sweep, &fitted));

        // Bit-identical, not merely close, at objectives this six-driver
        // fleet meets at every sweep seed.
        let recommendation = studied
            .require("poi-retrieval", at_most(0.15))
            .unwrap()
            .require("area-coverage", at_least(0.75))
            .unwrap()
            .recommend()
            .unwrap();
        let objectives = Objectives::new()
            .require("poi-retrieval", at_most(0.15))
            .and_then(|o| o.require("area-coverage", at_least(0.75)))
            .unwrap();
        assert_eq!(recommendation, configurator.recommend(&objectives).unwrap());
    }

    #[test]
    fn the_facade_and_the_explicit_path_agree_on_the_paper_objectives() {
        // This six-driver fleet meets the paper's objectives at only some
        // sweep seeds: both paths must reach the same outcome, feasible or not.
        let dataset = dataset();
        let config = SweepConfig { points: 13, repetitions: 1, seed: 42, parallel: true };
        let system = SystemDefinition::paper_geoi();
        let sweep = ExperimentRunner::new(config).run(&system, &dataset).unwrap();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let explicit = Configurator::new(fitted).recommend(&Objectives::paper_example());
        let facade = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(13).repetitions(1).seed(42))
            .fit()
            .unwrap()
            .require("poi-retrieval", at_most(0.1))
            .unwrap()
            .require("area-coverage", at_least(0.8))
            .unwrap()
            .recommend();
        assert_eq!(facade.map_err(|e| e.to_string()), explicit.map_err(|e| e.to_string()));
    }

    #[test]
    fn unknown_metrics_fail_fast_at_require() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(1))
            .fit()
            .unwrap();
        let error = studied.require("poi-retrival", at_most(0.1)).err().expect("must fail");
        match error {
            Error::Core(CoreError::UnknownMetric { metric, available }) => {
                assert_eq!(metric, "poi-retrival");
                assert!(available.contains(&"poi-retrieval".to_string()));
            }
            other => panic!("expected unknown metric, got {other:?}"),
        }
    }

    #[test]
    fn recommend_without_constraints_is_a_typed_error() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(1))
            .fit()
            .unwrap();
        assert!(matches!(
            studied.recommend(),
            Err(Error::Core(CoreError::InvalidConfiguration { .. }))
        ));
    }

    #[test]
    fn a_four_metric_suite_flows_through_the_same_chain() {
        let dataset = dataset();
        let system = SystemDefinition::new(
            Box::new(geopriv_core::GeoIndistinguishabilityFactory::new()),
            MetricSuite::new(vec![
                SuiteMetric::new(PoiRetrieval::default()),
                SuiteMetric::new(DistortionUtility::default()),
                SuiteMetric::new(AreaCoverage::default()),
                SuiteMetric::new(HotspotPreservation::default()),
            ])
            .unwrap(),
        );
        let studied = AutoConf::for_system(system)
            .dataset(&dataset)
            .sweep(|s| s.points(13).seed(5))
            .fit()
            .unwrap();
        assert_eq!(studied.sweep_result().columns.len(), 4);
        assert_eq!(studied.fitted().models.len(), 4);

        let recommendation = studied
            .require("poi-retrieval", at_most(0.3))
            .unwrap()
            .require("area-coverage", at_least(0.5))
            .unwrap()
            .recommend()
            .unwrap();
        // Every suite metric gets a prediction, constrained or not.
        assert_eq!(recommendation.predictions.len(), 4);
        // The frontier generalizes to any pair.
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(5))
            .fit()
            .unwrap();
        let frontier = studied.frontier().unwrap();
        assert!(!frontier.is_empty());
    }

    #[test]
    fn a_two_axis_pipeline_flows_through_the_same_chain() {
        let dataset = dataset();
        let studied = AutoConf::for_system(composed_system())
            .dataset(&dataset)
            .sweep(|s| s.points(5).seed(11))
            .fit()
            .unwrap();
        // 5 epsilon values × 5 cell sizes.
        assert_eq!(studied.sweep_result().len(), 25);
        assert_eq!(studied.sweep_result().space.names(), vec!["epsilon", "cell_size"]);

        let studied = studied
            .require("poi-retrieval", at_most(0.6))
            .unwrap()
            .require("area-coverage", at_least(0.3))
            .unwrap();
        let recommendation = studied.recommend().unwrap();
        // The recommendation is a full configuration point with predictions
        // satisfying the stated constraints.
        assert_eq!(recommendation.point.len(), 2);
        assert!(at_most(0.6)
            .is_satisfied_by(recommendation.predicted(&"poi-retrieval".into()).unwrap()));
        assert!(at_least(0.3)
            .is_satisfied_by(recommendation.predicted(&"area-coverage".into()).unwrap()));

        // Every suite metric re-measures at the recommended point.
        let measured = studied.measure_at_point(&dataset, &recommendation.point, 3).unwrap();
        assert_eq!(measured.len(), 2);
    }

    #[test]
    fn one_at_a_time_mode_flows_through_the_facade() {
        let dataset = dataset();
        let studied = AutoConf::for_system(composed_system())
            .dataset(&dataset)
            .sweep(|s| s.one_at_a_time().points(7).seed(13))
            .fit()
            .unwrap();
        // 7 points per axis, 2 axes, no cross terms: 14 design points.
        assert_eq!(studied.sweep_result().len(), 14);
        assert_eq!(studied.sweep_result().mode, geopriv_core::SweepMode::OneAtATime);
        // Recommendation still produces a full point.
        let recommendation =
            studied.require("poi-retrieval", at_most(0.9)).unwrap().recommend().unwrap();
        assert_eq!(recommendation.point.len(), 2);
    }

    #[test]
    fn per_user_flow_runs_through_the_facade() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(13).seed(42).per_user())
            .fit()
            .unwrap()
            .require("poi-retrieval", at_most(0.6))
            .unwrap()
            .require("area-coverage", at_least(0.3))
            .unwrap();

        // The per-user grain is recorded and modeled.
        assert_eq!(studied.sweep_result().grain, geopriv_core::Grain::PerUser);
        let models = studied.per_user_models().unwrap();
        assert!(!models.is_empty());

        // The aggregate columns are bit-identical to a dataset-grain sweep
        // with the same seed — the facade's equivalence contract.
        let dataset_grain = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(13).seed(42))
            .fit()
            .unwrap();
        assert_eq!(studied.sweep_result().columns, dataset_grain.sweep_result().columns);
        assert_eq!(studied.sweep_result().points, dataset_grain.sweep_result().points);

        // Per-user recommendation: one row per modeled user, anchored on the
        // dataset recommendation.
        let recommendation = studied.recommend_per_user().unwrap();
        assert_eq!(recommendation.dataset, studied.recommend().unwrap());
        assert_eq!(recommendation.users.len(), models.len());
        for user in &recommendation.users {
            if user.verdict.is_feasible() {
                assert!(
                    at_most(0.6).is_satisfied_by(user.predicted(&"poi-retrieval".into()).unwrap())
                );
                assert!(
                    at_least(0.3).is_satisfied_by(user.predicted(&"area-coverage".into()).unwrap())
                );
            } else {
                assert_eq!(user.point, recommendation.dataset.point);
            }
        }
    }

    #[test]
    fn per_user_recommendation_requires_a_per_user_sweep() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(1))
            .fit()
            .unwrap()
            .require("poi-retrieval", at_most(0.5))
            .unwrap();
        assert!(studied.per_user_models().is_none());
        match studied.recommend_per_user() {
            Err(Error::Core(CoreError::InvalidConfiguration { reason })) => {
                assert!(reason.contains("per_user"), "reason: {reason}");
            }
            other => panic!("expected invalid configuration, got {other:?}"),
        }
    }

    #[test]
    fn validate_wraps_the_hold_out_validator() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(13))
            .fit()
            .unwrap();
        let report = studied.validate().unwrap();
        assert_eq!(report.training_traces + report.validation_traces, dataset.len());
        assert!(report.error(&"poi-retrieval".into()).is_some());
        assert!(report.error(&"area-coverage".into()).is_some());
        // Identical to driving the validator by hand with the same plan.
        let by_hand =
            geopriv_core::HoldOutValidator::with_plan(geopriv_core::SweepPlan::grid(SweepConfig {
                points: 9,
                repetitions: 1,
                seed: 13,
                parallel: true,
            }))
            .validate(studied.system(), &dataset)
            .unwrap();
        assert_eq!(report, by_hand);
    }

    #[test]
    fn measure_at_reevaluates_every_suite_metric() {
        let dataset = dataset();
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(9).seed(3))
            .fit()
            .unwrap();
        let point = studied.system().space().point(&[("epsilon", 0.01)]).unwrap();
        let measured = studied.measure_at_point(&dataset, &point, 99).unwrap();
        assert_eq!(measured.len(), 2);
        assert_eq!(measured[0].0, MetricId::new("poi-retrieval"));
        for (_, value) in &measured {
            assert!((0.0..=1.0).contains(value));
        }
        // Deterministic in the seed.
        assert_eq!(measured, studied.measure_at_point(&dataset, &point, 99).unwrap());
    }
}
