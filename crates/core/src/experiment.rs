//! Automated experiment runner (step 2 of the framework, measurement half).
//!
//! "Then comes the modeling phase: experiments are automatically run where
//! parameters p_i and d_i vary in turn while evaluation metrics are
//! measured." [`ExperimentRunner`] sweeps the mechanism's whole
//! [`ConfigSpace`] under a [`SweepPlan`] — a full-factorial grid of
//! `config.points` values per axis, or the paper's one-at-a-time design
//! ("parameters p_i … vary in turn", other axes held at their defaults) —
//! protects the dataset at every design point (optionally several times
//! with different seeds), evaluates every metric of the system's suite, and
//! collects the resulting [`SweepResult`]: a design matrix of
//! [`ConfigPoint`]s with one metric column per suite metric — the raw
//! material behind Figure 1 and Equation 2, generalized from the paper's
//! fixed privacy/utility pair and single swept scalar to any number of
//! metrics over any number of axes.

use crate::error::CoreError;
use crate::system::SystemDefinition;
use geopriv_lppm::{ConfigPoint, ConfigSpace, ParameterDescriptor, ParameterScale};
use geopriv_metrics::{Direction, MetricId, MetricValue, PreparedState, SuiteMetric};
use geopriv_mobility::{Dataset, UserId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Configuration of a parameter sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Number of sweep points on every axis (Figure 1 uses ~25).
    pub points: usize,
    /// Number of protection/evaluation repetitions per design point; metric
    /// values are averaged to smooth out the randomness of the mechanism.
    pub repetitions: usize,
    /// Master seed; every (point, repetition) pair derives its own RNG from it.
    pub seed: u64,
    /// Run design points on multiple threads.
    pub parallel: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { points: 25, repetitions: 1, seed: 0xC0FFEE, parallel: true }
    }
}

impl SweepConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for fewer than two points
    /// per axis or zero repetitions.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.points < 2 {
            return Err(CoreError::InvalidConfiguration {
                reason: format!("a sweep needs at least 2 points per axis, got {}", self.points),
            });
        }
        if self.repetitions == 0 {
            return Err(CoreError::InvalidConfiguration {
                reason: "a sweep needs at least 1 repetition".to_string(),
            });
        }
        Ok(())
    }
}

/// How a multi-axis configuration space is enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SweepMode {
    /// Full-factorial grid: every combination of the per-axis sweep values.
    #[default]
    Grid,
    /// The paper's design: each axis varies in turn over its sweep values
    /// while the other axes are held at their defaults.
    OneAtATime,
    /// Staged evaluate→model→refine loop: a coarse full-factorial pass
    /// (`config.points` values per axis), then model-guided refinement of
    /// the regions where the fit is still uncertain — active-zone edges and
    /// worst-residual gaps — until the plan's evaluation budget
    /// ([`SweepPlan::refine`]) is spent. The design matrix is irregular:
    /// refined points interleave with the coarse grid in coordinate order.
    Adaptive,
}

/// The grain at which a sweep records its measurements.
///
/// Every metric evaluation computes a user-keyed breakdown either way (the
/// metrics need it for their aggregates); the grain decides whether the sweep
/// *keeps* it. At [`Grain::Dataset`] only the dataset-level means survive —
/// the historical behavior, with unchanged memory. At [`Grain::PerUser`] the
/// sweep additionally records one [`UserColumn`] per metric: one response
/// curve per user over the design points, the raw material for configuring
/// each user's LPPM individually (the paper's headline scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Grain {
    /// Record dataset-level aggregates only (the default).
    #[default]
    Dataset,
    /// Additionally record one curve per user and metric.
    PerUser,
}

/// The most evaluations a [`SweepPlan`] may ask for: its design points (the
/// product of the per-axis counts on a grid, their sum one axis at a time)
/// times the repetitions, plus an adaptive plan's refinement budget. Each
/// evaluation protects the whole dataset once, so 2²⁴ of them is far beyond
/// any study that finishes; a plan above the cap, or one whose size
/// overflows, is rejected before anything is enumerated or allocated.
pub const MAX_DESIGN_SIZE: usize = 1 << 24;

/// The full description of a sweep: base [`SweepConfig`], enumeration
/// [`SweepMode`], measurement [`Grain`], and the optional refinement budget
/// ([`SweepPlan::refine`]) and measurement cache ([`SweepPlan::cached`]).
///
/// On a one-axis space both modes enumerate exactly
/// [`ParameterDescriptor::sweep`]`(config.points)` in order — the historical
/// single-scalar behavior, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Points per axis, repetitions, master seed, parallelism.
    pub config: SweepConfig,
    /// Grid, one-at-a-time or adaptive enumeration.
    pub mode: SweepMode,
    /// Whether per-user curves are recorded alongside the dataset means.
    pub grain: Grain,
    refine_budget: Option<usize>,
    cache_dir: Option<std::path::PathBuf>,
}

impl SweepPlan {
    /// A full-factorial plan with `config.points` values per axis.
    pub fn grid(config: SweepConfig) -> Self {
        Self {
            config,
            mode: SweepMode::Grid,
            grain: Grain::Dataset,
            refine_budget: None,
            cache_dir: None,
        }
    }

    /// Records per-user curves ([`Grain::PerUser`]) alongside the dataset
    /// means. The aggregate columns stay bit-identical to a dataset-grain
    /// sweep with the same seed.
    #[must_use]
    pub fn per_user(mut self) -> Self {
        self.grain = Grain::PerUser;
        self
    }

    /// Persists (and reuses) per-user measurements under `dir`, switching the
    /// runner to the **cached per-user execution mode**
    /// ([`ExperimentRunner::run_cached`]).
    ///
    /// Determinism contract: cached execution is its own documented
    /// deterministic experiment, not a plain run served from disk — every
    /// user is measured on her own slice, a one-user cell of the executor
    /// every sweep runs on, protected under her own identity-keyed stream
    /// ([`derive_user_seed`]), and the users' aggregates fold into the
    /// dataset's by evaluated-trace weight. Re-measuring *only
    /// the changed users* therefore draws exactly the bits a full run would
    /// have drawn for them. Within the
    /// mode, a warm run (any subset of users served from the cache) is
    /// **bit-identical** to a cold run (empty cache, every user measured):
    /// the cache stores raw `f64` bit patterns and the merge arithmetic sees
    /// identical inputs in identical (dataset) user order either way. A
    /// corrupt or unwritable cache degrades to the cold path with a warning
    /// ([`crate::cache::CacheStats::warnings`]) — never a different result.
    ///
    /// Only [`ExperimentRunner::run_cached`] honours the cache, and it
    /// returns the [`crate::cache::CacheStats`] with the sweep;
    /// [`ExperimentRunner::run`] rejects a cached plan with
    /// [`CoreError::InvalidConfiguration`].
    #[must_use]
    pub fn cached(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The measurement-cache directory, if cached execution was requested.
    pub fn cache_directory(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Switches the plan to [`SweepMode::Adaptive`] with a total evaluation
    /// budget of `budget` design points (coarse pass included).
    ///
    /// The coarse pass is the plan's full-factorial grid; whatever budget is
    /// left after it is spent on model-guided refinement. A budget no larger
    /// than the coarse pass therefore disables refinement entirely — such a
    /// run measures **bit-identical** values to [`SweepPlan::grid`] at the
    /// same counts (only the result's `mode` tag differs). Refinement steers
    /// by models fitted to the coarse pass, so a plan with budget to spend
    /// needs a coarse pass the modeler can fit (at least 4 points on an
    /// axis); [`ExperimentRunner::run`] returns the fit's error otherwise.
    #[must_use]
    pub fn refine(mut self, budget: usize) -> Self {
        self.mode = SweepMode::Adaptive;
        self.refine_budget = Some(budget);
        self
    }

    /// The per-axis point counts this plan assigns to `space`, in axis order:
    /// `config.points` on every axis.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an invalid base
    /// config or a design larger than [`MAX_DESIGN_SIZE`]. Only an adaptive
    /// plan counts its refinement budget: the other modes never refine.
    pub fn counts(&self, space: &ConfigSpace) -> Result<Vec<usize>, CoreError> {
        self.config.validate()?;
        let counts = vec![self.config.points; space.len()];
        // Design points: the product of the counts on a grid (and an
        // adaptive coarse pass), their sum one axis at a time.
        let points = match self.mode {
            SweepMode::Grid | SweepMode::Adaptive => {
                counts.iter().try_fold(1usize, |n, &count| n.checked_mul(count))
            }
            SweepMode::OneAtATime => {
                counts.iter().try_fold(0usize, |n, &count| n.checked_add(count))
            }
        };
        let budget = match self.mode {
            SweepMode::Adaptive => self.refine_budget.unwrap_or(0),
            SweepMode::Grid | SweepMode::OneAtATime => 0,
        };
        let size = points
            .and_then(|points| points.checked_mul(self.config.repetitions))
            .and_then(|size| size.checked_add(budget));
        match size {
            Some(size) if size <= MAX_DESIGN_SIZE => Ok(counts),
            _ => Err(CoreError::InvalidConfiguration {
                reason: format!(
                    "the design ({counts:?} points per axis, {} repetitions, refinement budget \
                     {budget}) exceeds the cap of {MAX_DESIGN_SIZE} evaluations",
                    self.config.repetitions,
                ),
            }),
        }
    }

    /// Enumerates the *statically known* design points of this plan over
    /// `space`, in the deterministic order the runner assigns point indices
    /// (and therefore RNG streams) to. For [`SweepMode::Adaptive`] this is
    /// the coarse pass only — refinement points are chosen at run time from
    /// the measurements and cannot be enumerated up front.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepPlan::counts`] errors.
    pub fn enumerate(&self, space: &ConfigSpace) -> Result<Vec<ConfigPoint>, CoreError> {
        let counts = self.counts(space)?;
        match self.mode {
            SweepMode::Grid | SweepMode::Adaptive => Ok(space.grid(&counts)?),
            SweepMode::OneAtATime => Ok(space.one_at_a_time(&counts)?),
        }
    }
}

/// The measurements of one metric across a whole sweep: one column of the
/// [`SweepResult`] column store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricColumn {
    /// Id of the metric inside the suite.
    pub id: MetricId,
    /// Which way the metric improves.
    pub direction: Direction,
    /// Mean metric value per design point (over the repetitions), aligned
    /// with [`SweepResult::points`].
    pub means: Vec<f64>,
    /// Per-repetition metric values per design point.
    pub runs: Vec<Vec<f64>>,
}

impl MetricColumn {
    /// Standard deviation of the metric over the repetitions at one design
    /// point (zero for a single repetition).
    pub fn std(&self, point: usize) -> f64 {
        self.runs.get(point).map_or(0.0, |runs| std_dev(runs))
    }
}

/// The user-resolved measurements of one metric across a whole sweep: one
/// response curve per evaluated user, recorded only when the sweep requests
/// [`Grain::PerUser`].
///
/// A metric may exclude users it cannot evaluate (POI retrieval for users
/// without POIs), so different metrics of the same sweep may resolve
/// different user sets — join them by [`UserId`], never by position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserColumn {
    /// Id of the metric inside the suite.
    pub id: MetricId,
    /// Which way the metric improves.
    pub direction: Direction,
    /// The users this metric evaluated, in dataset (trace) order.
    pub users: Vec<UserId>,
    /// `curves[u][p]`: mean metric value of `users[u]` at design point `p`
    /// (over the repetitions), aligned with [`SweepResult::points`].
    pub curves: Vec<Vec<f64>>,
}

/// The user curves of a sweep, indexed by user once: a caller that visits
/// every user looks each curve up in `O(log U)` instead of scanning a user
/// column's users per user.
pub(crate) struct UserCurves<'a> {
    /// Each user column with its users' rows; a repeated user keeps her
    /// first row.
    columns: Vec<(&'a UserColumn, BTreeMap<UserId, usize>)>,
}

impl<'a> UserCurves<'a> {
    pub(crate) fn new(sweep: &'a SweepResult) -> Self {
        let columns = sweep
            .user_columns
            .iter()
            .map(|column| {
                let mut rows = BTreeMap::new();
                for (row, user) in column.users.iter().enumerate() {
                    rows.entry(*user).or_insert(row);
                }
                (column, rows)
            })
            .collect();
        Self { columns }
    }

    /// The curve of `user` for metric `id`, if the sweep recorded one.
    pub(crate) fn curve(&self, id: &MetricId, user: UserId) -> Option<&'a [f64]> {
        let (column, rows) = self.columns.iter().find(|(column, _)| &column.id == id)?;
        column.curves.get(*rows.get(&user)?).map(Vec::as_slice)
    }
}

/// One metric evaluation as the sweep engines carry it between measurement
/// and assembly: the dataset-level aggregate, plus the user-keyed breakdown
/// when (and only when) the sweep runs at [`Grain::PerUser`] — dataset-grain
/// sweeps drop the breakdown inside the work unit, keeping their memory
/// footprint unchanged.
#[derive(Debug, Clone)]
pub(crate) struct MetricSample {
    pub(crate) value: f64,
    /// Number of evaluated traces behind `value` — the weight a cached
    /// sweep folds its users with ([`MetricSample::fold`]).
    pub(crate) weight: usize,
    pub(crate) per_user: Vec<(UserId, f64)>,
}

impl MetricSample {
    pub(crate) fn of(measured: &geopriv_metrics::MetricValue, grain: Grain) -> Self {
        Self {
            value: measured.value(),
            weight: measured.evaluated_count(),
            per_user: match grain {
                Grain::Dataset => Vec::new(),
                Grain::PerUser => measured.per_user().to_vec(),
            },
        }
    }

    /// Folds the aggregate of a cached sweep's next user at the same
    /// (point, repetition, metric) into this one: it becomes the
    /// evaluated-trace-weighted mean. The first user passes through
    /// unfolded.
    fn fold(&mut self, value: f64, weight: usize) {
        let total = self.weight + weight;
        if total > 0 {
            self.value = (self.value * self.weight as f64 + value * weight as f64) / total as f64;
        }
        self.weight = total;
    }
}

/// One design point's samples: per repetition, one per suite metric (suite
/// order).
pub(crate) type PointSamples = Vec<Vec<MetricSample>>;

/// Groups per-unit measurements into a [`SweepResult`], reproducing the
/// historical aggregation arithmetic exactly (repetitions averaged in
/// repetition order, one column per suite metric) and — at
/// [`Grain::PerUser`] — assembling one [`UserColumn`] per metric from the
/// per-unit breakdowns.
///
/// `per_point[p][r][k]` is the sample of metric `k` at design point `p`,
/// repetition `r`, owned or borrowed. Every execution mode assembles through
/// here, tagged with the plan's mode and grain, so all produce identical
/// stores by construction.
pub(crate) fn assemble_sweep(
    plan: &SweepPlan,
    system: &SystemDefinition,
    points: Vec<ConfigPoint>,
    per_point: &[impl Borrow<PointSamples>],
) -> Result<SweepResult, CoreError> {
    let (lppm_name, space, mode) = (system.factory().name(), system.space(), plan.mode);
    let meta = ExperimentRunner::suite_meta(system);
    let mut columns: Vec<MetricColumn> = meta
        .iter()
        .map(|(id, direction)| MetricColumn {
            id: id.clone(),
            direction: *direction,
            means: Vec::with_capacity(points.len()),
            runs: Vec::with_capacity(points.len()),
        })
        .collect();
    for point_reps in per_point {
        for (k, column) in columns.iter_mut().enumerate() {
            let runs: Vec<f64> = point_reps
                .borrow()
                .iter()
                .map(|rep| sample_at(rep, k).map(|sample| sample.value))
                .collect::<Result<_, _>>()?;
            column.means.push(runs.iter().sum::<f64>() / runs.len() as f64);
            column.runs.push(runs);
        }
    }

    if plan.grain == Grain::Dataset {
        return SweepResult::new(lppm_name, space, mode, points, columns);
    }

    // Per-user curves. A metric's evaluated-user set is derived from the
    // *actual* dataset alone (the metric contracts guarantee it), so it must
    // be identical at every (point, repetition) — anything else would make
    // the curves meaningless and is reported as an error.
    let mut user_columns = Vec::with_capacity(meta.len());
    for (k, (id, direction)) in meta.iter().enumerate() {
        // breakdowns[p][r]: metric k's user breakdown at point p, repetition r.
        let breakdowns: Vec<Vec<&[(UserId, f64)]>> = per_point
            .iter()
            .map(|point_reps| {
                let point_reps = point_reps.borrow().iter();
                point_reps.map(|rep| Ok(sample_at(rep, k)?.per_user.as_slice())).collect()
            })
            .collect::<Result<_, CoreError>>()?;
        let users: Vec<UserId> = match breakdowns.first().and_then(|reps| reps.first()) {
            Some(first) => first.iter().map(|(user, _)| *user).collect(),
            None => Vec::new(),
        };
        for (p, point_reps) in breakdowns.iter().enumerate() {
            for (r, breakdown) in point_reps.iter().enumerate() {
                if breakdown.len() != users.len()
                    || breakdown.iter().zip(&users).any(|((u, _), expected)| u != expected)
                {
                    return Err(CoreError::InvalidConfiguration {
                        reason: format!(
                            "metric \"{id}\" resolved a different user set at design point {p}, \
                             repetition {r} — per-user sweeps need a breakdown that is stable \
                             across the sweep"
                        ),
                    });
                }
            }
        }
        let reps = per_point.first().map_or(0, |reps| reps.borrow().len()).max(1) as f64;
        // curves[u][p], one user's curve at a time: each point sums its
        // repetitions in repetition order, exactly the historical per-user
        // arithmetic.
        let mut curves: Vec<Vec<f64>> = Vec::with_capacity(users.len());
        for u in 0..users.len() {
            let mut curve = Vec::with_capacity(breakdowns.len());
            for point_reps in &breakdowns {
                let mut sum = 0.0f64;
                for breakdown in point_reps {
                    let (_, value) = breakdown.get(u).ok_or_else(|| CoreError::Internal {
                        reason: format!("metric \"{id}\" breakdown lacks user row {u}"),
                    })?;
                    sum += value;
                }
                curve.push(sum / reps);
            }
            curves.push(curve);
        }
        user_columns.push(UserColumn { id: id.clone(), direction: *direction, users, curves });
    }
    SweepResult::with_user_columns(lppm_name, space, mode, points, columns, user_columns)
}

/// Folds a cached sweep's rows, in row (dataset) order, into one sample per
/// (point, repetition, metric), in one pass over the users: the first user's
/// samples pass through and each later user's fold in
/// ([`MetricSample::fold`]) — the same arithmetic whether a row was decoded
/// from the cache or freshly measured. At [`Grain::PerUser`] each user the
/// metric evaluated appends her breakdown value, so every breakdown is sized
/// once, for the whole fleet.
fn merge_users(
    block: &crate::cache::CacheBlock,
    points: usize,
    reps: usize,
    metrics: usize,
    grain: Grain,
) -> Vec<PointSamples> {
    let breakdown = |merged: &mut MetricSample, user: UserId, value: Option<f64>| {
        if let (Grain::PerUser, Some(value)) = (grain, value) {
            merged.per_user.push((user, value));
        }
    };
    let capacity = if grain == Grain::PerUser { block.len() } else { 0 };
    let mut rows = block.rows();
    let mut merged: Vec<MetricSample> = match rows.next() {
        Some((user, first)) => first
            .iter()
            .map(|sample| {
                let mut merged = MetricSample {
                    value: sample.value,
                    weight: sample.weight as usize,
                    per_user: Vec::with_capacity(capacity),
                };
                breakdown(&mut merged, user, sample.breakdown);
                merged
            })
            .collect(),
        None => Vec::new(),
    };
    for (user, row) in rows {
        for (merged, sample) in merged.iter_mut().zip(row) {
            merged.fold(sample.value, sample.weight as usize);
            breakdown(merged, user, sample.breakdown);
        }
    }
    // Rows are `[point][repetition][metric]`; so is the merged row.
    let mut merged = merged.into_iter();
    (0..points)
        .map(|_| (0..reps).map(|_| merged.by_ref().take(metrics).collect()).collect())
        .collect()
}

/// The sample of metric `k` inside one repetition's suite-ordered samples, as
/// a typed error instead of a panic when the unit is malformed (an engine
/// invariant violation).
fn sample_at(rep: &[MetricSample], k: usize) -> Result<&MetricSample, CoreError> {
    rep.get(k).ok_or_else(|| CoreError::Internal {
        reason: format!("work unit carries {} metric samples, needed sample {k}", rep.len()),
    })
}

fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

/// Derives the RNG seed of one `(point, repetition)` work unit from the
/// sweep's master seed.
///
/// This is the seed contract shared by [`ExperimentRunner`] and
/// [`crate::campaign::CampaignRunner`]: because the derived seed depends only
/// on the master seed, the point index and the repetition index — never on
/// scheduling, thread count or the position of the unit inside a larger
/// campaign — any execution strategy reproduces the exact same random streams.
pub fn derive_unit_seed(master_seed: u64, point_index: usize, repetition: usize) -> u64 {
    master_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((point_index as u64) << 32)
        .wrapping_add(repetition as u64)
}

/// Derives the RNG seed of one `(point, repetition)` work unit from the
/// point's *identity* rather than its position in the design enumeration.
///
/// Adaptive refinement discovers points incrementally, so a positional seed
/// ([`derive_unit_seed`]) would tie a point's random stream to the order the
/// planner happened to propose it in — any change to the refinement schedule
/// (a different budget, say) would perturb measurements at points both
/// schedules visit. Keying the seed on the point's stable coordinate token
/// ([`geopriv_lppm::ConfigPoint::cache_token`], an axis-ordered
/// full-precision rendering of its coordinates) makes each refined point's
/// measurement a pure function of `(master seed, point, repetition)`: two
/// adaptive runs that visit the same point measure the identical value no
/// matter when they visit it. The token is hashed with FNV-1a (a fixed,
/// platform-independent function — never the standard library's randomized
/// hasher).
///
/// Grid and one-at-a-time sweeps keep the historical positional contract;
/// the coarse pass of an adaptive sweep does too, which is what makes a
/// refinement-disabled adaptive run bit-identical to [`SweepMode::Grid`].
pub fn derive_point_seed(master_seed: u64, point: &ConfigPoint, repetition: usize) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a 64-bit offset basis.
    for byte in point.cache_token().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a 64-bit prime.
    }
    master_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(hash)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(repetition as u64)
}

/// Derives the RNG seed of one `(point, repetition, user)` work unit of a
/// cached per-user sweep ([`SweepPlan::cached`]).
///
/// The seed is keyed on the user's *identity* — never her position in the
/// dataset — so her stream survives fleet growth, user removal and
/// reordering: re-measuring one changed user draws exactly the bits a full
/// cached run would have drawn for her, which is what makes partial
/// re-measurement merge bit-identically into a cold run's result. Each
/// user's stream is an independent remix of the positional unit seed
/// ([`derive_unit_seed`]), xor-folded with the FNV offset basis so user 0's
/// stream is distinct from the plain sweep's unit stream.
pub fn derive_user_seed(
    master_seed: u64,
    point_index: usize,
    repetition: usize,
    user: UserId,
) -> u64 {
    derive_unit_seed(master_seed, point_index, repetition)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(user.value() ^ 0xCBF2_9CE4_8422_2325)
}

/// The seed rule of a measurement cell: the RNG seed of one protection as a
/// function of the point's index in the cell, the point itself and the
/// repetition. Grid and one-at-a-time cells and an adaptive coarse pass seed
/// by index ([`derive_unit_seed`]), adaptive refinement by point identity
/// ([`derive_point_seed`]), and a cache miss's cell by index and user
/// ([`derive_user_seed`]).
pub(crate) type SeedRule<'a> = dyn Fn(usize, &ConfigPoint, usize) -> u64 + Sync + 'a;

/// One cell of a measurement schedule: a batch of one system's design points,
/// measured against one dataset under one seed rule.
pub(crate) struct Cell<'a> {
    pub(crate) system: &'a SystemDefinition,
    /// Index into the `datasets` passed to [`measure_cells`].
    pub(crate) dataset: usize,
    pub(crate) points: &'a [ConfigPoint],
    pub(crate) seed: &'a SeedRule<'a>,
}

/// The executor every sweep schedules over: a plain or one-at-a-time sweep
/// and each adaptive batch are one cell, a campaign passes all of its cells
/// at once, and a cached sweep passes one one-user cell per cache miss.
///
/// Each distinct `(metric cache key, dataset)` pair is prepared exactly once
/// ([`geopriv_metrics::Metric::prepare`]) and its state shared by
/// every cell, point and repetition that needs it; prepared evaluation is
/// bit-identical to direct evaluation by the metric contract. The
/// `(cell, point)` units then run on one [`run_indexed`] pool; unit `i` is
/// the `i`-th in cell-then-point order. It turns each metric evaluation
/// into `record(i, value)` and, once it finishes, hands its records,
/// `[repetition][metric]`, to `sink(i, records)`. Nothing is collected
/// here, so the caller decides what stays in memory: [`collect_cells`] is
/// the sink of the plain, adaptive and campaign sweeps.
///
/// # Errors
///
/// A unit fails when its measurement or its sink does. After the first
/// failing unit, the units not yet started are skipped, and the first error
/// in unit order among the units that ran is returned (in sequential mode,
/// exactly the first failing unit's). Preparation errors are returned
/// before any unit runs. Returning `Ok` means every unit's records reached
/// the sink: a unit the pool never ran is a [`CoreError::Internal`].
pub(crate) fn measure_cells<T>(
    cells: &[Cell<'_>],
    datasets: &[Dataset],
    repetitions: usize,
    parallel: bool,
    record: impl Fn(usize, &MetricValue) -> T + Sync,
    sink: impl Fn(usize, Vec<Vec<T>>) -> Result<(), CoreError> + Sync,
) -> Result<(), CoreError> {
    let prepared = prepare_suites(cells, datasets, parallel)?;
    // Unit `i` is point `i − starts[c]` of the last cell `c` starting at or
    // before it.
    let mut starts = Vec::with_capacity(cells.len());
    let mut units = 0usize;
    for cell in cells {
        starts.push(units);
        units = units.checked_add(cell.points.len()).ok_or_else(|| {
            CoreError::InvalidConfiguration {
                reason: format!("{} cells hold more work units than fit a word", cells.len()),
            }
        })?;
    }
    let unit = |i: usize| -> Result<(), CoreError> {
        let located = starts.partition_point(|&start| start <= i).checked_sub(1).and_then(|c| {
            let cell = cells.get(c)?;
            let p = i.checked_sub(*starts.get(c)?)?;
            Some((cell, datasets.get(cell.dataset)?, prepared.get(c)?, p, cell.points.get(p)?))
        });
        let (cell, dataset, states, p, point) = located.ok_or_else(|| CoreError::Internal {
            reason: format!("work unit {i} of {units} lies in no cell with a dataset"),
        })?;
        let records = measure_point(
            cell.system,
            dataset,
            states,
            point,
            repetitions,
            |repetition| (cell.seed)(p, point, repetition),
            |measured| record(i, measured),
        )?;
        sink(i, records)
    };

    // Only the first failure in unit order is kept, not one outcome per
    // unit. A unit is skipped only after a failure was kept, so a skip can
    // never mask it, whatever the thread interleaving. The flag publishes no
    // data (the failure travels through its lock, records through the
    // sink's), so `Relaxed` suffices.
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, CoreError)>> = Mutex::new(None);
    run_indexed(units, parallel, |i| {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        if let Err(error) = unit(i) {
            abort.store(true, Ordering::Relaxed);
            let mut first = failure.lock();
            if first.as_ref().map_or(true, |&(at, _)| i < at) {
                *first = Some((i, error));
            }
        }
    })?;
    failure.into_inner().map_or(Ok(()), |(_, error)| Err(error))
}

/// Measures `cells` on [`measure_cells`] and collects every unit's
/// [`MetricSample`]s at `grain`, in unit order: each cell's points, cell
/// after cell.
pub(crate) fn collect_cells(
    cells: &[Cell<'_>],
    datasets: &[Dataset],
    repetitions: usize,
    grain: Grain,
    parallel: bool,
) -> Result<Vec<PointSamples>, CoreError> {
    let slots: Mutex<Vec<Option<PointSamples>>> =
        Mutex::new(cells.iter().flat_map(|cell| cell.points.iter().map(|_| None)).collect());
    let missing = |i: usize| CoreError::Internal { reason: format!("work unit {i} has no slot") };
    measure_cells(
        cells,
        datasets,
        repetitions,
        parallel,
        |_, measured| MetricSample::of(measured, grain),
        |i, samples| {
            *slots.lock().get_mut(i).ok_or_else(|| missing(i))? = Some(samples);
            Ok(())
        },
    )?;
    let slots = slots.into_inner().into_iter().enumerate();
    slots.map(|(i, samples)| samples.ok_or_else(|| missing(i))).collect()
}

/// Prepares every cell's suite on the units' pool, each distinct
/// `(metric cache key, dataset)` pair once: returns, per cell, one state per
/// suite metric (suite order).
fn prepare_suites(
    cells: &[Cell<'_>],
    datasets: &[Dataset],
    parallel: bool,
) -> Result<Vec<Vec<Arc<PreparedState>>>, CoreError> {
    // Cache keys are rendered once per system and numbered: a campaign's
    // cells share a few systems, a cached sweep's one-user cells one.
    let mut keys: HashMap<String, usize> = HashMap::new();
    let mut key_ids: HashMap<*const SystemDefinition, Vec<usize>> = HashMap::new();
    let mut jobs: Vec<(&SuiteMetric, usize)> = Vec::new();
    let mut job_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut cell_jobs: Vec<Vec<usize>> = Vec::with_capacity(cells.len());
    for cell in cells {
        let suite = cell.system.suite();
        let ids = key_ids.entry(cell.system).or_insert_with(|| {
            let mut id = |key| {
                let next = keys.len();
                *keys.entry(key).or_insert(next)
            };
            suite.iter().map(|metric| id(metric.cache_key())).collect()
        });
        let jobs_of_cell = suite.iter().zip(ids.iter()).map(|(metric, &id)| {
            *job_of.entry((id, cell.dataset)).or_insert_with(|| {
                jobs.push((metric, cell.dataset));
                jobs.len() - 1
            })
        });
        cell_jobs.push(jobs_of_cell.collect());
    }

    let states: Vec<Arc<PreparedState>> = run_indexed(jobs.len(), parallel, |i| {
        let (metric, dataset) = jobs
            .get(i)
            .and_then(|&(metric, d)| Some((metric, datasets.get(d)?)))
            .ok_or_else(|| CoreError::Internal {
                reason: format!("preparation job {i} of {} out of range", jobs.len()),
            })?;
        metric.prepare(dataset).map(Arc::new).map_err(CoreError::from)
    })?
    .into_iter()
    .collect::<Result<_, _>>()?;
    cell_jobs
        .iter()
        .map(|jobs| {
            jobs.iter()
                .map(|&job| {
                    states.get(job).map(Arc::clone).ok_or_else(|| CoreError::Internal {
                        reason: format!("preparation job {job} of {} out of range", states.len()),
                    })
                })
                .collect()
        })
        .collect()
}

/// The one measurement unit of the engine: instantiates the system's
/// mechanism at `point` once, then per repetition protects `dataset` under
/// `seed(repetition)` and records every suite metric, evaluated against its
/// prepared state, with `record`. Returns per repetition, per suite metric,
/// one record.
fn measure_point<T>(
    system: &SystemDefinition,
    dataset: &Dataset,
    prepared: &[impl Borrow<PreparedState>],
    point: &ConfigPoint,
    repetitions: usize,
    seed: impl Fn(usize) -> u64,
    record: impl Fn(&MetricValue) -> T,
) -> Result<Vec<Vec<T>>, CoreError> {
    let lppm = system.factory().instantiate_at(point)?;
    (0..repetitions)
        .map(|repetition| {
            let mut rng = StdRng::seed_from_u64(seed(repetition));
            let protected = lppm.protect_dataset(dataset, &mut rng)?;
            system
                .suite()
                .iter()
                .zip(prepared)
                .map(|(metric, state)| {
                    Ok(record(&metric.evaluate_prepared(state.borrow(), dataset, &protected)?))
                })
                .collect()
        })
        .collect()
}

/// Runs `count` independent work items on a shared work-stealing pool and
/// returns their results in index order.
///
/// Sequential execution (`parallel == false`, a single item, or a single
/// available core) calls `work` in index order on the current thread; parallel
/// execution lets each thread atomically claim the next run of unclaimed
/// indices, 1/64 of a thread's share (at least one), and store the run's
/// results under one lock. Neighbouring items, such as the points of one
/// cached user, then mostly run on one thread instead of passing their
/// shared state from core to core. The output is indistinguishable between
/// the two modes as long as `work(i)` is a pure function of `i`.
///
/// # Errors
///
/// Returns [`CoreError::Internal`] if a work slot was never filled — an
/// engine invariant violation that surfaces as a typed error instead of a
/// worker panic.
pub(crate) fn run_indexed<T, F>(count: usize, parallel: bool, work: F) -> Result<Vec<T>, CoreError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(count).max(1);
    if !parallel || threads == 1 {
        return Ok((0..count).map(work).collect());
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let next_index = std::sync::atomic::AtomicUsize::new(0);
    let run = (count / threads / 64).max(1);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next_index.fetch_add(run, std::sync::atomic::Ordering::SeqCst);
                if start >= count {
                    break;
                }
                let done: Vec<T> =
                    (start..start.saturating_add(run).min(count)).map(&work).collect();
                let mut results = results.lock();
                let slots = results.get_mut(start..).unwrap_or_default();
                slots.iter_mut().zip(done).for_each(|(slot, result)| *slot = Some(result));
            });
        }
    });

    results
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.ok_or_else(|| CoreError::Internal {
                reason: format!("work item {i} of {count} was never executed by the pool"),
            })
        })
        .collect()
}

/// The result of a full sweep: the design matrix (one [`ConfigPoint`] per
/// measured configuration, in enumeration order) and a per-metric column
/// store, one [`MetricColumn`] per suite metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Name of the mechanism that was swept.
    pub lppm_name: String,
    /// The swept configuration space.
    pub space: ConfigSpace,
    /// How the space was enumerated.
    pub mode: SweepMode,
    /// The grain the sweep was recorded at. At [`Grain::Dataset`] (the
    /// historical behavior) `user_columns` is empty.
    pub grain: Grain,
    /// The measured design points, in enumeration order.
    pub points: Vec<ConfigPoint>,
    /// One column per metric, in suite order.
    pub columns: Vec<MetricColumn>,
    /// One user-resolved column per metric (suite order), recorded only at
    /// [`Grain::PerUser`].
    pub user_columns: Vec<UserColumn>,
}

impl SweepResult {
    /// Builds a dataset-grain result, validating that every design point
    /// belongs to the space, that every column has one mean (and, when
    /// per-repetition runs are recorded, one run list) per point and that
    /// metric ids are unique.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for foreign points,
    /// ragged columns or duplicate ids.
    pub fn new(
        lppm_name: impl Into<String>,
        space: ConfigSpace,
        mode: SweepMode,
        points: Vec<ConfigPoint>,
        columns: Vec<MetricColumn>,
    ) -> Result<Self, CoreError> {
        for point in &points {
            space.check(point).map_err(CoreError::from)?;
        }
        let mut seen = std::collections::BTreeSet::new();
        for column in &columns {
            if column.means.len() != points.len() {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "metric \"{}\" has {} means for {} design points",
                        column.id,
                        column.means.len(),
                        points.len()
                    ),
                });
            }
            // An empty runs vector means "per-repetition values not recorded"
            // (synthetic sweeps); anything else must align with the points.
            if !column.runs.is_empty() && column.runs.len() != points.len() {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "metric \"{}\" has {} run lists for {} design points",
                        column.id,
                        column.runs.len(),
                        points.len()
                    ),
                });
            }
            if !seen.insert(column.id.clone()) {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!("duplicate metric id \"{}\" in sweep result", column.id),
                });
            }
        }
        Ok(Self {
            lppm_name: lppm_name.into(),
            space,
            mode,
            grain: Grain::Dataset,
            points,
            columns,
            user_columns: Vec::new(),
        })
    }

    /// Builds a per-user ([`Grain::PerUser`]) result: the dataset-grain
    /// column store plus one [`UserColumn`] per metric.
    ///
    /// # Errors
    ///
    /// As [`SweepResult::new`], plus: a user column referencing a metric
    /// that has no aggregate column (or disagreeing on its direction),
    /// duplicate users inside a column, or curves not aligned with the
    /// design points.
    pub fn with_user_columns(
        lppm_name: impl Into<String>,
        space: ConfigSpace,
        mode: SweepMode,
        points: Vec<ConfigPoint>,
        columns: Vec<MetricColumn>,
        user_columns: Vec<UserColumn>,
    ) -> Result<Self, CoreError> {
        let mut result = Self::new(lppm_name, space, mode, points, columns)?;
        let mut seen = std::collections::BTreeSet::new();
        for user_column in &user_columns {
            let Some(column) = result.columns.iter().find(|c| c.id == user_column.id) else {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "user column \"{}\" has no matching aggregate column",
                        user_column.id
                    ),
                });
            };
            if column.direction != user_column.direction {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "user column \"{}\" disagrees with its aggregate column's direction",
                        user_column.id
                    ),
                });
            }
            if !seen.insert(user_column.id.clone()) {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!("duplicate user column \"{}\"", user_column.id),
                });
            }
            if user_column.curves.len() != user_column.users.len() {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "user column \"{}\" has {} curves for {} users",
                        user_column.id,
                        user_column.curves.len(),
                        user_column.users.len()
                    ),
                });
            }
            let mut users = std::collections::BTreeSet::new();
            for user in &user_column.users {
                if !users.insert(*user) {
                    return Err(CoreError::InvalidConfiguration {
                        reason: format!("user column \"{}\" repeats {user}", user_column.id),
                    });
                }
            }
            for curve in &user_column.curves {
                if curve.len() != result.points.len() {
                    return Err(CoreError::InvalidConfiguration {
                        reason: format!(
                            "user column \"{}\" has a curve with {} values for {} design points",
                            user_column.id,
                            curve.len(),
                            result.points.len()
                        ),
                    });
                }
            }
        }
        result.grain = Grain::PerUser;
        result.user_columns = user_columns;
        Ok(result)
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` for an empty design (never produced by a runner).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The values of one named axis across the design matrix, aligned with
    /// [`SweepResult::points`]. `None` for an axis the space (or any design
    /// point) does not carry — never a panic, even on a malformed store.
    pub fn axis_values(&self, axis: &str) -> Option<Vec<f64>> {
        self.space.axis(axis)?;
        self.points.iter().map(|p| p.get(axis)).collect()
    }

    /// The metric ids, in suite order.
    pub fn ids(&self) -> Vec<MetricId> {
        self.columns.iter().map(|c| c.id.clone()).collect()
    }

    /// The column of one metric.
    pub fn column(&self, id: &MetricId) -> Option<&MetricColumn> {
        self.columns.iter().find(|c| &c.id == id)
    }

    /// Every user resolved by at least one metric, in order of first
    /// appearance across the user columns (suite order).
    pub fn users(&self) -> Vec<UserId> {
        let mut seen = BTreeSet::new();
        self.user_columns
            .iter()
            .flat_map(|column| &column.users)
            .filter(|user| seen.insert(**user))
            .copied()
            .collect()
    }

    /// The mean values of one metric, aligned with [`SweepResult::points`].
    pub fn values(&self, id: &MetricId) -> Option<&[f64]> {
        self.column(id).map(|c| c.means.as_slice())
    }

    /// The first column improving in `direction` — how the paper's "the
    /// privacy curve" / "the utility curve" map onto a column store.
    pub fn column_by_direction(&self, direction: Direction) -> Option<&MetricColumn> {
        self.columns.iter().find(|c| c.direction == direction)
    }
}

/// Runs configuration-space sweeps for a [`SystemDefinition`] on a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRunner {
    plan: SweepPlan,
}

impl ExperimentRunner {
    /// Creates a runner sweeping the full-factorial grid with the given
    /// sweep configuration (`config.points` values per axis).
    pub fn new(config: SweepConfig) -> Self {
        Self { plan: SweepPlan::grid(config) }
    }

    /// Creates a runner with an explicit [`SweepPlan`] (mode, grain,
    /// refinement budget and cache).
    pub fn with_plan(plan: SweepPlan) -> Self {
        Self { plan }
    }

    /// Runs the sweep: for every design point of the plan, protect the
    /// dataset and evaluate every metric of the suite, in suite order.
    ///
    /// Plain, one-at-a-time and adaptive plans run on the executor a
    /// [`crate::campaign::CampaignRunner`] uses: a plain sweep and each
    /// adaptive batch are one cell over the dataset. The actual-side metric
    /// state (POI extraction, bounding
    /// boxes — see [`geopriv_metrics::Metric::prepare`]) is prepared
    /// once per distinct metric configuration and reused at every
    /// `(point, repetition)` sample; the metrics guarantee this is
    /// bit-identical to direct evaluation.
    ///
    /// Results are deterministic for a given `(dataset, config.seed)` pair,
    /// regardless of the number of threads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for a cached plan
    /// ([`SweepPlan::cached`]): only [`ExperimentRunner::run_cached`] returns
    /// the [`crate::cache::CacheStats`] whose warnings report a corrupt or
    /// unwritable cache. Propagates configuration, protection and metric
    /// errors. A failing `(point)` unit skips the units not yet started; the
    /// error returned is the first in design order among the units that ran
    /// (in sequential mode, exactly the first failing unit's). An adaptive
    /// plan with refinement budget left after a coarse pass the modeler
    /// cannot fit returns that fit's [`CoreError::InvalidConfiguration`].
    pub fn run(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
    ) -> Result<SweepResult, CoreError> {
        if self.plan.cache_directory().is_some() {
            return Err(CoreError::InvalidConfiguration {
                reason: "a cached plan runs through ExperimentRunner::run_cached, which reports \
                         the cache's hits, misses and warnings"
                    .to_string(),
            });
        }
        let space = system.space();
        if self.plan.mode == SweepMode::Adaptive {
            return self.run_adaptive(system, dataset, space);
        }
        let points = self.plan.enumerate(&space)?;
        let per_point = self.measure_points(system, dataset, &points, &self.positional_seed())?;
        assemble_sweep(&self.plan, system, points, &per_point)
    }

    /// Runs the sweep in the cached per-user execution mode
    /// ([`SweepPlan::cached`]): users whose
    /// [`geopriv_metrics::DatasetFingerprint::per_user`] sub-fingerprint
    /// matches the persisted row are decoded from the cache bit-exactly;
    /// every other user is a one-user cell of the executor every sweep runs
    /// on: her own [`geopriv_mobility::Dataset::user_slice`] under her
    /// identity-keyed streams ([`derive_user_seed`]). The refreshed rows
    /// form one flat block in dataset order: hit rows are decoded from the
    /// file first, and each miss's units write their samples straight into
    /// her row as they finish. The block is written back as the cache file
    /// when anything was re-measured, then folded in one pass over the
    /// users: every step but the misses' measurement is one pass over the
    /// fleet. The merged [`SweepResult`] is bit-identical between a cold run
    /// (empty cache) and any warm run over the same dataset — see the
    /// contract on [`SweepPlan::cached`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when the plan has no cache
    /// directory or is adaptive (refinement points depend on measurements,
    /// so per-user entries cannot be keyed up front); propagates
    /// configuration, protection and metric errors. A failing miss
    /// short-circuits the rest as in every sweep: the error returned is the
    /// first in `(miss, point)` order among the units that ran (in
    /// sequential mode, exactly the first failing unit's), and nothing is
    /// stored. Cache integrity problems are never errors — they surface as
    /// [`crate::cache::CacheStats::warnings`] with a cold-path fallback.
    pub fn run_cached(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
    ) -> Result<CachedSweep, CoreError> {
        let Some(dir) = self.plan.cache_directory() else {
            return Err(CoreError::InvalidConfiguration {
                reason: "cached execution needs a cache directory — call SweepPlan::cached(dir)"
                    .to_string(),
            });
        };
        if self.plan.mode == SweepMode::Adaptive {
            return Err(CoreError::InvalidConfiguration {
                reason: "adaptive plans cannot be cached: refinement points depend on measured \
                         values, so per-user cache entries cannot be keyed up front"
                    .to_string(),
            });
        }
        let space = system.space();
        let points = self.plan.enumerate(&space)?;
        let reps = self.plan.config.repetitions;
        let meta = Self::suite_meta(system);
        let signature = cache_signature(system, &space, &self.plan, &points, &meta);
        let cache = crate::cache::MeasurementCache::open(dir);
        let (stored, mut warnings) = cache.load(&signature, points.len(), reps, meta.len());
        let stored_rows: BTreeMap<UserId, (u64, usize)> = stored
            .keys()
            .enumerate()
            .map(|(row, (user, fingerprint))| (user, (fingerprint, row)))
            .collect();

        // The refreshed block, in dataset order: a cache hit (sub-fingerprint
        // unchanged) decodes her stored row, a miss takes a placeholder row
        // for her measurements to fill.
        let fingerprints = geopriv_metrics::DatasetFingerprint::of(dataset).per_user();
        let mut block = crate::cache::CacheBlock::with_capacity(
            points.len(),
            reps,
            meta.len(),
            fingerprints.len(),
        );
        let mut misses: Vec<(usize, UserId)> = Vec::new();
        for (index, &(user, fingerprint)) in fingerprints.iter().enumerate() {
            match stored_rows.get(&user) {
                Some(&(stored_fingerprint, row)) if stored_fingerprint == fingerprint => {
                    let samples = stored.row(row).ok_or_else(|| CoreError::Internal {
                        reason: format!("cache row {row} of user {user} out of range"),
                    })?;
                    block.push(user, fingerprint, samples)?;
                }
                _ => {
                    block.push_placeholder(user, fingerprint)?;
                    misses.push((index, user));
                }
            }
        }
        drop(stored);

        // The block is stored (current users only — departed users age out)
        // only once every miss's units delivered, so no placeholder reaches
        // the file.
        if !misses.is_empty() {
            self.measure_misses(system, dataset, &points, &misses, &mut block)?;
            warnings.extend(cache.store(&signature, &block));
        }

        let per_point = merge_users(&block, points.len(), reps, meta.len(), self.plan.grain);
        Ok(CachedSweep {
            result: assemble_sweep(&self.plan, system, points, &per_point)?,
            stats: crate::cache::CacheStats {
                users: fingerprints.len(),
                hits: fingerprints.len() - misses.len(),
                misses: misses.len(),
                warnings,
            },
        })
    }

    /// Measures the cache misses, `(dataset index, user)` in dataset order,
    /// each as a one-user cell of [`measure_cells`]: her own slice, under her
    /// identity-keyed streams ([`derive_user_seed`]). Every unit writes its
    /// samples straight into her placeholder row of `block` (her dataset
    /// index), so no miss's samples are held anywhere else. Each row has
    /// its own lock, so threads measuring different users never share one.
    fn measure_misses(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
        points: &[ConfigPoint],
        misses: &[(usize, UserId)],
        block: &mut crate::cache::CacheBlock,
    ) -> Result<(), CoreError> {
        let slices: Vec<Dataset> = misses
            .iter()
            .map(|&(index, _)| dataset.user_slice(index..index + 1))
            .collect::<Result<_, _>>()?;
        let master = self.plan.config.seed;
        let seeds: Vec<_> = misses
            .iter()
            .map(|&(_, user)| {
                move |p: usize, _: &ConfigPoint, repetition: usize| {
                    derive_user_seed(master, p, repetition, user)
                }
            })
            .collect();
        let cells: Vec<Cell<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(dataset, seed)| Cell { system, dataset, points, seed })
            .collect();
        let mut rows: Vec<Option<&mut [crate::cache::CachedSample]>> =
            block.rows_mut().map(Some).collect();
        let rows: Vec<Mutex<&mut [crate::cache::CachedSample]>> = misses
            .iter()
            .map(|&(row, _)| rows.get_mut(row).and_then(Option::take).map(Mutex::new))
            .collect::<Option<_>>()
            .ok_or_else(|| CoreError::Internal {
                reason: "a cache miss has no placeholder row".to_string(),
            })?;
        // Unit `i` is point `i mod P` of miss `i / P`; it fills `width`
        // samples of her row from sample `(i mod P) · width`.
        let place = |i: usize| Some((i.checked_div(points.len())?, i.checked_rem(points.len())?));
        let width = self.plan.config.repetitions.saturating_mul(system.suite().len());
        measure_cells(
            &cells,
            &slices,
            self.plan.config.repetitions,
            self.plan.config.parallel,
            |i, measured| crate::cache::CachedSample {
                value: measured.value(),
                weight: measured.evaluated_count() as u64,
                breakdown: place(i)
                    .and_then(|(j, _)| misses.get(j))
                    .and_then(|&(_, user)| measured.value_for(user)),
            },
            |i, samples| {
                let fits = samples.iter().map(Vec::len).sum::<usize>() == width;
                let written = place(i).and_then(|(j, p)| {
                    let mut row = rows.get(j)?.lock();
                    let start = p.checked_mul(width)?;
                    let span = row.get_mut(start..start.checked_add(width)?)?;
                    let samples = samples.into_iter().flatten();
                    fits.then(|| span.iter_mut().zip(samples).for_each(|(at, s)| *at = s))
                });
                written.ok_or_else(|| CoreError::Internal {
                    reason: format!("work unit {i} does not fit its cache row"),
                })
            },
        )
    }

    fn suite_meta(system: &SystemDefinition) -> Vec<(MetricId, Direction)> {
        system.suite().iter().map(|m| (m.id(), m.direction())).collect()
    }

    /// The positional seed rule of grid and one-at-a-time sweeps and of an
    /// adaptive coarse pass ([`derive_unit_seed`]).
    fn positional_seed(&self) -> impl Fn(usize, &ConfigPoint, usize) -> u64 + Sync {
        let master = self.plan.config.seed;
        move |p: usize, _: &ConfigPoint, repetition: usize| derive_unit_seed(master, p, repetition)
    }

    /// Measures a batch of design points — the full enumeration of a one-shot
    /// plan, or one batch of an adaptive plan — as one [`collect_cells`] cell
    /// over the dataset.
    fn measure_points(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
        points: &[ConfigPoint],
        seed: &SeedRule<'_>,
    ) -> Result<Vec<PointSamples>, CoreError> {
        collect_cells(
            &[Cell { system, dataset: 0, points, seed }],
            std::slice::from_ref(dataset),
            self.plan.config.repetitions,
            self.plan.grain,
            self.plan.config.parallel,
        )
    }

    /// The staged evaluate→model→refine loop of [`SweepMode::Adaptive`].
    ///
    /// 1. **Coarse pass** — the plan's full-factorial grid, measured with the
    ///    exact positional seeds of [`SweepPlan::grid`] (bit-identical values
    ///    when refinement never triggers).
    /// 2. **Model** — fit the suite on everything measured so far and
    ///    diagnose it ([`crate::modeling::Modeler::diagnose`]): residuals,
    ///    active-zone edges, worst-fit points.
    /// 3. **Refine** — propose new points where the model is least certain
    ///    (zone-edge bisection first, then worst-residual gaps), measure
    ///    them under point-identity seeds ([`derive_point_seed`]) and loop
    ///    until the budget is spent or no candidate remains.
    ///
    /// At [`Grain::PerUser`] the loop applies successive halving across
    /// users: each round refits the per-user models, early-stops users whose
    /// [`crate::modeling::UserFitOutcome`] is already saturated or settled,
    /// and keeps spending zone-edge evaluations on the most uncertain half.
    fn run_adaptive(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
        space: ConfigSpace,
    ) -> Result<SweepResult, CoreError> {
        let coarse = self.plan.enumerate(&space)?;
        let coarse_points = coarse.len();
        let budget = self.plan.refine_budget.unwrap_or(coarse_points).max(coarse_points);
        let samples = self.measure_points(system, dataset, &coarse, &self.positional_seed())?;
        let master = self.plan.config.seed;
        let point_identity = |_: usize, point: &ConfigPoint, repetition: usize| {
            derive_point_seed(master, point, repetition)
        };
        let mut measured: Vec<(ConfigPoint, PointSamples)> =
            coarse.into_iter().zip(samples).collect();
        let mut seen: std::collections::BTreeSet<String> =
            measured.iter().map(|(p, _)| p.cache_token()).collect();
        let mut remaining = budget - measured.len();
        // Successive-halving state: the users still driving refinement
        // (`None` until the first per-user fit, `Some` shrinks by half each
        // round as curves settle).
        let mut active_users: Option<BTreeSet<UserId>> = None;

        while remaining > 0 {
            let result = self.assemble_adaptive(system, &mut measured)?;
            // A suite the modeler cannot fit gives refinement nothing to
            // steer by. On the coarse pass that is the caller's error: its
            // own fit would fail on the same design, with the budget unspent.
            // A later round returns the measurements gathered so far.
            let fitted = match crate::modeling::Modeler::new().fit(&result) {
                Ok(fitted) => fitted,
                Err(error) if measured.len() == coarse_points => return Err(error),
                Err(_) => break,
            };
            let modeler = crate::modeling::Modeler::new();
            let mut driving = vec![modeler.diagnose(&result, &fitted)?];
            if self.plan.grain == Grain::PerUser {
                // The first round fits every user, later rounds only the
                // survivors of the last.
                let curves = UserCurves::new(&result);
                let users = active_users.map_or_else(|| result.users(), Vec::from_iter);
                let fits = run_indexed(users.len(), self.plan.config.parallel, |i| {
                    users.get(i).map(|&user| modeler.fit_user(&result, &curves, user))
                })?;
                let fits: Vec<_> = fits.into_iter().flatten().collect();
                let ranked = rank_uncertain_users(&result, &curves, &fits);
                let keep = ranked.len().div_ceil(2).min(ranked.len());
                let survivors = ranked.get(..keep).unwrap_or_default();
                for &(user, _, suite) in survivors {
                    driving.push(modeler.diagnose_user_in(&result, &curves, suite, user)?);
                }
                active_users = Some(survivors.iter().map(|&(user, _, _)| user).collect());
            }
            let per_round =
                remaining.min((2 * space.len()).max(4) + 2 * driving.len().saturating_sub(1));
            let candidates = plan_refinement(&space, &result, &driving, &mut seen, per_round)?;
            if candidates.is_empty() {
                break;
            }
            let samples = self.measure_points(system, dataset, &candidates, &point_identity)?;
            remaining -= candidates.len();
            measured.extend(candidates.into_iter().zip(samples));
        }

        self.assemble_adaptive(system, &mut measured)
    }

    /// Sorts the (coarse ∪ refined) measurements into the stable coordinate
    /// order of the result's design matrix and assembles them. Grid
    /// enumeration is row-major with the last axis fastest — exactly
    /// lexicographic coordinate order — so on a refinement-free run the sort
    /// is the identity permutation and the assembled store matches
    /// [`SweepPlan::grid`] bit for bit.
    fn assemble_adaptive(
        &self,
        system: &SystemDefinition,
        measured: &mut [(ConfigPoint, PointSamples)],
    ) -> Result<SweepResult, CoreError> {
        measured.sort_by(|(a, _), (b, _)| {
            a.coords()
                .iter()
                .zip(b.coords())
                .map(|(x, y)| x.total_cmp(&y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let points: Vec<ConfigPoint> = measured.iter().map(|(p, _)| p.clone()).collect();
        let per_point: Vec<&PointSamples> = measured.iter().map(|(_, s)| s).collect();
        assemble_sweep(&self.plan, system, points, &per_point)
    }
}

/// The outcome of a cached sweep ([`ExperimentRunner::run_cached`]): the
/// assembled result plus how much of it came from the persistent cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSweep {
    /// The merged sweep — bit-identical between cold and warm executions.
    pub result: SweepResult,
    /// Cache accounting: hits, misses and any integrity warnings.
    pub stats: crate::cache::CacheStats,
}

/// Renders the signature that keys a cached sweep's file: everything that
/// pins the measured values except the users themselves — the system
/// ([`SystemDefinition::cache_key`]: mechanism name, space
/// [`ConfigSpace::cache_token`], metric cache keys), the enumeration mode,
/// the master seed, the repetition count, the ordered design-point tokens and
/// the suite's metric ids. Per-user validity is keyed separately, by each
/// entry's sub-fingerprint.
fn cache_signature(
    system: &SystemDefinition,
    space: &ConfigSpace,
    plan: &SweepPlan,
    points: &[ConfigPoint],
    meta: &[(MetricId, Direction)],
) -> String {
    let point_tokens: Vec<String> = points.iter().map(ConfigPoint::cache_token).collect();
    let metric_ids: Vec<String> =
        meta.iter().map(|(id, direction)| format!("{id}:{direction:?}")).collect();
    format!(
        "geopriv-measurement-cache-v1\nsystem={}\nspace={}\nmode={:?}\nseed={}\nrepetitions={}\n\
         metrics={}\npoints={}",
        system.cache_key(),
        space.cache_token(),
        plan.mode,
        plan.config.seed,
        plan.config.repetitions,
        metric_ids.join("|"),
        point_tokens.join(";"),
    )
}

/// Ranks the fitted users worth refining for, most uncertain first (ties by
/// user id, a total order, so the order of `fits` does not matter), each
/// with her uncertainty and her fitted suite. A user's uncertainty is the
/// worst absolute residual of her own fitted models against her own
/// measured curves (read from `curves`, an index of `result`'s); users
/// whose [`crate::modeling::UserFitOutcome`] is `Unfit` (saturated or
/// otherwise unmodelable) are early-stopped — no further evaluations are
/// spent on them.
fn rank_uncertain_users<'a>(
    result: &SweepResult,
    curves: &UserCurves<'_>,
    fits: &'a [crate::modeling::UserFit],
) -> Vec<(UserId, f64, &'a crate::modeling::FittedSuite)> {
    let mut ranked: Vec<(UserId, f64, &crate::modeling::FittedSuite)> = fits
        .iter()
        .filter_map(|fit| {
            let suite = fit.outcome.fitted()?;
            let mut worst = 0.0f64;
            for model in &suite.models {
                let curve = curves.curve(&model.id, fit.user)?;
                for (point, &value) in result.points.iter().zip(curve) {
                    let predicted = model.predict(point).ok()?;
                    worst = worst.max((value - predicted).abs());
                }
            }
            Some((fit.user, worst, suite))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

/// The midpoint of `[a, b]` in the axis's own scale: arithmetic on linear
/// axes, geometric on logarithmic ones — the bisection step of refinement.
fn scale_midpoint(scale: ParameterScale, a: f64, b: f64) -> f64 {
    match scale {
        ParameterScale::Linear => (a + b) / 2.0,
        ParameterScale::Logarithmic => (a * b).sqrt(),
    }
}

/// The width of the gap `[a, b]` in the axis's own scale (log axes measure
/// ratios), the yardstick by which refinement picks where to bisect.
fn gap_width(scale: ParameterScale, a: f64, b: f64) -> f64 {
    match scale {
        ParameterScale::Linear => b - a,
        ParameterScale::Logarithmic => b / a,
    }
}

/// Proposes the next batch of refinement points, most valuable first, from
/// two sources in priority order:
///
/// 1. **Active-zone edges** (from [`crate::modeling::FitDiagnostics`], the
///    dataset suite first, then per-user suites most-uncertain-first):
///    bisect between each zone edge and its nearest measured neighbor
///    outside the zone — the bracket holding the saturation knee.
/// 2. **Worst residuals**: at each metric's worst-fit point, bisect toward
///    the neighbor on the wider-gap side of every axis.
///
/// Pure and deterministic: candidates depend only on the measurements and
/// diagnostics, never on scheduling. `seen` (every coordinate token already
/// measured or proposed) deduplicates across rounds; at most `limit`
/// candidates are returned.
fn plan_refinement(
    space: &ConfigSpace,
    result: &SweepResult,
    driving: &[crate::modeling::FitDiagnostics],
    seen: &mut std::collections::BTreeSet<String>,
    limit: usize,
) -> Result<Vec<ConfigPoint>, CoreError> {
    let axes = space.axes();
    // Sorted unique measured values per axis: the 1-D projections the gap
    // arithmetic works on.
    let unique: Vec<Vec<f64>> = (0..axes.len())
        .map(|i| {
            let mut values: Vec<f64> =
                result.points.iter().filter_map(|p| p.coords().get(i).copied()).collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            values
        })
        .collect();
    let mut candidates: Vec<ConfigPoint> = Vec::new();
    let push = |coords: &[f64],
                candidates: &mut Vec<ConfigPoint>,
                seen: &mut std::collections::BTreeSet<String>|
     -> Result<(), CoreError> {
        if candidates.len() >= limit {
            return Ok(());
        }
        let point = space.point_from_coords(coords).map_err(CoreError::from)?;
        if seen.insert(point.cache_token()) {
            candidates.push(point);
        }
        Ok(())
    };

    // Base coordinates for embedding a 1-D bisection into the full space:
    // the overall worst-fit point of the dataset suite (the region the model
    // is least certain about), in-zone axes untouched.
    let base: Vec<f64> = driving
        .first()
        .and_then(|diag| {
            diag.metrics
                .iter()
                .max_by(|a, b| a.max_residual().total_cmp(&b.max_residual()))
                .and_then(|m| result.points.get(m.worst_point))
                .map(ConfigPoint::coords)
        })
        .unwrap_or_else(|| axes.iter().map(ParameterDescriptor::default_value).collect());

    // 1. Active-zone edge bisection.
    for diag in driving {
        for metric in &diag.metrics {
            for (name, (zone_lo, zone_hi)) in &metric.zone_edges {
                let Some(i) = axes.iter().position(|a| a.name() == name) else { continue };
                let (Some(axis), Some(values)) = (axes.get(i), unique.get(i)) else { continue };
                let below = values.iter().rev().find(|&&v| v < *zone_lo).map(|&v| (v, *zone_lo));
                let above = values.iter().find(|&&v| v > *zone_hi).map(|&v| (*zone_hi, v));
                for (a, b) in below.into_iter().chain(above) {
                    let mut coords = base.clone();
                    let Some(slot) = coords.get_mut(i) else { continue };
                    *slot = scale_midpoint(axis.scale(), a, b);
                    push(&coords, &mut candidates, seen)?;
                }
            }
        }
    }

    // 2. Worst-residual gaps.
    for diag in driving {
        for metric in &diag.metrics {
            if metric.residuals.is_empty() {
                continue;
            }
            let Some(at_worst) = result.points.get(metric.worst_point).map(ConfigPoint::coords)
            else {
                continue;
            };
            for (i, axis) in axes.iter().enumerate() {
                let Some(values) = unique.get(i) else { continue };
                let Some(&worst_value) = at_worst.get(i) else { continue };
                let Some(position) = values.iter().position(|&v| v == worst_value) else {
                    continue;
                };
                let left =
                    position.checked_sub(1).and_then(|p| values.get(p)).map(|&v| (v, worst_value));
                let right = values.get(position + 1).map(|&v| (worst_value, v));
                let side = match (left, right) {
                    (Some(l), Some(r)) => {
                        let wider_left =
                            gap_width(axis.scale(), l.0, l.1) >= gap_width(axis.scale(), r.0, r.1);
                        Some(if wider_left { l } else { r })
                    }
                    (gap, None) | (None, gap) => gap,
                };
                if let Some((a, b)) = side {
                    let mut coords = at_worst.clone();
                    let Some(slot) = coords.get_mut(i) else { continue };
                    *slot = scale_midpoint(axis.scale(), a, b);
                    push(&coords, &mut candidates, seen)?;
                }
            }
        }
    }

    Ok(candidates)
}

#[cfg(test)]
impl SweepResult {
    /// Builds a one-axis result from plain parameter values, for the unit
    /// tests' synthetic sweeps.
    ///
    /// # Errors
    ///
    /// As [`SweepResult::new`], plus out-of-range parameter values.
    pub(crate) fn from_axis(
        lppm_name: impl Into<String>,
        axis: ParameterDescriptor,
        parameters: &[f64],
        columns: Vec<MetricColumn>,
    ) -> Result<Self, CoreError> {
        let space = ConfigSpace::single(axis);
        let points = parameters
            .iter()
            .map(|&value| space.point_from_coords(&[value]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoreError::from)?;
        Self::new(lppm_name, space, SweepMode::Grid, points, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{GeoIndistinguishabilityFactory, GridCloakingFactory, PipelineFactory};
    use geopriv_metrics::{AreaCoverage, PoiRetrieval};
    use geopriv_mobility::generator::TaxiFleetBuilder;

    fn small_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(77);
        TaxiFleetBuilder::new()
            .drivers(3)
            .duration_hours(4.0)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap()
    }

    fn small_config() -> SweepConfig {
        SweepConfig { points: 6, repetitions: 1, seed: 42, parallel: true }
    }

    /// A plan that sweeps each axis in turn with `config.points` values.
    fn one_at_a_time(config: SweepConfig) -> SweepPlan {
        SweepPlan { mode: SweepMode::OneAtATime, ..SweepPlan::grid(config) }
    }

    fn privacy_id() -> MetricId {
        MetricId::new("poi-retrieval")
    }

    fn utility_id() -> MetricId {
        MetricId::new("area-coverage")
    }

    fn epsilon_axis() -> ParameterDescriptor {
        ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap()
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
    fn config_validation() {
        assert!(SweepConfig::default().validate().is_ok());
        assert!(SweepConfig { points: 1, ..SweepConfig::default() }.validate().is_err());
        assert!(SweepConfig { repetitions: 0, ..SweepConfig::default() }.validate().is_err());
    }

    #[test]
    fn plans_resolve_per_axis_counts() {
        let space = composed_system().space();
        let plan = SweepPlan::grid(small_config());
        assert_eq!(plan.counts(&space).unwrap(), vec![6, 6]);
        assert_eq!(plan.enumerate(&space).unwrap().len(), 36);
        // Degenerate counts are typed errors.
        assert!(SweepPlan::grid(SweepConfig { points: 0, ..small_config() })
            .counts(&space)
            .is_err());
    }

    #[test]
    fn designs_beyond_the_size_cap_are_rejected_before_enumeration() {
        let axes = |n: usize| {
            ConfigSpace::new((0..n).map(|i| epsilon_axis().with_name(format!("axis{i}"))).collect())
                .unwrap()
        };
        let sized = |points: usize, repetitions: usize| SweepConfig {
            points,
            repetitions,
            ..small_config()
        };
        let rejected = |result: Result<Vec<usize>, CoreError>| {
            matches!(result, Err(CoreError::InvalidConfiguration { .. }))
        };
        // 2⁶⁴ points overflow, 2⁶³ and 2⁴⁰ fit a word but not the cap; none
        // is enumerated, so the 2⁴⁰-point axis never asks for its 8 TB.
        for (n, points) in [(4, 1 << 16), (3, 1 << 21), (1, 1usize << 40)] {
            let space = axes(n);
            let plan = SweepPlan::grid(sized(points, 1));
            assert!(rejected(plan.counts(&space)), "{n} axes of {points}");
            assert!(plan.enumerate(&space).is_err(), "{n} axes of {points}");
        }
        // The cap counts evaluations: design points × repetitions, plus any
        // refinement budget. Only `counts` runs here, so nothing is
        // enumerated.
        let space = axes(2);
        assert!(SweepPlan::grid(sized(1 << 11, 4)).counts(&space).is_ok());
        assert!(rejected(SweepPlan::grid(sized(1 << 11, 5)).counts(&space)));
        assert!(rejected(SweepPlan::grid(sized(1 << 11, 4)).refine(1).counts(&space)));
        // One axis at a time measures the sum of the counts, not the product.
        let half = MAX_DESIGN_SIZE / 2;
        assert!(one_at_a_time(sized(half, 1)).counts(&space).is_ok());
        assert!(rejected(one_at_a_time(sized(half + 1, 1)).counts(&space)));
        // Only an adaptive plan refines, so a budget left behind by `refine`
        // does not count once the mode changes.
        let mut refined = SweepPlan::grid(small_config()).refine(MAX_DESIGN_SIZE);
        assert!(rejected(refined.counts(&space)));
        refined.mode = SweepMode::OneAtATime;
        assert_eq!(refined.counts(&space).unwrap(), vec![6, 6]);
    }

    #[test]
    fn sweep_produces_ordered_bounded_samples() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let runner = ExperimentRunner::new(small_config());
        let result = runner.run(&system, &dataset).unwrap();

        assert_eq!(result.len(), 6);
        assert!(!result.is_empty());
        assert_eq!(result.lppm_name, "geo-indistinguishability");
        assert_eq!(result.space.names(), vec!["epsilon"]);
        assert_eq!(result.mode, SweepMode::Grid);
        assert_eq!(result.ids(), vec![privacy_id(), utility_id()]);
        assert_eq!(result.column(&privacy_id()).unwrap().direction, Direction::LowerIsBetter);
        assert_eq!(result.column(&utility_id()).unwrap().direction, Direction::HigherIsBetter);
        assert_eq!(result.column_by_direction(Direction::LowerIsBetter).unwrap().id, privacy_id());

        // Parameters are sorted and span exactly the paper's range: the sweep
        // pins both endpoints, no floating-point drift tolerated.
        let parameters = result.axis_values("epsilon").unwrap();
        assert!(parameters.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(parameters[0], 1e-4);
        assert_eq!(*parameters.last().unwrap(), 1.0);
        assert!(result.axis_values("sigma").is_none());
        assert_eq!(result.space.single_axis().unwrap().name(), "epsilon");

        // Metrics are bounded.
        for column in &result.columns {
            assert_eq!(column.means.len(), 6);
            for (point, mean) in column.means.iter().enumerate() {
                assert!((0.0..=1.0).contains(mean), "{} = {mean}", column.id);
                assert_eq!(column.runs[point].len(), 1);
                assert_eq!(column.std(point), 0.0);
            }
        }

        // The qualitative shape of Figure 1: privacy and utility are (weakly)
        // higher at the largest epsilon than at the smallest.
        for column in &result.columns {
            assert!(column.means.last().unwrap() >= column.means.first().unwrap());
        }
    }

    #[test]
    fn multi_axis_grids_cover_the_full_factorial() {
        let dataset = small_dataset();
        let system = composed_system();
        let plan = SweepPlan::grid(SweepConfig { points: 3, ..small_config() });
        let result = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();

        assert_eq!(result.len(), 9);
        assert_eq!(result.space.names(), vec!["epsilon", "cell_size"]);
        // Row-major order: the first three points share the epsilon minimum.
        for point in &result.points[..3] {
            assert_eq!(point.get("epsilon"), Some(1e-4));
        }
        assert_eq!(result.points[0].get("cell_size"), Some(100.0));
        assert_eq!(result.points[2].get("cell_size"), Some(2000.0));
        // Every column is aligned with the design matrix and bounded.
        for column in &result.columns {
            assert_eq!(column.means.len(), 9);
            assert!(column.means.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn one_at_a_time_holds_other_axes_at_defaults() {
        let dataset = small_dataset();
        let system = composed_system();
        let plan = one_at_a_time(SweepConfig { points: 3, ..small_config() });
        let result = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();

        assert_eq!(result.mode, SweepMode::OneAtATime);
        assert_eq!(result.len(), 6);
        let cell_default = system.space().axis("cell_size").unwrap().default_value();
        let epsilon_default = system.space().axis("epsilon").unwrap().default_value();
        for point in &result.points[..3] {
            assert_eq!(point.get("cell_size"), Some(cell_default));
        }
        for point in &result.points[3..] {
            assert_eq!(point.get("epsilon"), Some(epsilon_default));
        }
    }

    #[test]
    fn per_user_grain_keeps_aggregates_identical_and_records_curves() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let dataset_grain = ExperimentRunner::new(small_config()).run(&system, &dataset).unwrap();
        let per_user = ExperimentRunner::with_plan(SweepPlan::grid(small_config()).per_user())
            .run(&system, &dataset)
            .unwrap();

        // The grain is opt-in: dataset-grain sweeps record nothing per user.
        assert_eq!(dataset_grain.grain, Grain::Dataset);
        assert!(dataset_grain.user_columns.is_empty());
        assert!(dataset_grain.users().is_empty());
        assert_eq!(per_user.grain, Grain::PerUser);

        // The aggregate store is bit-identical — same seeds, same arithmetic.
        assert_eq!(per_user.points, dataset_grain.points);
        assert_eq!(per_user.columns, dataset_grain.columns);

        // One user column per metric, every curve aligned with the design.
        assert_eq!(per_user.user_columns.len(), per_user.columns.len());
        for column in &per_user.user_columns {
            assert!(!column.users.is_empty(), "{}", column.id);
            assert_eq!(column.curves.len(), column.users.len());
            for curve in &column.curves {
                assert_eq!(curve.len(), per_user.len());
                assert!(curve.iter().all(|v| (0.0..=1.0).contains(v)));
            }
            // With one repetition the aggregate mean at each point is exactly
            // the mean of the user curves (same values, same summation order).
            for point in 0..per_user.len() {
                let mean =
                    column.curves.iter().map(|c| c[point]).sum::<f64>() / column.users.len() as f64;
                assert_eq!(
                    mean,
                    per_user.column(&column.id).unwrap().means[point],
                    "{} point {point}",
                    column.id
                );
            }
        }

        // Per-user accessors: the utility metric covers every dataset user.
        let coverage = per_user.user_columns.iter().find(|c| c.id == utility_id()).unwrap();
        assert_eq!(coverage.users.len(), dataset.len());
        for trace in dataset.iter() {
            assert!(coverage.users.contains(&trace.user()));
        }
        assert!(!coverage.users.contains(&geopriv_mobility::UserId::new(9999)));
        assert!(!per_user.users().is_empty());
        assert!(!per_user.user_columns.iter().any(|c| c.id == MetricId::new("nope")));
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let parallel = ExperimentRunner::new(SweepConfig { parallel: true, ..small_config() })
            .run(&system, &dataset)
            .unwrap();
        let sequential = ExperimentRunner::new(SweepConfig { parallel: false, ..small_config() })
            .run(&system, &dataset)
            .unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sweeps_are_deterministic_in_the_seed() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let run = |seed| {
            ExperimentRunner::new(SweepConfig { seed, ..small_config() })
                .run(&system, &dataset)
                .unwrap()
        };
        assert_eq!(run(1), run(1));
        // Different seeds give different measurements (the mechanism is random).
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn repetitions_are_recorded_and_averaged() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let config = SweepConfig { points: 3, repetitions: 3, seed: 5, parallel: true };
        let result = ExperimentRunner::new(config).run(&system, &dataset).unwrap();
        for column in &result.columns {
            for (point, runs) in column.runs.iter().enumerate() {
                assert_eq!(runs.len(), 3);
                let mean: f64 = runs.iter().sum::<f64>() / 3.0;
                assert!((mean - column.means[point]).abs() < 1e-12);
                assert!(column.std(point) >= 0.0);
            }
        }
    }

    #[test]
    fn unit_seeds_are_unique_and_scheduling_independent() {
        // Distinct (point, repetition) pairs in a realistic sweep never share
        // a seed under one master seed.
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..64 {
            for rep in 0..16 {
                assert!(seen.insert(derive_unit_seed(42, point, rep)));
            }
        }
        // The derivation is a pure function of its three inputs.
        assert_eq!(derive_unit_seed(7, 3, 1), derive_unit_seed(7, 3, 1));
        assert_ne!(derive_unit_seed(7, 3, 1), derive_unit_seed(8, 3, 1));
    }

    #[test]
    fn run_indexed_preserves_index_order_in_both_modes() {
        // 1,000 items let each thread claim runs of several indices, the
        // last one cut short.
        for count in [17, 1_000] {
            let sequential = run_indexed(count, false, |i| i * i).unwrap();
            let parallel = run_indexed(count, true, |i| i * i).unwrap();
            assert_eq!(sequential, parallel);
            assert_eq!(sequential, (0..count).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, true, |i| i).unwrap().is_empty());
    }

    #[test]
    fn sweep_result_constructor_validates() {
        let column = |id: &str, means: Vec<f64>| MetricColumn {
            id: MetricId::new(id),
            direction: Direction::HigherIsBetter,
            runs: means.iter().map(|&m| vec![m]).collect(),
            means,
        };
        let axis = || ParameterDescriptor::new("p", 0.05, 0.5, ParameterScale::Linear).unwrap();
        assert!(SweepResult::from_axis(
            "m",
            axis(),
            &[0.1, 0.2],
            vec![column("a", vec![0.0, 1.0]), column("b", vec![1.0, 0.0])],
        )
        .is_ok());
        // Out-of-range design points are rejected.
        assert!(SweepResult::from_axis(
            "m",
            axis(),
            &[0.1, 2.0],
            vec![column("a", vec![0.0, 1.0])]
        )
        .is_err());
        // Ragged column.
        assert!(
            SweepResult::from_axis("m", axis(), &[0.1, 0.2], vec![column("a", vec![0.0])]).is_err()
        );
        // Runs recorded but not aligned with the points.
        let mut misaligned = column("a", vec![0.0, 1.0]);
        misaligned.runs.pop();
        assert!(SweepResult::from_axis("m", axis(), &[0.1, 0.2], vec![misaligned]).is_err());
        // Empty runs are the "not recorded" convention used by synthetic sweeps.
        let mut unrecorded = column("a", vec![0.0, 1.0]);
        unrecorded.runs.clear();
        assert!(SweepResult::from_axis("m", axis(), &[0.1, 0.2], vec![unrecorded]).is_ok());
        // Duplicate id.
        assert!(SweepResult::from_axis(
            "m",
            axis(),
            &[0.1, 0.2],
            vec![column("a", vec![0.0, 1.0]), column("a", vec![1.0, 0.0])],
        )
        .is_err());
        // Points from a different space are rejected by the full constructor.
        let foreign = ConfigSpace::single(epsilon_axis()).point_from_coords(&[0.01]).unwrap();
        assert!(SweepResult::new(
            "m",
            ConfigSpace::single(axis()),
            SweepMode::Grid,
            vec![foreign],
            vec![column("a", vec![0.5])],
        )
        .is_err());
    }

    #[test]
    fn invalid_config_is_rejected_by_run() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let runner = ExperimentRunner::new(SweepConfig { points: 1, ..SweepConfig::default() });
        assert!(runner.run(&system, &dataset).is_err());
    }

    #[test]
    fn adaptive_without_refinement_is_bit_identical_to_grid() {
        let dataset = small_dataset();
        // Single-axis system.
        let system = SystemDefinition::paper_geoi();
        let grid = ExperimentRunner::new(small_config()).run(&system, &dataset).unwrap();
        // Budget 0 clamps to the coarse-pass size: refinement is disabled.
        let adaptive = ExperimentRunner::with_plan(SweepPlan::grid(small_config()).refine(0))
            .run(&system, &dataset)
            .unwrap();
        assert_eq!(adaptive.mode, SweepMode::Adaptive);
        let mut relabeled = grid.clone();
        relabeled.mode = SweepMode::Adaptive;
        assert_eq!(adaptive, relabeled);

        // Multi-axis system, per-user grain: user columns must match too.
        let system = composed_system();
        let grid_plan = SweepPlan::grid(small_config()).per_user();
        let grid = ExperimentRunner::with_plan(grid_plan).run(&system, &dataset).unwrap();
        let budget = grid.len(); // exactly the coarse pass, nothing left to refine
        let adaptive_plan = SweepPlan::grid(small_config()).refine(budget).per_user();
        let adaptive = ExperimentRunner::with_plan(adaptive_plan).run(&system, &dataset).unwrap();
        let mut relabeled = grid.clone();
        relabeled.mode = SweepMode::Adaptive;
        assert_eq!(adaptive, relabeled);
    }

    #[test]
    fn adaptive_refinement_adds_points_within_bounds_and_budget() {
        let dataset = small_dataset();
        let system = composed_system();
        let config = SweepConfig { points: 3, ..small_config() };
        let coarse = 9; // 3 x 3 grid
        let budget = coarse + 5;
        let plan = SweepPlan::grid(config).refine(budget);
        let result = ExperimentRunner::with_plan(plan.clone()).run(&system, &dataset).unwrap();

        assert!(result.len() > coarse, "refinement added no points");
        assert!(result.len() <= budget, "budget exceeded: {} > {budget}", result.len());
        let space = system.space();
        for point in &result.points {
            space.check(point).unwrap();
        }
        // Points stay sorted in coordinate order so downstream per-axis
        // modeling sees a monotone design even though it is irregular.
        let coords: Vec<Vec<f64>> = result.points.iter().map(ConfigPoint::coords).collect();
        let mut sorted = coords.clone();
        sorted.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        assert_eq!(coords, sorted);

        // Bit-identical on rerun.
        let again = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();
        assert_eq!(result, again);
    }

    #[test]
    fn adaptive_plans_refuse_a_coarse_pass_the_modeler_cannot_fit() {
        let dataset = small_dataset();
        let system = SystemDefinition::paper_geoi();
        let config = SweepConfig { points: 3, repetitions: 1, ..small_config() };
        // Refinement would steer by a fit of 3 points; the modeler needs 4.
        let refused = ExperimentRunner::with_plan(SweepPlan::grid(config).refine(30))
            .run(&system, &dataset)
            .unwrap_err();
        assert!(
            matches!(&refused, CoreError::InvalidConfiguration { reason }
                if reason.contains("needs at least 4 sweep points, got 3")),
            "{refused}"
        );
        // With no budget to spend, nothing is fitted and the coarse pass stands.
        let coarse = ExperimentRunner::with_plan(SweepPlan::grid(config).refine(0))
            .run(&system, &dataset)
            .unwrap();
        assert_eq!(coarse.len(), 3);
    }

    #[test]
    fn adaptive_per_user_grain_records_full_curves() {
        let dataset = small_dataset();
        let system = composed_system();
        let config = SweepConfig { points: 3, ..small_config() };
        let plan = SweepPlan::grid(config).refine(13).per_user();
        let result = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();

        assert!(result.len() > 9);
        assert_eq!(result.user_columns.len(), 2);
        for column in &result.user_columns {
            // Successive halving prunes which users drive *planning*, never
            // which users are measured: every curve spans every point.
            assert_eq!(column.users.len(), 3);
            for user in result.users() {
                let row = column.users.iter().position(|&u| u == user).unwrap();
                assert_eq!(column.curves[row].len(), result.len());
            }
        }
    }

    #[test]
    fn point_seeds_are_keyed_by_coordinates_not_enumeration_order() {
        let space = composed_system().space();
        let a = space.point_from_coords(&[0.01, 500.0]).unwrap();
        let b = space.point_from_coords(&[0.01, 700.0]).unwrap();

        // Same coordinates, same seed — no matter when the point is planned.
        assert_eq!(derive_point_seed(42, &a, 0), derive_point_seed(42, &a, 0));
        // Distinct coordinates, master seeds and repetitions all decorrelate.
        assert_ne!(derive_point_seed(42, &a, 0), derive_point_seed(42, &b, 0));
        assert_ne!(derive_point_seed(42, &a, 0), derive_point_seed(43, &a, 0));
        assert_ne!(derive_point_seed(42, &a, 0), derive_point_seed(42, &a, 1));
    }

    #[test]
    fn refinement_bisects_zone_edges_before_the_worst_residual_gap() {
        use crate::modeling::{FitDiagnostics, MetricDiagnostics};
        let measured = [1e-4, 1e-3, 1e-2, 1e-1, 1.0];
        let column = MetricColumn {
            id: privacy_id(),
            direction: Direction::LowerIsBetter,
            means: vec![0.0; measured.len()],
            runs: Vec::new(),
        };
        let sweep = SweepResult::from_axis("m", epsilon_axis(), &measured, vec![column]).unwrap();
        // A fit whose active zone is [1e-3, 1e-1] and whose worst residual
        // sits at `measured[worst]`.
        let diagnostics = |worst: usize| FitDiagnostics {
            metrics: vec![MetricDiagnostics {
                id: privacy_id(),
                residuals: (0..measured.len())
                    .map(|i| if i == worst { 0.3 } else { 0.0 })
                    .collect(),
                worst_point: worst,
                zone_edges: vec![("epsilon".to_string(), (1e-3, 1e-1))],
            }],
        };
        let propose = |worst: usize, seen: &mut BTreeSet<String>, limit: usize| {
            let batch = plan_refinement(&sweep.space, &sweep, &[diagnostics(worst)], seen, limit);
            batch.unwrap().iter().map(ConfigPoint::coords).collect::<Vec<_>>()
        };
        let mid = |a: f64, b: f64| vec![scale_midpoint(ParameterScale::Logarithmic, a, b)];

        // Each zone edge is bisected toward its nearest measured value
        // outside the zone, then the worst point toward its wider gap (equal
        // gaps go left).
        let mut seen = BTreeSet::new();
        let first = vec![mid(1e-4, 1e-3), mid(1e-1, 1.0), mid(1e-3, 1e-2)];
        assert_eq!(propose(2, &mut seen, 10), first);
        // A later round that shares `seen` proposes only what it lacks.
        assert_eq!(propose(3, &mut seen, 10), vec![mid(1e-2, 1e-1)]);
        assert!(propose(3, &mut seen, 10).is_empty());

        // `limit` caps a batch; what it cut off comes in the next one.
        let mut seen = BTreeSet::new();
        assert_eq!(propose(2, &mut seen, 2), first[..2]);
        assert_eq!(propose(2, &mut seen, 2), first[2..]);
    }

    #[test]
    fn adaptive_shares_coarse_measurements_across_budgets() {
        // Growing the budget must never change the values measured at points
        // both runs share: refinement seeds are keyed by coordinates, not by
        // the order in which the planner emitted them.
        let dataset = small_dataset();
        let system = composed_system();
        let config = SweepConfig { points: 3, ..small_config() };
        let small = ExperimentRunner::with_plan(SweepPlan::grid(config).refine(11))
            .run(&system, &dataset)
            .unwrap();
        let large = ExperimentRunner::with_plan(SweepPlan::grid(config).refine(15))
            .run(&system, &dataset)
            .unwrap();
        for (i, point) in small.points.iter().enumerate() {
            let Some(j) = large.points.iter().position(|p| p.cache_token() == point.cache_token())
            else {
                continue;
            };
            for (sc, lc) in small.columns.iter().zip(&large.columns) {
                assert_eq!(sc.means[i].to_bits(), lc.means[j].to_bits());
            }
        }
    }

    #[test]
    fn run_refuses_a_cached_plan() {
        // Only `run_cached` reports the cache's warnings, so `run` must not
        // serve a cached plan and drop them.
        let dir = std::env::temp_dir().join(format!("geopriv-run-cached-{}", std::process::id()));
        let plan = SweepPlan::grid(SweepConfig { points: 3, ..small_config() }).cached(&dir);
        let result = ExperimentRunner::with_plan(plan)
            .run(&SystemDefinition::paper_geoi(), &small_dataset());
        match result {
            Err(CoreError::InvalidConfiguration { reason }) => {
                assert!(reason.contains("run_cached"), "reason: {reason}");
            }
            other => panic!("expected a refusal naming run_cached, got {other:?}"),
        }
        assert!(!dir.exists(), "a refused run must not touch the cache directory");
    }
}
