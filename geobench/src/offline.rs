//! Inputs and replays shared by the offline workloads.
//!
//! A replay re-issues a sweep's work through the layers' public calls —
//! `instantiate_at`, `protect_dataset` under the engine's seed rule,
//! `prepare` and `evaluate_prepared` — each inside a span, and returns the
//! measured values so the caller can check them bit for bit against the
//! engine's own [`SweepResult`].

use crate::trace::Tracer;
use geopriv_core::prelude::*;
use geopriv_core::{derive_unit_seed, derive_user_seed};
use geopriv_metrics::PreparedState;
use geopriv_mobility::generator::{self, TaxiFleetBuilder};
use geopriv_mobility::{Dataset, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The sweep engine's master seed: part of the program's configuration,
/// fixed across runs. The `--seed` argument only generates the inputs.
pub const SWEEP_SEED: u64 = 20161212;

/// The 50-driver synthetic San Francisco taxi fleet, 24 h at 30 s sampling.
pub fn paper_fleet(seed: u64) -> Result<Dataset, String> {
    TaxiFleetBuilder::new()
        .drivers(50)
        .duration_hours(24.0)
        .sampling_interval_s(30.0)
        .build(&mut StdRng::seed_from_u64(seed))
        .map_err(|e| e.to_string())
}

/// Users of the scaled fleet shared by `fleet-refresh` and `serve-stream`.
pub const FLEET_USERS: usize = 10_000;

/// The compact scaled fleet: [`FLEET_USERS`] drivers, ~16 records each.
pub fn scaled_fleet(seed: u64) -> Result<Dataset, String> {
    generator::scaled(FLEET_USERS, seed).map_err(|e| e.to_string())
}

/// The per-user objectives of the fleet workloads (feasible on the scaled
/// fleet's short traces).
pub fn fleet_objectives() -> Objectives {
    Objectives::new()
        .require("poi-retrieval", at_most(0.45))
        .and_then(|o| o.require("area-coverage", at_least(0.45)))
        .expect("static objectives are valid")
}

/// Span names of one suite metric's prepare and evaluate calls.
fn metric_spans(metric: &SuiteMetric) -> (&'static str, &'static str) {
    match metric.id().as_str() {
        "poi-retrieval" => ("metrics.poi_retrieval.prepare", "metrics.poi_retrieval.evaluate"),
        "area-coverage" => ("metrics.area_coverage.prepare", "metrics.area_coverage.evaluate"),
        _ => ("metrics.other.prepare", "metrics.other.evaluate"),
    }
}

fn prepare_suite(
    tracer: &mut Tracer,
    system: &SystemDefinition,
    actual: &Dataset,
) -> Result<Vec<PreparedState>, String> {
    system
        .suite()
        .iter()
        .map(|metric| {
            tracer
                .leaf(metric_spans(metric).0, || metric.prepare(actual))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One metric evaluation: the value, the evaluated-trace weight and, for a
/// per-user replay, the user's own breakdown value.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub weight: usize,
    pub breakdown: Option<f64>,
}

/// `samples[point][repetition][metric]`.
pub type Samples = Vec<Vec<Vec<Sample>>>;

/// Protects `actual` at every design point and repetition under the seed
/// `seed_of(point, repetition)` and evaluates every suite metric.
fn measure(
    tracer: &mut Tracer,
    system: &SystemDefinition,
    actual: &Dataset,
    points: &[ConfigPoint],
    repetitions: usize,
    user: Option<UserId>,
    seed_of: impl Fn(usize, usize) -> u64,
) -> Result<Samples, String> {
    let prepared = prepare_suite(tracer, system, actual)?;
    let mut per_point = Vec::with_capacity(points.len());
    for (p, point) in points.iter().enumerate() {
        let lppm = tracer
            .leaf("lppm.instantiate", || system.factory().instantiate_at(point))
            .map_err(|e| e.to_string())?;
        let mut reps = Vec::with_capacity(repetitions);
        for r in 0..repetitions {
            let mut rng = StdRng::seed_from_u64(seed_of(p, r));
            let protected = tracer
                .leaf("lppm.protect", || lppm.protect_dataset(actual, &mut rng))
                .map_err(|e| e.to_string())?;
            let mut samples = Vec::with_capacity(prepared.len());
            for (metric, state) in system.suite().iter().zip(&prepared) {
                let measured = tracer
                    .leaf(metric_spans(metric).1, || {
                        metric.evaluate_prepared(state, actual, &protected)
                    })
                    .map_err(|e| e.to_string())?;
                samples.push(Sample {
                    value: measured.value(),
                    weight: measured.evaluated_count(),
                    breakdown: user.and_then(|u| measured.value_for(u)),
                });
            }
            reps.push(samples);
        }
        per_point.push(reps);
    }
    Ok(per_point)
}

/// Replays a dataset-grain sweep: the dataset prepared once, one unit per
/// `(point, repetition)` seeded with `derive_unit_seed`.
pub fn replay_dataset_sweep(
    tracer: &mut Tracer,
    system: &SystemDefinition,
    dataset: &Dataset,
    config: SweepConfig,
) -> Result<Samples, String> {
    let points = SweepPlan::grid(config).enumerate(&system.space()).map_err(|e| e.to_string())?;
    measure(tracer, system, dataset, &points, config.repetitions, None, |p, r| {
        derive_unit_seed(config.seed, p, r)
    })
}

/// Replays the measurement of the given users of a cached per-user sweep:
/// each on her own slice, seeded with core's `derive_user_seed`. `users`
/// holds `(dataset index, user id)` pairs.
pub fn replay_users(
    tracer: &mut Tracer,
    system: &SystemDefinition,
    dataset: &Dataset,
    config: SweepConfig,
    users: &[(usize, UserId)],
) -> Result<Vec<(UserId, Samples)>, String> {
    let points = SweepPlan::grid(config).enumerate(&system.space()).map_err(|e| e.to_string())?;
    users
        .iter()
        .map(|&(index, user)| {
            let slice = dataset.user_slice(index..index + 1).map_err(|e| e.to_string())?;
            let samples = measure(
                tracer,
                system,
                &slice,
                &points,
                config.repetitions,
                Some(user),
                |p, r| derive_user_seed(config.seed, p, r, user),
            )?;
            Ok((user, samples))
        })
        .collect()
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Checks a sweep's columns against replayed aggregates
/// (`aggregate[point][repetition][metric]`), bit for bit.
fn check_columns(sweep: &SweepResult, aggregate: &[Vec<Vec<f64>>]) -> Result<(), String> {
    if sweep.points.len() != aggregate.len() {
        return Err(format!("{} points, replay has {}", sweep.points.len(), aggregate.len()));
    }
    for (k, column) in sweep.columns.iter().enumerate() {
        for (p, reps) in aggregate.iter().enumerate() {
            let runs: Vec<f64> = reps.iter().map(|rep| rep[k]).collect();
            let mean = runs.iter().sum::<f64>() / runs.len() as f64;
            let recorded = column.runs.get(p).map(Vec::as_slice).unwrap_or_default();
            if recorded.len() != runs.len()
                || recorded.iter().zip(&runs).any(|(a, b)| !same(*a, *b))
                || !same(column.means[p], mean)
            {
                return Err(format!("metric {} differs from the replay at point {p}", column.id));
            }
        }
    }
    Ok(())
}

/// Checks a dataset-grain sweep against its replay, bit for bit.
pub fn check_dataset_sweep(sweep: &SweepResult, replay: &Samples) -> Result<(), String> {
    let aggregate: Vec<Vec<Vec<f64>>> = replay
        .iter()
        .map(|reps| reps.iter().map(|rep| rep.iter().map(|s| s.value).collect()).collect())
        .collect();
    check_columns(sweep, &aggregate)
}

/// Checks a cached per-user sweep against the replay of every user (in
/// dataset order), bit for bit: the aggregate columns, folded across users
/// as evaluated-trace-weighted means, and every user's curves.
pub fn check_user_sweep(sweep: &SweepResult, replay: &[(UserId, Samples)]) -> Result<(), String> {
    let Some((_, first)) = replay.first() else {
        return Err("empty replay".to_string());
    };
    let mut aggregate: Vec<Vec<Vec<f64>>> = Vec::with_capacity(first.len());
    for (p, reps) in first.iter().enumerate() {
        let mut point = Vec::with_capacity(reps.len());
        for (r, rep) in reps.iter().enumerate() {
            let mut folded = Vec::with_capacity(rep.len());
            for k in 0..rep.len() {
                let (mut value, mut weight) = (0.0, 0usize);
                for (u, (_, samples)) in replay.iter().enumerate() {
                    let sample = samples[p][r][k];
                    if u == 0 {
                        (value, weight) = (sample.value, sample.weight);
                        continue;
                    }
                    let total = weight + sample.weight;
                    if total > 0 {
                        value = (value * weight as f64 + sample.value * sample.weight as f64)
                            / total as f64;
                    }
                    weight = total;
                }
                folded.push(value);
            }
            point.push(folded);
        }
        aggregate.push(point);
    }
    check_columns(sweep, &aggregate)?;

    for (k, column) in sweep.user_columns.iter().enumerate() {
        let evaluated: Vec<&(UserId, Samples)> =
            replay.iter().filter(|(_, samples)| samples[0][0][k].breakdown.is_some()).collect();
        if column.users.len() != evaluated.len() {
            return Err(format!(
                "metric {} resolved {} users, replay {}",
                column.id,
                column.users.len(),
                evaluated.len()
            ));
        }
        for ((user, samples), (id, curve)) in
            evaluated.iter().map(|e| (e.0, &e.1)).zip(column.users.iter().zip(&column.curves))
        {
            let replayed: Vec<f64> = samples
                .iter()
                .map(|reps| {
                    let sum =
                        reps.iter().fold(0.0, |sum, rep| sum + rep[k].breakdown.unwrap_or(0.0));
                    sum / reps.len() as f64
                })
                .collect();
            if user != *id
                || curve.len() != replayed.len()
                || curve.iter().zip(&replayed).any(|(a, b)| !same(*a, *b))
            {
                return Err(format!("metric {} curve of user {user} differs", column.id));
            }
        }
    }
    Ok(())
}

/// FNV-1a digest of a sweep's recorded values (points, columns, curves).
pub fn sweep_digest(sweep: &SweepResult) -> u64 {
    let mut digest = Fnv::new();
    for point in &sweep.points {
        digest.text(&point.cache_token());
    }
    for column in &sweep.columns {
        digest.text(column.id.as_str());
        column.runs.iter().flatten().for_each(|v| digest.word(v.to_bits()));
    }
    for column in &sweep.user_columns {
        column.users.iter().for_each(|u| digest.word(u.value()));
        column.curves.iter().flatten().for_each(|v| digest.word(v.to_bits()));
    }
    digest.finish()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xFF]);
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
