//! Replays the execution modes whose seed rules or fold differ from the
//! plain sweep — refined adaptive and cached per-user runs — straight from
//! the public mechanism and metric calls: `prepare`, `instantiate_at`,
//! `protect_dataset` under the mode's seed rule, and `evaluate_prepared`.
//! The plain path has its own replays (`suite_equivalence.rs`,
//! `config_space_equivalence.rs`).
//!
//! A cached run measures each user on her own slice and folds the users in
//! dataset order: the first user passes through, each later user gives
//! `(v·w + v′·w′)/(w + w′)` when `w + w′ > 0`, and the user breakdowns
//! concatenate. Every `runs` value and every user curve must match the
//! engine bit for bit, in parallel and sequentially. A change to any seed
//! rule or to the fold fails here first.

use geopriv::mobility::generator::perturb_users;
use geopriv::prelude::*;
use geopriv_core::{derive_point_seed, derive_unit_seed, derive_user_seed};
use geopriv_metrics::PreparedState;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 31;
const REPETITIONS: usize = 2;

fn taxi_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(5);
    TaxiFleetBuilder::new()
        .drivers(4)
        .duration_hours(2.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

fn config(parallel: bool) -> SweepConfig {
    SweepConfig { points: 5, repetitions: REPETITIONS, seed: SEED, parallel }
}

/// One replayed metric evaluation.
struct Sample {
    value: f64,
    weight: usize,
    per_user: Vec<(UserId, f64)>,
}

/// `samples[point][repetition][metric]` of one dataset or user slice.
type Samples = Vec<Vec<Vec<Sample>>>;

/// Protects `part` at every design point and repetition under
/// `seed(point index, point, repetition)` and evaluates every suite metric
/// against state prepared on `part`.
fn replay_part(
    system: &SystemDefinition,
    part: &Dataset,
    points: &[ConfigPoint],
    seed: impl Fn(usize, &ConfigPoint, usize) -> u64,
) -> Samples {
    let prepared: Vec<PreparedState> =
        system.suite().iter().map(|m| m.prepare(part).expect("prepare succeeds")).collect();
    points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            let lppm = system.factory().instantiate_at(point).expect("point is in the space");
            (0..REPETITIONS)
                .map(|r| {
                    let mut rng = StdRng::seed_from_u64(seed(p, point, r));
                    let protected = lppm.protect_dataset(part, &mut rng).expect("protect succeeds");
                    system
                        .suite()
                        .iter()
                        .zip(&prepared)
                        .map(|(metric, state)| {
                            let measured = metric
                                .evaluate_prepared(state, part, &protected)
                                .expect("evaluate succeeds");
                            Sample {
                                value: measured.value(),
                                weight: measured.evaluated_count(),
                                per_user: measured.per_user().to_vec(),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Folds per-user parts in dataset order.
fn fold(parts: Vec<Samples>) -> Samples {
    let mut parts = parts.into_iter();
    let mut folded = parts.next().expect("at least one part");
    for part in parts {
        for (into_point, point) in folded.iter_mut().zip(part) {
            for (into_rep, rep) in into_point.iter_mut().zip(point) {
                for (into, sample) in into_rep.iter_mut().zip(rep) {
                    let total = into.weight + sample.weight;
                    if total > 0 {
                        into.value = (into.value * into.weight as f64
                            + sample.value * sample.weight as f64)
                            / total as f64;
                    }
                    into.weight = total;
                    into.per_user.extend(sample.per_user);
                }
            }
        }
    }
    folded
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that a per-user sweep equals the replay bit for bit: every
/// `runs` value and every user curve.
fn assert_replays(sweep: &SweepResult, replay: &Samples, what: &str) {
    assert_eq!(sweep.len(), replay.len(), "{what}: design size");
    assert_eq!(sweep.user_columns.len(), sweep.columns.len(), "{what}: per-user grain");
    for (k, column) in sweep.columns.iter().enumerate() {
        for (p, reps) in replay.iter().enumerate() {
            let runs: Vec<f64> = reps.iter().map(|rep| rep[k].value).collect();
            assert_eq!(bits(&column.runs[p]), bits(&runs), "{what}: {} runs at {p}", column.id);
        }
    }
    for (k, column) in sweep.user_columns.iter().enumerate() {
        let users: Vec<UserId> = replay[0][0][k].per_user.iter().map(|(u, _)| *u).collect();
        assert_eq!(column.users, users, "{what}: {} users", column.id);
        for (u, curve) in column.curves.iter().enumerate() {
            let replayed: Vec<f64> = replay
                .iter()
                .map(|reps| {
                    let sum = reps.iter().fold(0.0, |sum, rep| sum + rep[k].per_user[u].1);
                    sum / reps.len() as f64
                })
                .collect();
            assert_eq!(bits(curve), bits(&replayed), "{what}: {} curve of {}", column.id, users[u]);
        }
    }
}

#[test]
fn refined_adaptive_runs_replay_unit_and_point_seeds() {
    let dataset = taxi_dataset();
    let system = SystemDefinition::paper_geoi();
    let coarse = SweepPlan::grid(config(true)).enumerate(&system.space()).unwrap();
    // Coarse points draw the unit seed of their coarse index, refined points
    // their point-identity seed.
    let seed_rule = |_: usize, point: &ConfigPoint, r: usize| {
        let token = point.cache_token();
        match coarse.iter().position(|c| c.cache_token() == token) {
            Some(index) => derive_unit_seed(SEED, index, r),
            None => derive_point_seed(SEED, point, r),
        }
    };
    let budget = coarse.len() + 3;
    for parallel in [true, false] {
        let plan = SweepPlan::grid(config(parallel)).refine(budget).per_user();
        let sweep = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();
        assert!(sweep.len() > coarse.len(), "refinement added points");
        let replay = replay_part(&system, &dataset, &sweep.points, seed_rule);
        assert_replays(&sweep, &replay, &format!("adaptive, {parallel}"));
    }
}

#[test]
fn cached_runs_replay_the_user_seed_rule_cold_and_warm() {
    let dataset = taxi_dataset();
    // One drifted user between cached users: the partially warm run serves
    // hits and misses interleaved in dataset order.
    let drifted = perturb_users(&dataset, &dataset.users()[1..2], 3).unwrap();
    let system = SystemDefinition::paper_geoi();
    let points = SweepPlan::grid(config(true)).enumerate(&system.space()).unwrap();
    let replay_of = |dataset: &Dataset| {
        let parts: Vec<Samples> = (0..dataset.user_count())
            .map(|index| {
                let slice = dataset.user_slice(index..index + 1).expect("in range");
                let user = slice.users()[0];
                replay_part(&system, &slice, &points, |p, _, r| derive_user_seed(SEED, p, r, user))
            })
            .collect();
        fold(parts)
    };
    let (replay, drifted_replay) = (replay_of(&dataset), replay_of(&drifted));
    let dir = std::env::temp_dir().join(format!("geopriv-modes-{}", std::process::id()));
    for parallel in [true, false] {
        let _ = std::fs::remove_dir_all(&dir);
        let runner =
            ExperimentRunner::with_plan(SweepPlan::grid(config(parallel)).per_user().cached(&dir));
        let cold = runner.run_cached(&system, &dataset).unwrap();
        assert_eq!(cold.stats.misses, dataset.user_count());
        assert_replays(&cold.result, &replay, &format!("cold cache, {parallel}"));
        let warm = runner.run_cached(&system, &dataset).unwrap();
        assert_eq!((warm.stats.hits, warm.stats.misses), (dataset.user_count(), 0));
        assert_replays(&warm.result, &replay, &format!("warm cache, {parallel}"));
        let partial = runner.run_cached(&system, &drifted).unwrap();
        assert_eq!((partial.stats.hits, partial.stats.misses), (drifted.user_count() - 1, 1));
        assert_replays(&partial.result, &drifted_replay, &format!("partial cache, {parallel}"));

        // The same cached plan at dataset grain folds the same rows.
        let dataset_grain =
            ExperimentRunner::with_plan(SweepPlan::grid(config(parallel)).cached(&dir))
                .run_cached(&system, &drifted)
                .unwrap();
        assert_eq!(dataset_grain.stats.hits, drifted.user_count());
        assert!(dataset_grain.result.user_columns.is_empty());
        let runs = |sweep: &SweepResult| -> Vec<Vec<Vec<u64>>> {
            sweep.columns.iter().map(|c| c.runs.iter().map(|r| bits(r)).collect()).collect()
        };
        assert_eq!(runs(&dataset_grain.result), runs(&partial.result), "dataset grain, {parallel}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
