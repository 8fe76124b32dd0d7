//! The incremental-recomputation contract, verified end to end:
//!
//! * **warm ≡ cold** — a warm cached run (every user served from the
//!   on-disk measurement cache) is bit-identical to the cold full run that
//!   populated it: same sweep columns, same per-user curves, same fits,
//!   same recommendation for every user;
//! * **partial warm ≡ cold** — after perturbing a few users' traces, a
//!   refresh re-measures exactly those users and still reproduces, bit for
//!   bit, what a cold full study of the changed dataset computes;
//! * **integrity** — a corrupted, truncated or version-mismatched cache
//!   file is detected via its checksum and demoted to a cold run with a
//!   warning: never a wrong result, never a panic.

use geopriv::mobility::generator::perturb_users;
use geopriv::prelude::*;
use geopriv::{AutoConf, MoveReason};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn taxi_dataset(drivers: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(drivers)
        .duration_hours(4.0)
        .sampling_interval_s(120.0)
        .build(&mut rng)
        .unwrap()
}

/// A fresh, empty cache directory unique to this test and process.
fn fresh_cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geopriv-inc-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn study<'a>(
    dataset: &'a Dataset,
    cache: &Path,
) -> Result<geopriv::FittedAutoConf<'a>, geopriv::Error> {
    AutoConf::for_system(SystemDefinition::paper_geoi())
        .dataset(dataset)
        .sweep(|s| s.points(9).seed(42).per_user().cached(cache))
        .fit()?
        .require("poi-retrieval", at_most(0.6))?
        .require("area-coverage", at_least(0.3))
}

#[test]
fn warm_run_is_bit_identical_to_the_cold_run_that_populated_the_cache() {
    let dataset = taxi_dataset(8, 7);
    let cache = fresh_cache_dir("warm-eq-cold");

    let cold = study(&dataset, &cache).unwrap();
    let cold_stats = cold.cache_stats().unwrap().clone();
    assert_eq!(cold_stats.hits, 0, "a fresh cache cannot hit");
    assert_eq!(cold_stats.misses, cold_stats.users);
    assert!(cold_stats.warnings.is_empty(), "{:?}", cold_stats.warnings);

    let warm = study(&dataset, &cache).unwrap();
    let warm_stats = warm.cache_stats().unwrap();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses),
        (cold_stats.users, 0),
        "expected all hits: {warm_stats:?}"
    );
    assert_eq!(warm_stats.users, cold_stats.users);

    // Bit-identical, not merely close: columns, per-user curves, fits,
    // dataset recommendation and every user's row.
    assert_eq!(warm.sweep_result(), cold.sweep_result());
    assert_eq!(warm.per_user_models(), cold.per_user_models());
    assert_eq!(warm.recommend_per_user().unwrap(), cold.recommend_per_user().unwrap());
}

#[test]
fn refresh_reuses_unchanged_users_and_matches_a_cold_full_study() {
    let dataset = taxi_dataset(10, 11);
    let users = dataset.users();
    let perturbed = vec![users[1], users[4]];
    let drifted = perturb_users(&dataset, &perturbed, 99).unwrap();
    assert_ne!(drifted, dataset);

    let cache = fresh_cache_dir("refresh");
    let old = study(&dataset, &cache).unwrap();
    let (refreshed, report) = old.refresh(&drifted).unwrap();

    // The report names exactly the perturbed users, and the cache served
    // everyone else.
    assert_eq!(report.changed_users, perturbed);
    assert!(report.removed_users.is_empty());
    assert_eq!(report.remeasured, perturbed.len());
    assert_eq!(report.cache_hits, users.len() - perturbed.len());
    assert_eq!(report.refitted, perturbed.len());
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    for moved in &report.moved {
        // Every move has a reason consistent with the classification rules.
        match moved.reason {
            MoveReason::TraceDrift => assert!(perturbed.contains(&moved.user)),
            MoveReason::NewUser => panic!("no user was added"),
            MoveReason::FallbackAnchorMoved => {
                assert!(report.dataset_point_moved);
                assert!(!moved.new_verdict.is_feasible());
            }
            MoveReason::ModelShift => assert!(!perturbed.contains(&moved.user)),
        }
    }

    // The warm refresh is bit-identical to a cold full study of the
    // changed dataset — the workspace's warm ≡ cold contract.
    let cold_cache = fresh_cache_dir("refresh-cold");
    let cold = study(&drifted, &cold_cache).unwrap();
    assert_eq!(refreshed.sweep_result(), cold.sweep_result());
    assert_eq!(refreshed.per_user_models(), cold.per_user_models());
    assert_eq!(refreshed.recommend_per_user().unwrap(), cold.recommend_per_user().unwrap());
}

#[test]
fn refresh_requires_a_cache_and_a_per_user_sweep() {
    let dataset = taxi_dataset(6, 3);
    let no_cache = AutoConf::for_system(SystemDefinition::paper_geoi())
        .dataset(&dataset)
        .sweep(|s| s.points(9).seed(1).per_user())
        .fit()
        .unwrap()
        .require("poi-retrieval", at_most(0.6))
        .unwrap();
    assert!(no_cache.cache_stats().is_none());
    assert!(no_cache.refresh(&dataset).is_err());

    let cache = fresh_cache_dir("refresh-needs-per-user");
    let no_per_user = AutoConf::for_system(SystemDefinition::paper_geoi())
        .dataset(&dataset)
        .sweep(|s| s.points(9).seed(1).cached(cache))
        .fit()
        .unwrap()
        .require("poi-retrieval", at_most(0.6))
        .unwrap();
    assert!(no_per_user.refresh(&dataset).is_err());
}

/// Corrupts every cached sweep file in `dir` with `damage`, returning how
/// many files were touched.
fn damage_cache_files(dir: &Path, damage: impl Fn(Vec<u8>) -> Vec<u8>) -> usize {
    let mut touched = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bin") {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, damage(bytes)).unwrap();
            touched += 1;
        }
    }
    touched
}

#[test]
fn corrupted_truncated_or_mismatched_cache_files_fall_back_cold_with_a_warning() {
    let dataset = taxi_dataset(6, 5);

    // Flipped payload byte (checksum mismatch), truncation, and a wrong
    // magic/version header must all demote the run to cold — with the
    // result bit-identical to the genuine cold run, and a warning raised.
    type Damage = Box<dyn Fn(Vec<u8>) -> Vec<u8>>;
    let corruptions: Vec<(&str, Damage)> = vec![
        (
            "bit-flip",
            Box::new(|mut bytes: Vec<u8>| {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x5a;
                bytes
            }),
        ),
        ("truncation", Box::new(|bytes: Vec<u8>| bytes[..bytes.len() / 2].to_vec())),
        (
            "version-mismatch",
            Box::new(|mut bytes: Vec<u8>| {
                bytes[..8].copy_from_slice(b"GPCACHE9");
                bytes
            }),
        ),
    ];

    for (name, damage) in corruptions {
        let cache = fresh_cache_dir(&format!("integrity-{name}"));
        let cold = study(&dataset, &cache).unwrap();
        assert!(damage_cache_files(&cache, damage) > 0, "{name}: no cache file written");

        let recovered = study(&dataset, &cache).unwrap();
        let stats = recovered.cache_stats().unwrap();
        assert_eq!(stats.hits, 0, "{name}: a damaged file must never hit");
        assert_eq!(stats.misses, stats.users, "{name}");
        assert!(!stats.warnings.is_empty(), "{name}: damage must be reported");

        assert_eq!(recovered.sweep_result(), cold.sweep_result(), "{name}");
        assert_eq!(
            recovered.recommend_per_user().unwrap(),
            cold.recommend_per_user().unwrap(),
            "{name}"
        );
    }
}

#[test]
fn incremental_refit_matches_a_full_refit_bit_for_bit() {
    use geopriv::core::{ExperimentRunner, Modeler, SweepConfig, SweepPlan};

    let dataset = taxi_dataset(8, 13);
    let users = dataset.users();
    let perturbed = vec![users[0], users[5]];
    let drifted = perturb_users(&dataset, &perturbed, 17).unwrap();

    let cache = fresh_cache_dir("refit");
    let plan = SweepPlan::grid(SweepConfig { points: 9, repetitions: 1, seed: 42, parallel: true })
        .per_user()
        .cached(&cache);
    let system = SystemDefinition::paper_geoi();
    let runner = ExperimentRunner::with_plan(plan);

    let before = runner.run_cached(&system, &dataset).unwrap().result;
    let previous = Modeler::new().fit_per_user(&before).unwrap();

    let after = runner.run_cached(&system, &drifted).unwrap().result;
    let full = Modeler::new().fit_per_user(&after).unwrap();
    let incremental = Modeler::new().refit_per_user(&after, &previous, &perturbed).unwrap();
    assert_eq!(incremental, full);
}
