//! The per-user grain's equivalence contract, verified end to end:
//!
//! * a per-user sweep's *aggregate* columns are bit-identical to a
//!   dataset-grain sweep with the same seed (the grain only adds data, it
//!   never changes the numbers the rest of the framework sees);
//! * every aggregate is exactly the mean of the per-user breakdown it came
//!   from (single-repetition sweeps share the constructor's summation order,
//!   so the equality is bit-exact);
//! * the whole per-user pipeline — one sweep, N user models, one
//!   recommendation per user with an explicit verdict — holds its feasibility
//!   promises under the user's own models.

use geopriv::prelude::*;
use geopriv::AutoConf;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn taxi_dataset(drivers: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(drivers)
        .duration_hours(4.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .unwrap()
}

#[test]
fn per_user_sweep_aggregates_are_bit_identical_to_dataset_grain() {
    let dataset = taxi_dataset(4, 11);
    let system = SystemDefinition::paper_geoi();
    for seed in [1u64, 42, 20161212] {
        let config = SweepConfig { points: 7, repetitions: 2, seed, parallel: true };
        let dataset_grain = ExperimentRunner::new(config).run(&system, &dataset).unwrap();
        let per_user = ExperimentRunner::with_plan(SweepPlan::grid(config).per_user())
            .run(&system, &dataset)
            .unwrap();

        // Same design matrix, same aggregate columns, byte for byte.
        assert_eq!(per_user.points, dataset_grain.points, "seed {seed}");
        assert_eq!(per_user.columns, dataset_grain.columns, "seed {seed}");
        assert_eq!(per_user.space, dataset_grain.space, "seed {seed}");
        // Only the grain and the user columns differ.
        assert_eq!(dataset_grain.grain, Grain::Dataset);
        assert_eq!(per_user.grain, Grain::PerUser);
        assert!(dataset_grain.user_columns.is_empty());
        assert_eq!(per_user.user_columns.len(), per_user.columns.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The bit-identity holds for any seed and design size, and (for
    /// single-repetition sweeps) every aggregate mean is exactly the mean of
    /// the user curves at that point.
    #[test]
    fn per_user_grain_never_changes_the_aggregates(
        seed in 0u64..1_000,
        points in 5usize..9,
        drivers in 2usize..5,
    ) {
        let dataset = taxi_dataset(drivers, seed ^ 0xD5);
        let system = SystemDefinition::paper_geoi();
        let config = SweepConfig { points, repetitions: 1, seed, parallel: true };
        let dataset_grain = ExperimentRunner::new(config).run(&system, &dataset).unwrap();
        let per_user = ExperimentRunner::with_plan(SweepPlan::grid(config).per_user())
            .run(&system, &dataset)
            .unwrap();
        prop_assert_eq!(&per_user.columns, &dataset_grain.columns);
        prop_assert_eq!(&per_user.points, &dataset_grain.points);

        for user_column in &per_user.user_columns {
            let aggregate = per_user.column(&user_column.id).unwrap();
            for point in 0..per_user.len() {
                if user_column.users.is_empty() {
                    // Defined-zero case: no user evaluable at all.
                    prop_assert_eq!(aggregate.means[point], 0.0);
                    continue;
                }
                let mean = user_column.curves.iter().map(|c| c[point]).sum::<f64>()
                    / user_column.users.len() as f64;
                prop_assert_eq!(mean, aggregate.means[point], "{} point {}", &user_column.id, point);
            }
        }
    }
}

#[test]
fn per_user_recommendations_hold_their_feasibility_promises() {
    let dataset = taxi_dataset(6, 7);
    let system = SystemDefinition::paper_geoi();
    let plan =
        SweepPlan::grid(SweepConfig { points: 13, repetitions: 1, seed: 42, parallel: true })
            .per_user();
    let sweep = ExperimentRunner::with_plan(plan).run(&system, &dataset).unwrap();
    let fitted = Modeler::new().fit(&sweep).unwrap();
    let per_user = Modeler::new().fit_per_user(&sweep).unwrap();
    assert_eq!(per_user.len(), sweep.users().len());

    let objectives = Objectives::new()
        .require("poi-retrieval", at_most(0.6))
        .unwrap()
        .require("area-coverage", at_least(0.3))
        .unwrap();
    let configurator = Configurator::new(fitted);
    let recommendation = configurator.recommend_per_user(&per_user, &objectives).unwrap();

    assert_eq!(recommendation.users.len(), per_user.len());
    assert_eq!(
        recommendation.feasible_count() + recommendation.fallback_count(),
        recommendation.users.len()
    );
    for user in &recommendation.users {
        match &user.verdict {
            UserVerdict::Feasible => {
                // The user's own models satisfy every constraint at her point.
                assert!(
                    at_most(0.6).is_satisfied_by(user.predicted(&"poi-retrieval".into()).unwrap())
                );
                assert!(
                    at_least(0.3).is_satisfied_by(user.predicted(&"area-coverage".into()).unwrap())
                );
                // And her models really are her own: the suite fitted for her
                // predicts the same numbers.
                let fit = per_user.users.iter().find(|fit| fit.user == user.user).unwrap();
                let suite = fit.outcome.fitted().unwrap();
                for (id, predicted) in &user.predictions {
                    let own = suite.model(id).unwrap().predict(&user.point).unwrap();
                    assert_eq!(own, *predicted);
                }
            }
            UserVerdict::Infeasible { reason } | UserVerdict::Unmodeled { reason } => {
                assert!(!reason.is_empty());
                assert_eq!(user.point, recommendation.dataset.point);
                assert!(user.used_fallback());
            }
        }
    }

    // The facade drives exactly the same engine.
    let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
        .dataset(&dataset)
        .sweep(|s| s.points(13).seed(42).per_user())
        .fit()
        .unwrap()
        .require("poi-retrieval", at_most(0.6))
        .unwrap()
        .require("area-coverage", at_least(0.3))
        .unwrap();
    assert_eq!(studied.recommend_per_user().unwrap(), recommendation);
}
