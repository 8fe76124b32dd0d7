//! Property-based invariants of the framework, checked through the umbrella
//! crate's public API on small synthetic traces (kept deliberately tiny so
//! hundreds of proptest cases stay fast).

use geopriv::geo::{GeoPoint, Meters, Seconds};
use geopriv::lppm::Lppm;
use geopriv::mobility::{Record, Trace, UserId};
use geopriv::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small trace around San Francisco with `n` records every 30 s, following
/// a deterministic zig-zag controlled by `scale` (meters per step).
fn synthetic_trace(n: usize, scale: f64) -> Trace {
    let records: Vec<Record> = (0..n.max(2))
        .map(|i| {
            let dx = (i % 7) as f64 * scale;
            let dy = (i % 5) as f64 * scale;
            Record::new(
                Seconds::new(i as f64 * 30.0),
                GeoPoint::clamped(37.75 + dy / 111_000.0, -122.44 + dx / 88_000.0),
            )
        })
        .collect();
    Trace::new(UserId::new(1), records).expect("records are ordered")
}

fn synthetic_dataset(n: usize, scale: f64) -> Dataset {
    Dataset::new(vec![synthetic_trace(n, scale)]).expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn geoi_preserves_structure_for_any_epsilon(
        epsilon in 1e-4f64..1.0,
        n in 2usize..120,
        scale in 0.0f64..400.0,
        seed in 0u64..1_000,
    ) {
        let dataset = synthetic_dataset(n, scale);
        let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = geoi.protect_dataset(&dataset, &mut rng).unwrap();

        // Same number of users, traces, records; identical timestamps.
        prop_assert_eq!(protected.user_count(), dataset.user_count());
        prop_assert_eq!(protected.record_count(), dataset.record_count());
        for (a, p) in dataset.paired_with(&protected).unwrap() {
            for (ra, rp) in a.iter().zip(p.iter()) {
                prop_assert_eq!(ra.timestamp(), rp.timestamp());
                // Coordinates remain valid WGS-84.
                prop_assert!((-90.0..=90.0).contains(&rp.location().latitude()));
                prop_assert!((-180.0..=180.0).contains(&rp.location().longitude()));
            }
        }
    }

    #[test]
    fn metrics_are_always_bounded(
        epsilon in 1e-4f64..1.0,
        n in 8usize..150,
        scale in 0.0f64..300.0,
        seed in 0u64..1_000,
    ) {
        let dataset = synthetic_dataset(n, scale);
        let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = geoi.protect_dataset(&dataset, &mut rng).unwrap();

        let privacy = PoiRetrieval::default().evaluate(&dataset, &protected).unwrap();
        let utility = AreaCoverage::default().evaluate(&dataset, &protected).unwrap();
        prop_assert!((0.0..=1.0).contains(&privacy.value()));
        prop_assert!((0.0..=1.0).contains(&utility.value()));
        for (_, v) in privacy.per_user().iter().chain(utility.per_user()) {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn identity_is_never_beaten_on_utility(
        epsilon in 1e-4f64..0.05,
        n in 10usize..100,
        scale in 10.0f64..300.0,
        seed in 0u64..1_000,
    ) {
        let dataset = synthetic_dataset(n, scale);
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
            .protect_dataset(&dataset, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let released = Pipeline::new().protect_dataset(&dataset, &mut rng).unwrap();

        let utility_noisy = AreaCoverage::default().evaluate(&dataset, &noisy).unwrap().value();
        let utility_identity = AreaCoverage::default().evaluate(&dataset, &released).unwrap().value();
        prop_assert!(utility_identity + 1e-9 >= utility_noisy);
    }

    #[test]
    fn cloaking_displacement_is_bounded_by_the_cell_diagonal(
        cell in 50.0f64..2_000.0,
        n in 2usize..80,
        scale in 0.0f64..500.0,
    ) {
        let dataset = synthetic_dataset(n, scale);
        let cloaking = GridCloaking::new(Meters::new(cell)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let protected = cloaking.protect_dataset(&dataset, &mut rng).unwrap();
        let max_allowed = cell / 2.0 * 2f64.sqrt() * 1.02;
        for (a, p) in dataset.paired_with(&protected).unwrap() {
            for (ra, rp) in a.iter().zip(p.iter()) {
                let d = geopriv::geo::distance::haversine(ra.location(), rp.location()).as_f64();
                prop_assert!(d <= max_allowed, "displacement {} exceeds {}", d, max_allowed);
            }
        }
    }

    #[test]
    fn configurator_recommendation_always_lies_in_its_feasible_range(
        privacy_bound in 0.05f64..0.95,
        utility_bound in 0.05f64..0.95,
        slope_p in 0.05f64..0.3,
        slope_u in 0.02f64..0.2,
    ) {
        // Build an analytic Equation-2-like sweep, fit it, and invert random
        // objectives; whenever a recommendation is produced it must respect
        // its own feasible range and domain.
        let parameters: Vec<f64> =
            (0..25).map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / 24.0)).collect();
        let privacy: Vec<f64> =
            parameters.iter().map(|e| (0.8 + slope_p * e.ln()).clamp(0.0, 1.0)).collect();
        let utility: Vec<f64> =
            parameters.iter().map(|e| (1.1 + slope_u * e.ln()).clamp(0.0, 1.0)).collect();
        let space = ConfigSpace::single(
            geopriv::lppm::ParameterDescriptor::new(
                "epsilon",
                1e-4,
                1.0,
                geopriv::lppm::ParameterScale::Logarithmic,
            )
            .unwrap(),
        );
        let points =
            parameters.iter().map(|&value| space.point_from_coords(&[value]).unwrap()).collect();
        let sweep = SweepResult::new(
            "geo-indistinguishability",
            space,
            SweepMode::Grid,
            points,
            vec![
                MetricColumn {
                    id: MetricId::new("poi-retrieval"),
                    direction: Direction::LowerIsBetter,
                    means: privacy,
                    runs: vec![],
                },
                MetricColumn {
                    id: MetricId::new("area-coverage"),
                    direction: Direction::HigherIsBetter,
                    means: utility,
                    runs: vec![],
                },
            ],
        )
        .unwrap();
        let fitted = match Modeler::new().fit(&sweep) {
            Ok(f) => f,
            Err(_) => return Ok(()), // degenerate saturation layouts are allowed to fail
        };
        let configurator = Configurator::new(fitted);
        let objectives = Objectives::new()
            .require("poi-retrieval", at_most(privacy_bound))
            .unwrap()
            .require("area-coverage", at_least(utility_bound))
            .unwrap();
        match configurator.recommend(&objectives) {
            Ok(r) => {
                prop_assert!(r.feasible_range().0 <= r.feasible_range().1);
                prop_assert!(
                    r.parameter() >= r.feasible_range().0
                        && r.parameter() <= r.feasible_range().1
                );
                prop_assert!(r.parameter() > 0.0);
                // The model's own predictions at the recommendation satisfy the
                // objectives up to a small tolerance.
                let predicted_privacy = r.predicted(&MetricId::new("poi-retrieval")).unwrap();
                let predicted_utility = r.predicted(&MetricId::new("area-coverage")).unwrap();
                prop_assert!(predicted_privacy <= privacy_bound + 1e-6);
                prop_assert!(predicted_utility >= utility_bound - 1e-6);
            }
            Err(CoreError::Infeasible { .. }) => {} // conflicting objectives are a valid outcome
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }
}
