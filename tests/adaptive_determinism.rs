//! Property-based determinism contract of adaptive sweep planning
//! ([`SweepMode::Adaptive`]): refinement points are *planned* from models
//! fitted mid-run, yet measurements must stay a pure function of (seed,
//! plan). Point-identity seeding is what makes this hold — every evaluation
//! derives its RNG from the point's coordinates, never from the order or
//! round in which the planner emitted it.

use geopriv::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn taxi_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(3)
        .duration_hours(1.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

fn adaptive_sweep(dataset: &Dataset, seed: u64, budget: usize) -> SweepResult {
    let system = SystemDefinition::paper_geoi();
    let config = SweepConfig { points: 5, repetitions: 1, seed, parallel: true };
    ExperimentRunner::with_plan(SweepPlan::grid(config).refine(budget))
        .run(&system, dataset)
        .expect("adaptive sweep succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed and budget → bit-identical sweeps, including every
    /// refinement point the planner chose.
    #[test]
    fn adaptive_sweeps_are_bit_identical_under_the_same_seed(
        seed in 0u64..1_000,
        budget in 0usize..12,
    ) {
        let dataset = taxi_dataset(41);
        let a = adaptive_sweep(&dataset, seed, budget);
        let b = adaptive_sweep(&dataset, seed, budget);
        prop_assert_eq!(&a, &b);
        // The coarse pass is never traded away for refinement, and the
        // budget is a hard ceiling once it exceeds the coarse size.
        prop_assert!(a.len() >= 5);
        prop_assert!(a.len() <= budget.max(5));
    }

    /// Growing the budget must not change the values measured at points both
    /// runs share: each point's measurement is keyed by its coordinates.
    #[test]
    fn shared_points_measure_identically_across_budgets(
        seed in 0u64..1_000,
        small_budget in 6usize..9,
        extra in 1usize..4,
    ) {
        let dataset = taxi_dataset(41);
        let small = adaptive_sweep(&dataset, seed, small_budget);
        let large = adaptive_sweep(&dataset, seed, small_budget + extra);
        for (i, point) in small.points.iter().enumerate() {
            let token = point.cache_token();
            let Some(j) = large.points.iter().position(|p| p.cache_token() == token) else {
                continue;
            };
            for (sc, lc) in small.columns.iter().zip(&large.columns) {
                prop_assert_eq!(sc.means[i].to_bits(), lc.means[j].to_bits());
            }
        }
    }

    /// A budget at or below the coarse-pass size disables refinement and the
    /// run degenerates to the plain grid, bit for bit (only the mode tag
    /// records that adaptive planning was requested).
    #[test]
    fn refinement_free_adaptive_is_the_grid(
        seed in 0u64..1_000,
        budget in 0usize..6,
    ) {
        let dataset = taxi_dataset(41);
        let system = SystemDefinition::paper_geoi();
        let config = SweepConfig { points: 5, repetitions: 1, seed, parallel: true };
        let adaptive = adaptive_sweep(&dataset, seed, budget);
        let mut grid = ExperimentRunner::with_plan(SweepPlan::grid(config))
            .run(&system, &dataset)
            .expect("grid sweep succeeds");
        grid.mode = SweepMode::Adaptive;
        prop_assert_eq!(adaptive, grid);
    }
}

/// The adaptive 2-D study (GEO-I ε × grid-cloaking cell size) spends at most
/// 40 % of the full grid's evaluations, more than its coarse pass and no more
/// than its budget, and its recommendation predicts every metric within 0.08
/// of the full grid's.
#[test]
fn adaptive_study_saves_sixty_percent_of_the_grid_and_tracks_its_recommendation() {
    let mut rng = StdRng::seed_from_u64(20161212);
    let dataset = TaxiFleetBuilder::new()
        .drivers(4)
        .duration_hours(6.0)
        .sampling_interval_s(30.0)
        .build(&mut rng)
        .expect("static generator configuration is valid");
    let system = SystemDefinition::with_pair(
        Box::new(
            PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                .then(GridCloakingFactory::with_range(100.0, 2000.0).expect("valid range")),
        ),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("distinct metric names");
    let config = SweepConfig { points: 5, repetitions: 1, seed: 20161212, parallel: true };
    let grid = ExperimentRunner::with_plan(SweepPlan::grid(config))
        .run(&system, &dataset)
        .expect("grid study succeeds");
    let adaptive = ExperimentRunner::with_plan(
        SweepPlan::grid(SweepConfig { points: 3, ..config }).refine(10),
    )
    .run(&system, &dataset)
    .expect("adaptive study succeeds");

    assert_eq!(grid.len(), 25);
    assert!(adaptive.len() > 9, "refinement never spent its budget");
    assert!(adaptive.len() <= 10);
    assert!(adaptive.len() * 5 <= grid.len() * 2, "adaptive spent more than 40 % of the grid");

    let objectives = Objectives::new()
        .require("poi-retrieval", at_most(0.60))
        .and_then(|o| o.require("area-coverage", at_least(0.30)))
        .expect("known metrics");
    let recommend = |sweep: &SweepResult| {
        Configurator::new(Modeler::new().fit(sweep).expect("fit succeeds"))
            .recommend(&objectives)
            .expect("objectives are feasible")
    };
    let (grid_rec, adaptive_rec) = (recommend(&grid), recommend(&adaptive));
    for (id, grid_value) in &grid_rec.predictions {
        let adaptive_value = adaptive_rec.predicted(id).expect("same metrics");
        assert!(
            (adaptive_value - grid_value).abs() <= 0.08,
            "{id}: adaptive {adaptive_value} vs grid {grid_value}"
        );
    }
}
