//! The configuration-space redesign's equivalence contract.
//!
//! A one-axis [`geopriv::lppm::ConfigSpace`] sweep must be **bit-identical**
//! to the pre-redesign single-scalar sweep: the legacy measurement loop
//! (sweep the space's one descriptor, instantiate at each value's
//! one-coordinate point, protect with the `derive_unit_seed` stream, average
//! repetitions in order) is re-derived inline here — independently of
//! `ExperimentRunner` — and the design matrix, metric columns, campaign
//! cells and the recommendation are compared exactly, never approximately.
//! The second half of the contract: a 2-D grid study (GEO-I ε × cloaking
//! cell size through a pipeline) runs end to end through `AutoConf` and
//! recommends a `ConfigPoint` satisfying every stated constraint.

use geopriv::prelude::*;
use geopriv::AutoConf;
use geopriv_core::derive_unit_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn taxi_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(4)
        .duration_hours(6.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

fn privacy_id() -> MetricId {
    MetricId::new("poi-retrieval")
}

fn utility_id() -> MetricId {
    MetricId::new("area-coverage")
}

/// The pre-redesign measurement loop, re-derived from first principles on
/// the paper system: scalar values from `ParameterDescriptor::sweep`, one
/// mechanism per value, the `derive_unit_seed` RNG stream per
/// `(point, repetition)`, direct metric evaluation, repetition-order means.
fn legacy_scalar_sweep(dataset: &Dataset, config: SweepConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let system = SystemDefinition::paper_geoi();
    let space = system.space();
    let values = space.single_axis().expect("the paper system sweeps ε").sweep(config.points);
    let privacy_metric = PoiRetrieval::default();
    let utility_metric = AreaCoverage::default();
    let mut privacy_means = Vec::new();
    let mut utility_means = Vec::new();
    for (point, &value) in values.iter().enumerate() {
        let at = space.point_from_coords(&[value]).expect("value is in range");
        let lppm = system.factory().instantiate_at(&at).expect("point is in the space");
        let mut privacy_runs = Vec::new();
        let mut utility_runs = Vec::new();
        for repetition in 0..config.repetitions {
            let mut rng = StdRng::seed_from_u64(derive_unit_seed(config.seed, point, repetition));
            let protected = lppm.protect_dataset(dataset, &mut rng).expect("protection succeeds");
            privacy_runs
                .push(privacy_metric.evaluate(dataset, &protected).expect("metric").value());
            utility_runs
                .push(utility_metric.evaluate(dataset, &protected).expect("metric").value());
        }
        privacy_means.push(privacy_runs.iter().sum::<f64>() / privacy_runs.len() as f64);
        utility_means.push(utility_runs.iter().sum::<f64>() / utility_runs.len() as f64);
    }
    (values, privacy_means, utility_means)
}

fn two_axis_system() -> SystemDefinition {
    SystemDefinition::with_pair(
        Box::new(
            PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                .then(GridCloakingFactory::with_range(100.0, 2000.0).expect("valid range")),
        ),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("distinct metric names")
}

#[test]
fn a_one_axis_config_space_sweep_is_bit_identical_to_the_scalar_sweep() {
    let dataset = taxi_dataset(2016);
    let config = SweepConfig { points: 9, repetitions: 2, seed: 77, parallel: true };

    let (parameters, privacy, utility) = legacy_scalar_sweep(&dataset, config);
    let sweep = ExperimentRunner::new(config)
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("sweep succeeds");

    // The design matrix is the scalar sweep, value for value, in order —
    // and both sweep modes enumerate it identically on one axis.
    assert_eq!(sweep.axis_values("epsilon").expect("ε axis"), parameters);
    assert_eq!(
        sweep.points.iter().map(|p| p.single().expect("one axis")).collect::<Vec<_>>(),
        parameters
    );
    let mut plan = SweepPlan::grid(config);
    plan.mode = SweepMode::OneAtATime;
    let one_at_a_time = ExperimentRunner::with_plan(plan)
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("sweep succeeds");
    assert_eq!(one_at_a_time.points, sweep.points);
    assert_eq!(one_at_a_time.columns, sweep.columns);

    // The measured columns are the legacy loop's means, bit for bit.
    assert_eq!(sweep.values(&privacy_id()).expect("privacy column"), privacy.as_slice());
    assert_eq!(sweep.values(&utility_id()).expect("utility column"), utility.as_slice());
}

#[test]
fn campaign_cells_on_a_one_axis_space_match_the_scalar_sweep() {
    let dataset = taxi_dataset(5);
    let config = SweepConfig { points: 5, repetitions: 2, seed: 11, parallel: true };

    let (parameters, privacy, utility) = legacy_scalar_sweep(&dataset, config);
    let campaign = CampaignRunner::new(config)
        .run(&[SystemDefinition::paper_geoi()], std::slice::from_ref(&dataset))
        .expect("campaign succeeds");
    let cell = &campaign.runs[0].result;

    assert_eq!(cell.axis_values("epsilon").expect("ε axis"), parameters);
    assert_eq!(cell.values(&privacy_id()).expect("privacy column"), privacy.as_slice());
    assert_eq!(cell.values(&utility_id()).expect("utility column"), utility.as_slice());
}

#[test]
fn one_axis_recommendations_match_the_analytic_scalar_inversion() {
    let dataset = taxi_dataset(2016);
    let config = SweepConfig { points: 13, repetitions: 1, seed: 42, parallel: true };
    let sweep = ExperimentRunner::new(config)
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("sweep succeeds");
    let fitted = Modeler::new().fit(&sweep).expect("modeling succeeds");

    // Legacy-style inversion, derived from the fitted models by hand: clip
    // each constraint's critical parameter to the shared domain, intersect,
    // and take the geometric midpoint.
    let privacy_model =
        &fitted.model(&privacy_id()).expect("privacy model").axis().expect("1-D fit").model;
    let utility_model =
        &fitted.model(&utility_id()).expect("utility model").axis().expect("1-D fit").model;
    let domain = {
        let p = privacy_model.domain();
        let u = utility_model.domain();
        (p.0.max(u.0), p.1.min(u.1))
    };
    let privacy_interval =
        (domain.0, privacy_model.invert(0.30).expect("invertible").min(domain.1));
    let utility_interval =
        (utility_model.invert(0.50).expect("invertible").max(domain.0), domain.1);
    let feasible =
        (privacy_interval.0.max(utility_interval.0), privacy_interval.1.min(utility_interval.1));
    let expected_parameter = (feasible.0 * feasible.1).sqrt();

    let objectives = Objectives::new()
        .require("poi-retrieval", at_most(0.30))
        .expect("valid")
        .require("area-coverage", at_least(0.50))
        .expect("valid");
    let recommendation =
        Configurator::new(fitted.clone()).recommend(&objectives).expect("feasible");
    assert_eq!(recommendation.feasible_range(), feasible);
    assert_eq!(recommendation.parameter(), expected_parameter);
    assert_eq!(recommendation.point.single(), Some(expected_parameter));
    assert_eq!(
        recommendation.predicted(&privacy_id()).expect("prediction"),
        privacy_model.predict(expected_parameter)
    );
    assert_eq!(
        recommendation.predicted(&utility_id()).expect("prediction"),
        utility_model.predict(expected_parameter)
    );
}

#[test]
fn a_two_axis_grid_study_runs_end_to_end_through_autoconf() {
    let dataset = taxi_dataset(9);
    let studied = AutoConf::for_system(two_axis_system())
        .dataset(&dataset)
        .sweep(|s| s.points(5).seed(2016))
        .fit()
        .expect("2-D fit succeeds");

    // The full factorial was measured: 5 ε values × 5 cell sizes.
    let sweep = studied.sweep_result();
    assert_eq!(sweep.len(), 25);
    assert_eq!(sweep.space.names(), vec!["epsilon", "cell_size"]);
    assert!(sweep.columns.iter().all(|c| c.means.iter().all(|v| (0.0..=1.0).contains(v))));

    // Loose-but-real constraints on both metrics: the study must produce a
    // recommended ConfigPoint whose predictions satisfy every one of them.
    let studied = studied
        .require("poi-retrieval", at_most(0.6))
        .expect("known metric")
        .require("area-coverage", at_least(0.3))
        .expect("known metric");
    let recommendation = studied.recommend().expect("objectives are feasible");
    assert_eq!(recommendation.point.len(), 2);
    let epsilon = recommendation.point.get("epsilon").expect("epsilon axis");
    let cell = recommendation.point.get("cell_size").expect("cell_size axis");
    assert!((1e-4..=1.0).contains(&epsilon));
    assert!((100.0..=2000.0).contains(&cell));
    assert!(at_most(0.6).is_satisfied_by(recommendation.predicted(&privacy_id()).unwrap()));
    assert!(at_least(0.3).is_satisfied_by(recommendation.predicted(&utility_id()).unwrap()));

    // And the recommendation is actionable: instantiating the pipeline at
    // the recommended point and re-measuring keeps the metrics in bounds.
    let measured =
        studied.measure_at_point(&dataset, &recommendation.point, 99).expect("measure succeeds");
    assert_eq!(measured.len(), 2);
    assert!(measured.iter().all(|(_, v)| (0.0..=1.0).contains(v)));
}

#[test]
fn multi_axis_campaigns_match_independent_multi_axis_sweeps() {
    // The campaign engine follows the redesign: a 2-axis system next to a
    // 1-axis system in one campaign, each cell bit-identical to its
    // independent ExperimentRunner sweep.
    let dataset = taxi_dataset(21);
    let config = SweepConfig { points: 3, repetitions: 1, seed: 33, parallel: true };
    let systems = vec![two_axis_system(), SystemDefinition::paper_geoi()];
    let campaign = CampaignRunner::new(config)
        .run(&systems, std::slice::from_ref(&dataset))
        .expect("campaign succeeds");
    for (index, system) in systems.iter().enumerate() {
        let independent =
            ExperimentRunner::new(config).run(system, &dataset).expect("sweep succeeds");
        assert_eq!(campaign.runs[index].result, independent, "system {index}");
    }
    // The 2-axis cell really is the 3×3 grid.
    assert_eq!(campaign.runs[0].result.len(), 9);
}
