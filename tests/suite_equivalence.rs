//! The redesign's equivalence contract: the `MetricSuite` column-store path
//! must reproduce the pre-redesign 2-metric pipeline bit-for-bit on the paper
//! workload.
//!
//! The legacy algorithm (one privacy metric + one utility metric, evaluated
//! per `(point, repetition)` against a protection seeded by
//! `derive_unit_seed`, then averaged in repetition order) is re-derived
//! inline here, straight from the `Metric` trait — independently of
//! `ExperimentRunner` — and every suite-path artifact (sweep columns,
//! recommendation, campaign cells, facade output) is compared against it
//! exactly, never approximately.

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

/// The pre-redesign measurement loop, re-derived from first principles: for
/// every sweep value, protect with the `derive_unit_seed` stream and evaluate
/// the two paper metrics directly (no prepared state, no column store).
/// Returns `(parameters, privacy means, utility means)`.
fn legacy_pair_sweep(dataset: &Dataset, config: SweepConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
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

#[test]
fn the_suite_path_reproduces_the_legacy_pair_sweep_bit_for_bit() {
    let dataset = taxi_dataset(2016);
    let config = SweepConfig { points: 9, repetitions: 2, seed: 77, parallel: true };

    let (parameters, privacy, utility) = legacy_pair_sweep(&dataset, config);
    let sweep = ExperimentRunner::new(config)
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("sweep succeeds");

    assert_eq!(sweep.axis_values("epsilon").expect("ε axis"), parameters);
    assert_eq!(sweep.values(&privacy_id()).expect("privacy column"), privacy.as_slice());
    assert_eq!(sweep.values(&utility_id()).expect("utility column"), utility.as_slice());
}

#[test]
fn campaigns_reproduce_the_legacy_pair_sweep_bit_for_bit() {
    let dataset = taxi_dataset(5);
    let config = SweepConfig { points: 5, repetitions: 2, seed: 11, parallel: true };

    let (parameters, privacy, utility) = legacy_pair_sweep(&dataset, config);
    let campaign = CampaignRunner::new(config)
        .run(&[SystemDefinition::paper_geoi()], std::slice::from_ref(&dataset))
        .expect("campaign succeeds");
    let cell = &campaign.runs[0].result;

    assert_eq!(cell.axis_values("epsilon").expect("ε axis"), parameters);
    assert_eq!(cell.values(&privacy_id()).expect("privacy column"), privacy.as_slice());
    assert_eq!(cell.values(&utility_id()).expect("utility column"), utility.as_slice());
}

#[test]
fn growing_the_suite_never_perturbs_the_existing_columns() {
    // The ≥3-metric acceptance workload: POI retrieval + distortion + area
    // coverage + hotspot preservation in one sweep. Protection draws its RNG
    // stream per (point, repetition) — never per metric — so adding metrics
    // must leave the paper pair's columns bit-identical.
    let dataset = taxi_dataset(7);
    let config = SweepConfig { points: 7, repetitions: 1, seed: 3, parallel: true };

    let pair = ExperimentRunner::new(config)
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("pair sweep succeeds");

    let suite = MetricSuite::new(vec![
        SuiteMetric::new(PoiRetrieval::default()),
        SuiteMetric::new(DistortionUtility::default()),
        SuiteMetric::new(AreaCoverage::default()),
        SuiteMetric::new(HotspotPreservation::default()),
    ])
    .expect("distinct ids");
    let four = ExperimentRunner::new(config)
        .run(
            &SystemDefinition::new(Box::new(GeoIndistinguishabilityFactory::new()), suite),
            &dataset,
        )
        .expect("4-metric sweep succeeds");

    assert_eq!(four.columns.len(), 4);
    assert_eq!(four.points, pair.points);
    assert_eq!(four.column(&privacy_id()), pair.column(&privacy_id()));
    assert_eq!(four.column(&utility_id()), pair.column(&utility_id()));
    // And the extra columns are real measurements, not placeholders.
    for id in ["distortion-utility", "hotspot-preservation"] {
        let column = four.column(&id.into()).expect("extra column exists");
        assert!(column.means.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}

#[test]
fn recommendations_on_the_suite_path_match_a_legacy_style_inversion() {
    let dataset = taxi_dataset(2016);
    let config = SweepConfig { points: 13, repetitions: 1, seed: 42, parallel: true };
    let system = SystemDefinition::paper_geoi();
    let sweep = ExperimentRunner::new(config).run(&system, &dataset).expect("sweep succeeds");
    let fitted = Modeler::new().fit(&sweep).expect("modeling succeeds");

    // Legacy-style inversion, derived from the fitted models by hand: clip
    // each constraint's critical parameter to the shared domain and intersect
    // (exactly what the old hard-wired privacy/utility configurator did).
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
fn autoconf_recommendations_land_inside_every_constraint_feasible_range() {
    let dataset = taxi_dataset(2016);
    // A grid of objective pairs: whenever the facade produces a
    // recommendation, the recommendation must satisfy each constraint's own
    // feasible interval (model prediction inside the bound) and sit inside
    // the overall feasible range.
    for (privacy_bound, utility_bound) in
        [(0.10, 0.80), (0.15, 0.70), (0.30, 0.50), (0.50, 0.30), (0.90, 0.10)]
    {
        let studied = AutoConf::for_system(SystemDefinition::paper_geoi())
            .dataset(&dataset)
            .sweep(|s| s.points(13).seed(42))
            .fit()
            .expect("fit succeeds")
            .require("poi-retrieval", at_most(privacy_bound))
            .expect("known metric")
            .require("area-coverage", at_least(utility_bound))
            .expect("known metric");
        match studied.recommend() {
            Ok(r) => {
                assert!(
                    r.feasible_range().0 <= r.parameter() && r.parameter() <= r.feasible_range().1,
                    "({privacy_bound}, {utility_bound}): {r}"
                );
                let predicted_privacy = r.predicted(&privacy_id()).expect("prediction");
                let predicted_utility = r.predicted(&utility_id()).expect("prediction");
                assert!(
                    at_most(privacy_bound).is_satisfied_by(predicted_privacy),
                    "({privacy_bound}, {utility_bound}): predicted privacy {predicted_privacy}"
                );
                assert!(
                    at_least(utility_bound).is_satisfied_by(predicted_utility),
                    "({privacy_bound}, {utility_bound}): predicted utility {predicted_utility}"
                );
            }
            Err(geopriv::Error::Core(CoreError::Infeasible { .. })) => {
                // Conflicting objectives are a legitimate outcome.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
