//! Property-based tests of the privacy and utility metrics.

use geopriv_geo::{BoundingBox, GeoPoint, LocalProjection, Meters, Point, Seconds};
use geopriv_lppm::{
    Epsilon, GaussianPerturbation, GeoIndistinguishability, GridCloaking, Lppm, Pipeline,
};
use geopriv_metrics::{
    AreaCoverage, DistortionUtility, HotspotPreservation, MeanDistortion, Metric, MetricValue,
    PoiExtractor, PoiRetrieval,
};
use geopriv_mobility::generator::TaxiFleetBuilder;
use geopriv_mobility::{Dataset, Record, Trace, TraceView, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// A deterministic trace with `stops` dwell periods separated by short drives.
fn stop_and_go_trace(user: u64, stops: usize, dwell_records: usize) -> Trace {
    let projection = LocalProjection::centered_on(GeoPoint::clamped(37.76, -122.43));
    let mut records = Vec::new();
    let mut t = 0.0;
    for s in 0..stops.max(1) {
        let anchor = Point::new(s as f64 * 900.0, (s % 3) as f64 * 700.0);
        for k in 0..dwell_records.max(2) {
            // Tiny deterministic jitter around the anchor.
            let jitter = Point::new(((k % 5) as f64 - 2.0) * 8.0, ((k % 3) as f64 - 1.0) * 8.0);
            records.push(Record::new(
                Seconds::new(t),
                projection.unproject(Point::new(anchor.x() + jitter.x(), anchor.y() + jitter.y())),
            ));
            t += 60.0;
        }
        // Drive to the next anchor in a few samples.
        for k in 0..5 {
            let next = Point::new((s + 1) as f64 * 900.0, ((s + 1) % 3) as f64 * 700.0);
            let p = anchor.lerp(next, k as f64 / 4.0);
            records.push(Record::new(Seconds::new(t), projection.unproject(p)));
            t += 60.0;
        }
    }
    Trace::new(UserId::new(user), records).expect("ordered records")
}

fn dataset(users: usize, stops: usize, dwell_records: usize) -> Dataset {
    Dataset::new(
        (0..users.max(1)).map(|u| stop_and_go_trace(u as u64, stops, dwell_records)).collect(),
    )
    .expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_metrics_are_bounded_and_defined(
        users in 1usize..4,
        stops in 1usize..5,
        dwell in 5usize..30,
        epsilon in 1e-4f64..1.0,
        seed in 0u64..300,
    ) {
        let actual = dataset(users, stops, dwell);
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();

        let metrics_privacy: Vec<Box<dyn Metric>> = vec![Box::new(PoiRetrieval::default())];
        let metrics_utility: Vec<Box<dyn Metric>> = vec![
            Box::new(AreaCoverage::default()),
            Box::new(HotspotPreservation::default()),
            Box::new(DistortionUtility::default()),
        ];
        // Every metric's aggregate is exactly the mean of its user-keyed
        // breakdown (bit-identical: the constructor sums in breakdown order),
        // every breakdown user is a dataset user, and no user repeats. An
        // empty breakdown is allowed only for the defined-zero case (no user
        // evaluable at all).
        let users_of = |d: &Dataset| d.iter().map(|t| t.user()).collect::<Vec<_>>();
        let check = |v: &geopriv_metrics::MetricValue, name: &str| {
            if v.per_user().is_empty() {
                prop_assert_eq!(v.value(), 0.0, "{}: empty breakdown must be defined zero", name);
            } else {
                let mean =
                    v.per_user().iter().map(|(_, x)| x).sum::<f64>() / v.per_user().len() as f64;
                prop_assert_eq!(v.value(), mean, "{}: aggregate is not the breakdown mean", name);
            }
            let dataset_users = users_of(&actual);
            let mut seen = std::collections::BTreeSet::new();
            for (user, _) in v.per_user() {
                prop_assert!(dataset_users.contains(user), "{name}: foreign user {user}");
                prop_assert!(seen.insert(*user), "{name}: duplicate user {user}");
            }
            Ok(())
        };
        for metric in &metrics_privacy {
            let v = metric.evaluate(&actual, &protected).unwrap();
            prop_assert!((0.0..=1.0).contains(&v.value()), "{} = {}", metric.name(), v.value());
            prop_assert!(v.per_user().len() <= actual.len());
            check(&v, metric.name())?;
        }
        for metric in &metrics_utility {
            let v = metric.evaluate(&actual, &protected).unwrap();
            prop_assert!((0.0..=1.0).contains(&v.value()), "{} = {}", metric.name(), v.value());
            // The utility metrics cover every user of the dataset.
            prop_assert_eq!(v.per_user().len(), actual.len());
            check(&v, metric.name())?;
        }
        // Distortion is non-negative and finite.
        let d = MeanDistortion::new().of_datasets(&actual, &protected).unwrap();
        prop_assert!(d.as_f64() >= 0.0 && d.as_f64().is_finite());
    }

    #[test]
    fn identity_is_the_best_case_for_every_metric(
        users in 1usize..4,
        stops in 1usize..5,
        dwell in 16usize..40,
        epsilon in 1e-3f64..0.02,
        seed in 0u64..300,
    ) {
        let actual = dataset(users, stops, dwell);
        let mut rng = StdRng::seed_from_u64(seed);
        let released = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();

        // No protection: perfect utility, maximal retrieval.
        let utility_identity = AreaCoverage::default().evaluate(&actual, &released).unwrap().value();
        let utility_noisy = AreaCoverage::default().evaluate(&actual, &noisy).unwrap().value();
        prop_assert!(utility_identity >= utility_noisy - 1e-9);

        let privacy_identity = PoiRetrieval::default().evaluate(&actual, &released).unwrap().value();
        let privacy_noisy = PoiRetrieval::default().evaluate(&actual, &noisy).unwrap().value();
        prop_assert!(privacy_identity >= privacy_noisy - 1e-9);

        let distortion_identity = MeanDistortion::new().of_datasets(&actual, &released).unwrap();
        prop_assert!(distortion_identity.as_f64() < 1e-9);
    }

    #[test]
    fn poi_extraction_finds_each_dwell_at_most_once(
        stops in 1usize..6,
        dwell in 16usize..50,
    ) {
        let trace = stop_and_go_trace(1, stops, dwell);
        let extractor = PoiExtractor::default();
        let pois = extractor.extract(trace.view());
        // Each dwell period lasts >= 16 minutes (dwell >= 16 records at 60 s),
        // so every stop is found, and nothing else is.
        prop_assert_eq!(pois.len(), stops);
        let distinct = extractor.extract_distinct(trace.view());
        prop_assert!(distinct.len() <= pois.len());
        prop_assert!(!distinct.is_empty());
        for poi in &pois {
            prop_assert!((poi.end - poi.start).as_f64() >= 15.0 * 60.0);
            prop_assert!(poi.record_count >= dwell.min(16));
        }
    }

    #[test]
    fn distortion_utility_decreases_with_gaussian_sigma(
        users in 1usize..3,
        stops in 1usize..4,
        sigma_small in 5.0f64..50.0,
        sigma_large in 300.0f64..2_000.0,
        seed in 0u64..200,
    ) {
        let actual = dataset(users, stops, 20);
        let evaluate = |sigma: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let protected = GaussianPerturbation::new(Meters::new(sigma))
                .unwrap()
                .protect_dataset(&actual, &mut rng)
                .unwrap();
            DistortionUtility::default().evaluate(&actual, &protected).unwrap().value()
        };
        prop_assert!(evaluate(sigma_small) > evaluate(sigma_large));
    }

    /// `evaluate` and `prepare` + `evaluate_prepared` are two routes to the
    /// same number, for every metric and any input.
    #[test]
    fn prepared_state_never_changes_a_metric_value(
        users in 1usize..4,
        stops in 1usize..5,
        dwell in 5usize..30,
        epsilon in 1e-4f64..1.0,
        seed in 0u64..300,
    ) {
        let actual = dataset(users, stops, dwell);
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();

        let privacy = PoiRetrieval::default();
        let prepared = privacy.prepare(&actual).unwrap();
        prop_assert_eq!(
            privacy.evaluate(&actual, &protected).unwrap(),
            privacy.evaluate_prepared(&prepared, &actual, &protected).unwrap()
        );

        let utilities: Vec<Box<dyn Metric>> = vec![
            Box::new(AreaCoverage::default()),
            Box::new(HotspotPreservation::default()),
            Box::new(DistortionUtility::default()),
        ];
        for metric in &utilities {
            let prepared = metric.prepare(&actual).unwrap();
            prop_assert_eq!(
                metric.evaluate(&actual, &protected).unwrap(),
                metric.evaluate_prepared(&prepared, &actual, &protected).unwrap(),
                "{}", metric.name()
            );
        }
    }

    #[test]
    fn hotspot_preservation_never_exceeds_one_and_identity_is_perfect(
        users in 1usize..4,
        stops in 2usize..6,
    ) {
        let actual = dataset(users, stops, 20);
        let mut rng = StdRng::seed_from_u64(3);
        let released = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();
        let metric = HotspotPreservation::default();
        let v = metric.evaluate(&actual, &released).unwrap();
        prop_assert!((v.value() - 1.0).abs() < 1e-9);
    }
}

/// A trace in constant motion: it never dwells anywhere, so it has no POI.
fn moving_trace(user: u64) -> Trace {
    let records: Vec<Record> = (0..200)
        .map(|i| {
            Record::new(
                Seconds::new(i as f64 * 30.0),
                GeoPoint::new(37.70 + i as f64 * 0.0004, -122.45).unwrap(),
            )
        })
        .collect();
    Trace::new(UserId::new(user), records).unwrap()
}

/// Regression test: a dataset may hold several traces for the same user
/// ("kept as distinct traces, e.g. one trace per day for the same driver" —
/// `Dataset::new`'s documented contract). Every metric must still evaluate:
/// the aggregate stays the per-trace mean, and the breakdown carries one
/// merged entry per user so joins stay unambiguous.
#[test]
fn metrics_evaluate_datasets_with_several_traces_per_user() {
    let traces = vec![
        stop_and_go_trace(1, 2, 20),
        stop_and_go_trace(1, 4, 25), // same driver, another day
        stop_and_go_trace(2, 3, 20),
    ];
    let actual = Dataset::new(traces).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let protected = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())
        .protect_dataset(&actual, &mut rng)
        .unwrap();

    let metrics: Vec<Box<dyn Metric>> = vec![
        Box::new(AreaCoverage::default()),
        Box::new(HotspotPreservation::default()),
        Box::new(DistortionUtility::default()),
    ];
    for metric in &metrics {
        let v = metric.evaluate(&actual, &protected).unwrap_or_else(|e| {
            panic!("{} failed on a multi-trace-per-user dataset: {e}", metric.name())
        });
        assert!((0.0..=1.0).contains(&v.value()), "{}", metric.name());
        // Two users, three traces: the breakdown merges user 1's traces.
        assert_eq!(v.per_user().len(), 2, "{}", metric.name());
        let users: Vec<UserId> = v.per_user().iter().map(|&(user, _)| user).collect();
        assert_eq!(users, vec![UserId::new(1), UserId::new(2)]);
    }
    let privacy = PoiRetrieval::default().evaluate(&actual, &protected).unwrap();
    assert!((0.0..=1.0).contains(&privacy.value()));
    assert!(privacy.per_user().len() <= 2);
}

/// Regression test for the breakdown-alignment bug: `PoiRetrieval` excludes
/// users without POIs, so its breakdown used to be a *shorter* positional
/// `Vec<f64>` than a full-coverage metric's over the same dataset — zipping
/// the two by position silently paired user 3's retrieval with user 2's
/// coverage. User-keyed breakdowns make the join exact.
#[test]
fn breakdowns_of_different_metrics_join_by_user_not_position() {
    // User 2 (the middle trace) never stops, so POI retrieval excludes her.
    let traces = vec![stop_and_go_trace(1, 3, 20), moving_trace(2), stop_and_go_trace(3, 3, 20)];
    let actual = Dataset::new(traces).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let released = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();

    let privacy = PoiRetrieval::default().evaluate(&actual, &released).unwrap();
    let utility = AreaCoverage::default().evaluate(&actual, &released).unwrap();

    // The privacy breakdown names exactly the users that have POIs…
    assert_eq!(
        privacy.per_user().iter().map(|&(user, _)| user).collect::<Vec<_>>(),
        vec![UserId::new(1), UserId::new(3)],
        "excluded user must not appear in the breakdown"
    );
    // …while the utility breakdown covers every user.
    assert_eq!(utility.per_user().len(), 3);

    // Joining by user id pairs the right values for every evaluated user.
    for (user, retrieval) in privacy.per_user() {
        let coverage = utility.value_for(*user).expect("utility covers every user");
        assert!((0.0..=1.0).contains(retrieval) && (0.0..=1.0).contains(&coverage));
    }
    assert_eq!(privacy.value_for(UserId::new(2)), None);

    // The positional zip this replaces was genuinely wrong: position 1 of the
    // privacy breakdown is user 3, while position 1 of the utility breakdown
    // is user 2.
    assert_eq!(privacy.per_user()[1].0, UserId::new(3));
    assert_eq!(utility.per_user()[1].0, UserId::new(2));
}

/// Area coverage evaluated as it was before `CellSet` became a sorted key
/// vector: one `BTreeSet` of `floor`-computed cells per trace, on a grid
/// over both datasets' combined bounds.
fn reference_area_coverage(cell: f64, actual: &Dataset, protected: &Dataset) -> MetricValue {
    let (a, p) = (actual.bounding_box().unwrap(), protected.bounding_box().unwrap());
    let bounds = BoundingBox::new(
        a.min_latitude().min(p.min_latitude()),
        a.min_longitude().min(p.min_longitude()),
        a.max_latitude().max(p.max_latitude()),
        a.max_longitude().max(p.max_longitude()),
    )
    .unwrap()
    .expanded(0.02);
    let projection = LocalProjection::centered_on(bounds.south_west());
    // The grid's columns and rows: its projected extent over the cell size,
    // rounded up.
    let ne = projection.project(bounds.north_east());
    let (columns, rows) = ((ne.x() / cell).ceil(), (ne.y() / cell).ceil());
    let cells_of = |trace: &TraceView| -> BTreeSet<(u32, u32)> {
        trace
            .iter()
            .map(|record| {
                let p = projection.project(record.location());
                (
                    (p.x() / cell).floor().clamp(0.0, columns - 1.0) as u32,
                    (p.y() / cell).floor().clamp(0.0, rows - 1.0) as u32,
                )
            })
            .collect()
    };
    let per_user = actual
        .paired_with(protected)
        .unwrap()
        .iter()
        .map(|(actual_trace, protected_trace)| {
            let (a, p) =
                (cells_of(actual_trace).len() as f64, cells_of(protected_trace).len() as f64);
            let value = if a == 0.0 && p == 0.0 { 1.0 } else { a.min(p) / a.max(p) };
            (actual_trace.user(), value)
        })
        .collect();
    MetricValue::from_per_user(per_user).unwrap()
}

/// Neither the sorted-key cell sets nor the cell bitmaps change an
/// area-coverage bit: every mechanism family, from nearly-exact
/// releases to noise that throws points far outside the city, at the dataset
/// and the per-user grain.
#[test]
fn area_coverage_equals_a_btreeset_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(41);
    let actual = TaxiFleetBuilder::new().drivers(4).duration_hours(6.0).build(&mut rng).unwrap();
    let mechanisms: Vec<Box<dyn Lppm>> = vec![
        Box::new(GeoIndistinguishability::new(Epsilon::new(1e-4).unwrap())),
        Box::new(GeoIndistinguishability::new(Epsilon::new(1e-2).unwrap())),
        Box::new(GeoIndistinguishability::new(Epsilon::new(1.0).unwrap())),
        Box::new(GaussianPerturbation::new(Meters::new(300.0)).unwrap()),
        Box::new(GridCloaking::new(Meters::new(500.0)).unwrap()),
    ];
    let bits = |v: &MetricValue| -> Vec<u64> {
        std::iter::once(v.value())
            .chain(v.per_user().iter().map(|(_, x)| *x))
            .map(f64::to_bits)
            .collect()
    };
    let check = |actual: &Dataset, protected: &Dataset, label: &str| {
        let value = AreaCoverage::default().evaluate(actual, protected).unwrap();
        // The default metric counts 200 m cells.
        let reference = reference_area_coverage(200.0, actual, protected);
        assert_eq!(bits(&value), bits(&reference), "{label}");
        assert_eq!(value, reference, "{label}");
    };
    for mechanism in &mechanisms {
        let protected = mechanism.protect_dataset(&actual, &mut rng).unwrap();
        check(&actual, &protected, mechanism.name());
    }
    // The per-user grain: one user per call. At ε = 1e-4 the noise spreads a
    // user's records over far more cells than a bitmap may cover; at 1e-2
    // they stay dense enough for one.
    for eps in [1e-4, 1e-2] {
        let mechanism = GeoIndistinguishability::new(Epsilon::new(eps).unwrap());
        for user in 0..actual.len() {
            let actual = actual.user_slice(user..user + 1).unwrap();
            let protected = mechanism.protect_dataset(&actual, &mut rng).unwrap();
            check(&actual, &protected, &format!("user {user} at eps = {eps}"));
        }
    }
}
