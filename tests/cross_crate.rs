//! Cross-crate integration tests: persistence, mechanism composition,
//! property analysis and metric plumbing working together through the
//! umbrella crate's public API.

use geopriv::geo::Meters;
use geopriv::metrics::{CoverageSimilarity, MeanDistortion};
use geopriv::mobility::io;
use geopriv::mobility::{DatasetBuilder, TraceProperties, TraceView};
use geopriv::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Releases every `n`-th record of a trace, unchanged. No shipped mechanism
/// withholds records, but pipelines and metrics still handle a thinned
/// release.
struct EveryNth(usize);

impl Lppm for EveryNth {
    fn name(&self) -> &str {
        "every-nth"
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        struct Keep(usize, usize);
        impl Kernel for Keep {
            fn protect(
                &mut self,
                records: TraceView<'_>,
                _: &mut dyn RngCore,
                out: &mut DatasetBuilder,
            ) {
                for record in records.iter() {
                    if self.1 % self.0 == 0 {
                        out.push_record(record.timestamp(), record.location());
                    }
                    self.1 += 1;
                }
            }
        }
        Box::new(Keep(self.0, 0))
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

fn small_fleet(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(3)
        .duration_hours(4.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

#[test]
fn protected_dataset_roundtrips_through_csv() {
    let dataset = small_fleet(1);
    let mut rng = StdRng::seed_from_u64(2);
    let protected = GeoIndistinguishability::new(Epsilon::new(0.02).expect("valid"))
        .protect_dataset(&dataset, &mut rng)
        .expect("protection succeeds");

    let mut buffer = Vec::new();
    io::write_csv(&protected, &mut buffer).expect("serialization succeeds");
    let reloaded = io::read_csv(buffer.as_slice()).expect("deserialization succeeds");

    assert_eq!(reloaded.user_count(), protected.user_count());
    assert_eq!(reloaded.record_count(), protected.record_count());

    // The reloaded dataset is still comparable against the original actual
    // dataset: metric values barely move despite the 6-decimal rounding of CSV.
    let utility_original =
        AreaCoverage::default().evaluate(&dataset, &protected).expect("metric succeeds").value();
    let utility_reloaded =
        AreaCoverage::default().evaluate(&dataset, &reloaded).expect("metric succeeds").value();
    assert!((utility_original - utility_reloaded).abs() < 0.02);
}

#[test]
fn pipelines_compose_mechanisms_and_degrade_both_metrics() {
    let dataset = small_fleet(3);
    let privacy_metric = PoiRetrieval::default();
    // The strict cell-overlap variant: dropping records can only lose covered
    // cells, so the pipeline's utility cannot exceed the noise-only utility.
    let utility_metric =
        AreaCoverage::with_similarity(Meters::new(200.0), CoverageSimilarity::CellF1).unwrap();

    let geoi_only = GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid"));
    let pipeline = Pipeline::new()
        .then_boxed(Box::new(EveryNth(4)))
        .then_boxed(Box::new(GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid"))));

    let mut rng = StdRng::seed_from_u64(4);
    let protected_geoi =
        geoi_only.protect_dataset(&dataset, &mut rng).expect("protection succeeds");
    let mut rng = StdRng::seed_from_u64(4);
    let protected_pipeline =
        pipeline.protect_dataset(&dataset, &mut rng).expect("protection succeeds");

    // The pipeline drops records…
    assert!(protected_pipeline.record_count() < protected_geoi.record_count());
    // …and metrics stay well defined on the thinner release stream.
    let privacy_pipeline =
        privacy_metric.evaluate(&dataset, &protected_pipeline).expect("metric succeeds");
    assert!((0.0..=1.0).contains(&privacy_pipeline.value()));

    // An aggressive pipeline (32x down-sampling, then noise) leaves too few
    // records per stop for the adversary to cluster POIs at all.
    let aggressive = Pipeline::new()
        .then_boxed(Box::new(EveryNth(32)))
        .then_boxed(Box::new(GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid"))));
    let mut rng = StdRng::seed_from_u64(4);
    let protected_aggressive =
        aggressive.protect_dataset(&dataset, &mut rng).expect("protection succeeds");
    let privacy_aggressive =
        privacy_metric.evaluate(&dataset, &protected_aggressive).expect("metric succeeds");
    assert!(
        privacy_aggressive.value() <= 0.1,
        "aggressive pipeline still leaks POIs: {}",
        privacy_aggressive.value()
    );

    // Utility of the pipeline cannot exceed the noise-only utility by much.
    let utility_geoi = utility_metric.evaluate(&dataset, &protected_geoi).expect("metric succeeds");
    let utility_pipeline =
        utility_metric.evaluate(&dataset, &protected_pipeline).expect("metric succeeds");
    assert!(utility_pipeline.value() <= utility_geoi.value() + 0.05);

    // Both protected datasets displaced records by roughly 2/epsilon meters.
    let displacement =
        MeanDistortion::new().of_datasets(&dataset, &protected_geoi).expect("distortion succeeds");
    assert!((displacement.as_f64() - 200.0).abs() < 80.0, "displacement {displacement}");
}

#[test]
fn dataset_properties_feed_the_pca_selection() {
    let mut rng = StdRng::seed_from_u64(5);
    let taxis = TaxiFleetBuilder::new()
        .drivers(5)
        .duration_hours(5.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("valid");
    // Same sampling interval for both populations so that property carries no
    // variance and must rank below the genuinely discriminating ones.
    let commuters = CommuterBuilder::new()
        .users(5)
        .days(1)
        .sampling_interval_s(60.0)
        .first_user_id(50)
        .build(&mut rng)
        .expect("valid");
    let mut traces = taxis.to_traces();
    traces.extend(commuters.to_traces());
    let merged = Dataset::new(traces).expect("non-empty");

    let properties = DatasetProperties::compute(&merged, Meters::new(200.0)).expect("properties");
    assert_eq!(properties.as_matrix().len(), merged.len());
    assert_eq!(properties.as_matrix()[0].len(), TraceProperties::NAMES.len());

    let selection = PropertySelector::default().select(&properties).expect("selection succeeds");
    assert!(!selection.selected_names().is_empty());
    assert!(selection.ranked.len() == TraceProperties::NAMES.len());
    // Taxi drivers travel much farther than commuters, so travelled distance
    // or coverage-related properties must rank above the sampling interval.
    let rank_of = |name: &str| {
        selection.ranked.iter().position(|p| p.name == name).expect("property is ranked")
    };
    assert!(rank_of("travelled_km") < rank_of("sampling_interval_s"));
}

#[test]
fn other_lppm_families_can_be_swept_through_the_framework() {
    // The framework is not GEO-I specific: sweep the Gaussian baseline too.
    let dataset = small_fleet(6);
    let system = SystemDefinition::with_pair(
        Box::new(GaussianPerturbationFactory::new()),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("distinct metric names");
    let sweep =
        ExperimentRunner::new(SweepConfig { points: 7, repetitions: 1, seed: 9, parallel: false })
            .run(&system, &dataset)
            .expect("sweep succeeds");

    assert_eq!(sweep.lppm_name, "gaussian-perturbation");
    assert_eq!(sweep.space.names(), vec!["sigma"]);
    // For Gaussian noise the metrics *decrease* with sigma (more noise), the
    // mirror image of the epsilon behaviour.
    let privacy = sweep.values(&"poi-retrieval".into()).expect("privacy column exists");
    let utility = sweep.values(&"area-coverage".into()).expect("utility column exists");
    assert!(privacy.first().unwrap() >= privacy.last().unwrap());
    assert!(utility.first().unwrap() > utility.last().unwrap());
}
