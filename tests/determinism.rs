//! Deterministic-seeding smoke tests: the whole framework is seeded, so the
//! same seed must reproduce the same outputs bit-for-bit across runs. The
//! paper's methodology (sweep → model → invert → verify) depends on this:
//! re-measuring at the recommended configuration is only meaningful when the
//! measurement pipeline itself is reproducible.

use geopriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn taxi_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(3)
        .duration_hours(2.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

/// Same `StdRng` seed → identical `GeoIndistinguishability::protect_dataset`
/// output across two runs.
#[test]
fn geoi_protection_is_reproducible_under_the_same_seed() {
    let dataset = taxi_dataset(17);
    let geoi = GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid epsilon"));

    let mut rng_a = StdRng::seed_from_u64(99);
    let protected_a = geoi.protect_dataset(&dataset, &mut rng_a).expect("protection succeeds");
    let mut rng_b = StdRng::seed_from_u64(99);
    let protected_b = geoi.protect_dataset(&dataset, &mut rng_b).expect("protection succeeds");

    assert_eq!(protected_a, protected_b);

    // And a different seed really does produce different noise (otherwise the
    // equality above would be vacuous).
    let mut rng_c = StdRng::seed_from_u64(100);
    let protected_c = geoi.protect_dataset(&dataset, &mut rng_c).expect("protection succeeds");
    assert_ne!(protected_a, protected_c);
}

/// Dataset generation itself is a pure function of its seed.
#[test]
fn taxi_generator_is_reproducible_under_the_same_seed() {
    assert_eq!(taxi_dataset(23), taxi_dataset(23));
    assert_ne!(taxi_dataset(23), taxi_dataset(24));
}

/// The full sweep (which runs on multiple threads when `parallel` is set)
/// still produces seed-deterministic measurements: parallel and sequential
/// execution derive identical per-point RNGs.
#[test]
fn parallel_and_sequential_sweeps_measure_identically() {
    let dataset = taxi_dataset(5);
    let system = SystemDefinition::paper_geoi();
    let run = |parallel: bool| {
        ExperimentRunner::new(SweepConfig { points: 4, repetitions: 1, seed: 11, parallel })
            .run(&system, &dataset)
            .expect("sweep succeeds")
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);
    assert_eq!(a.values(&"poi-retrieval".into()), b.values(&"poi-retrieval".into()));
    assert_eq!(a.values(&"area-coverage".into()), b.values(&"area-coverage".into()));
}

/// The systems of the campaign determinism tests: the paper's GEO-I system
/// plus a Gaussian-perturbation variant sharing the same metric pair.
fn campaign_systems() -> Vec<SystemDefinition> {
    vec![
        SystemDefinition::paper_geoi(),
        SystemDefinition::with_pair(
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .expect("distinct metric names"),
    ]
}

/// A campaign over several systems and datasets returns, cell by cell, the
/// exact `SweepResult` that an independent `ExperimentRunner::run` with the
/// same configuration produces — bit for bit, whether the campaign pool runs
/// parallel or sequential. This is the contract that makes the campaign
/// engine a pure optimization: shared prepared metric state and work-stealing
/// scheduling must never leak into the measurements.
#[test]
fn campaigns_match_independent_runs_bit_for_bit() {
    let systems = campaign_systems();
    let datasets = [taxi_dataset(5), taxi_dataset(6)];

    for parallel in [true, false] {
        let config = SweepConfig { points: 5, repetitions: 2, seed: 11, parallel };
        let campaign =
            CampaignRunner::new(config).run(&systems, &datasets).expect("campaign succeeds");
        assert_eq!(campaign.runs.len(), systems.len() * datasets.len());

        for (s, system) in systems.iter().enumerate() {
            for (d, dataset) in datasets.iter().enumerate() {
                let independent =
                    ExperimentRunner::new(config).run(system, dataset).expect("sweep succeeds");
                assert_eq!(
                    campaign.runs[s * datasets.len() + d].result,
                    independent,
                    "system {s} on dataset {d} diverged (parallel = {parallel})"
                );
            }
        }
    }
}

/// Adaptive sweeps — whose refinement points are *planned* from fitted
/// models mid-run — remain seed-deterministic across the parallel and
/// sequential execution paths: point-identity seeding ties every
/// measurement to its coordinates, not to scheduling.
#[test]
fn adaptive_parallel_and_sequential_sweeps_measure_identically() {
    let dataset = taxi_dataset(5);
    let system = SystemDefinition::paper_geoi();
    let run = |parallel: bool| {
        let config = SweepConfig { points: 5, repetitions: 1, seed: 11, parallel };
        ExperimentRunner::with_plan(SweepPlan::grid(config).refine(9))
            .run(&system, &dataset)
            .expect("adaptive sweep succeeds")
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);
    assert!(a.len() > 5, "refinement spent its budget: {} points", a.len());
    assert_eq!(a.mode, SweepMode::Adaptive);
}

/// Parallel and sequential campaign execution are interchangeable.
#[test]
fn parallel_and_sequential_campaigns_measure_identically() {
    let systems = campaign_systems();
    let datasets = [taxi_dataset(7)];
    let run = |parallel: bool| {
        CampaignRunner::new(SweepConfig { points: 4, repetitions: 2, seed: 3, parallel })
            .run(&systems, &datasets)
            .expect("campaign succeeds")
    };
    let a = run(true);
    let b = run(false);
    for (run_a, run_b) in a.runs.iter().zip(&b.runs) {
        assert_eq!(run_a.system_index, run_b.system_index);
        assert_eq!(run_a.dataset_index, run_b.dataset_index);
        assert_eq!(run_a.result, run_b.result);
    }
}

/// FNV-1a over the little-endian bytes of 64-bit words: a fingerprint of
/// exact `f64` bits that no Rust or platform release can change.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether area coverage counts this pair of datasets on cell bitmaps
/// rather than on sorted cell keys: its grid frames both datasets, widened
/// by 2 %, in 200 m cells, and takes the bitmaps when that grid has at most
/// 32 cells per record.
fn counts_on_bitmaps(actual: &Dataset, protected: &Dataset) -> bool {
    let (a, p) = (actual.bounding_box().expect("a box"), protected.bounding_box().expect("a box"));
    let bounds = BoundingBox::new(
        a.min_latitude().min(p.min_latitude()),
        a.min_longitude().min(p.min_longitude()),
        a.max_latitude().max(p.max_latitude()),
        a.max_longitude().max(p.max_longitude()),
    )
    .expect("a valid box")
    .expanded(0.02);
    let grid = Grid::new(bounds, Meters::new(200.0)).expect("a valid grid");
    let records = actual.record_count() + protected.record_count();
    grid.cell_count() <= 32 * records as u64
}

/// A small sequential GEO-I sweep reproduces pinned bits: every mean, every
/// repetition's value and every per-user value, and one `protect_dataset`
/// image, hash to constants. Kernel and metric optimizations must keep them;
/// only a declared re-baseline may change them. The ε range reaches both of
/// area coverage's counting paths, bitmaps at the large-ε end and sorted
/// keys at the small-ε end, so a change to either shows here.
#[test]
fn a_small_geoi_sweep_reproduces_its_pinned_bits() {
    let dataset = taxi_dataset(5);
    let config = SweepConfig { points: 5, repetitions: 2, seed: 11, parallel: false };
    let sweep = ExperimentRunner::with_plan(SweepPlan::grid(config).per_user())
        .run(&SystemDefinition::paper_geoi(), &dataset)
        .expect("sweep succeeds");
    let epsilons = sweep.axis_values("epsilon").expect("an ε axis");
    let protect = |epsilon: f64, seed: u64| {
        GeoIndistinguishability::new(Epsilon::new(epsilon).expect("valid epsilon"))
            .protect_dataset(&dataset, &mut StdRng::seed_from_u64(seed))
            .expect("protection succeeds")
    };
    let (smallest, largest) = (epsilons[0], epsilons[epsilons.len() - 1]);
    assert!(!counts_on_bitmaps(&dataset, &protect(smallest, 1)), "ε = {smallest}");
    assert!(counts_on_bitmaps(&dataset, &protect(largest, 1)), "ε = {largest}");

    let values = sweep
        .columns
        .iter()
        .flat_map(|column| column.means.iter().chain(column.runs.iter().flatten()))
        .chain(sweep.user_columns.iter().flat_map(|column| column.curves.iter().flatten()));
    assert_eq!(values.clone().count(), 2 * (5 + 10) + 2 * 3 * 5);
    assert_eq!(fingerprint(values.map(|v| v.to_bits())), 0x03e5_4022_6892_d1c5);

    let image = protect(0.01, 99);
    // The image's timestamp, latitude and longitude columns, in that order:
    // its traces' views tile each column.
    let columns = (image.iter().flat_map(|view| view.timestamps()))
        .chain(image.iter().flat_map(|view| view.latitudes()))
        .chain(image.iter().flat_map(|view| view.longitudes()));
    assert_eq!(fingerprint(columns.map(|v| v.to_bits())), 0x6b40_ee20_6c8a_0d42);
}
