//! Property-based tests of the mobility substrate and its generators.

use geopriv_geo::{GeoPoint, Meters, Seconds};
use geopriv_mobility::generator::{CityModel, CommuterBuilder, TaxiFleetBuilder};
use geopriv_mobility::{io, Dataset, DatasetProperties, Record, Trace, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_records(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0.0f64..100_000.0, 37.6f64..37.9, -122.6f64..-122.3), 1..max_len)
        .prop_map(|entries| {
            entries
                .into_iter()
                .map(|(t, lat, lon)| Record::new(Seconds::new(t), GeoPoint::clamped(lat, lon)))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_unordered_always_yields_a_chronological_trace(records in arbitrary_records(80)) {
        let trace = Trace::from_unordered(UserId::new(1), records).unwrap();
        for w in trace.iter().collect::<Vec<_>>().windows(2) {
            prop_assert!(w[0].timestamp() <= w[1].timestamp());
        }
        prop_assert!(trace.duration().as_f64() >= 0.0);
        prop_assert!(trace.travelled_distance().as_f64() >= 0.0);
        prop_assert!(trace.radius_of_gyration().as_f64() >= 0.0);
        prop_assert!(trace.bounding_box().is_ok());
    }

    #[test]
    fn csv_roundtrip_preserves_structure(records in arbitrary_records(60), user_count in 1u64..4) {
        let traces: Vec<Trace> = (0..user_count)
            .map(|u| Trace::from_unordered(UserId::new(u), records.clone()).unwrap())
            .collect();
        let dataset = Dataset::new(traces).unwrap();

        let mut buffer = Vec::new();
        io::write_csv(&dataset, &mut buffer).unwrap();
        let parsed = io::read_csv(buffer.as_slice()).unwrap();
        prop_assert_eq!(parsed.user_count(), dataset.user_count());
        prop_assert_eq!(parsed.record_count(), dataset.record_count());
        for (a, b) in dataset.paired_with(&parsed).unwrap() {
            prop_assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(b.iter()) {
                prop_assert!((ra.location().latitude() - rb.location().latitude()).abs() < 1e-5);
                prop_assert!((ra.location().longitude() - rb.location().longitude()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn taxi_generator_respects_its_configuration(
        drivers in 1usize..4,
        hours in 1.0f64..6.0,
        interval in 20.0f64..120.0,
        seed in 0u64..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = TaxiFleetBuilder::new()
            .drivers(drivers)
            .duration_hours(hours)
            .sampling_interval_s(interval)
            .build(&mut rng)
            .unwrap();
        prop_assert_eq!(dataset.user_count(), drivers);
        let bounds = CityModel::default_bounds().expanded(0.25);
        for trace in &dataset {
            prop_assert!(trace.duration().to_hours() <= hours + 1e-9);
            prop_assert!(trace.median_sampling_interval().as_f64() <= interval + 1e-9);
            for record in trace {
                prop_assert!(bounds.contains(record.location()));
            }
        }
    }

    #[test]
    fn generators_are_deterministic_under_a_seed(seed in 0u64..200) {
        let build_taxi = |s| {
            let mut rng = StdRng::seed_from_u64(s);
            TaxiFleetBuilder::new().drivers(2).duration_hours(1.0).build(&mut rng).unwrap()
        };
        prop_assert_eq!(build_taxi(seed), build_taxi(seed));
    }

    #[test]
    fn commuters_have_stable_home_and_work_cells(users in 1usize..3, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = CommuterBuilder::new()
            .users(users)
            .days(1)
            .sampling_interval_s(300.0)
            .build(&mut rng)
            .unwrap();
        prop_assert_eq!(dataset.user_count(), users);
        for trace in &dataset {
            // A commuter's radius of gyration stays within the city.
            prop_assert!(trace.radius_of_gyration().to_kilometers() < 25.0);
            prop_assert!(trace.len() > 100);
        }
    }

    #[test]
    fn columnar_roundtrip_is_bit_identical(
        records in arbitrary_records(60),
        user_count in 1u64..5,
        traces_per_user in 1usize..3,
    ) {
        let mut traces = Vec::new();
        for u in 0..user_count {
            for _ in 0..traces_per_user {
                traces.push(Trace::from_unordered(UserId::new(u), records.clone()).unwrap());
            }
        }
        let dataset = Dataset::new(traces.clone()).unwrap();

        // Row round-trip: Vec<Trace> -> columnar Dataset -> Vec<Trace> gives
        // back every record bit for bit (the inputs are already sorted by
        // user, so the construction sort is a no-op).
        prop_assert_eq!(dataset.to_traces(), traces);

        // The span table tiles the column buffers exactly: contiguous,
        // gap-free, non-empty, covering every record.
        let mut cursor = 0usize;
        for span in dataset.spans() {
            prop_assert_eq!(span.start(), cursor);
            prop_assert!(!span.is_empty());
            cursor += span.len();
        }
        prop_assert_eq!(cursor, dataset.record_count());
        prop_assert_eq!(dataset.timestamps().len(), cursor);
        prop_assert_eq!(dataset.latitudes().len(), cursor);
        prop_assert_eq!(dataset.longitudes().len(), cursor);

        // Every view reads exactly its trace's columns.
        for (view, trace) in dataset.iter().zip(&traces) {
            prop_assert_eq!(view.user(), trace.user());
            prop_assert_eq!(view.timestamps(), trace.timestamps());
            prop_assert_eq!(view.latitudes(), trace.latitudes());
            prop_assert_eq!(view.longitudes(), trace.longitudes());
        }

        // The per-user index agrees with a naive scan over all traces.
        for user in dataset.users() {
            let indexed: Vec<Trace> =
                dataset.traces_of(user).into_iter().map(|v| v.to_trace()).collect();
            let naive: Vec<Trace> = dataset
                .iter()
                .filter(|v| v.user() == user)
                .map(|v| v.to_trace())
                .collect();
            prop_assert_eq!(indexed, naive);
        }
    }

    #[test]
    fn dataset_properties_are_finite_and_consistent(
        drivers in 2usize..5,
        hours in 1.0f64..4.0,
        cell in 100.0f64..500.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = TaxiFleetBuilder::new()
            .drivers(drivers)
            .duration_hours(hours)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap();
        let properties = DatasetProperties::compute(&dataset, Meters::new(cell)).unwrap();
        prop_assert_eq!(properties.rows().len(), dataset.len());
        for row in properties.rows() {
            for value in row.as_vector() {
                prop_assert!(value.is_finite() && value >= 0.0);
            }
            prop_assert!(row.visited_cells >= 1.0);
            prop_assert!(row.visit_entropy_bits <= (row.record_count).log2() + 1e-9);
        }
    }
}
