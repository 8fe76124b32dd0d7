//! Property-based tests of the per-user dataset fingerprints — the change
//! detector behind incremental recomputation: a user's sub-fingerprint must
//! change exactly when that user's records change, and must be stable under
//! whole-dataset rebuilds (the fingerprint keys an on-disk cache, so a
//! spurious change would throw away valid measurements and a missed change
//! would serve stale ones).

use geopriv_metrics::DatasetFingerprint;
use geopriv_mobility::generator::{perturb_users, TaxiFleetBuilder};
use geopriv_mobility::{Dataset, Trace, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet(drivers: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(drivers)
        .duration_hours(1.0)
        .sampling_interval_s(120.0)
        .build(&mut rng)
        .expect("valid fleet")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Perturbing exactly the chosen users' traces changes exactly those
    /// users' sub-fingerprints — no more, no less.
    #[test]
    fn per_user_fingerprints_change_iff_the_users_records_change(
        drivers in 3usize..8,
        fleet_seed in 0u64..1_000,
        perturb_seed in 0u64..1_000,
        chosen_bits in 1u32..0xff,
    ) {
        let dataset = fleet(drivers, fleet_seed);
        let users = dataset.users();
        let chosen: Vec<UserId> = users
            .iter()
            .enumerate()
            .filter(|(i, _)| chosen_bits & (1 << (i % 8)) != 0)
            .map(|(_, &user)| user)
            .collect();
        prop_assume!(!chosen.is_empty());

        let drifted = perturb_users(&dataset, &chosen, perturb_seed).expect("known users");
        let before = DatasetFingerprint::of(&dataset);
        let after = DatasetFingerprint::of(&drifted);

        // The changed set is exactly the perturbed set (dataset user order).
        prop_assert_eq!(&after.changed_users(&before), &chosen);
        // And symmetrically, looking backwards.
        prop_assert_eq!(&before.changed_users(&after), &chosen);
        // Untouched users keep bit-identical sub-fingerprints.
        for &user in &users {
            let of = |fingerprint: &DatasetFingerprint| {
                fingerprint.per_user().into_iter().find(|(u, _)| *u == user)
            };
            let same = of(&before) == of(&after);
            prop_assert_eq!(same, !chosen.contains(&user), "user {}", user);
        }
    }

    /// Rebuilding the same dataset from scratch — fresh `Trace` values from
    /// the same columns — reproduces every sub-fingerprint bit for bit: the
    /// fingerprint depends only on the records, not on allocation history.
    #[test]
    fn fingerprints_are_stable_under_whole_dataset_rebuilds(
        drivers in 2usize..7,
        fleet_seed in 0u64..1_000,
    ) {
        let dataset = fleet(drivers, fleet_seed);
        let rebuilt_traces = dataset
            .iter()
            .map(|view| {
                Trace::from_columns(
                    view.user(),
                    view.timestamps().to_vec(),
                    view.latitudes().to_vec(),
                    view.longitudes().to_vec(),
                )
                .expect("valid columns")
            })
            .collect::<Vec<_>>();
        let rebuilt = Dataset::new(rebuilt_traces).expect("non-empty");

        let original = DatasetFingerprint::of(&dataset);
        let again = DatasetFingerprint::of(&rebuilt);
        prop_assert_eq!(original.per_user(), again.per_user());
        prop_assert!(again.changed_users(&original).is_empty());
    }
}
