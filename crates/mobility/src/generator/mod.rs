//! Synthetic mobility workload generators.
//!
//! The paper evaluates on the cabspotting San-Francisco taxi dataset, which
//! cannot be redistributed. These generators produce datasets with the same
//! *structural* characteristics the privacy and utility metrics depend on
//! (stable stop locations, hotspot-skewed destinations, city-scale coverage),
//! so every experiment of the paper can be re-run end to end:
//!
//! * [`TaxiFleetBuilder`] — the cabspotting stand-in (the default workload of
//!   the reproduction harness).
//! * [`CommuterBuilder`] — home/work commuters, the scenario motivating the
//!   paper's introduction (POIs reveal home and work places).
//! * [`RandomWaypointBuilder`] — a structure-free negative control.
//! * [`CityModel`] — the shared synthetic city (bounds plus weighted hotspots).

pub mod city;
pub mod commuter;
pub mod noise;
pub mod random_waypoint;
pub mod taxi;

pub use city::{CityModel, Hotspot};
pub use commuter::CommuterBuilder;
pub use random_waypoint::RandomWaypointBuilder;
pub use taxi::TaxiFleetBuilder;

use crate::dataset::Dataset;
use crate::error::MobilityError;
use crate::record::UserId;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Generates a scale-test taxi dataset with `users` drivers, deterministic
/// from one `seed`.
///
/// This is the fleet of the `fleet-refresh` benchmark workload (10,000
/// users) and of the incremental example: a deliberately short observation
/// window (30 minutes at a 2-minute sampling interval, 16 records per
/// driver) keeps the per-user footprint small enough that million-user
/// datasets fit in memory while still exercising every protection and
/// metric path. The same
/// `(users, seed)` pair always produces the bit-identical dataset.
///
/// # Errors
///
/// Returns [`MobilityError::EmptyDataset`] if `users` is zero.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::generator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = generator::scaled(10, 42)?;
/// assert_eq!(dataset.user_count(), 10);
/// assert_eq!(dataset, generator::scaled(10, 42)?);
/// # Ok(())
/// # }
/// ```
pub fn scaled(users: usize, seed: u64) -> Result<Dataset, MobilityError> {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(users)
        .duration_hours(0.5)
        .sampling_interval_s(120.0)
        .build(&mut rng)
}

/// Deterministically perturbs the traces of exactly the given users,
/// leaving every other user's records bit-identical.
///
/// This is the shared *drift driver* for the incremental-recomputation
/// tests, bench and example: it simulates K users' mobility changing between
/// two observation windows. Every record of a targeted user gets a small
/// coordinate jitter (a guaranteed ≥ ~1 m latitude shift plus Gaussian
/// noise, ~5 m standard deviation per axis); timestamps are untouched, so
/// trace ordering and record counts are preserved.
///
/// Determinism is *per user*: a user's perturbed records are a pure function
/// of `(seed, her user id, her trace ordinal, her records)` — independent of
/// which *other* users are in `users`. Perturbing `{a, b}` therefore yields
/// bit-identical records for `a` as perturbing `{a}` alone, which lets tests
/// compose drift scenarios freely. Duplicate entries in `users` are
/// harmless (the set is deduplicated).
///
/// # Errors
///
/// Returns [`MobilityError::InvalidParameter`] if any requested user has no
/// trace in `dataset`.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::generator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fleet = generator::scaled(10, 42)?;
/// let victim = fleet.users()[0];
/// let drifted = generator::perturb_users(&fleet, &[victim], 7)?;
/// assert_ne!(fleet, drifted);
/// assert_eq!(drifted, generator::perturb_users(&fleet, &[victim], 7)?);
/// # Ok(())
/// # }
/// ```
pub fn perturb_users(
    dataset: &Dataset,
    users: &[UserId],
    seed: u64,
) -> Result<Dataset, MobilityError> {
    let targets: BTreeSet<UserId> = users.iter().copied().collect();
    let present: BTreeSet<UserId> = dataset.users().into_iter().collect();
    if let Some(missing) = targets.iter().find(|u| !present.contains(u)) {
        return Err(MobilityError::InvalidParameter {
            name: "users",
            reason: format!("user {} has no trace in the dataset", missing.value()),
        });
    }
    if targets.is_empty() {
        return Ok(dataset.clone());
    }
    // Ordinal of the trace within its user, so multi-trace users draw an
    // independent stream per trace.
    let mut previous: Option<(UserId, u64)> = None;
    dataset.map_traces(|view| {
        let ordinal = match previous {
            Some((user, n)) if user == view.user() => n + 1,
            _ => 0,
        };
        previous = Some((view.user(), ordinal));
        if !targets.contains(&view.user()) {
            return Ok(view.to_trace());
        }
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(view.user().value() ^ 0xcbf2_9ce4_8422_2325)
                .wrapping_add(ordinal.wrapping_shl(48)),
        );
        let t = view.timestamps().to_vec();
        let mut lat = Vec::with_capacity(view.len());
        let mut lon = Vec::with_capacity(view.len());
        for i in 0..view.len() {
            let (la, lo) = (view.latitudes()[i], view.longitudes()[i]);
            // A guaranteed minimum latitude shift (~1.1 m) on top of the
            // Gaussian jitter makes "this user's records changed" an
            // unconditional postcondition, not a probabilistic one.
            let sign = if rng.gen_range(0u32..2) == 0 { 1.0 } else { -1.0 };
            let dlat = sign * (1e-5 + noise::sample_normal(&mut rng, 0.0, 5e-5).abs());
            let dlon = noise::sample_normal(&mut rng, 0.0, 5e-5);
            let mut new_lat = (la + dlat).clamp(-90.0, 90.0);
            if new_lat == la {
                // Only reachable when clamping at a pole ate the shift.
                new_lat = (la - dlat).clamp(-90.0, 90.0);
            }
            lat.push(new_lat);
            lon.push((lo + dlon).clamp(-180.0, 180.0));
        }
        Trace::from_columns(view.user(), t, lat, lon)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_is_deterministic_and_compact() {
        let d = scaled(25, 7).unwrap();
        assert_eq!(d.user_count(), 25);
        // The scale profile keeps the per-user footprint small (~16 records).
        let per_user = d.record_count() / d.user_count();
        assert!((10..=20).contains(&per_user), "got {per_user} records/user");
        assert_eq!(d, scaled(25, 7).unwrap());
        assert_ne!(scaled(25, 8).unwrap(), d);
        assert!(scaled(0, 7).is_err());
    }

    #[test]
    fn perturb_users_changes_exactly_the_targets() {
        let d = scaled(8, 3).unwrap();
        let users = d.users();
        let targets = [users[1], users[5]];
        let drifted = perturb_users(&d, &targets, 99).unwrap();
        assert_eq!(drifted.users(), users);
        for (before, after) in d.iter().zip(drifted.iter()) {
            assert_eq!(before.user(), after.user());
            assert_eq!(before.timestamps(), after.timestamps());
            let changed = before.latitudes() != after.latitudes()
                || before.longitudes() != after.longitudes();
            assert_eq!(changed, targets.contains(&before.user()), "user {:?}", before.user());
        }
    }

    #[test]
    fn perturb_users_is_per_user_deterministic() {
        let d = scaled(6, 11).unwrap();
        let users = d.users();
        let both = perturb_users(&d, &[users[0], users[3]], 5).unwrap();
        let alone = perturb_users(&d, &[users[3]], 5).unwrap();
        // User 3's perturbed records must not depend on user 0 being targeted.
        let from_both = both.iter().find(|t| t.user() == users[3]).unwrap();
        let from_alone = alone.iter().find(|t| t.user() == users[3]).unwrap();
        assert_eq!(from_both.latitudes(), from_alone.latitudes());
        assert_eq!(from_both.longitudes(), from_alone.longitudes());
        // Different seeds draw different jitter.
        assert_ne!(perturb_users(&d, &[users[3]], 6).unwrap(), alone);
        // Duplicates are deduplicated; an empty target set is a no-op.
        assert_eq!(perturb_users(&d, &[users[3], users[3]], 5).unwrap(), alone);
        assert_eq!(perturb_users(&d, &[], 5).unwrap(), d);
    }

    #[test]
    fn perturb_users_rejects_unknown_users() {
        let d = scaled(3, 1).unwrap();
        let err = perturb_users(&d, &[UserId::new(1_000_000)], 0).unwrap_err();
        assert!(matches!(err, MobilityError::InvalidParameter { .. }));
    }
}
