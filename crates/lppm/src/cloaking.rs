//! Spatial cloaking by grid rounding.
//!
//! A deterministic baseline LPPM: every location is snapped to the center of
//! a fixed square cell of configurable size. Cloaking generalizes rather than
//! randomizes — two nearby locations become indistinguishable when they share
//! a cell. It is one of the "other LPPMs" the paper's future work plans to
//! feed through the framework, and serves as a comparison point in the
//! ablation benches.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm, Relocate};
use geopriv_geo::{GeoPoint, LocalProjection, Meters, Point};

/// Grid-rounding spatial cloaking with a fixed, data-independent grid origin.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{GridCloaking, Lppm};
/// use geopriv_geo::Meters;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let cloaking = GridCloaking::new(Meters::new(500.0))?;
/// assert_eq!(cloaking.name(), "grid-cloaking");
/// assert!(GridCloaking::new(Meters::new(0.0)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCloaking {
    cell_size: Meters,
    origin: GeoPoint,
}

impl GridCloaking {
    /// Creates the mechanism with the given cell size and a default global origin.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for non-positive cell sizes.
    pub fn new(cell_size: Meters) -> Result<Self, LppmError> {
        Self::with_origin(cell_size, GeoPoint::clamped(0.0, 0.0))
    }

    /// Creates the mechanism with an explicit grid origin.
    ///
    /// The origin must be data independent (a fixed city reference point,
    /// not a function of the protected trace) or the grid itself leaks
    /// information.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for non-positive cell sizes.
    pub fn with_origin(cell_size: Meters, origin: GeoPoint) -> Result<Self, LppmError> {
        if !(cell_size.as_f64().is_finite() && cell_size.as_f64() > 0.0) {
            return Err(LppmError::InvalidParameter {
                name: "cell_size",
                value: cell_size.as_f64(),
                reason: "cell size must be finite and strictly positive",
            });
        }
        Ok(Self { cell_size, origin })
    }

    /// The parameter descriptor for the cell size (50 m to 5 km, logarithmic).
    pub fn cell_size_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::new("cell_size", 50.0, 5_000.0, ParameterScale::Logarithmic)
            .expect("static descriptor is valid")
    }

    fn snap(&self, projection: &LocalProjection, location: GeoPoint) -> GeoPoint {
        let p = projection.project(location);
        let size = self.cell_size.as_f64();
        let snapped = Point::new(
            (p.x() / size).floor() * size + size / 2.0,
            (p.y() / size).floor() * size + size / 2.0,
        );
        projection.unproject(snapped)
    }
}

impl Lppm for GridCloaking {
    fn name(&self) -> &str {
        "grid-cloaking"
    }

    /// Snaps each record against the grid anchored on the configured
    /// origin, never on the trace, so no record depends on another.
    fn kernel(&self) -> Box<dyn Kernel> {
        let (cloaking, projection) = (*self, LocalProjection::centered_on(self.origin));
        Box::new(Relocate(move |location| cloaking.snap(&projection, location)))
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testing::ProtectOne;
    use geopriv_geo::{distance, Seconds};
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sf_origin() -> GeoPoint {
        GeoPoint::new(37.7749, -122.4194).unwrap()
    }

    fn trace() -> Trace {
        let records: Vec<Record> = (0..50)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.76 + i as f64 * 0.0004, -122.45 + i as f64 * 0.0002).unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_validates_cell_size() {
        assert!(GridCloaking::new(Meters::new(200.0)).is_ok());
        assert!(GridCloaking::new(Meters::new(0.0)).is_err());
        assert!(GridCloaking::new(Meters::new(-5.0)).is_err());
        assert!(GridCloaking::new(Meters::new(f64::NAN)).is_err());
        let c = GridCloaking::new(Meters::new(300.0)).unwrap();
        assert_eq!(c.name(), "grid-cloaking");
    }

    #[test]
    fn cell_size_descriptor_spans_fifty_metres_to_five_kilometres() {
        let d = GridCloaking::cell_size_descriptor();
        assert_eq!((d.name(), d.min(), d.max()), ("cell_size", 50.0, 5_000.0));
        assert_eq!(d.scale(), ParameterScale::Logarithmic);
        assert!(!GridCloaking::new(Meters::new(300.0)).unwrap().draws_randomness());
    }

    #[test]
    fn releases_are_cell_centres_of_the_origin_grid() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = 250.0;
        let cloaking = GridCloaking::with_origin(Meters::new(cell), sf_origin()).unwrap();
        let protected = cloaking.protect_one(&trace(), &mut rng).unwrap();
        let projection = LocalProjection::centered_on(sf_origin());
        for r in &protected {
            let p = projection.project(r.location());
            for v in [p.x(), p.y()] {
                let offset = v / cell - (v / cell).floor();
                assert!((offset - 0.5).abs() < 1e-6, "{v} m is not a cell centre");
            }
        }
    }

    #[test]
    fn snapping_is_deterministic_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(1);
        let cloaking = GridCloaking::with_origin(Meters::new(500.0), sf_origin()).unwrap();
        let t = trace();
        let once = cloaking.protect_one(&t, &mut rng).unwrap();
        let twice = cloaking.protect_one(&once, &mut rng).unwrap();
        assert_eq!(once, twice);
        // And deterministic across calls (ignores the RNG).
        let again = cloaking.protect_one(&t, &mut rng).unwrap();
        assert_eq!(once, again);
    }

    #[test]
    fn displacement_is_bounded_by_half_cell_diagonal() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = 400.0;
        let cloaking = GridCloaking::with_origin(Meters::new(cell), sf_origin()).unwrap();
        let t = trace();
        let protected = cloaking.protect_one(&t, &mut rng).unwrap();
        let max_allowed = cell / 2.0 * 2f64.sqrt() * 1.01; // 1% slack for projection error
        for (a, b) in t.iter().zip(protected.iter()) {
            let d = distance::haversine(a.location(), b.location()).as_f64();
            assert!(d <= max_allowed, "displacement {d} exceeds {max_allowed}");
        }
    }

    #[test]
    fn nearby_points_collapse_to_the_same_release() {
        let mut rng = StdRng::seed_from_u64(3);
        let cloaking = GridCloaking::with_origin(Meters::new(1_000.0), sf_origin()).unwrap();
        let a = GeoPoint::new(37.7750, -122.4190).unwrap();
        let b = GeoPoint::new(37.7752, -122.4188).unwrap(); // ~30 m away, same 1 km cell
        let t = Trace::new(
            UserId::new(1),
            vec![Record::new(Seconds::new(0.0), a), Record::new(Seconds::new(30.0), b)],
        )
        .unwrap();
        let protected = cloaking.protect_one(&t, &mut rng).unwrap();
        assert_eq!(protected.view().location(0), protected.view().location(1));
    }

    #[test]
    fn smaller_cells_preserve_more_detail() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = trace();
        let coarse = GridCloaking::with_origin(Meters::new(2_000.0), sf_origin())
            .unwrap()
            .protect_one(&t, &mut rng)
            .unwrap();
        let fine = GridCloaking::with_origin(Meters::new(100.0), sf_origin())
            .unwrap()
            .protect_one(&t, &mut rng)
            .unwrap();
        let distinct = |tr: &Trace| {
            let mut locations: Vec<(u64, u64)> = tr
                .iter()
                .map(|r| {
                    (
                        (r.location().latitude() * 1e6) as u64,
                        ((r.location().longitude() + 180.0) * 1e6) as u64,
                    )
                })
                .collect();
            locations.sort_unstable();
            locations.dedup();
            locations.len()
        };
        assert!(distinct(&fine) > distinct(&coarse));
    }
}
