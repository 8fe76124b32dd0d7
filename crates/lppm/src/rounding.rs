//! Coordinate-precision reduction.
//!
//! The simplest deterministic LPPM found in deployed systems: truncate the
//! released latitude/longitude to a fixed number of decimal digits. Two
//! digits keep ~1 km precision, three digits ~110 m, four digits ~11 m. It is
//! a useful baseline because its privacy/utility behaviour is entirely
//! step-wise — a stress test for the framework's saturation detection.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm, Relocate};
use geopriv_geo::GeoPoint;

/// Maximum number of decimal digits that still constitutes a reduction for
/// consumer GPS data (beyond ~7 digits the rounding is a no-op).
const MAX_DIGITS: u8 = 7;

/// Decimal truncation of released coordinates.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{CoordinateRounding, Lppm};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let lppm = CoordinateRounding::new(3)?; // ~110 m granularity
/// assert_eq!(lppm.digits(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinateRounding {
    digits: u8,
}

impl CoordinateRounding {
    /// Creates the mechanism keeping `digits` decimal digits (0 to 7).
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for more than 7 digits.
    pub fn new(digits: u8) -> Result<Self, LppmError> {
        if digits > MAX_DIGITS {
            return Err(LppmError::InvalidParameter {
                name: "digits",
                value: f64::from(digits),
                reason: "keeping more than 7 decimal digits is not a reduction",
            });
        }
        Ok(Self { digits })
    }

    /// Number of decimal digits kept.
    pub fn digits(&self) -> u8 {
        self.digits
    }

    /// Approximate spatial granularity of the rounding at mid latitudes, in meters.
    pub fn approximate_granularity_m(&self) -> f64 {
        111_320.0 / 10f64.powi(i32::from(self.digits))
    }

    /// The parameter descriptor for the digit count (0 to 7, linear).
    pub fn digits_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::new("digits", 0.0, f64::from(MAX_DIGITS), ParameterScale::Linear)
            .expect("static descriptor is valid")
    }

    fn round_coordinate(&self, value: f64) -> f64 {
        let factor = 10f64.powi(i32::from(self.digits));
        (value * factor).round() / factor
    }

    fn round(&self, location: GeoPoint) -> GeoPoint {
        GeoPoint::clamped(
            self.round_coordinate(location.latitude()),
            self.round_coordinate(location.longitude()),
        )
    }
}

impl Lppm for CoordinateRounding {
    fn name(&self) -> &str {
        "coordinate-rounding"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![Self::digits_descriptor()]
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        let rounding = *self;
        Box::new(Relocate(move |location| rounding.round(location)))
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{distance, GeoPoint, Seconds};
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        let records: Vec<Record> = (0..20)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.774923 + i as f64 * 1e-4, -122.419416).unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_and_granularity() {
        assert!(CoordinateRounding::new(0).is_ok());
        assert!(CoordinateRounding::new(7).is_ok());
        assert!(CoordinateRounding::new(8).is_err());
        let r = CoordinateRounding::new(3).unwrap();
        assert_eq!(r.digits(), 3);
        assert!((r.approximate_granularity_m() - 111.32).abs() < 0.1);
        assert_eq!(r.name(), "coordinate-rounding");
        assert_eq!(r.parameters()[0].name(), "digits");
    }

    #[test]
    fn rounding_is_deterministic_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = trace();
        let r = CoordinateRounding::new(3).unwrap();
        let once = r.protect_trace(&t, &mut rng).unwrap();
        let twice = r.protect_trace(&once, &mut rng).unwrap();
        assert_eq!(once, twice);
        for record in &once {
            // 3 decimal digits: the coordinate times 1000 is an integer.
            let lat = record.location().latitude() * 1_000.0;
            assert!((lat - lat.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn displacement_is_bounded_by_the_granularity() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        for digits in [2u8, 3, 4] {
            let r = CoordinateRounding::new(digits).unwrap();
            let protected = r.protect_trace(&t, &mut rng).unwrap();
            // Max displacement is half a diagonal of the rounding cell.
            let bound = r.approximate_granularity_m() * 0.75;
            for (a, b) in t.iter().zip(protected.iter()) {
                let d = distance::haversine(a.location(), b.location()).as_f64();
                assert!(d <= bound, "digits {digits}: displacement {d} exceeds {bound}");
            }
        }
    }

    #[test]
    fn more_digits_preserve_more_detail() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = trace();
        let distinct = |tr: &Trace| {
            let mut keys: Vec<(i64, i64)> = tr
                .iter()
                .map(|r| {
                    (
                        (r.location().latitude() * 1e7) as i64,
                        (r.location().longitude() * 1e7) as i64,
                    )
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        };
        let coarse = CoordinateRounding::new(2).unwrap().protect_trace(&t, &mut rng).unwrap();
        let fine = CoordinateRounding::new(5).unwrap().protect_trace(&t, &mut rng).unwrap();
        assert!(distinct(&fine) > distinct(&coarse));
        // 7 digits is essentially the identity for this trace.
        let identity_like =
            CoordinateRounding::new(7).unwrap().protect_trace(&t, &mut rng).unwrap();
        for (a, b) in t.iter().zip(identity_like.iter()) {
            assert!(distance::haversine(a.location(), b.location()).as_f64() < 0.05);
        }
    }
}
