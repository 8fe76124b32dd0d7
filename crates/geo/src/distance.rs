//! Distance computations on the sphere.

use crate::point::GeoPoint;
use crate::units::Meters;

/// Mean Earth radius in meters (IUGG value), used by the spherical formulas.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Great-circle distance between two geographic points using the haversine formula.
///
/// Accurate to ~0.5 % everywhere on Earth, far more than needed at the city
/// scale of the paper's evaluation.
///
/// # Examples
///
/// ```
/// use geopriv_geo::{distance, GeoPoint};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let sf = GeoPoint::new(37.7749, -122.4194)?;
/// let oakland = GeoPoint::new(37.8044, -122.2712)?;
/// let d = distance::haversine(sf, oakland);
/// assert!((13_000.0..14_000.0).contains(&d.as_f64()));
/// # Ok(())
/// # }
/// ```
pub fn haversine(a: GeoPoint, b: GeoPoint) -> Meters {
    let phi1 = a.latitude_radians();
    let phi2 = b.latitude_radians();
    let dphi = (b.latitude() - a.latitude()).to_radians();
    let dlambda = (b.longitude() - a.longitude()).to_radians();

    let h = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    let c = 2.0 * h.sqrt().min(1.0).asin();
    Meters::new(EARTH_RADIUS_M * c)
}

/// Length of a polyline given as a sequence of geographic points.
///
/// Returns zero for fewer than two points.
pub fn path_length(points: &[GeoPoint]) -> Meters {
    points.windows(2).map(|w| haversine(w[0], w[1])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn haversine_known_values() {
        // Paris -> London is about 344 km.
        let paris = gp(48.8566, 2.3522);
        let london = gp(51.5074, -0.1278);
        let d = haversine(paris, london).as_f64();
        assert!((330_000.0..355_000.0).contains(&d), "got {d}");

        // Same point -> zero.
        assert_eq!(haversine(paris, paris).as_f64(), 0.0);
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = gp(37.7749, -122.4194);
        let b = gp(37.8044, -122.2712);
        assert!((haversine(a, b).as_f64() - haversine(b, a).as_f64()).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = gp(0.0, 0.0);
        let b = gp(1.0, 0.0);
        let d = haversine(a, b).as_f64();
        assert!((110_000.0..112_500.0).contains(&d), "got {d}");
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = gp(37.7749, -122.4194);
        let b = gp(37.8049, -122.3894); // a few km away
        let h = haversine(a, b).as_f64();
        let projection = crate::LocalProjection::centered_on(a);
        let e = projection.project(a).distance_to(projection.project(b)).as_f64();
        assert!((h - e).abs() / h < 1e-3, "haversine={h} equirect={e}");
    }

    #[test]
    fn path_length_sums_segments() {
        let pts = [gp(0.0, 0.0), gp(0.0, 0.01), gp(0.0, 0.02)];
        let total = path_length(&pts).as_f64();
        let seg = haversine(pts[0], pts[1]).as_f64();
        assert!((total - 2.0 * seg).abs() < 1e-6);
        assert_eq!(path_length(&pts[..1]).as_f64(), 0.0);
        assert_eq!(path_length(&[]).as_f64(), 0.0);
    }

    #[test]
    fn antipodal_points_do_not_produce_nan() {
        let a = gp(0.0, 0.0);
        let b = gp(0.0, 180.0);
        let d = haversine(a, b).as_f64();
        assert!(d.is_finite());
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_M).abs() < 1_000.0);
    }
}
