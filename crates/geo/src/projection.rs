//! Local planar projections.

use crate::distance::EARTH_RADIUS_M;
use crate::point::{GeoPoint, Point};
use serde::{Deserialize, Serialize};

/// An equirectangular projection centered on a reference point.
///
/// Geographic coordinates are mapped to a local east/north frame in meters:
///
/// * `x = R · (λ − λ₀) · cos φ₀`
/// * `y = R · (φ − φ₀)`
///
/// where `(φ₀, λ₀)` is the reference point. At city scale (tens of
/// kilometers) the distortion is negligible, which is exactly the regime of
/// the paper's San Francisco evaluation: noise amplitudes (1/ε ≈ 1 m – 10 km)
/// and city-block grids both live comfortably inside this approximation.
///
/// The projection is exactly invertible via [`LocalProjection::unproject`].
///
/// # Examples
///
/// ```
/// use geopriv_geo::{GeoPoint, LocalProjection};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let center = GeoPoint::new(37.7749, -122.4194)?;
/// let proj = LocalProjection::centered_on(center);
///
/// let p = proj.project(GeoPoint::new(37.7849, -122.4094)?);
/// assert!(p.x() > 0.0 && p.y() > 0.0); // north-east of the center
///
/// // Round trip is exact to floating point precision.
/// let back = proj.unproject(p);
/// assert!((back.latitude() - 37.7849).abs() < 1e-9);
/// assert!((back.longitude() - -122.4094).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalProjection {
    reference: GeoPoint,
    cos_ref_lat: f64,
}

impl LocalProjection {
    /// Creates a projection centered on `reference`.
    pub fn centered_on(reference: GeoPoint) -> Self {
        Self { reference, cos_ref_lat: reference.latitude_radians().cos() }
    }

    /// The reference (origin) point of the projection.
    pub fn reference(&self) -> GeoPoint {
        self.reference
    }

    /// Projects a geographic point into the local planar frame (meters).
    #[inline]
    pub fn project(&self, point: GeoPoint) -> Point {
        let dlat = (point.latitude() - self.reference.latitude()).to_radians();
        let dlon = (point.longitude() - self.reference.longitude()).to_radians();
        Point::new(EARTH_RADIUS_M * dlon * self.cos_ref_lat, EARTH_RADIUS_M * dlat)
    }

    /// Maps a planar point back to geographic coordinates.
    ///
    /// Out-of-range results (which can only occur for planar points thousands
    /// of kilometers away from the reference) are clamped/wrapped into the
    /// valid WGS-84 domain.
    #[inline]
    pub fn unproject(&self, point: Point) -> GeoPoint {
        let dlat = (point.y() / EARTH_RADIUS_M).to_degrees();
        let dlon = (point.x() / (EARTH_RADIUS_M * self.cos_ref_lat)).to_degrees();
        GeoPoint::clamped(self.reference.latitude() + dlat, self.reference.longitude() + dlon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn reference_projects_to_origin() {
        let c = gp(37.7749, -122.4194);
        let proj = LocalProjection::centered_on(c);
        let p = proj.project(c);
        assert_eq!(p, Point::origin());
        assert_eq!(proj.reference(), c);
    }

    #[test]
    fn roundtrip_is_exact() {
        let proj = LocalProjection::centered_on(gp(37.7749, -122.4194));
        for (lat, lon) in
            [(37.70, -122.52), (37.83, -122.35), (37.7749, -122.4194), (37.80, -122.40)]
        {
            let original = gp(lat, lon);
            let back = proj.unproject(proj.project(original));
            assert!((back.latitude() - lat).abs() < 1e-9);
            assert!((back.longitude() - lon).abs() < 1e-9);
        }
    }

    #[test]
    fn planar_distance_matches_haversine_at_city_scale() {
        let center = gp(37.7749, -122.4194);
        let proj = LocalProjection::centered_on(center);
        let a = gp(37.76, -122.45);
        let b = gp(37.80, -122.39);
        let planar = proj.project(a).distance_to(proj.project(b)).as_f64();
        let spherical = haversine(a, b).as_f64();
        assert!(
            (planar - spherical).abs() / spherical < 5e-3,
            "planar={planar} spherical={spherical}"
        );
    }

    #[test]
    fn axes_are_oriented_east_and_north() {
        let center = gp(37.7749, -122.4194);
        let proj = LocalProjection::centered_on(center);
        let north = proj.project(gp(37.7849, -122.4194));
        assert!(north.y() > 0.0 && north.x().abs() < 1e-6);
        let east = proj.project(gp(37.7749, -122.4094));
        assert!(east.x() > 0.0 && east.y().abs() < 1e-6);
    }

    #[test]
    fn unproject_far_point_clamps_into_valid_domain() {
        let proj = LocalProjection::centered_on(gp(89.9, 0.0));
        // 1000 km north of a point near the pole would exceed 90° latitude.
        let g = proj.unproject(Point::new(0.0, 1_000_000.0));
        assert!(g.latitude() <= 90.0);
    }
}
