//! Geographic and planar points.

use crate::error::GeoError;
use crate::units::Meters;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated WGS-84 geographic coordinate (latitude/longitude in decimal degrees).
///
/// Latitude is in `[-90, 90]`, longitude in `[-180, 180]`; both are finite.
/// This is the coordinate type carried by mobility records and produced by
/// LPPMs after projecting perturbed planar points back to geographic space.
///
/// # Examples
///
/// ```
/// use geopriv_geo::GeoPoint;
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let p = GeoPoint::new(37.7749, -122.4194)?;
/// assert_eq!(p.latitude(), 37.7749);
/// assert_eq!(p.longitude(), -122.4194);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a geographic point from a latitude and longitude in decimal degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] or [`GeoError::InvalidLongitude`]
    /// if either coordinate is out of range or not finite.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(Self { lat, lon })
    }

    /// Creates a geographic point, clamping out-of-range values into the valid domain.
    ///
    /// Latitude is clamped to `[-90, 90]` and longitude wrapped into
    /// `[-180, 180]`. This is the constructor used after adding noise to a
    /// point: a perturbation near the antimeridian or poles must still yield
    /// a valid coordinate.
    ///
    /// # Panics
    ///
    /// Panics if either value is NaN (noise generation never produces NaN).
    #[inline]
    pub fn clamped(lat: f64, lon: f64) -> Self {
        assert!(!lat.is_nan() && !lon.is_nan(), "coordinates must not be NaN");
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = lon;
        if !(-180.0..=180.0).contains(&lon) {
            // Wrap into (-180, 180].
            lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
            if lon == -180.0 {
                lon = 180.0;
            }
        }
        Self { lat, lon }
    }

    /// Latitude in decimal degrees.
    #[inline]
    pub fn latitude(&self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees.
    #[inline]
    pub fn longitude(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    pub fn latitude_radians(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Reconstructs a point from coordinates previously extracted from a
    /// valid `GeoPoint` (e.g. stored in columnar `f64` buffers).
    ///
    /// This skips the range checks of [`GeoPoint::new`] in release builds —
    /// the caller asserts the values originate from an already-validated
    /// point. Debug builds still verify the invariant.
    #[inline]
    pub fn from_stored(lat: f64, lon: f64) -> Self {
        debug_assert!(
            lat.is_finite() && (-90.0..=90.0).contains(&lat),
            "stored latitude {lat} out of range"
        );
        debug_assert!(
            lon.is_finite() && (-180.0..=180.0).contains(&lon),
            "stored longitude {lon} out of range"
        );
        Self { lat, lon }
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

impl TryFrom<(f64, f64)> for GeoPoint {
    type Error = GeoError;

    fn try_from((lat, lon): (f64, f64)) -> Result<Self, Self::Error> {
        GeoPoint::new(lat, lon)
    }
}

/// A point in a local planar (east/north) frame, in meters.
///
/// Produced by [`LocalProjection::project`](crate::LocalProjection::project);
/// all metric computations (noise addition, grid indexing, clustering) happen
/// in this frame.
///
/// # Examples
///
/// ```
/// use geopriv_geo::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b).as_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Point {
    x: f64,
    y: f64,
}

impl Point {
    /// Creates a planar point from east (`x`) and north (`y`) offsets in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// East offset in meters.
    pub const fn x(&self) -> f64 {
        self.x
    }

    /// North offset in meters.
    pub const fn y(&self) -> f64 {
        self.y
    }

    /// Euclidean distance to another planar point.
    pub fn distance_to(&self, other: Point) -> Meters {
        Meters::new(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }

    /// Translates the point by `(dx, dy)` meters.
    #[inline]
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Linear interpolation between `self` and `other`.
    ///
    /// `t = 0` returns `self`, `t = 1` returns `other`; values outside
    /// `[0, 1]` extrapolate.
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2} m, {:.2} m)", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// Computes the centroid of a set of planar points.
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use geopriv_geo::point::{centroid, Point};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 3.0)];
/// let c = centroid(&pts).unwrap();
/// assert!((c.x() - 1.0).abs() < 1e-12);
/// assert!((c.y() - 1.0).abs() < 1e-12);
/// ```
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let (sx, sy) = points.iter().fold((0.0, 0.0), |(sx, sy), p| (sx + p.x(), sy + p.y()));
    Some(Point::new(sx / n, sy / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_point_validation() {
        assert!(GeoPoint::new(37.7, -122.4).is_ok());
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert_eq!(GeoPoint::new(90.1, 0.0), Err(GeoError::InvalidLatitude(90.1)));
        assert_eq!(GeoPoint::new(0.0, 180.5), Err(GeoError::InvalidLongitude(180.5)));
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_wraps_longitude_and_clamps_latitude() {
        let p = GeoPoint::clamped(95.0, 190.0);
        assert_eq!(p.latitude(), 90.0);
        assert!((p.longitude() - (-170.0)).abs() < 1e-9);

        let q = GeoPoint::clamped(-100.0, -190.0);
        assert_eq!(q.latitude(), -90.0);
        assert!((q.longitude() - 170.0).abs() < 1e-9);

        // Already valid coordinates are untouched.
        let r = GeoPoint::clamped(12.5, -45.0);
        assert_eq!(r, GeoPoint::new(12.5, -45.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn clamped_rejects_nan() {
        let _ = GeoPoint::clamped(f64::NAN, 0.0);
    }

    #[test]
    fn try_from_tuple() {
        let p = GeoPoint::try_from((37.5, -122.0)).unwrap();
        assert_eq!((p.latitude(), p.longitude()), (37.5, -122.0));
        assert!(GeoPoint::try_from((120.0, 0.0)).is_err());
    }

    #[test]
    fn planar_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance_to(b).as_f64() - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a).as_f64(), 0.0);
    }

    #[test]
    fn translations() {
        let p = Point::new(0.0, 0.0).translated(3.0, -4.0);
        assert_eq!(p, Point::new(3.0, -4.0));
    }

    #[test]
    fn lerp_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn centroid_of_points() {
        assert!(centroid(&[]).is_none());
        let c = centroid(&[Point::new(2.0, 2.0)]).unwrap();
        assert_eq!(c, Point::new(2.0, 2.0));
    }

    #[test]
    fn display_formats() {
        let g = GeoPoint::new(37.0, -122.0).unwrap();
        assert_eq!(g.to_string(), "(37.000000, -122.000000)");
        let p = Point::new(1.0, 2.0);
        assert_eq!(p.to_string(), "(1.00 m, 2.00 m)");
    }

    #[test]
    fn tuple_conversions_and_stored_coordinates() {
        let p: Point = (3.0, -4.0).into();
        assert_eq!(p, Point::new(3.0, -4.0));
        assert_eq!(<(f64, f64)>::from(p), (3.0, -4.0));
        let g = GeoPoint::from_stored(45.0, 10.0);
        assert_eq!(g, GeoPoint::new(45.0, 10.0).unwrap());
        assert!((g.latitude_radians() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
    }
}
