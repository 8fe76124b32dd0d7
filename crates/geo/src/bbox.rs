//! Geographic bounding boxes.

use crate::error::GeoError;
use crate::point::GeoPoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned geographic bounding box.
///
/// Used to describe the extent of a mobility dataset (a "city area") and to
/// construct the uniform grids underlying the area-coverage utility metric.
/// Boxes never straddle the antimeridian: the generators and datasets in this
/// workspace are city-scale.
///
/// # Examples
///
/// ```
/// use geopriv_geo::{BoundingBox, GeoPoint};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let sf = BoundingBox::new(37.70, -122.52, 37.83, -122.35)?;
/// let points = [GeoPoint::new(37.7749, -122.4194)?, GeoPoint::new(37.80, -122.40)?];
/// let enclosing = BoundingBox::enclosing(points)?;
/// assert!(enclosing.min_latitude() >= sf.min_latitude());
/// assert!(enclosing.max_longitude() <= sf.max_longitude());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    min_lon: f64,
    max_lat: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Creates a bounding box from its south-west and north-east corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`]/[`GeoError::InvalidLongitude`] if
    /// a corner is invalid, and [`GeoError::EmptyBounds`] if the box has zero
    /// or negative extent in either dimension.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Result<Self, GeoError> {
        let _sw = GeoPoint::new(min_lat, min_lon)?;
        let _ne = GeoPoint::new(max_lat, max_lon)?;
        if min_lat >= max_lat || min_lon >= max_lon {
            return Err(GeoError::EmptyBounds);
        }
        Ok(Self { min_lat, min_lon, max_lat, max_lon })
    }

    /// Creates the smallest bounding box containing every point of the iterator.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyBounds`] if the iterator is empty or all
    /// points are identical in one dimension (zero-extent box).
    pub fn enclosing<I>(points: I) -> Result<Self, GeoError>
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        let mut min_lat = f64::INFINITY;
        let mut min_lon = f64::INFINITY;
        let mut max_lat = f64::NEG_INFINITY;
        let mut max_lon = f64::NEG_INFINITY;
        let mut any = false;
        for p in points {
            any = true;
            min_lat = min_lat.min(p.latitude());
            max_lat = max_lat.max(p.latitude());
            min_lon = min_lon.min(p.longitude());
            max_lon = max_lon.max(p.longitude());
        }
        if !any {
            return Err(GeoError::EmptyBounds);
        }
        if min_lat == max_lat || min_lon == max_lon {
            // Degenerate box: pad by a small margin so it is usable for grids.
            return Self::new(
                (min_lat - 1e-4).max(-90.0),
                (min_lon - 1e-4).max(-180.0),
                (max_lat + 1e-4).min(90.0),
                (max_lon + 1e-4).min(180.0),
            );
        }
        Self::new(min_lat, min_lon, max_lat, max_lon)
    }

    /// South (minimum) latitude.
    pub fn min_latitude(&self) -> f64 {
        self.min_lat
    }

    /// West (minimum) longitude.
    pub fn min_longitude(&self) -> f64 {
        self.min_lon
    }

    /// North (maximum) latitude.
    pub fn max_latitude(&self) -> f64 {
        self.max_lat
    }

    /// East (maximum) longitude.
    pub fn max_longitude(&self) -> f64 {
        self.max_lon
    }

    /// South-west corner.
    pub fn south_west(&self) -> GeoPoint {
        GeoPoint::clamped(self.min_lat, self.min_lon)
    }

    /// North-east corner.
    pub fn north_east(&self) -> GeoPoint {
        GeoPoint::clamped(self.max_lat, self.max_lon)
    }

    /// Center of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::clamped((self.min_lat + self.max_lat) / 2.0, (self.min_lon + self.max_lon) / 2.0)
    }

    /// Returns a new box expanded by `margin_fraction` of its extent in every direction.
    ///
    /// A fraction of `0.1` grows each side by 10 %. The result is clamped to
    /// the valid WGS-84 domain.
    pub fn expanded(&self, margin_fraction: f64) -> BoundingBox {
        let dlat = (self.max_lat - self.min_lat) * margin_fraction;
        let dlon = (self.max_lon - self.min_lon) * margin_fraction;
        BoundingBox {
            min_lat: (self.min_lat - dlat).max(-90.0),
            min_lon: (self.min_lon - dlon).max(-180.0),
            max_lat: (self.max_lat + dlat).min(90.0),
            max_lon: (self.max_lon + dlon).min(180.0),
        }
    }

    /// Approximate area of the box in square kilometers.
    pub fn area_km2(&self) -> f64 {
        let height_m = crate::distance::haversine(
            GeoPoint::clamped(self.min_lat, self.min_lon),
            GeoPoint::clamped(self.max_lat, self.min_lon),
        )
        .as_f64();
        let width_m = crate::distance::haversine(
            GeoPoint::clamped(self.center().latitude(), self.min_lon),
            GeoPoint::clamped(self.center().latitude(), self.max_lon),
        )
        .as_f64();
        height_m * width_m / 1e6
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4}, {:.4}] x [{:.4}, {:.4}]",
            self.min_lat, self.max_lat, self.min_lon, self.max_lon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `p` lies in `b`, edges included.
    fn inside(b: &BoundingBox, p: GeoPoint) -> bool {
        (b.min_latitude()..=b.max_latitude()).contains(&p.latitude())
            && (b.min_longitude()..=b.max_longitude()).contains(&p.longitude())
    }

    fn sf() -> BoundingBox {
        BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(BoundingBox::new(37.0, -122.0, 38.0, -121.0).is_ok());
        assert_eq!(BoundingBox::new(38.0, -122.0, 37.0, -121.0), Err(GeoError::EmptyBounds));
        assert_eq!(BoundingBox::new(37.0, -121.0, 38.0, -122.0), Err(GeoError::EmptyBounds));
        assert!(BoundingBox::new(95.0, -122.0, 96.0, -121.0).is_err());
    }

    #[test]
    fn contains_and_corners() {
        let b = sf();
        assert!(inside(&b, GeoPoint::new(37.7749, -122.4194).unwrap()));
        assert!(inside(&b, b.south_west()));
        assert!(inside(&b, b.north_east()));
        assert!(inside(&b, b.center()));
        assert!(!inside(&b, GeoPoint::new(37.0, -122.4).unwrap()));
    }

    #[test]
    fn enclosing_points() {
        let pts = vec![
            GeoPoint::new(37.75, -122.45).unwrap(),
            GeoPoint::new(37.80, -122.40).unwrap(),
            GeoPoint::new(37.77, -122.50).unwrap(),
        ];
        let b = BoundingBox::enclosing(pts.iter().copied()).unwrap();
        for p in pts {
            assert!(inside(&b, p));
        }
        assert!(BoundingBox::enclosing(std::iter::empty()).is_err());
    }

    #[test]
    fn enclosing_single_point_pads() {
        let p = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = BoundingBox::enclosing([p]).unwrap();
        assert!(inside(&b, p));
        assert!(b.max_lat > b.min_lat);
        assert!(b.max_lon > b.min_lon);
    }

    #[test]
    fn enclosing_is_the_tightest_box() {
        let pts = [
            GeoPoint::new(37.75, -122.45).unwrap(),
            GeoPoint::new(37.80, -122.40).unwrap(),
            GeoPoint::new(37.77, -122.50).unwrap(),
        ];
        let b = BoundingBox::enclosing(pts).unwrap();
        assert_eq!((b.min_latitude(), b.max_latitude()), (37.75, 37.80));
        assert_eq!((b.min_longitude(), b.max_longitude()), (-122.50, -122.40));
    }

    #[test]
    fn enclosing_pads_degenerate_boxes_inside_the_domain() {
        // Points on one parallel: the box is padded on every side.
        let row = [GeoPoint::new(10.0, 20.0).unwrap(), GeoPoint::new(10.0, 21.0).unwrap()];
        let b = BoundingBox::enclosing(row).unwrap();
        assert_eq!((b.min_latitude(), b.max_latitude()), (10.0 - 1e-4, 10.0 + 1e-4));
        assert_eq!((b.min_longitude(), b.max_longitude()), (20.0 - 1e-4, 21.0 + 1e-4));
        // At a corner of the domain the padding stops at the edge.
        let corner = BoundingBox::enclosing([GeoPoint::new(90.0, 180.0).unwrap()]).unwrap();
        assert_eq!((corner.max_latitude(), corner.max_longitude()), (90.0, 180.0));
        assert!(corner.min_latitude() < 90.0 && corner.min_longitude() < 180.0);
    }

    #[test]
    fn expanded_clamps_to_the_wgs84_domain() {
        let b = BoundingBox::new(80.0, 170.0, 89.0, 179.0).unwrap();
        let e = b.expanded(0.5);
        assert_eq!((e.min_latitude(), e.min_longitude()), (75.5, 165.5));
        assert_eq!((e.max_latitude(), e.max_longitude()), (90.0, 180.0));
        assert_eq!(b.expanded(0.0), b);
    }

    #[test]
    fn expanded_grows_box() {
        let b = sf();
        let e = b.expanded(0.1);
        assert!(e.max_lat - e.min_lat > b.max_lat - b.min_lat);
        assert!(e.max_lon - e.min_lon > b.max_lon - b.min_lon);
        assert!(inside(&e, b.south_west()));
        assert!(inside(&e, b.north_east()));
    }

    #[test]
    fn area_is_plausible_for_san_francisco() {
        // The SF box is roughly 14.5 km x 15 km ≈ 220 km².
        let a = sf().area_km2();
        assert!((150.0..300.0).contains(&a), "got {a}");
    }

    #[test]
    fn display_mentions_both_dimensions() {
        let s = sf().to_string();
        assert!(s.contains("37.7000"));
        assert!(s.contains("-122.5200"));
    }
}
