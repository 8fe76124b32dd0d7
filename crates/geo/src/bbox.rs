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
/// assert!(sf.contains(GeoPoint::new(37.7749, -122.4194)?));
/// assert!(!sf.contains(GeoPoint::new(40.0, -122.4)?));
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

    /// Returns `true` if `point` lies inside the box (inclusive of edges).
    pub fn contains(&self, point: GeoPoint) -> bool {
        (self.min_lat..=self.max_lat).contains(&point.latitude())
            && (self.min_lon..=self.max_lon).contains(&point.longitude())
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

    /// Returns the intersection with `other`, or `None` if they do not overlap.
    pub fn intersection(&self, other: &BoundingBox) -> Option<BoundingBox> {
        let min_lat = self.min_lat.max(other.min_lat);
        let min_lon = self.min_lon.max(other.min_lon);
        let max_lat = self.max_lat.min(other.max_lat);
        let max_lon = self.max_lon.min(other.max_lon);
        if min_lat < max_lat && min_lon < max_lon {
            Some(BoundingBox { min_lat, min_lon, max_lat, max_lon })
        } else {
            None
        }
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
        assert!(b.contains(GeoPoint::new(37.7749, -122.4194).unwrap()));
        assert!(b.contains(b.south_west()));
        assert!(b.contains(b.north_east()));
        assert!(b.contains(b.center()));
        assert!(!b.contains(GeoPoint::new(37.0, -122.4).unwrap()));
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
            assert!(b.contains(p));
        }
        assert!(BoundingBox::enclosing(std::iter::empty()).is_err());
    }

    #[test]
    fn enclosing_single_point_pads() {
        let p = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = BoundingBox::enclosing([p]).unwrap();
        assert!(b.contains(p));
        assert!(b.max_lat > b.min_lat);
        assert!(b.max_lon > b.min_lon);
    }

    #[test]
    fn expanded_grows_box() {
        let b = sf();
        let e = b.expanded(0.1);
        assert!(e.max_lat - e.min_lat > b.max_lat - b.min_lat);
        assert!(e.max_lon - e.min_lon > b.max_lon - b.min_lon);
        assert!(e.contains(b.south_west()));
        assert!(e.contains(b.north_east()));
    }

    #[test]
    fn area_is_plausible_for_san_francisco() {
        // The SF box is roughly 14.5 km x 15 km ≈ 220 km².
        let a = sf().area_km2();
        assert!((150.0..300.0).contains(&a), "got {a}");
    }

    #[test]
    fn intersection_logic() {
        let a = BoundingBox::new(37.0, -122.0, 38.0, -121.0).unwrap();
        let b = BoundingBox::new(37.5, -121.5, 38.5, -120.5).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.min_latitude(), 37.5);
        assert_eq!(i.max_latitude(), 38.0);
        assert_eq!(i.min_longitude(), -121.5);
        assert_eq!(i.max_longitude(), -121.0);

        let c = BoundingBox::new(40.0, -100.0, 41.0, -99.0).unwrap();
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn display_mentions_both_dimensions() {
        let s = sf().to_string();
        assert!(s.contains("37.7000"));
        assert!(s.contains("-122.5200"));
    }
}
