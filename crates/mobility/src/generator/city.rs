//! Synthetic city model: the spatial backdrop of the mobility simulators.
//!
//! The cabspotting dataset the paper evaluates on covers San Francisco, a
//! city with pronounced activity hotspots (downtown, the Mission, the
//! airport…). [`CityModel`] reproduces the aspects the metrics care about: a
//! bounding box and a set of weighted hotspots around which users stop
//! (producing POIs) and between which they travel (producing coverage).

use crate::error::MobilityError;
use crate::generator::noise::{sample_normal, sample_weighted_index};
use geopriv_geo::{BoundingBox, GeoPoint, LocalProjection, Meters, Point};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A weighted activity hotspot of the synthetic city.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Center of the hotspot.
    pub location: GeoPoint,
    /// Relative popularity (visit probability is proportional to this weight).
    pub weight: f64,
    /// Spatial spread of stops around the center, in meters.
    pub spread: Meters,
}

/// The synthetic city: a bounding box plus weighted hotspots.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::generator::CityModel;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let city = CityModel::san_francisco(12, &mut rng)?;
/// assert_eq!(city.hotspots().len(), 12);
/// let stop = city.sample_stop_location(&mut rng);
/// assert!(city.bounds().expanded(0.1).contains(stop));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityModel {
    bounds: BoundingBox,
    hotspots: Vec<Hotspot>,
    projection: LocalProjection,
}

impl CityModel {
    /// The default San-Francisco-like bounding box (roughly the cabspotting extent).
    pub fn default_bounds() -> BoundingBox {
        BoundingBox::new(37.70, -122.52, 37.83, -122.35).expect("static bounds are valid")
    }

    /// Creates a city over the default San-Francisco bounding box with
    /// `hotspot_count` randomly placed hotspots.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] if `hotspot_count` is zero.
    pub fn san_francisco<R: Rng + ?Sized>(
        hotspot_count: usize,
        rng: &mut R,
    ) -> Result<Self, MobilityError> {
        Self::new(Self::default_bounds(), hotspot_count, rng)
    }

    /// Creates a city over an arbitrary bounding box with `hotspot_count`
    /// randomly placed hotspots.
    ///
    /// Hotspot weights follow a Zipf-like distribution (weight ∝ 1/rank), so
    /// a few hotspots dominate — mirroring the skew of real urban activity.
    /// Hotspot spreads are drawn between 30 m and 400 m, so different places
    /// lose their POIs at different noise levels (this heterogeneity is what
    /// widens the privacy transition band of Figure 1a).
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] if `hotspot_count` is zero.
    pub fn new<R: Rng + ?Sized>(
        bounds: BoundingBox,
        hotspot_count: usize,
        rng: &mut R,
    ) -> Result<Self, MobilityError> {
        if hotspot_count == 0 {
            return Err(MobilityError::InvalidParameter {
                name: "hotspot_count",
                reason: "a city needs at least one hotspot".to_string(),
            });
        }
        let hotspots = (0..hotspot_count)
            .map(|rank| Hotspot {
                location: uniform_point_in(&bounds, rng),
                weight: 1.0 / (rank as f64 + 1.0),
                spread: Meters::new(rng.gen_range(30.0..400.0)),
            })
            .collect();
        Ok(Self { bounds, hotspots, projection: LocalProjection::centered_on(bounds.center()) })
    }

    /// The city's bounding box.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The city's hotspots.
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// The projection centered on the city, shared by the simulators.
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Samples a hotspot according to the popularity weights.
    pub fn sample_hotspot<R: Rng + ?Sized>(&self, rng: &mut R) -> &Hotspot {
        let weights: Vec<f64> = self.hotspots.iter().map(|h| h.weight).collect();
        &self.hotspots[sample_weighted_index(rng, &weights)]
    }

    /// Samples a concrete stop location: a hotspot center plus Gaussian
    /// scatter of that hotspot's spread.
    ///
    /// Different visits to the same hotspot land within a couple hundred
    /// meters of each other — close enough to cluster into the same POI.
    pub fn sample_stop_location<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        let hotspot = self.sample_hotspot(rng);
        let center = self.projection.project(hotspot.location);
        let scattered = Point::new(
            center.x() + sample_normal(rng, 0.0, hotspot.spread.as_f64()),
            center.y() + sample_normal(rng, 0.0, hotspot.spread.as_f64()),
        );
        self.projection.unproject(scattered)
    }

    /// Samples a uniformly distributed point inside the city bounds.
    pub fn sample_uniform_location<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        uniform_point_in(&self.bounds, rng)
    }
}

fn uniform_point_in<R: Rng + ?Sized>(bounds: &BoundingBox, rng: &mut R) -> GeoPoint {
    GeoPoint::clamped(
        rng.gen_range(bounds.min_latitude()..bounds.max_latitude()),
        rng.gen_range(bounds.min_longitude()..bounds.max_longitude()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_hotspot_count() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(CityModel::san_francisco(0, &mut rng).is_err());
        let city = CityModel::san_francisco(5, &mut rng).unwrap();
        assert_eq!(city.hotspots().len(), 5);
    }

    #[test]
    fn hotspots_are_inside_bounds_and_zipf_weighted() {
        let mut rng = StdRng::seed_from_u64(2);
        let city = CityModel::san_francisco(10, &mut rng).unwrap();
        for (i, h) in city.hotspots().iter().enumerate() {
            assert!(city.bounds().contains(h.location));
            assert!((h.weight - 1.0 / (i as f64 + 1.0)).abs() < 1e-12);
            assert!(h.spread.as_f64() >= 30.0 && h.spread.as_f64() <= 400.0);
        }
    }

    #[test]
    fn popular_hotspots_are_sampled_more_often() {
        let mut rng = StdRng::seed_from_u64(3);
        let city = CityModel::san_francisco(5, &mut rng).unwrap();
        let first = city.hotspots()[0].location;
        let last = city.hotspots()[4].location;
        let mut first_count = 0;
        let mut last_count = 0;
        for _ in 0..5_000 {
            let h = city.sample_hotspot(&mut rng);
            if h.location == first {
                first_count += 1;
            } else if h.location == last {
                last_count += 1;
            }
        }
        // Weight ratio is 5:1; allow generous sampling slack.
        assert!(first_count > 3 * last_count, "{first_count} vs {last_count}");
    }

    #[test]
    fn stop_locations_cluster_near_their_hotspot() {
        let mut rng = StdRng::seed_from_u64(4);
        let bounds = CityModel::default_bounds();
        let hotspot =
            Hotspot { location: bounds.center(), weight: 1.0, spread: Meters::new(100.0) };
        let projection = LocalProjection::centered_on(bounds.center());
        let city = CityModel { bounds, hotspots: vec![hotspot], projection };
        for _ in 0..200 {
            let stop = city.sample_stop_location(&mut rng);
            let d = geopriv_geo::distance::haversine(stop, hotspot.location).as_f64();
            assert!(d < 1_000.0, "stop {d} m away from its hotspot");
        }
    }

    #[test]
    fn uniform_locations_cover_the_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let city = CityModel::san_francisco(3, &mut rng).unwrap();
        let points: Vec<GeoPoint> =
            (0..500).map(|_| city.sample_uniform_location(&mut rng)).collect();
        assert!(points.iter().all(|p| city.bounds().contains(*p)));
        // Both halves of the box are hit.
        let mid = city.bounds().center().latitude();
        let north = points.iter().filter(|p| p.latitude() > mid).count();
        assert!(north > 100 && north < 400, "north {north}");
    }
}
