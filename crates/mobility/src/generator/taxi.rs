//! Synthetic taxi-fleet workload (stand-in for the cabspotting dataset).
//!
//! The paper's evaluation protects "mobility traces of taxi drivers around
//! San Francisco". That dataset is not redistributable, so this module
//! simulates the behaviours the privacy/utility metrics depend on:
//!
//! * drivers alternate **trips** (straight-line drives at realistic city
//!   speeds, GPS-sampled every few tens of seconds with measurement noise)
//!   and **stops** (dwelling several minutes at an activity hotspot — these
//!   stops are exactly what the POI extractor later recovers);
//! * destinations are drawn from weighted hotspots, so drivers repeatedly
//!   return to a handful of meaningful places (home plate, taxi ranks,
//!   downtown), giving each user a stable set of POIs;
//! * coverage spans a realistic fraction of the city, driving the
//!   area-coverage utility metric.

use crate::dataset::Dataset;
use crate::error::MobilityError;
use crate::generator::city::CityModel;
use crate::generator::noise::{gps_jitter, sample_exponential, sample_normal};
use crate::record::{Record, UserId};
use crate::trace::Trace;
use geopriv_geo::{GeoPoint, Point, Seconds};
use rand::Rng;

/// Shortest stop a driver makes, in seconds (16 min): shorter stops are
/// stretched to it so that they remain detectable POIs.
const STOP_MIN_DURATION_S: f64 = 16.0 * 60.0;

/// Mean duration of a stop, in seconds (25 min).
const STOP_MEAN_DURATION_S: f64 = 25.0 * 60.0;

/// Mean and standard deviation of a trip's driving speed, in m/s.
const SPEED_MPS: (f64, f64) = (8.0, 2.0);

/// Standard deviation of the GPS measurement noise, in meters.
const GPS_NOISE_M: f64 = 8.0;

/// Probability that a driver stops (dwells) after reaching a destination.
const STOP_PROBABILITY: f64 = 0.55;

/// Number of activity hotspots in the synthetic city.
const HOTSPOTS: usize = 15;

/// Probability that a trip destination is a hotspot rather than a uniformly
/// random street location.
const HOTSPOT_BIAS: f64 = 0.85;

/// Builder for a synthetic taxi-fleet dataset.
///
/// The defaults produce a dataset comparable (in structure, not size) to the
/// slice of cabspotting the paper uses: tens of drivers observed for a day at
/// a ~30 s sampling period.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let dataset = TaxiFleetBuilder::new()
///     .drivers(5)
///     .duration_hours(6.0)
///     .sampling_interval_s(30.0)
///     .build(&mut rng)?;
/// assert_eq!(dataset.user_count(), 5);
/// assert!(dataset.record_count() > 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiFleetBuilder {
    drivers: usize,
    duration: Seconds,
    sampling_interval: Seconds,
}

impl Default for TaxiFleetBuilder {
    fn default() -> Self {
        Self {
            drivers: 50,
            duration: Seconds::from_hours(24.0),
            sampling_interval: Seconds::new(30.0),
        }
    }
}

impl TaxiFleetBuilder {
    /// Creates a builder with the default fleet configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of drivers (users) to simulate. Default: 50.
    pub fn drivers(mut self, drivers: usize) -> Self {
        self.drivers = drivers;
        self
    }

    /// Observation duration per driver, in hours. Default: 24 h.
    pub fn duration_hours(mut self, hours: f64) -> Self {
        self.duration = Seconds::from_hours(hours);
        self
    }

    /// GPS sampling interval, in seconds. Default: 30 s.
    pub fn sampling_interval_s(mut self, seconds: f64) -> Self {
        self.sampling_interval = Seconds::new(seconds);
        self
    }

    fn validate(&self) -> Result<(), MobilityError> {
        fn positive(name: &'static str, value: f64) -> Result<(), MobilityError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(MobilityError::InvalidParameter {
                    name,
                    reason: format!("must be finite and strictly positive, got {value}"),
                })
            }
        }
        if self.drivers == 0 {
            return Err(MobilityError::InvalidParameter {
                name: "drivers",
                reason: "at least one driver is required".to_string(),
            });
        }
        positive("duration", self.duration.as_f64())?;
        positive("sampling_interval", self.sampling_interval.as_f64())?;
        Ok(())
    }

    /// Generates the dataset.
    ///
    /// The same builder with the same seeded RNG produces the same dataset,
    /// which is how the reproduction harness keeps figures deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] for invalid configuration.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Dataset, MobilityError> {
        self.validate()?;
        let city = CityModel::san_francisco(HOTSPOTS, rng)?;
        let traces: Result<Vec<Trace>, MobilityError> = (0..self.drivers)
            .map(|i| self.simulate_driver(UserId::new(i as u64), &city, rng))
            .collect();
        Dataset::new(traces?)
    }

    fn simulate_driver<R: Rng + ?Sized>(
        &self,
        user: UserId,
        city: &CityModel,
        rng: &mut R,
    ) -> Result<Trace, MobilityError> {
        let projection = *city.projection();
        let dt = self.sampling_interval.as_f64();
        let horizon = self.duration.as_f64();

        let mut records: Vec<Record> = Vec::with_capacity((horizon / dt) as usize + 1);
        let mut time = 0.0;
        let mut position: Point = projection.project(city.sample_stop_location(rng));

        let emit = |records: &mut Vec<Record>, time: f64, position: Point, rng: &mut R| {
            let observed = gps_jitter(rng, position, GPS_NOISE_M);
            records.push(Record::new(Seconds::new(time), projection.unproject(observed)));
        };

        // Drivers begin their shift stopped at a hotspot, so even short
        // simulations contain at least one POI-grade stop.
        let initial_dwell =
            STOP_MIN_DURATION_S.max(sample_exponential(rng, STOP_MEAN_DURATION_S)).min(horizon);
        while time <= initial_dwell.min(horizon) {
            emit(&mut records, time, position, rng);
            time += dt;
        }

        while time <= horizon {
            // Choose the next destination.
            let destination_geo: GeoPoint = if rng.gen_bool(HOTSPOT_BIAS) {
                city.sample_stop_location(rng)
            } else {
                city.sample_uniform_location(rng)
            };
            let destination = projection.project(destination_geo);

            // Drive there in straight-line segments at a per-trip speed.
            let speed = sample_normal(rng, SPEED_MPS.0, SPEED_MPS.1).max(1.0);
            let distance = position.distance_to(destination).as_f64();
            let travel_time = distance / speed;
            let start_time = time;
            let start_position = position;
            while time <= (start_time + travel_time).min(horizon) {
                let progress = if travel_time > 0.0 {
                    ((time - start_time) / travel_time).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                position = start_position.lerp(destination, progress);
                emit(&mut records, time, position, rng);
                time += dt;
            }
            position = destination;
            if time > horizon {
                break;
            }

            // Possibly dwell at the destination (producing a POI-grade stop).
            if rng.gen_bool(STOP_PROBABILITY) {
                let dwell = STOP_MIN_DURATION_S.max(sample_exponential(rng, STOP_MEAN_DURATION_S));
                let stop_end = (time + dwell).min(horizon);
                while time <= stop_end {
                    emit(&mut records, time, position, rng);
                    time += dt;
                }
            }
        }

        Trace::new(user, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fleet(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new()
            .drivers(3)
            .duration_hours(4.0)
            .sampling_interval_s(30.0)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(TaxiFleetBuilder::new().drivers(0).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().duration_hours(0.0).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().sampling_interval_s(-1.0).build(&mut rng).is_err());
    }

    #[test]
    fn fleet_has_expected_shape() {
        let dataset = small_fleet(7);
        assert_eq!(dataset.user_count(), 3);
        assert_eq!(dataset.len(), 3);
        // 4 hours at 30 s sampling is at most ~480 records per driver, and the
        // simulator emits nearly continuously.
        for trace in &dataset {
            assert!(trace.len() > 200, "trace has only {} records", trace.len());
            assert!(trace.len() < 700);
            assert!(trace.duration().to_hours() <= 4.01);
            assert!(trace.duration().to_hours() > 3.5);
            assert_eq!(trace.median_sampling_interval().as_f64(), 30.0);
        }
    }

    #[test]
    fn records_stay_in_a_city_scale_area() {
        let dataset = small_fleet(11);
        let bounds = CityModel::default_bounds().expanded(0.2);
        for trace in &dataset {
            for record in trace {
                let (lat, lon) = (record.location().latitude(), record.location().longitude());
                let inside = (bounds.min_latitude()..=bounds.max_latitude()).contains(&lat)
                    && (bounds.min_longitude()..=bounds.max_longitude()).contains(&lon);
                assert!(inside, "record outside city: {record}");
            }
        }
    }

    #[test]
    fn drivers_actually_move_and_stop() {
        let dataset = small_fleet(13);
        for trace in &dataset {
            // They cover several kilometers...
            assert!(trace.travelled_distance().to_kilometers() > 2.0);
            // ...but also spend long intervals (stops) nearly still: count
            // consecutive-record displacements under 30 m.
            let locations = trace.locations();
            let still = locations
                .windows(2)
                .filter(|w| geopriv_geo::distance::haversine(w[0], w[1]).as_f64() < 30.0)
                .count();
            assert!(
                still as f64 / locations.len() as f64 > 0.2,
                "driver never dwells: {} still of {}",
                still,
                locations.len()
            );
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_dataset() {
        let a = small_fleet(99);
        let b = small_fleet(99);
        assert_eq!(a, b);
        let c = small_fleet(100);
        assert_ne!(a, c);
    }

    #[test]
    fn drivers_are_numbered_from_zero() {
        let dataset = small_fleet(5);
        assert_eq!(dataset.users(), vec![UserId::new(0), UserId::new(1), UserId::new(2)]);
    }
}
