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
use geopriv_geo::{GeoPoint, Meters, Point, Seconds};
use rand::Rng;

/// Shortest stop a driver makes, in seconds (16 min): shorter stops are
/// stretched to it so that they remain detectable POIs.
const STOP_MIN_DURATION_S: f64 = 16.0 * 60.0;

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
    speed_mean_mps: f64,
    speed_std_mps: f64,
    stop_mean_duration: Seconds,
    stop_probability: f64,
    gps_noise: Meters,
    hotspot_count: usize,
    hotspot_bias: f64,
    first_user_id: u64,
    city: Option<CityModel>,
}

impl Default for TaxiFleetBuilder {
    fn default() -> Self {
        Self {
            drivers: 50,
            duration: Seconds::from_hours(24.0),
            sampling_interval: Seconds::new(30.0),
            speed_mean_mps: 8.0,
            speed_std_mps: 2.0,
            stop_mean_duration: Seconds::from_minutes(25.0),
            stop_probability: 0.55,
            gps_noise: Meters::new(8.0),
            hotspot_count: 15,
            hotspot_bias: 0.85,
            first_user_id: 0,
            city: None,
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

    /// Mean and standard deviation of driving speed, in m/s. Default: 8 ± 2 m/s.
    pub fn speed_mps(mut self, mean: f64, std_dev: f64) -> Self {
        self.speed_mean_mps = mean;
        self.speed_std_mps = std_dev;
        self
    }

    /// Mean duration of a stop, in minutes. Default: 25 min.
    ///
    /// Stops shorter than 16 min are stretched to 16 min so they remain
    /// detectable POIs.
    pub fn stop_mean_minutes(mut self, minutes: f64) -> Self {
        self.stop_mean_duration = Seconds::from_minutes(minutes);
        self
    }

    /// Probability that a driver stops (dwells) after reaching a destination.
    /// Default: 0.55.
    pub fn stop_probability(mut self, probability: f64) -> Self {
        self.stop_probability = probability;
        self
    }

    /// Standard deviation of the GPS measurement noise, in meters. Default: 8 m.
    pub fn gps_noise_m(mut self, meters: f64) -> Self {
        self.gps_noise = Meters::new(meters);
        self
    }

    /// Number of activity hotspots in the synthetic city. Default: 15.
    pub fn hotspots(mut self, count: usize) -> Self {
        self.hotspot_count = count;
        self
    }

    /// Probability that a trip destination is a hotspot rather than a
    /// uniformly random street location. Default: 0.85.
    pub fn hotspot_bias(mut self, bias: f64) -> Self {
        self.hotspot_bias = bias;
        self
    }

    /// First user id to assign; drivers get consecutive ids. Default: 0.
    pub fn first_user_id(mut self, id: u64) -> Self {
        self.first_user_id = id;
        self
    }

    /// Uses an explicit city model instead of generating one.
    pub fn city(mut self, city: CityModel) -> Self {
        self.city = Some(city);
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
        positive("speed_mean", self.speed_mean_mps)?;
        positive("stop_mean_duration", self.stop_mean_duration.as_f64())?;
        if !(0.0..=1.0).contains(&self.stop_probability) {
            return Err(MobilityError::InvalidParameter {
                name: "stop_probability",
                reason: format!("must be in [0, 1], got {}", self.stop_probability),
            });
        }
        if !(0.0..=1.0).contains(&self.hotspot_bias) {
            return Err(MobilityError::InvalidParameter {
                name: "hotspot_bias",
                reason: format!("must be in [0, 1], got {}", self.hotspot_bias),
            });
        }
        if self.gps_noise.as_f64() < 0.0 || !self.gps_noise.is_finite() {
            return Err(MobilityError::InvalidParameter {
                name: "gps_noise",
                reason: "must be finite and non-negative".to_string(),
            });
        }
        if self.hotspot_count == 0 {
            return Err(MobilityError::InvalidParameter {
                name: "hotspot_count",
                reason: "at least one hotspot is required".to_string(),
            });
        }
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
        let city = match &self.city {
            Some(c) => c.clone(),
            None => CityModel::san_francisco(self.hotspot_count, rng)?,
        };
        let traces: Result<Vec<Trace>, MobilityError> = (0..self.drivers)
            .map(|i| self.simulate_driver(UserId::new(self.first_user_id + i as u64), &city, rng))
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
        let noise = self.gps_noise.as_f64();

        let mut records: Vec<Record> = Vec::with_capacity((horizon / dt) as usize + 1);
        let mut time = 0.0;
        let mut position: Point = projection.project(city.sample_stop_location(rng));

        let emit = |records: &mut Vec<Record>, time: f64, position: Point, rng: &mut R| {
            let observed = gps_jitter(rng, position, noise);
            records.push(Record::new(Seconds::new(time), projection.unproject(observed)));
        };

        // Drivers begin their shift stopped at a hotspot, so even short
        // simulations contain at least one POI-grade stop.
        let initial_dwell = STOP_MIN_DURATION_S
            .max(sample_exponential(rng, self.stop_mean_duration.as_f64()))
            .min(horizon);
        while time <= initial_dwell.min(horizon) {
            emit(&mut records, time, position, rng);
            time += dt;
        }

        while time <= horizon {
            // Choose the next destination.
            let destination_geo: GeoPoint = if rng.gen_bool(self.hotspot_bias) {
                city.sample_stop_location(rng)
            } else {
                city.sample_uniform_location(rng)
            };
            let destination = projection.project(destination_geo);

            // Drive there in straight-line segments at a per-trip speed.
            let speed = sample_normal(rng, self.speed_mean_mps, self.speed_std_mps).max(1.0);
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
            if rng.gen_bool(self.stop_probability) {
                let dwell = STOP_MIN_DURATION_S
                    .max(sample_exponential(rng, self.stop_mean_duration.as_f64()));
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
        assert!(TaxiFleetBuilder::new().speed_mps(0.0, 1.0).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().stop_probability(1.5).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().hotspot_bias(-0.1).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().gps_noise_m(f64::NAN).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().hotspots(0).build(&mut rng).is_err());
        assert!(TaxiFleetBuilder::new().stop_mean_minutes(0.0).build(&mut rng).is_err());
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
                assert!(bounds.contains(record.location()), "record outside city: {record}");
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
    fn first_user_id_offsets_users() {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = TaxiFleetBuilder::new()
            .drivers(2)
            .duration_hours(1.0)
            .first_user_id(10)
            .build(&mut rng)
            .unwrap();
        assert_eq!(dataset.users(), vec![UserId::new(10), UserId::new(11)]);
    }

    #[test]
    fn custom_city_is_respected() {
        let mut rng = StdRng::seed_from_u64(6);
        let bounds = geopriv_geo::BoundingBox::new(48.80, 2.25, 48.90, 2.42).unwrap(); // Paris
        let city = CityModel::new(bounds, 8, &mut rng).unwrap();
        let dataset = TaxiFleetBuilder::new()
            .drivers(2)
            .duration_hours(2.0)
            .city(city)
            .build(&mut rng)
            .unwrap();
        let expanded = bounds.expanded(0.2);
        for trace in &dataset {
            for record in trace {
                assert!(expanded.contains(record.location()));
            }
        }
    }
}
