//! Synthetic commuter workload.
//!
//! The taxi fleet reproduces the paper's evaluation dataset; the commuter
//! generator exercises the opposite regime the introduction motivates —
//! ordinary LBS users whose traces expose *home and work places*. Each user
//! has a fixed home and workplace; days alternate home-dwell, commute, work-
//! dwell, commute, home-dwell. The resulting POIs are extremely stable,
//! making this the adversary-friendly scenario for the privacy metric.

use crate::dataset::Dataset;
use crate::error::MobilityError;
use crate::generator::city::CityModel;
use crate::generator::noise::{gps_jitter, sample_normal};
use crate::record::{Record, UserId};
use crate::trace::Trace;
use geopriv_geo::{Point, Seconds};
use rand::Rng;

/// Working hours (start, end), in fractional hours of the day.
const WORK_HOURS: (f64, f64) = (9.0, 17.5);

/// Mean commute speed, in m/s.
const SPEED_MEAN_MPS: f64 = 6.0;

/// Standard deviation of the GPS noise, in meters.
const GPS_NOISE_M: f64 = 10.0;

/// Builder for a synthetic commuter dataset.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::generator::CommuterBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let dataset = CommuterBuilder::new().users(4).days(2).build(&mut rng)?;
/// assert_eq!(dataset.user_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommuterBuilder {
    users: usize,
    days: usize,
    sampling_interval: Seconds,
    hotspot_count: usize,
    first_user_id: u64,
}

impl Default for CommuterBuilder {
    fn default() -> Self {
        Self {
            users: 20,
            days: 1,
            sampling_interval: Seconds::new(60.0),
            hotspot_count: 12,
            first_user_id: 0,
        }
    }
}

impl CommuterBuilder {
    /// Creates a builder with the default commuter configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of users to simulate. Default: 20.
    pub fn users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Number of simulated days per user. Default: 1.
    pub fn days(mut self, days: usize) -> Self {
        self.days = days;
        self
    }

    /// GPS sampling interval, in seconds. Default: 60 s.
    pub fn sampling_interval_s(mut self, seconds: f64) -> Self {
        self.sampling_interval = Seconds::new(seconds);
        self
    }

    /// Number of hotspots homes/workplaces are drawn from. Default: 12.
    pub fn hotspots(mut self, count: usize) -> Self {
        self.hotspot_count = count;
        self
    }

    /// First user id to assign. Default: 0.
    pub fn first_user_id(mut self, id: u64) -> Self {
        self.first_user_id = id;
        self
    }

    fn validate(&self) -> Result<(), MobilityError> {
        if self.users == 0 {
            return Err(MobilityError::InvalidParameter {
                name: "users",
                reason: "at least one user is required".to_string(),
            });
        }
        if self.days == 0 {
            return Err(MobilityError::InvalidParameter {
                name: "days",
                reason: "at least one day is required".to_string(),
            });
        }
        if !(self.sampling_interval.as_f64().is_finite() && self.sampling_interval.as_f64() > 0.0) {
            return Err(MobilityError::InvalidParameter {
                name: "sampling_interval",
                reason: "must be finite and strictly positive".to_string(),
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
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] for invalid configuration.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Dataset, MobilityError> {
        self.validate()?;
        let city = CityModel::san_francisco(self.hotspot_count, rng)?;
        let projection = *city.projection();
        let dt = self.sampling_interval.as_f64();
        let day = 86_400.0;

        let traces: Result<Vec<Trace>, MobilityError> = (0..self.users)
            .map(|i| {
                let user = UserId::new(self.first_user_id + i as u64);
                let home = projection.project(city.sample_stop_location(rng));
                let work = projection.project(city.sample_stop_location(rng));
                let speed = sample_normal(rng, SPEED_MEAN_MPS, 1.0).max(1.0);
                let commute_time = home.distance_to(work).as_f64() / speed;

                let mut records: Vec<Record> = Vec::new();
                let emit = |records: &mut Vec<Record>, t: f64, p: Point, rng: &mut R| {
                    let observed = gps_jitter(rng, p, GPS_NOISE_M);
                    records.push(Record::new(Seconds::new(t), projection.unproject(observed)));
                };

                for d in 0..self.days {
                    let day_start = d as f64 * day;
                    let leave_home = day_start + WORK_HOURS.0 * 3_600.0 - commute_time;
                    let arrive_work = day_start + WORK_HOURS.0 * 3_600.0;
                    let leave_work = day_start + WORK_HOURS.1 * 3_600.0;
                    let arrive_home = leave_work + commute_time;
                    let day_end = day_start + day;

                    let mut t = day_start;
                    while t < day_end {
                        let position = if t < leave_home {
                            home
                        } else if t < arrive_work {
                            let progress = ((t - leave_home) / commute_time).clamp(0.0, 1.0);
                            home.lerp(work, progress)
                        } else if t < leave_work {
                            work
                        } else if t < arrive_home {
                            let progress = ((t - leave_work) / commute_time).clamp(0.0, 1.0);
                            work.lerp(home, progress)
                        } else {
                            home
                        };
                        emit(&mut records, t, position, rng);
                        t += dt;
                    }
                }
                Trace::new(user, records)
            })
            .collect();
        Dataset::new(traces?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(CommuterBuilder::new().users(0).build(&mut rng).is_err());
        assert!(CommuterBuilder::new().days(0).build(&mut rng).is_err());
        assert!(CommuterBuilder::new().sampling_interval_s(0.0).build(&mut rng).is_err());
        assert!(CommuterBuilder::new().hotspots(0).build(&mut rng).is_err());
    }

    #[test]
    fn one_day_one_user_has_expected_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let dataset = CommuterBuilder::new()
            .users(1)
            .days(1)
            .sampling_interval_s(120.0)
            .build(&mut rng)
            .unwrap();
        let trace = dataset.trace_at(0);
        // 86400 / 120 = 720 records.
        assert_eq!(trace.len(), 720);
        assert!(trace.duration().to_hours() > 23.5);

        // The user dwells at two dominant locations (home and work): the two
        // most-visited 200 m cells should hold the vast majority of records.
        let bounds = dataset.bounding_box().unwrap().expanded(0.1);
        let grid = geopriv_geo::Grid::new(bounds, geopriv_geo::Meters::new(200.0)).unwrap();
        let mut counts: Vec<usize> =
            grid.histogram(trace.iter().map(|r| r.location())).into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_two: usize = counts.iter().take(2).sum();
        assert!(
            top_two as f64 / trace.len() as f64 > 0.7,
            "top-2 cells only cover {top_two} of {} records",
            trace.len()
        );
    }

    #[test]
    fn multiple_days_repeat_the_routine() {
        let mut rng = StdRng::seed_from_u64(3);
        let dataset = CommuterBuilder::new()
            .users(2)
            .days(3)
            .sampling_interval_s(300.0)
            .build(&mut rng)
            .unwrap();
        for trace in &dataset {
            assert!(trace.duration().to_hours() > 70.0);
            // Radius of gyration stays city-scale (home/work are fixed).
            assert!(trace.radius_of_gyration().to_kilometers() < 20.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            CommuterBuilder::new().users(2).days(1).build(&mut rng).unwrap()
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }
}
