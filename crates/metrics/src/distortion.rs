//! Spatial-distortion metrics.
//!
//! Auxiliary metrics complementing the paper's two headline metrics: the raw
//! point-wise displacement introduced by an LPPM ([`MeanDistortion`], in
//! meters) and its normalization into a `[0, 1]` utility score
//! ([`DistortionUtility`]). They are used by the ablation benches and as an
//! alternative utility plug-in demonstrating the framework's modularity.

use crate::error::MetricError;
use crate::traits::{Direction, Metric, MetricValue};
use geopriv_geo::{distance, Meters};
use geopriv_mobility::{Dataset, TraceView};
use serde::{Deserialize, Serialize};

/// Mean point-wise displacement between an actual trace and its protected
/// counterpart, in meters.
///
/// Records are matched by timestamp (mechanisms that drop records, such as
/// temporal down-sampling, are compared only on the surviving timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MeanDistortion;

impl MeanDistortion {
    /// Creates the metric.
    pub fn new() -> Self {
        Self
    }

    /// Mean displacement for a single pair of traces, in meters.
    ///
    /// Returns zero when no timestamps match.
    pub fn of_traces(actual: TraceView<'_>, protected: TraceView<'_>) -> Meters {
        let mut total = 0.0;
        let mut count = 0usize;
        let mut protected_iter = protected.iter().peekable();
        for a in actual {
            // Advance the protected cursor until its timestamp reaches a's.
            while let Some(p) = protected_iter.peek() {
                if p.timestamp() < a.timestamp() {
                    protected_iter.next();
                } else {
                    break;
                }
            }
            if let Some(p) = protected_iter.peek() {
                if (p.timestamp().as_f64() - a.timestamp().as_f64()).abs() < 1e-9 {
                    total += distance::haversine(a.location(), p.location()).as_f64();
                    count += 1;
                }
            }
        }
        if count == 0 {
            Meters::new(0.0)
        } else {
            Meters::new(total / count as f64)
        }
    }

    /// Mean displacement over a whole dataset, in meters.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::DatasetMismatch`] when the datasets are not aligned.
    pub fn of_datasets(
        &self,
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<Meters, MetricError> {
        let pairs = actual
            .paired_with(protected)
            .map_err(|e| MetricError::DatasetMismatch { reason: e.to_string() })?;
        let per_user: Vec<f64> =
            pairs.iter().map(|&(a, p)| Self::of_traces(a, p).as_f64()).collect();
        Ok(Meters::new(per_user.iter().sum::<f64>() / per_user.len() as f64))
    }
}

/// Utility metric derived from spatial distortion: `u = 1 / (1 + d / scale)`
/// where `d` is the per-user mean displacement.
///
/// `scale` is the displacement at which utility has dropped to one half
/// (200 m — a city block — by default).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistortionUtility {
    scale: Meters,
}

impl Default for DistortionUtility {
    fn default() -> Self {
        Self { scale: Meters::new(200.0) }
    }
}

impl DistortionUtility {
    /// The metric's id/name inside suites and sweep results.
    pub const ID: &'static str = "distortion-utility";

    /// Creates the metric with an explicit half-utility displacement scale.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for a non-positive scale.
    pub fn new(scale: Meters) -> Result<Self, MetricError> {
        if !(scale.as_f64().is_finite() && scale.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "scale",
                value: scale.as_f64(),
                reason: "distortion scale must be finite and strictly positive",
            });
        }
        Ok(Self { scale })
    }

    /// The half-utility displacement scale.
    pub fn scale(&self) -> Meters {
        self.scale
    }
}

impl Metric for DistortionUtility {
    fn name(&self) -> &str {
        Self::ID
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    fn evaluate(&self, actual: &Dataset, protected: &Dataset) -> Result<MetricValue, MetricError> {
        let pairs = actual
            .paired_with(protected)
            .map_err(|e| MetricError::DatasetMismatch { reason: e.to_string() })?;
        let per_user: Vec<_> = pairs
            .iter()
            .map(|&(a, p)| {
                let d = MeanDistortion::of_traces(a, p).as_f64();
                (a.user(), 1.0 / (1.0 + d / self.scale.as_f64()))
            })
            .collect();
        MetricValue::from_per_user(per_user)
    }

    // Every quantity this metric computes is pairwise (actual record vs
    // protected record matched by timestamp), so there is no actual-only
    // state worth preparing: the default passthrough `prepare` applies.
    fn cache_key(&self) -> String {
        format!("distortion-utility/scale={}", self.scale.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{GeoPoint, Seconds};
    use geopriv_lppm::{Epsilon, GeoIndistinguishability, Identity, Lppm, TemporalDownsampling};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::{Record, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn taxi_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new().drivers(3).duration_hours(3.0).build(&mut rng).unwrap()
    }

    #[test]
    fn identity_has_zero_distortion_and_full_utility() {
        let actual = taxi_dataset(41);
        let mut rng = StdRng::seed_from_u64(1);
        let protected = Identity::new().protect_dataset(&actual, &mut rng).unwrap();
        assert!(MeanDistortion::new().of_datasets(&actual, &protected).unwrap().as_f64() < 1e-9);
        let u = DistortionUtility::default().evaluate(&actual, &protected).unwrap();
        assert!((u.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn geoi_distortion_tracks_two_over_epsilon() {
        let actual = taxi_dataset(42);
        let mut rng = StdRng::seed_from_u64(2);
        let eps = 0.01;
        let protected = GeoIndistinguishability::new(Epsilon::new(eps).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        let d = MeanDistortion::new().of_datasets(&actual, &protected).unwrap().as_f64();
        let expected = 2.0 / eps;
        assert!((d - expected).abs() / expected < 0.2, "distortion {d} expected {expected}");
    }

    #[test]
    fn distortion_utility_is_half_at_the_scale() {
        // Construct a protected trace exactly 300 m east of the actual one.
        let base = GeoPoint::new(37.77, -122.42).unwrap();
        let records: Vec<Record> =
            (0..10).map(|i| Record::new(Seconds::new(i as f64 * 60.0), base)).collect();
        let actual =
            Dataset::new(vec![
                geopriv_mobility::Trace::new(UserId::new(1), records.clone()).unwrap()
            ])
            .unwrap();
        let proj = geopriv_geo::LocalProjection::centered_on(base);
        let moved = proj.unproject(proj.project(base).translated(300.0, 0.0));
        let protected_records: Vec<Record> =
            records.iter().map(|r| r.with_location(moved)).collect();
        let protected =
            Dataset::new(vec![
                geopriv_mobility::Trace::new(UserId::new(1), protected_records).unwrap()
            ])
            .unwrap();

        let u = DistortionUtility::new(Meters::new(300.0))
            .unwrap()
            .evaluate(&actual, &protected)
            .unwrap();
        assert!((u.value() - 0.5).abs() < 0.01, "got {}", u.value());
        let d = MeanDistortion::new().of_datasets(&actual, &protected).unwrap();
        assert!((d.as_f64() - 300.0).abs() < 2.0);
    }

    #[test]
    fn timestamp_matching_handles_dropped_records() {
        let actual = taxi_dataset(43);
        let mut rng = StdRng::seed_from_u64(3);
        let downsampled =
            TemporalDownsampling::new(4).unwrap().protect_dataset(&actual, &mut rng).unwrap();
        // Same coordinates on surviving timestamps: distortion is zero.
        let d = MeanDistortion::new().of_datasets(&actual, &downsampled).unwrap();
        assert!(d.as_f64() < 1e-9, "got {}", d.as_f64());
    }

    #[test]
    fn validation_and_mismatch_errors() {
        assert!(DistortionUtility::new(Meters::new(0.0)).is_err());
        assert!(DistortionUtility::new(Meters::new(-5.0)).is_err());
        let a = taxi_dataset(44);
        let b = a.take(1).unwrap();
        assert!(MeanDistortion::new().of_datasets(&a, &b).is_err());
        assert!(DistortionUtility::default().evaluate(&a, &b).is_err());
        assert_eq!(DistortionUtility::default().name(), "distortion-utility");
        assert_eq!(DistortionUtility::default().scale().as_f64(), 200.0);
    }
}
