//! The POI-retrieval privacy metric.
//!
//! The paper's privacy objective: "the retrieval in the protected data of at
//! most 10 % of the Points of interest (POIs) of users", quantified by "a
//! privacy metric which quantifies the proportion of actual POIs retrieved
//! from the protected data for each user". Lower is better.

use crate::error::MetricError;
use crate::poi::{Poi, PoiExtractor};
use crate::traits::{DatasetFingerprint, Direction, Metric, MetricValue, PreparedState};
use geopriv_geo::{distance, Meters};
use geopriv_mobility::Dataset;
use serde::{Deserialize, Serialize};

/// Privacy metric: proportion of a user's actual POIs that can still be
/// retrieved from her protected trace.
///
/// For each user the metric:
/// 1. extracts the distinct POIs of the actual trace and of the protected
///    trace with the same [`PoiExtractor`];
/// 2. counts an actual POI as *retrieved* when some protected POI lies within
///    `match_radius` of it (great-circle distance, so wide-area traces are
///    measured correctly);
/// 3. reports `retrieved / total`.
///
/// Users without any actual POI are *excluded* from the dataset-level mean:
/// nothing can be learned about their stops, so counting them as "perfectly
/// private" zeros would bias the average toward privacy. The dataset-level
/// value is the mean over users that have at least one POI — the quantity
/// plotted on the y-axis of Figure 1a. When *no* user has a POI the metric is
/// defined as `0.0` (nothing is retrievable at all).
///
/// The expensive actual-side POI extraction is invariant across evaluations
/// against the same actual dataset; [`Metric::prepare`] computes it
/// once so sweeps and campaigns can amortize it.
///
/// # Examples
///
/// ```
/// use geopriv_metrics::{Metric, PoiRetrieval};
/// use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let actual = TaxiFleetBuilder::new().drivers(3).duration_hours(6.0).build(&mut rng)?;
/// let protected = GeoIndistinguishability::new(Epsilon::new(0.005)?)
///     .protect_dataset(&actual, &mut rng)?;
///
/// let privacy = PoiRetrieval::default().evaluate(&actual, &protected)?;
/// assert!((0.0..=1.0).contains(&privacy.value()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoiRetrieval {
    extractor: PoiExtractor,
    match_radius: Meters,
}

impl Default for PoiRetrieval {
    fn default() -> Self {
        Self { extractor: PoiExtractor::default(), match_radius: Meters::new(200.0) }
    }
}

/// Actual-side state of [`PoiRetrieval`]: the distinct POIs of every actual
/// trace, aligned with the dataset's trace order, plus the fingerprint tying
/// the state to the dataset it was extracted from.
struct PreparedPois {
    per_trace: Vec<Vec<Poi>>,
    fingerprint: DatasetFingerprint,
}

impl PoiRetrieval {
    /// The metric's id/name inside suites and sweep results.
    pub const ID: &'static str = "poi-retrieval";

    /// Creates the metric with an explicit extractor and match radius.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for a non-positive radius.
    pub fn new(extractor: PoiExtractor, match_radius: Meters) -> Result<Self, MetricError> {
        if !(match_radius.as_f64().is_finite() && match_radius.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "match_radius",
                value: match_radius.as_f64(),
                reason: "match radius must be finite and strictly positive",
            });
        }
        Ok(Self { extractor, match_radius })
    }

    /// The POI extractor used on both the actual and protected traces.
    pub fn extractor(&self) -> PoiExtractor {
        self.extractor
    }

    /// The matching radius under which an actual POI counts as retrieved.
    pub fn match_radius(&self) -> Meters {
        self.match_radius
    }

    /// Retrieval proportion for one user: fraction of her actual POIs with a
    /// protected POI within the match radius, by great-circle distance.
    fn retrieval(&self, actual_pois: &[Poi], protected_pois: &[Poi]) -> f64 {
        let radius = self.match_radius.as_f64();
        // Exact prefilter for the pairwise scan: the great-circle distance is
        // at least the meridian distance of the latitude difference, so pairs
        // whose latitudes alone are too far apart skip the trigonometry.
        let max_dlat_deg = radius / (distance::EARTH_RADIUS_M * std::f64::consts::PI / 180.0);
        let retrieved = actual_pois
            .iter()
            .filter(|actual| {
                protected_pois.iter().any(|protected| {
                    (actual.location.latitude() - protected.location.latitude()).abs()
                        <= max_dlat_deg
                        && distance::haversine(actual.location, protected.location).as_f64()
                            <= radius
                })
            })
            .count();
        retrieved as f64 / actual_pois.len() as f64
    }

    /// The shared evaluation body behind both `evaluate` (fresh extraction)
    /// and `evaluate_prepared` (cached extraction) — one code path, so the
    /// two routes are bit-identical by construction.
    fn evaluate_with_pois(
        &self,
        per_trace: &[Vec<Poi>],
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<MetricValue, MetricError> {
        let pairs = actual
            .paired_with(protected)
            .map_err(|e| MetricError::DatasetMismatch { reason: e.to_string() })?;
        // Users without any actual POI are skipped: their retrieval is
        // undefined, and averaging them in as 0.0 would bias the dataset mean
        // toward "perfectly private". The breakdown carries each evaluated
        // user's id, so downstream joins with metrics covering *all* users
        // (area coverage, distortion) align by user instead of by position.
        let mut per_user = Vec::with_capacity(pairs.len());
        for (&(actual_trace, protected_trace), actual_pois) in pairs.iter().zip(per_trace) {
            if actual_pois.is_empty() {
                continue;
            }
            let protected_pois = self.extractor.extract_distinct(protected_trace);
            per_user.push((actual_trace.user(), self.retrieval(actual_pois, &protected_pois)));
        }
        if per_user.is_empty() {
            // No user has a single POI: nothing is retrievable. The breakdown
            // rule stays consistent — excluded users never appear in it — so
            // the defined 0.0 value carries an empty breakdown.
            return Ok(MetricValue::defined_zero());
        }
        MetricValue::from_per_user(per_user)
    }
}

impl Metric for PoiRetrieval {
    fn name(&self) -> &str {
        Self::ID
    }

    fn direction(&self) -> Direction {
        Direction::LowerIsBetter
    }

    fn evaluate(&self, actual: &Dataset, protected: &Dataset) -> Result<MetricValue, MetricError> {
        // Direct path: extract and evaluate without building or verifying a
        // fingerprint — that bookkeeping only pays off when state is reused.
        let per_trace: Vec<Vec<Poi>> =
            actual.iter().map(|t| self.extractor.extract_distinct(t)).collect();
        self.evaluate_with_pois(&per_trace, actual, protected)
    }

    fn prepare(&self, actual: &Dataset) -> Result<PreparedState, MetricError> {
        let per_trace = actual.iter().map(|t| self.extractor.extract_distinct(t)).collect();
        Ok(PreparedState::new(PreparedPois {
            per_trace,
            fingerprint: DatasetFingerprint::of(actual),
        }))
    }

    fn evaluate_prepared(
        &self,
        prepared: &PreparedState,
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<MetricValue, MetricError> {
        let state = prepared.downcast_ref::<PreparedPois>().ok_or_else(|| {
            MetricError::DatasetMismatch {
                reason: "prepared state was not built by poi-retrieval".to_string(),
            }
        })?;
        state.fingerprint.ensure_matches(actual, self.name())?;
        self.evaluate_with_pois(&state.per_trace, actual, protected)
    }

    fn cache_key(&self) -> String {
        format!(
            "poi-retrieval/dwell={}/diameter={}/radius={}",
            self.extractor.min_dwell().as_f64(),
            self.extractor.max_diameter().as_f64(),
            self.match_radius.as_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{GeoPoint, LocalProjection, Seconds};
    use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm, Pipeline};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn taxi_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new().drivers(4).duration_hours(8.0).build(&mut rng).unwrap()
    }

    /// A trace dwelling 30 minutes at `at`, sampled every 30 s.
    fn dwell_trace(user: u64, at: GeoPoint) -> Trace {
        let records: Vec<Record> =
            (0..60).map(|i| Record::new(Seconds::new(i as f64 * 30.0), at)).collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    /// A trace in constant motion: no POI at all.
    fn moving_trace(user: u64) -> Trace {
        let records: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.70 + i as f64 * 0.0004, -122.45).unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    #[test]
    fn construction_validates_radius() {
        assert!(PoiRetrieval::new(PoiExtractor::default(), Meters::new(100.0)).is_ok());
        assert!(PoiRetrieval::new(PoiExtractor::default(), Meters::new(0.0)).is_err());
        assert!(PoiRetrieval::new(PoiExtractor::default(), Meters::new(f64::NAN)).is_err());
        let metric = PoiRetrieval::default();
        assert_eq!(metric.name(), "poi-retrieval");
        assert_eq!(metric.match_radius().as_f64(), 200.0);
        assert_eq!(metric.extractor().max_diameter().as_f64(), 200.0);
        assert!(metric.cache_key().contains("radius=200"));
    }

    #[test]
    fn unprotected_data_has_maximal_retrieval() {
        let actual = taxi_dataset(21);
        let mut rng = StdRng::seed_from_u64(1);
        let protected = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();
        let value = PoiRetrieval::default().evaluate(&actual, &protected).unwrap();
        // Identical data: every actual POI is trivially retrieved.
        assert!(value.value() > 0.99, "got {}", value.value());
    }

    #[test]
    fn heavy_noise_hides_most_pois() {
        let actual = taxi_dataset(22);
        let mut rng = StdRng::seed_from_u64(2);
        // epsilon = 0.0005 -> mean noise 4 km: POIs should be essentially gone.
        let protected = GeoIndistinguishability::new(Epsilon::new(0.0005).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        let value = PoiRetrieval::default().evaluate(&actual, &protected).unwrap();
        assert!(value.value() < 0.15, "got {}", value.value());
    }

    #[test]
    fn retrieval_decreases_monotonically_with_noise() {
        let actual = taxi_dataset(23);
        let evaluate = |eps: f64| {
            let mut rng = StdRng::seed_from_u64(3);
            let protected = GeoIndistinguishability::new(Epsilon::new(eps).unwrap())
                .protect_dataset(&actual, &mut rng)
                .unwrap();
            PoiRetrieval::default().evaluate(&actual, &protected).unwrap().value()
        };
        let low_noise = evaluate(0.5);
        let mid_noise = evaluate(0.01);
        let high_noise = evaluate(0.0005);
        assert!(low_noise >= mid_noise, "{low_noise} vs {mid_noise}");
        assert!(mid_noise >= high_noise, "{mid_noise} vs {high_noise}");
        assert!(low_noise > 0.8);
    }

    #[test]
    fn dataset_without_any_poi_has_a_defined_zero_value() {
        let dataset = Dataset::new(vec![moving_trace(1), moving_trace(2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let protected = Pipeline::new().protect_dataset(&dataset, &mut rng).unwrap();
        let value = PoiRetrieval::default().evaluate(&dataset, &protected).unwrap();
        assert_eq!(value.value(), 0.0);
        // Consistent breakdown rule: users without POIs never appear in it,
        // so the all-excluded case carries an empty breakdown.
        assert!(value.per_user().is_empty());
    }

    /// Regression test for the zero-bias bug: a user with no actual POI used
    /// to contribute 0.0 ("perfectly private") to the dataset mean, dragging
    /// it down. She must be excluded instead.
    #[test]
    fn users_without_pois_are_excluded_from_the_mean() {
        let with_poi = dwell_trace(1, GeoPoint::new(37.76, -122.45).unwrap());
        let without_poi = moving_trace(2);
        let dataset = Dataset::new(vec![with_poi, without_poi]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let released = Pipeline::new().protect_dataset(&dataset, &mut rng).unwrap();

        let value = PoiRetrieval::default().evaluate(&dataset, &released).unwrap();
        // Releasing the truth retrieves 100% of user 1's POIs; user 2 has
        // nothing to retrieve and must not drag the mean to 0.5.
        assert_eq!(value.value(), 1.0, "no-POI user biased the mean");
        // The breakdown only covers users that were actually evaluated — and
        // names them, so nobody has to guess which users were excluded.
        assert_eq!(value.per_user(), &[(UserId::new(1), 1.0)]);
        assert_eq!(value.value_for(UserId::new(2)), None);
    }

    /// Regression test for the projection-anchor bug: distances used to be
    /// measured in a planar frame centered on the user's *first* POI, which
    /// distorts longitudes far away from that anchor. A protected POI 150 m
    /// east of an actual POI 50° of latitude away from the anchor appeared
    /// ~295 m away and was missed. Great-circle matching retrieves it.
    #[test]
    fn wide_area_pois_match_by_true_distance() {
        let south = GeoPoint::new(10.0, 10.0).unwrap();
        let north = GeoPoint::new(60.0, 10.0).unwrap();
        // One user dwelling 30 minutes at each end of a 5500 km trace.
        let mut records: Vec<Record> =
            (0..60).map(|i| Record::new(Seconds::new(i as f64 * 30.0), south)).collect();
        records.extend((60..120).map(|i| Record::new(Seconds::new(i as f64 * 30.0), north)));
        let actual =
            Dataset::new(vec![Trace::new(UserId::new(1), records.clone()).unwrap()]).unwrap();

        // Protected counterpart: every record shifted 150 m east at its own
        // latitude — within the 200 m match radius of both POIs.
        let shift_east = |point: GeoPoint| {
            let projection = LocalProjection::centered_on(point);
            projection.unproject(projection.project(point).translated(150.0, 0.0))
        };
        let protected_records: Vec<Record> =
            records.iter().map(|r| Record::new(r.timestamp(), shift_east(r.location()))).collect();
        let protected =
            Dataset::new(vec![Trace::new(UserId::new(1), protected_records).unwrap()]).unwrap();

        let value = PoiRetrieval::default().evaluate(&actual, &protected).unwrap();
        assert_eq!(value.value(), 1.0, "far-from-anchor POI was not retrieved");
    }

    /// The prepared path must agree bit-for-bit with direct evaluation, and
    /// reject state built for a different dataset.
    #[test]
    fn prepared_evaluation_matches_direct_evaluation() {
        let actual = taxi_dataset(24);
        let mut rng = StdRng::seed_from_u64(6);
        let protected = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        let metric = PoiRetrieval::default();
        let prepared = metric.prepare(&actual).unwrap();
        assert!(!prepared.is_empty());

        let direct = metric.evaluate(&actual, &protected).unwrap();
        let via_prepared = metric.evaluate_prepared(&prepared, &actual, &protected).unwrap();
        assert_eq!(direct, via_prepared);

        // State prepared for a smaller dataset is rejected.
        let smaller = actual.take(2).unwrap();
        let stale = metric.prepare(&smaller).unwrap();
        assert!(matches!(
            metric.evaluate_prepared(&stale, &actual, &protected),
            Err(MetricError::DatasetMismatch { .. })
        ));
        // So is state from a dataset with the same shape but different data.
        let same_shape = taxi_dataset(25);
        let foreign = metric.prepare(&same_shape).unwrap();
        assert!(matches!(
            metric.evaluate_prepared(&foreign, &actual, &protected),
            Err(MetricError::DatasetMismatch { .. })
        ));
        // So is state of the wrong type.
        assert!(matches!(
            metric.evaluate_prepared(&PreparedState::new(7u32), &actual, &protected),
            Err(MetricError::DatasetMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_datasets_are_rejected() {
        let a = taxi_dataset(25);
        let b = a.take(2).unwrap();
        assert!(matches!(
            PoiRetrieval::default().evaluate(&a, &b),
            Err(MetricError::DatasetMismatch { .. })
        ));
    }
}
