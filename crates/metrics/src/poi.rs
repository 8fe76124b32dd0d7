//! Point-of-interest (POI) extraction.
//!
//! The paper defines POIs as "meaningful locations where a user made a
//! significant stop". [`PoiExtractor`] implements the classic stay-point
//! detection algorithm (Li et al., 2008; the same family used by the authors'
//! evaluation tooling): a POI is the centroid of a maximal run of consecutive
//! records that stay within `max_diameter` of the run's first record for at
//! least `min_dwell` time.

use crate::error::MetricError;
use geopriv_geo::{distance, GeoPoint, LocalProjection, Meters, Point, Seconds};
use geopriv_mobility::TraceView;
use serde::{Deserialize, Serialize};

/// A point of interest: a significant stop of one user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poi {
    /// Centroid of the stop.
    pub location: GeoPoint,
    /// Timestamp of the first record of the stop.
    pub start: Seconds,
    /// Timestamp of the last record of the stop.
    pub end: Seconds,
    /// Number of records forming the stop.
    pub record_count: usize,
}

impl Poi {
    /// Duration of the stop.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// Stay-point POI extractor.
///
/// The defaults (15 min dwell within a 200 m diameter) follow the values
/// commonly used on the cabspotting dataset and match the scale of the
/// paper's privacy objective ("retrieval of at most 10 % of the POIs").
///
/// # Examples
///
/// ```
/// use geopriv_metrics::PoiExtractor;
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let dataset = TaxiFleetBuilder::new().drivers(1).duration_hours(8.0).build(&mut rng)?;
/// let extractor = PoiExtractor::default();
/// let pois = extractor.extract(dataset.trace_at(0));
/// assert!(!pois.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoiExtractor {
    min_dwell: Seconds,
    max_diameter: Meters,
}

impl Default for PoiExtractor {
    fn default() -> Self {
        Self { min_dwell: Seconds::from_minutes(15.0), max_diameter: Meters::new(200.0) }
    }
}

impl PoiExtractor {
    /// Creates an extractor with explicit clustering thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for non-positive thresholds.
    pub fn new(min_dwell: Seconds, max_diameter: Meters) -> Result<Self, MetricError> {
        if !(min_dwell.as_f64().is_finite() && min_dwell.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "min_dwell",
                value: min_dwell.as_f64(),
                reason: "minimum dwell time must be finite and strictly positive",
            });
        }
        if !(max_diameter.as_f64().is_finite() && max_diameter.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "max_diameter",
                value: max_diameter.as_f64(),
                reason: "maximum stop diameter must be finite and strictly positive",
            });
        }
        Ok(Self { min_dwell, max_diameter })
    }

    /// Minimum dwell time for a stop to count as a POI.
    pub fn min_dwell(&self) -> Seconds {
        self.min_dwell
    }

    /// Maximum spatial extent of a stop.
    pub fn max_diameter(&self) -> Meters {
        self.max_diameter
    }

    /// Extracts the POIs of a trace, in chronological order.
    pub fn extract(&self, trace: TraceView<'_>) -> Vec<Poi> {
        let n = trace.len();
        let mut pois = Vec::new();
        if n == 0 {
            return pois;
        }
        let timestamps = trace.timestamps();
        let projection = LocalProjection::centered_on(trace.first().location());
        let projected: Vec<Point> =
            trace.iter().map(|r| projection.project(r.location())).collect();

        let mut i = 0;
        while i < n {
            // Extend the candidate stay as long as records remain within
            // max_diameter of the anchor record i.
            let mut j = i + 1;
            while j < n
                && projected[j].distance_to(projected[i]).as_f64() <= self.max_diameter.as_f64()
            {
                j += 1;
            }
            // Records i..j stay near the anchor; check the dwell duration.
            let dwell = Seconds::new(timestamps[j - 1]) - Seconds::new(timestamps[i]);
            if dwell >= self.min_dwell {
                let centroid_planar =
                    geopriv_geo::point::centroid(&projected[i..j]).expect("run is non-empty");
                pois.push(Poi {
                    location: projection.unproject(centroid_planar),
                    start: Seconds::new(timestamps[i]),
                    end: Seconds::new(timestamps[j - 1]),
                    record_count: j - i,
                });
                i = j;
            } else {
                i += 1;
            }
        }
        pois
    }

    /// Extracts POIs and merges those whose centroids are closer than
    /// `max_diameter` (the same physical place visited several times).
    ///
    /// The result is the user's set of *distinct* meaningful places, which is
    /// what the privacy metric counts.
    pub fn extract_distinct(&self, trace: TraceView<'_>) -> Vec<Poi> {
        let pois = self.extract(trace);
        let mut merged: Vec<Poi> = Vec::new();
        for poi in pois {
            match merged.iter_mut().find(|existing| {
                distance::haversine(existing.location, poi.location).as_f64()
                    <= self.max_diameter.as_f64()
            }) {
                Some(existing) => {
                    // Merge: weight centroids by record count, accumulate counts.
                    let w1 = existing.record_count as f64;
                    let w2 = poi.record_count as f64;
                    existing.location = GeoPoint::clamped(
                        (existing.location.latitude() * w1 + poi.location.latitude() * w2)
                            / (w1 + w2),
                        (existing.location.longitude() * w1 + poi.location.longitude() * w2)
                            / (w1 + w2),
                    );
                    existing.record_count += poi.record_count;
                    existing.end = poi.end;
                }
                None => merged.push(poi),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_mobility::{Record, Trace, UserId};

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    /// A trace that dwells 30 min at A, drives 20 min, dwells 30 min at B.
    fn two_stop_trace() -> Trace {
        let a = gp(37.7600, -122.4500);
        let b = gp(37.7800, -122.4200);
        let mut records = Vec::new();
        let mut t = 0.0;
        // Stop at A: 60 records, 30 s apart.
        for _ in 0..60 {
            records.push(Record::new(Seconds::new(t), a));
            t += 30.0;
        }
        // Drive from A to B over 20 minutes (40 samples).
        for k in 0..40 {
            let frac = k as f64 / 39.0;
            records.push(Record::new(
                Seconds::new(t),
                gp(
                    a.latitude() + frac * (b.latitude() - a.latitude()),
                    a.longitude() + frac * (b.longitude() - a.longitude()),
                ),
            ));
            t += 30.0;
        }
        // Stop at B.
        for _ in 0..60 {
            records.push(Record::new(Seconds::new(t), b));
            t += 30.0;
        }
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn extractor_validation() {
        assert!(PoiExtractor::new(Seconds::from_minutes(10.0), Meters::new(100.0)).is_ok());
        assert!(PoiExtractor::new(Seconds::new(0.0), Meters::new(100.0)).is_err());
        assert!(PoiExtractor::new(Seconds::new(60.0), Meters::new(0.0)).is_err());
        assert!(PoiExtractor::new(Seconds::new(f64::NAN), Meters::new(100.0)).is_err());
        let e = PoiExtractor::default();
        assert_eq!(e.min_dwell(), Seconds::from_minutes(15.0));
        assert_eq!(e.max_diameter().as_f64(), 200.0);
    }

    #[test]
    fn finds_exactly_the_two_stops() {
        let trace = two_stop_trace();
        let pois = PoiExtractor::default().extract(trace.view());
        assert_eq!(pois.len(), 2, "found {pois:?}");
        // The POIs are at A and B.
        assert!(distance::haversine(pois[0].location, gp(37.7600, -122.4500)).as_f64() < 50.0);
        assert!(distance::haversine(pois[1].location, gp(37.7800, -122.4200)).as_f64() < 50.0);
        // Both stops lasted about 30 minutes.
        for poi in &pois {
            assert!(poi.duration().as_f64() >= 25.0 * 60.0);
            assert!(poi.record_count >= 55);
            assert!(poi.start < poi.end);
        }
    }

    #[test]
    fn short_or_moving_traces_have_no_poi() {
        // Constant motion, never stopping.
        let records: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(Seconds::new(i as f64 * 30.0), gp(37.70 + i as f64 * 0.0005, -122.45))
            })
            .collect();
        let moving = Trace::new(UserId::new(1), records).unwrap();
        assert!(PoiExtractor::default().extract(moving.view()).is_empty());

        // A stop that is long enough spatially but too short temporally.
        let brief: Vec<Record> = (0..10)
            .map(|i| Record::new(Seconds::new(i as f64 * 30.0), gp(37.75, -122.42)))
            .collect();
        let brief = Trace::new(UserId::new(2), brief).unwrap();
        assert!(PoiExtractor::default().extract(brief.view()).is_empty());
    }

    #[test]
    fn single_record_trace_has_no_poi() {
        let trace =
            Trace::new(UserId::new(1), vec![Record::new(Seconds::new(0.0), gp(37.75, -122.42))])
                .unwrap();
        assert!(PoiExtractor::default().extract(trace.view()).is_empty());
    }

    #[test]
    fn repeated_visits_merge_into_distinct_pois() {
        // Dwell at A, go to B, come back to A: extract() finds 3 stops but
        // only 2 distinct places.
        let a = gp(37.7600, -122.4500);
        let b = gp(37.7800, -122.4200);
        let mut records = Vec::new();
        let mut t = 0.0;
        let dwell = |records: &mut Vec<Record>, at: GeoPoint, t: &mut f64| {
            for _ in 0..40 {
                records.push(Record::new(Seconds::new(*t), at));
                *t += 30.0;
            }
        };
        let travel = |records: &mut Vec<Record>, from: GeoPoint, to: GeoPoint, t: &mut f64| {
            for k in 0..30 {
                let frac = k as f64 / 29.0;
                records.push(Record::new(
                    Seconds::new(*t),
                    gp(
                        from.latitude() + frac * (to.latitude() - from.latitude()),
                        from.longitude() + frac * (to.longitude() - from.longitude()),
                    ),
                ));
                *t += 30.0;
            }
        };
        dwell(&mut records, a, &mut t);
        travel(&mut records, a, b, &mut t);
        dwell(&mut records, b, &mut t);
        travel(&mut records, b, a, &mut t);
        dwell(&mut records, a, &mut t);
        let trace = Trace::new(UserId::new(1), records).unwrap();

        let extractor = PoiExtractor::default();
        assert_eq!(extractor.extract(trace.view()).len(), 3);
        let distinct = extractor.extract_distinct(trace.view());
        assert_eq!(distinct.len(), 2);
        // The merged POI at A accumulated both visits.
        let at_a =
            distinct.iter().find(|p| distance::haversine(p.location, a).as_f64() < 100.0).unwrap();
        assert!(at_a.record_count >= 80);
    }

    #[test]
    fn gps_jitter_does_not_split_a_stop() {
        // A 30-minute stop with ±20 m of deterministic jitter stays one POI.
        let base = gp(37.7700, -122.4300);
        let records: Vec<Record> = (0..60)
            .map(|i| {
                let dlat = ((i % 5) as f64 - 2.0) * 0.00005; // ~±11 m
                let dlon = ((i % 3) as f64 - 1.0) * 0.00005;
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    gp(base.latitude() + dlat, base.longitude() + dlon),
                )
            })
            .collect();
        let trace = Trace::new(UserId::new(1), records).unwrap();
        let pois = PoiExtractor::default().extract(trace.view());
        assert_eq!(pois.len(), 1);
        assert!(distance::haversine(pois[0].location, base).as_f64() < 30.0);
    }
}
