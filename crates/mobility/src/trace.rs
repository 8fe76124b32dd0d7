//! Per-user mobility traces, stored in columnar (struct-of-arrays) form.

use crate::error::MobilityError;
use crate::record::{Record, UserId};
use geopriv_geo::{distance, GeoPoint, Meters, Seconds};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::ops::Range;

/// A mobility trace: the chronologically ordered location records of one user.
///
/// This is the unit of protection and evaluation in the paper — LPPMs protect
/// a trace, POIs are extracted per trace, and the privacy/utility metrics
/// compare a user's actual and protected traces.
///
/// Internally the trace is stored as three contiguous `f64` columns
/// (timestamps, latitudes, longitudes) rather than a `Vec<Record>`, so hot
/// loops can scan cache-friendly slices; [`Record`]s are materialized on the
/// fly by [`Trace::iter`]. [`Trace::view`] exposes the columns as a borrowed
/// [`TraceView`] — the same representation a [`Dataset`](crate::Dataset) span
/// yields — so every computational method is implemented once, on the view.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::{Record, Trace, UserId};
/// use geopriv_geo::{GeoPoint, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = Trace::new(
///     UserId::new(1),
///     vec![
///         Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.41)?),
///         Record::new(Seconds::new(60.0), GeoPoint::new(37.78, -122.42)?),
///     ],
/// )?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.view().duration().as_f64(), 60.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    user: UserId,
    t: Vec<f64>,
    lat: Vec<f64>,
    lon: Vec<f64>,
}

impl Trace {
    /// Creates a trace from chronologically ordered records.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::EmptyTrace`] if `records` is empty.
    /// * [`MobilityError::UnorderedRecords`] if timestamps are not non-decreasing.
    pub fn new(user: UserId, records: Vec<Record>) -> Result<Self, MobilityError> {
        let mut t = Vec::with_capacity(records.len());
        let mut lat = Vec::with_capacity(records.len());
        let mut lon = Vec::with_capacity(records.len());
        for r in &records {
            t.push(r.timestamp().as_f64());
            lat.push(r.location().latitude());
            lon.push(r.location().longitude());
        }
        Self::from_columns(user, t, lat, lon)
    }

    /// Creates a trace directly from timestamp / latitude / longitude columns.
    ///
    /// Coordinates must come from valid [`GeoPoint`]s (LPPMs and the columnar
    /// [`Dataset`](crate::Dataset) builder only ever store validated points).
    ///
    /// # Errors
    ///
    /// * [`MobilityError::EmptyTrace`] if the columns are empty.
    /// * [`MobilityError::InvalidParameter`] if the columns have different lengths.
    /// * [`MobilityError::NonFiniteTimestamp`] if a timestamp is `NaN` or infinite.
    /// * [`MobilityError::UnorderedRecords`] if timestamps are not non-decreasing.
    pub fn from_columns(
        user: UserId,
        t: Vec<f64>,
        lat: Vec<f64>,
        lon: Vec<f64>,
    ) -> Result<Self, MobilityError> {
        if t.is_empty() {
            return Err(MobilityError::EmptyTrace);
        }
        if t.len() != lat.len() || t.len() != lon.len() {
            return Err(MobilityError::InvalidParameter {
                name: "columns",
                reason: format!(
                    "column lengths differ: t={}, lat={}, lon={}",
                    t.len(),
                    lat.len(),
                    lon.len()
                ),
            });
        }
        check_finite(t.iter().copied())?;
        for (i, pair) in t.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(MobilityError::UnorderedRecords { index: i + 1 });
            }
        }
        Ok(Self { user, t, lat, lon })
    }

    /// Creates a trace from possibly unordered records, sorting them by timestamp.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::EmptyTrace`] if `records` is empty.
    /// * [`MobilityError::NonFiniteTimestamp`] if a timestamp is `NaN` or
    ///   infinite (the index is into `records` as given).
    pub fn from_unordered(user: UserId, mut records: Vec<Record>) -> Result<Self, MobilityError> {
        if records.is_empty() {
            return Err(MobilityError::EmptyTrace);
        }
        check_finite(records.iter().map(|r| r.timestamp().as_f64()))?;
        // Finite timestamps always compare.
        records.sort_by(|a, b| {
            a.timestamp().as_f64().partial_cmp(&b.timestamp().as_f64()).unwrap_or(Ordering::Equal)
        });
        Self::new(user, records)
    }

    /// A zero-copy view over this trace's columns.
    pub fn view(&self) -> TraceView<'_> {
        TraceView { user: self.user, t: &self.t, lat: &self.lat, lon: &self.lon }
    }

    /// The user this trace belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Returns `true` if the trace has no records (never the case for a
    /// successfully constructed trace).
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> Records<'_> {
        self.view().iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Record;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Rejects the first timestamp that is `NaN` or infinite.
fn check_finite(timestamps: impl Iterator<Item = f64>) -> Result<(), MobilityError> {
    match timestamps.map(f64::is_finite).position(|finite| !finite) {
        Some(index) => Err(MobilityError::NonFiniteTimestamp { index }),
        None => Ok(()),
    }
}

/// A zero-copy view over one trace's columns.
///
/// Views are what a columnar [`Dataset`](crate::Dataset) hands out for each
/// of its spans: three borrowed `f64` slices plus the owning user. All trace
/// computations (distance, centroid, bounding box, …) are implemented here,
/// on contiguous slices, and [`Trace`] delegates to its own view.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    pub(crate) user: UserId,
    pub(crate) t: &'a [f64],
    pub(crate) lat: &'a [f64],
    pub(crate) lon: &'a [f64],
}

impl<'a> TraceView<'a> {
    /// Assembles a view from raw columns (lengths must match, and be non-zero).
    pub fn from_columns(user: UserId, t: &'a [f64], lat: &'a [f64], lon: &'a [f64]) -> Self {
        assert!(
            !t.is_empty() && t.len() == lat.len() && t.len() == lon.len(),
            "view columns must be non-empty and of equal length"
        );
        Self { user, t, lat, lon }
    }

    /// The user this trace belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Returns `true` if the view has no records (never the case for views
    /// handed out by a dataset or trace).
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// The timestamp column, in seconds.
    pub fn timestamps(&self) -> &'a [f64] {
        self.t
    }

    /// The latitude column, in decimal degrees.
    pub fn latitudes(&self) -> &'a [f64] {
        self.lat
    }

    /// The longitude column, in decimal degrees.
    pub fn longitudes(&self) -> &'a [f64] {
        self.lon
    }

    /// The `i`-th record, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn record(&self, i: usize) -> Record {
        Record::new(Seconds::new(self.t[i]), GeoPoint::from_stored(self.lat[i], self.lon[i]))
    }

    /// The `i`-th location, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn location(&self, i: usize) -> GeoPoint {
        GeoPoint::from_stored(self.lat[i], self.lon[i])
    }

    /// Iterates over the records, materializing each from the columns.
    pub fn iter(&self) -> Records<'a> {
        Records { view: *self, next: 0 }
    }

    /// The locations of all records, in chronological order.
    pub fn locations(&self) -> Vec<GeoPoint> {
        (0..self.len()).map(|i| self.location(i)).collect()
    }

    /// The first record.
    pub fn first(&self) -> Record {
        self.record(0)
    }

    /// The view of the records in `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or out of bounds.
    pub fn slice(&self, range: Range<usize>) -> TraceView<'a> {
        let (t, lat, lon) = (&self.t[range.clone()], &self.lat[range.clone()], &self.lon[range]);
        TraceView::from_columns(self.user, t, lat, lon)
    }

    /// Copies the view into an owned [`Trace`].
    pub fn to_trace(&self) -> Trace {
        Trace {
            user: self.user,
            t: self.t.to_vec(),
            lat: self.lat.to_vec(),
            lon: self.lon.to_vec(),
        }
    }

    /// Total observation duration (last timestamp minus first timestamp).
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.t[self.t.len() - 1] - self.t[0])
    }

    /// Total distance travelled along the trace.
    pub fn travelled_distance(&self) -> Meters {
        distance::path_length(&self.locations())
    }

    /// Median interval between consecutive records.
    ///
    /// Returns zero for a single-record trace.
    pub fn median_sampling_interval(&self) -> Seconds {
        if self.t.len() < 2 {
            return Seconds::new(0.0);
        }
        let mut intervals: Vec<f64> = self.t.windows(2).map(|w| w[1] - w[0]).collect();
        intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Seconds::new(intervals[intervals.len() / 2])
    }

    /// Geographic centroid of the trace (unweighted mean of coordinates).
    pub fn centroid(&self) -> GeoPoint {
        let n = self.t.len() as f64;
        let mut la = 0.0;
        let mut lo = 0.0;
        for i in 0..self.t.len() {
            la += self.lat[i];
            lo += self.lon[i];
        }
        GeoPoint::clamped(la / n, lo / n)
    }

    /// Radius of gyration: root-mean-square distance of the records to the
    /// trace centroid.
    pub fn radius_of_gyration(&self) -> Meters {
        let c = self.centroid();
        let mean_sq = (0..self.len())
            .map(|i| distance::haversine(self.location(i), c).as_f64().powi(2))
            .sum::<f64>()
            / self.len() as f64;
        Meters::new(mean_sq.sqrt())
    }

    /// Mean speed over the trace in meters per second.
    ///
    /// Returns zero for traces with no elapsed time.
    pub fn mean_speed(&self) -> f64 {
        let duration = self.duration().as_f64();
        if duration <= 0.0 {
            return 0.0;
        }
        self.travelled_distance().as_f64() / duration
    }
}

impl<'a> IntoIterator for TraceView<'a> {
    type Item = Record;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the records of a [`TraceView`], materializing each [`Record`]
/// from the underlying columns.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    view: TraceView<'a>,
    next: usize,
}

impl Iterator for Records<'_> {
    type Item = Record;

    #[inline]
    fn next(&mut self) -> Option<Record> {
        if self.next >= self.view.len() {
            return None;
        }
        let record = self.view.record(self.next);
        self.next += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.view.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn sample_trace() -> Trace {
        Trace::new(
            UserId::new(1),
            vec![
                Record::new(Seconds::new(0.0), gp(37.7700, -122.4100)),
                Record::new(Seconds::new(30.0), gp(37.7710, -122.4110)),
                Record::new(Seconds::new(60.0), gp(37.7720, -122.4120)),
                Record::new(Seconds::new(120.0), gp(37.7800, -122.4200)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn views_slice_into_sub_views() {
        let t = sample_trace();
        let view = t.view();
        let middle = view.slice(1..3);
        assert_eq!((middle.user(), middle.len()), (t.user(), 2));
        assert_eq!(middle.first(), view.record(1));
        assert_eq!(middle.record(1), view.record(2));
        assert_eq!(view.slice(0..4).to_trace(), t);
    }

    #[test]
    fn construction_validates_order_and_nonemptiness() {
        assert!(matches!(Trace::new(UserId::new(1), vec![]), Err(MobilityError::EmptyTrace)));
        let unordered = vec![
            Record::new(Seconds::new(10.0), gp(37.77, -122.41)),
            Record::new(Seconds::new(5.0), gp(37.78, -122.42)),
        ];
        assert!(matches!(
            Trace::new(UserId::new(1), unordered.clone()),
            Err(MobilityError::UnorderedRecords { index: 1 })
        ));
        // from_unordered sorts instead of failing.
        let sorted = Trace::from_unordered(UserId::new(1), unordered.clone()).unwrap();
        assert!(sorted.view().first().timestamp() <= sorted.view().record(1).timestamp());
        // …except past a non-finite timestamp: an error, not a panic while
        // sorting, whose index is into the records as given.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut records = unordered.clone();
            records.push(Record::new(Seconds::new(bad), gp(37.79, -122.43)));
            assert!(matches!(
                Trace::from_unordered(UserId::new(1), records.clone()),
                Err(MobilityError::NonFiniteTimestamp { index: 2 })
            ));
            assert!(matches!(
                Trace::new(UserId::new(1), records),
                Err(MobilityError::NonFiniteTimestamp { index: 2 })
            ));
        }
    }

    #[test]
    fn column_construction_validates_shape() {
        let t = Trace::from_columns(
            UserId::new(1),
            vec![0.0, 10.0],
            vec![37.7, 37.8],
            vec![-122.4, -122.5],
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert!(matches!(
            Trace::from_columns(UserId::new(1), vec![], vec![], vec![]),
            Err(MobilityError::EmptyTrace)
        ));
        assert!(matches!(
            Trace::from_columns(UserId::new(1), vec![0.0, 1.0], vec![37.7], vec![-122.4, -122.5]),
            Err(MobilityError::InvalidParameter { .. })
        ));
        assert!(matches!(
            Trace::from_columns(
                UserId::new(1),
                vec![10.0, 0.0],
                vec![37.7, 37.8],
                vec![-122.4, -122.5,]
            ),
            Err(MobilityError::UnorderedRecords { index: 1 })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let columns =
                |t| Trace::from_columns(UserId::new(1), t, vec![37.7; 2], vec![-122.4; 2]);
            assert!(matches!(
                columns(vec![0.0, bad]),
                Err(MobilityError::NonFiniteTimestamp { index: 1 })
            ));
            assert!(matches!(
                columns(vec![bad, 0.0]),
                Err(MobilityError::NonFiniteTimestamp { index: 0 })
            ));
        }
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let t = Trace::new(
            UserId::new(2),
            vec![
                Record::new(Seconds::new(0.0), gp(37.77, -122.41)),
                Record::new(Seconds::new(0.0), gp(37.78, -122.42)),
            ],
        );
        assert!(t.is_ok());
    }

    #[test]
    fn basic_accessors() {
        let t = sample_trace();
        assert_eq!(t.user(), UserId::new(1));
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.view().duration().as_f64(), 120.0);
        assert_eq!(t.view().locations().len(), 4);
        assert_eq!(t.iter().count(), 4);
        assert_eq!((&t).into_iter().count(), 4);
        assert_eq!(t.view().first().timestamp().as_f64(), 0.0);
        assert_eq!(t.view().record(3).timestamp().as_f64(), 120.0);
        assert_eq!(t.view().timestamps(), &[0.0, 30.0, 60.0, 120.0]);
        assert_eq!(t.view().latitudes().len(), 4);
        assert_eq!(t.view().longitudes().len(), 4);
    }

    #[test]
    fn records_round_trip_through_columns() {
        let records = vec![
            Record::new(Seconds::new(0.0), gp(37.7700, -122.4100)),
            Record::new(Seconds::new(30.0), gp(37.7710, -122.4110)),
        ];
        let t = Trace::new(UserId::new(1), records.clone()).unwrap();
        assert_eq!(t.iter().collect::<Vec<_>>(), records);
        let view = t.view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.record(1), records[1]);
        assert_eq!(view.to_trace(), t);
        assert_eq!(view.iter().len(), 2);
        assert_eq!(view.into_iter().collect::<Vec<_>>(), records);
    }

    #[test]
    fn travelled_distance_and_speed() {
        let t = sample_trace();
        let d = t.view().travelled_distance().as_f64();
        assert!(d > 1_000.0 && d < 3_000.0, "got {d}");
        let v = t.view().mean_speed();
        assert!((d / 120.0 - v).abs() < 1e-9);

        let stationary =
            Trace::new(UserId::new(3), vec![Record::new(Seconds::new(0.0), gp(37.77, -122.41))])
                .unwrap();
        assert_eq!(stationary.view().mean_speed(), 0.0);
        assert_eq!(stationary.view().median_sampling_interval().as_f64(), 0.0);
    }

    #[test]
    fn median_sampling_interval() {
        let t = sample_trace();
        // Intervals are 30, 30, 60 -> median 30.
        assert_eq!(t.view().median_sampling_interval().as_f64(), 30.0);
    }

    #[test]
    fn centroid_and_radius_of_gyration() {
        let t = sample_trace();
        let c = t.view().centroid();
        assert!((37.770..37.781).contains(&c.latitude()));
        let r = t.view().radius_of_gyration().as_f64();
        assert!(r > 100.0 && r < 2_000.0, "got {r}");

        // A stationary trace has zero radius of gyration.
        let stationary = Trace::new(
            UserId::new(3),
            vec![
                Record::new(Seconds::new(0.0), gp(37.77, -122.41)),
                Record::new(Seconds::new(10.0), gp(37.77, -122.41)),
            ],
        )
        .unwrap();
        assert!(stationary.view().radius_of_gyration().as_f64() < 1e-6);
    }

    #[test]
    fn bounding_box_contains_all_records() {
        let t = sample_trace();
        let b = crate::Dataset::new(vec![t.clone()]).unwrap().bounding_box().unwrap();
        for r in &t {
            let (lat, lon) = (r.location().latitude(), r.location().longitude());
            assert!((b.min_latitude()..=b.max_latitude()).contains(&lat));
            assert!((b.min_longitude()..=b.max_longitude()).contains(&lon));
        }
        // The box is the tightest one: its corners are records' coordinates.
        assert_eq!((b.min_latitude(), b.max_latitude()), (37.7700, 37.7800));
        assert_eq!((b.min_longitude(), b.max_longitude()), (-122.4200, -122.4100));
    }
}
