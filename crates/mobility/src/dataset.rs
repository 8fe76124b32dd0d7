//! Multi-user mobility datasets, stored as one columnar (struct-of-arrays) core.

use crate::error::MobilityError;
use crate::record::UserId;
use crate::trace::{Trace, TraceView};
use geopriv_geo::{BoundingBox, GeoPoint, Seconds};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Span of one trace inside the dataset's columnar buffers.
///
/// The dataset stores all records of all traces in three contiguous `f64`
/// columns; a span locates one trace: its owning user plus the half-open
/// record range `start .. start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct TraceSpan {
    user: UserId,
    start: usize,
    len: usize,
}

/// Per-user entry of the dataset's span index: the contiguous run of spans
/// (and records) belonging to one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct UserSpans {
    user: UserId,
    first_span: usize,
    span_count: usize,
    records: usize,
}

/// A collection of mobility traces, one or more per user, stored columnar.
///
/// This is the object the paper's framework protects and evaluates as a
/// whole: "using Geo-indistinguishability to protect a whole dataset
/// containing mobility traces of taxi drivers around San Francisco".
///
/// # Columnar layout
///
/// All records live in three contiguous `f64` buffers (timestamps,
/// latitudes, longitudes). A span table maps each trace to its
/// record range, and a per-user index maps each user to her contiguous run
/// of spans (traces are sorted by user id at construction). Trace access
/// hands out zero-copy [`TraceView`]s over the buffers, so the row-oriented
/// API survives while hot loops scan cache-friendly slices:
///
/// * [`Dataset::iter`] / [`Dataset::traces`] — iterate [`TraceView`]s;
/// * [`Dataset::traces_of`] — per-user lookup served from the index
///   (binary search, no dataset scan);
/// * [`DatasetBuilder`] — append protected columns trace by trace without
///   materializing intermediate `Vec<Record>`s.
///
/// # Examples
///
/// ```
/// use geopriv_mobility::{Dataset, Record, Trace, UserId};
/// use geopriv_geo::{GeoPoint, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = Trace::new(
///     UserId::new(1),
///     vec![Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.41)?)],
/// )?;
/// let dataset = Dataset::new(vec![trace])?;
/// assert_eq!(dataset.user_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    t: Vec<f64>,
    lat: Vec<f64>,
    lon: Vec<f64>,
    spans: Vec<TraceSpan>,
    user_index: Vec<UserSpans>,
}

fn build_user_index(spans: &[TraceSpan]) -> Vec<UserSpans> {
    let mut index: Vec<UserSpans> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match index.last_mut() {
            Some(entry) if entry.user == span.user => {
                entry.span_count += 1;
                entry.records += span.len;
            }
            _ => index.push(UserSpans {
                user: span.user,
                first_span: i,
                span_count: 1,
                records: span.len,
            }),
        }
    }
    index
}

impl Dataset {
    /// Creates a dataset from a list of traces.
    ///
    /// Traces are sorted by user id (stable, so several traces of the same
    /// user keep their relative order — e.g. one trace per day for the same
    /// driver) and their columns concatenated into the dataset buffers.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::EmptyDataset`] if `traces` is empty.
    pub fn new(mut traces: Vec<Trace>) -> Result<Self, MobilityError> {
        if traces.is_empty() {
            return Err(MobilityError::EmptyDataset);
        }
        traces.sort_by_key(|t| t.user());
        let records: usize = traces.iter().map(Trace::len).sum();
        let mut builder = DatasetBuilder::with_capacity(traces.len(), records);
        for trace in &traces {
            builder.push_view(trace.view());
        }
        builder.finish()
    }

    /// The view of the `i`-th trace (traces are sorted by user id).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn trace_at(&self, i: usize) -> TraceView<'_> {
        let span = &self.spans[i];
        let range = span.start..span.start + span.len;
        TraceView {
            user: span.user,
            t: &self.t[range.clone()],
            lat: &self.lat[range.clone()],
            lon: &self.lon[range],
        }
    }

    /// Iterates over the traces as zero-copy views, sorted by user id.
    pub fn traces(&self) -> TraceViews<'_> {
        TraceViews { dataset: self, next: 0 }
    }

    /// Iterates over the traces as zero-copy views.
    pub fn iter(&self) -> TraceViews<'_> {
        self.traces()
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if the dataset has no traces (never the case for a
    /// successfully constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of distinct users (served from the per-user index, O(1)).
    pub fn user_count(&self) -> usize {
        self.user_index.len()
    }

    /// Total number of records across all traces (the column length, O(1)).
    pub fn record_count(&self) -> usize {
        self.t.len()
    }

    /// The traces of a given user, served from the per-user span index
    /// (binary search + contiguous span run; no dataset scan).
    pub fn traces_of(&self, user: UserId) -> Vec<TraceView<'_>> {
        match self.user_index.binary_search_by_key(&user, |e| e.user) {
            Ok(i) => {
                let entry = &self.user_index[i];
                (entry.first_span..entry.first_span + entry.span_count)
                    .map(|s| self.trace_at(s))
                    .collect()
            }
            Err(_) => Vec::new(),
        }
    }

    /// The distinct user ids, in increasing order (served from the index).
    pub fn users(&self) -> Vec<UserId> {
        self.user_index.iter().map(|e| e.user).collect()
    }

    /// Materializes every trace into an owned `Vec<Trace>` (row layout).
    ///
    /// This is the inverse of [`Dataset::new`]; useful for merging datasets
    /// or round-tripping through the row representation.
    pub fn to_traces(&self) -> Vec<Trace> {
        self.iter().map(|v| v.to_trace()).collect()
    }

    /// The smallest bounding box containing every record of every trace.
    ///
    /// # Errors
    ///
    /// Propagates geospatial errors for degenerate datasets.
    pub fn bounding_box(&self) -> Result<BoundingBox, MobilityError> {
        Ok(BoundingBox::enclosing(
            self.lat.iter().zip(&self.lon).map(|(&la, &lo)| GeoPoint::from_stored(la, lo)),
        )?)
    }

    /// Applies a fallible transformation to every trace, producing a new dataset.
    ///
    /// The typical use is protecting every trace with an LPPM. The
    /// transformation must preserve the number of traces.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`.
    pub fn map_traces<F>(&self, mut f: F) -> Result<Dataset, MobilityError>
    where
        F: FnMut(TraceView<'_>) -> Result<Trace, MobilityError>,
    {
        let traces: Result<Vec<Trace>, MobilityError> = self.iter().map(&mut f).collect();
        Dataset::new(traces?)
    }

    /// Copies out the sub-dataset of a contiguous range of *users* (indices
    /// into [`Dataset::users`], half-open).
    ///
    /// Because traces are sorted by user, a user range maps to one contiguous
    /// span/record range; the copy is three `memcpy`-style slice copies of
    /// the range's size. The cached per-user sweep measures each user on her
    /// own one-user slice.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] if the range is empty or
    /// out of bounds.
    pub fn user_slice(&self, users: Range<usize>) -> Result<Dataset, MobilityError> {
        if users.start >= users.end || users.end > self.user_index.len() {
            return Err(MobilityError::InvalidParameter {
                name: "users",
                reason: format!(
                    "user range {}..{} invalid for {} users",
                    users.start,
                    users.end,
                    self.user_index.len()
                ),
            });
        }
        let first = &self.user_index[users.start];
        let last = &self.user_index[users.end - 1];
        let span_range = first.first_span..last.first_span + last.span_count;
        let record_start = self.spans[span_range.start].start;
        let record_end = {
            let s = &self.spans[span_range.end - 1];
            s.start + s.len
        };
        let spans: Vec<TraceSpan> = self.spans[span_range]
            .iter()
            .map(|s| TraceSpan { user: s.user, start: s.start - record_start, len: s.len })
            .collect();
        let user_index = build_user_index(&spans);
        Ok(Dataset {
            t: self.t[record_start..record_end].to_vec(),
            lat: self.lat[record_start..record_end].to_vec(),
            lon: self.lon[record_start..record_end].to_vec(),
            spans,
            user_index,
        })
    }

    /// Pairs each trace of this dataset with the trace at the same position
    /// in `other`.
    ///
    /// The paper's metrics always compare an *actual* dataset with its
    /// *protected* counterpart; this helper validates that the two datasets
    /// are structurally compatible (same number of traces, same users in the
    /// same order) and returns the aligned view pairs.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] if the datasets are not aligned.
    pub fn paired_with<'a>(
        &'a self,
        other: &'a Dataset,
    ) -> Result<Vec<(TraceView<'a>, TraceView<'a>)>, MobilityError> {
        if self.spans.len() != other.spans.len() {
            return Err(MobilityError::InvalidParameter {
                name: "other",
                reason: format!(
                    "datasets have different sizes: {} vs {}",
                    self.spans.len(),
                    other.spans.len()
                ),
            });
        }
        for (a, b) in self.spans.iter().zip(&other.spans) {
            if a.user != b.user {
                return Err(MobilityError::InvalidParameter {
                    name: "other",
                    reason: format!("user mismatch: {} vs {}", a.user, b.user),
                });
            }
        }
        Ok(self.iter().zip(other.iter()).collect())
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = TraceView<'a>;
    type IntoIter = TraceViews<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces()
    }
}

/// Iterator over the trace views of a [`Dataset`], in user-id order.
#[derive(Debug, Clone)]
pub struct TraceViews<'a> {
    dataset: &'a Dataset,
    next: usize,
}

impl<'a> Iterator for TraceViews<'a> {
    type Item = TraceView<'a>;

    fn next(&mut self) -> Option<TraceView<'a>> {
        if self.next >= self.dataset.len() {
            return None;
        }
        let view = self.dataset.trace_at(self.next);
        self.next += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.dataset.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TraceViews<'_> {}

/// Incremental columnar dataset assembly.
///
/// Protected datasets are produced trace by trace; the builder appends each
/// trace's records straight into the shared columns and records its span, so
/// no intermediate per-trace `Vec<Record>` allocation is needed. Traces must
/// be pushed in non-decreasing user-id order (LPPMs iterate the — already
/// sorted — actual dataset, so this holds naturally); [`DatasetBuilder::finish`]
/// rejects out-of-order pushes.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    t: Vec<f64>,
    lat: Vec<f64>,
    lon: Vec<f64>,
    spans: Vec<TraceSpan>,
    /// Start offset of the trace currently being streamed, if any.
    open: Option<(UserId, usize)>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with pre-allocated capacity.
    pub fn with_capacity(traces: usize, records: usize) -> Self {
        Self {
            t: Vec::with_capacity(records),
            lat: Vec::with_capacity(records),
            lon: Vec::with_capacity(records),
            spans: Vec::with_capacity(traces),
            open: None,
        }
    }

    /// Appends a whole trace view (copies its columns).
    ///
    /// # Panics
    ///
    /// Panics if a streamed trace is still open (see [`DatasetBuilder::begin_trace`]).
    pub fn push_view(&mut self, view: TraceView<'_>) {
        assert!(self.open.is_none(), "finish the open streamed trace before pushing");
        let start = self.t.len();
        self.t.extend_from_slice(view.timestamps());
        self.lat.extend_from_slice(view.latitudes());
        self.lon.extend_from_slice(view.longitudes());
        self.spans.push(TraceSpan { user: view.user(), start, len: view.len() });
    }

    /// Starts streaming the records of one trace.
    ///
    /// Follow with [`DatasetBuilder::push_record`] calls and close the trace
    /// with [`DatasetBuilder::finish_trace`].
    ///
    /// # Panics
    ///
    /// Panics if another streamed trace is still open.
    pub fn begin_trace(&mut self, user: UserId) {
        assert!(self.open.is_none(), "finish the open streamed trace before starting another");
        self.open = Some((user, self.t.len()));
    }

    /// Appends one record to the trace opened by [`DatasetBuilder::begin_trace`].
    ///
    /// # Panics
    ///
    /// Panics if no streamed trace is open.
    #[inline]
    pub fn push_record(&mut self, timestamp: Seconds, location: GeoPoint) {
        assert!(self.open.is_some(), "begin_trace before pushing records");
        self.t.push(timestamp.as_f64());
        self.lat.push(location.latitude());
        self.lon.push(location.longitude());
    }

    /// Closes the trace opened by [`DatasetBuilder::begin_trace`], validating
    /// it the same way [`Trace::new`] does.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::EmptyTrace`] if no record was pushed.
    /// * [`MobilityError::UnorderedRecords`] if timestamps are not non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if no streamed trace is open.
    pub fn finish_trace(&mut self) -> Result<(), MobilityError> {
        let (user, start) = self.open.take().expect("begin_trace before finish_trace");
        let len = self.t.len() - start;
        if len == 0 {
            return Err(MobilityError::EmptyTrace);
        }
        for (i, pair) in self.t[start..].windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(MobilityError::UnorderedRecords { index: i + 1 });
            }
        }
        self.spans.push(TraceSpan { user, start, len });
        Ok(())
    }

    /// The records pushed since [`DatasetBuilder::begin_trace`], or `None`
    /// when no trace is open or the open trace has no record yet.
    pub fn open_trace(&self) -> Option<TraceView<'_>> {
        let (user, start) = self.open?;
        (self.t.len() > start).then(|| TraceView {
            user,
            t: &self.t[start..],
            lat: &self.lat[start..],
            lon: &self.lon[start..],
        })
    }

    /// Empties the builder, keeping its allocations: a builder used as a
    /// scratch sink is cleared and reopened for each use.
    pub fn clear(&mut self) {
        self.t.clear();
        self.lat.clear();
        self.lon.clear();
        self.spans.clear();
        self.open = None;
    }

    /// Seals the builder into a dataset.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::EmptyDataset`] if no trace was pushed.
    /// * [`MobilityError::InvalidParameter`] if traces were pushed out of
    ///   user-id order or a streamed trace was left open.
    pub fn finish(self) -> Result<Dataset, MobilityError> {
        if self.open.is_some() {
            return Err(MobilityError::InvalidParameter {
                name: "builder",
                reason: "a streamed trace was left open".to_string(),
            });
        }
        if self.spans.is_empty() {
            return Err(MobilityError::EmptyDataset);
        }
        if self.spans.windows(2).any(|w| w[1].user < w[0].user) {
            return Err(MobilityError::InvalidParameter {
                name: "builder",
                reason: "traces must be pushed in non-decreasing user-id order".to_string(),
            });
        }
        let user_index = build_user_index(&self.spans);
        Ok(Dataset { t: self.t, lat: self.lat, lon: self.lon, spans: self.spans, user_index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use geopriv_geo::{GeoPoint, Seconds};

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn trace(user: u64, base_lat: f64) -> Trace {
        Trace::new(
            UserId::new(user),
            vec![
                Record::new(Seconds::new(0.0), gp(base_lat, -122.41)),
                Record::new(Seconds::new(60.0), gp(base_lat + 0.01, -122.42)),
            ],
        )
        .unwrap()
    }

    fn dataset() -> Dataset {
        Dataset::new(vec![trace(2, 37.76), trace(1, 37.77), trace(3, 37.78)]).unwrap()
    }

    #[test]
    fn construction_sorts_by_user_and_rejects_empty() {
        let d = dataset();
        let users: Vec<u64> = d.iter().map(|t| t.user().value()).collect();
        assert_eq!(users, vec![1, 2, 3]);
        assert!(matches!(Dataset::new(vec![]), Err(MobilityError::EmptyDataset)));
    }

    #[test]
    fn counting_accessors() {
        let d = dataset();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.user_count(), 3);
        assert_eq!(d.record_count(), 6);
        assert_eq!(d.users(), vec![UserId::new(1), UserId::new(2), UserId::new(3)]);
        assert_eq!((&d).into_iter().count(), 3);
    }

    #[test]
    fn spans_cover_the_columns_exactly() {
        let d = dataset();
        assert_eq!(d.t.len(), d.record_count());
        assert_eq!(d.lat.len(), d.record_count());
        assert_eq!(d.lon.len(), d.record_count());
        let mut expected_start = 0;
        for span in &d.spans {
            assert_eq!(span.start, expected_start);
            assert!(span.len > 0);
            expected_start += span.len;
        }
        assert_eq!(expected_start, d.record_count());
    }

    #[test]
    fn index_served_lookups_match_a_naive_scan() {
        // Regression guard for the PR-6 satellite: `traces_of` and `users`
        // are served from the per-user span index; they must keep returning
        // exactly what the old full scans returned, on every call.
        let d =
            Dataset::new(vec![trace(2, 37.76), trace(1, 37.77), trace(3, 37.78), trace(2, 37.80)])
                .unwrap();
        for _ in 0..2 {
            // users(): scan + dedup over all traces.
            let mut scanned: Vec<UserId> = d.iter().map(|t| t.user()).collect();
            scanned.dedup();
            assert_eq!(d.users(), scanned);
            // traces_of(): O(n) filter scan.
            for user in d.users() {
                let scanned: Vec<Vec<Record>> =
                    d.iter().filter(|t| t.user() == user).map(|t| t.iter().collect()).collect();
                let indexed: Vec<Vec<Record>> =
                    d.traces_of(user).iter().map(|t| t.iter().collect()).collect();
                assert_eq!(indexed, scanned);
            }
            assert!(d.traces_of(UserId::new(99)).is_empty());
        }
    }

    #[test]
    fn multiple_traces_per_user_are_kept() {
        let d = Dataset::new(vec![trace(1, 37.76), trace(1, 37.78)]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.user_count(), 1);
        assert_eq!(d.traces_of(UserId::new(1)).len(), 2);
    }

    #[test]
    fn bounding_box_covers_all_traces() {
        let d = dataset();
        let b = d.bounding_box().unwrap();
        for t in &d {
            for r in t {
                let (lat, lon) = (r.location().latitude(), r.location().longitude());
                assert!((b.min_latitude()..=b.max_latitude()).contains(&lat));
                assert!((b.min_longitude()..=b.max_longitude()).contains(&lon));
            }
        }
    }

    #[test]
    fn map_traces_preserves_structure_and_propagates_errors() {
        let d = dataset();
        let shifted = d
            .map_traces(|t| {
                let shift = |l: GeoPoint| GeoPoint::clamped(l.latitude() + 0.001, l.longitude());
                Trace::new(
                    t.user(),
                    t.iter().map(|r| Record::new(r.timestamp(), shift(r.location()))).collect(),
                )
            })
            .unwrap();
        assert_eq!(shifted.len(), d.len());
        assert_eq!(shifted.users(), d.users());

        let err = d.map_traces(|_| Err(MobilityError::EmptyTrace));
        assert!(err.is_err());
    }

    #[test]
    fn user_slice_copies_contiguous_shards() {
        let d =
            Dataset::new(vec![trace(2, 37.76), trace(1, 37.77), trace(3, 37.78), trace(2, 37.80)])
                .unwrap();
        let shard = d.user_slice(1..3).unwrap();
        assert_eq!(shard.users(), vec![UserId::new(2), UserId::new(3)]);
        assert_eq!(shard.len(), 3); // user 2 has two traces
        assert_eq!(shard.record_count(), 6);
        // Records are bit-identical to the views of the full dataset.
        let full: Vec<Record> =
            d.iter().filter(|t| t.user() != UserId::new(1)).flat_map(|t| t.iter()).collect();
        let sliced: Vec<Record> = shard.iter().flat_map(|t| t.iter()).collect();
        assert_eq!(sliced, full);
        // Covering slice reproduces the dataset.
        assert_eq!(d.user_slice(0..d.user_count()).unwrap(), d);
        assert!(d.user_slice(1..1).is_err());
        assert!(d.user_slice(2..9).is_err());
    }

    #[test]
    fn builder_streams_traces_and_validates() {
        let mut b = DatasetBuilder::new();
        b.begin_trace(UserId::new(1));
        b.push_record(Seconds::new(0.0), gp(37.77, -122.41));
        b.push_record(Seconds::new(30.0), gp(37.78, -122.42));
        b.finish_trace().unwrap();
        b.push_view(trace(2, 37.76).view());
        assert_eq!(b.t.len(), 4);
        let d = b.finish().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.users(), vec![UserId::new(1), UserId::new(2)]);

        // Empty streamed traces are rejected.
        let mut b = DatasetBuilder::new();
        b.begin_trace(UserId::new(1));
        assert!(matches!(b.finish_trace(), Err(MobilityError::EmptyTrace)));

        // Unordered timestamps are rejected like Trace::new does.
        let mut b = DatasetBuilder::new();
        b.begin_trace(UserId::new(1));
        b.push_record(Seconds::new(10.0), gp(37.77, -122.41));
        b.push_record(Seconds::new(0.0), gp(37.78, -122.42));
        assert!(matches!(b.finish_trace(), Err(MobilityError::UnorderedRecords { index: 1 })));

        // Out-of-user-order pushes are rejected at finish.
        let mut b = DatasetBuilder::new();
        b.push_view(trace(2, 37.76).view());
        b.push_view(trace(1, 37.77).view());
        assert!(b.finish().is_err());

        // An empty builder yields no dataset.
        assert!(matches!(DatasetBuilder::new().finish(), Err(MobilityError::EmptyDataset)));
    }

    #[test]
    fn the_open_trace_reads_back_and_clear_empties_the_builder() {
        let mut b = DatasetBuilder::new();
        b.push_view(trace(1, 37.77).view());
        assert!(b.open_trace().is_none());
        b.begin_trace(UserId::new(2));
        assert!(b.open_trace().is_none());
        b.push_record(Seconds::new(5.0), gp(37.79, -122.43));
        let open = b.open_trace().unwrap();
        assert_eq!((open.user(), open.len()), (UserId::new(2), 1));
        assert_eq!(open.first(), Record::new(Seconds::new(5.0), gp(37.79, -122.43)));
        b.clear();
        assert_eq!(b.t.len(), 0);
        assert!(b.open_trace().is_none());
        assert!(matches!(b.finish(), Err(MobilityError::EmptyDataset)));
    }

    #[test]
    fn row_round_trip_is_bit_identical() {
        let traces = vec![trace(2, 37.76), trace(1, 37.77), trace(3, 37.78)];
        let d = Dataset::new(traces).unwrap();
        let rows = d.to_traces();
        assert_eq!(Dataset::new(rows).unwrap(), d);
    }

    #[test]
    fn pairing_validates_alignment() {
        let d = dataset();
        let pairs = d.paired_with(&d).unwrap();
        assert_eq!(pairs.len(), 3);
        for (a, b) in pairs {
            assert_eq!(a.user(), b.user());
        }

        let smaller = d.user_slice(0..2).unwrap();
        assert!(d.paired_with(&smaller).is_err());

        let other_users =
            Dataset::new(vec![trace(7, 37.76), trace(8, 37.77), trace(9, 37.78)]).unwrap();
        assert!(d.paired_with(&other_users).is_err());
    }
}
