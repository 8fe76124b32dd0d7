//! The metric interfaces of the framework.
//!
//! The paper's framework is "modular: by using different metrics, a system
//! designer is able to fine-tune her LPPM according to her expected privacy
//! and utility guarantees". [`Metric`] is that plug-in point: a metric
//! compares an *actual* dataset with its *protected* counterpart, returns a
//! value in `[0, 1]` and reports the [`Direction`] in which it improves.

use crate::error::MetricError;
use geopriv_mobility::{Dataset, UserId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Which way a metric improves.
///
/// The framework never hard-codes "privacy" and "utility": every metric in a
/// [`crate::MetricSuite`] carries its direction, and objectives, frontiers and
/// reports interpret values through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Smaller values are better — the privacy-style metrics (less
    /// information retrievable by the adversary).
    LowerIsBetter,
    /// Larger values are better — the utility-style metrics (the protected
    /// data remains useful).
    HigherIsBetter,
}

impl Direction {
    /// Converts a raw metric value to a *goodness* score where greater is
    /// always better, so direction-agnostic comparisons (dominance, knees)
    /// can use plain `>`.
    pub fn goodness(self, value: f64) -> f64 {
        match self {
            Direction::LowerIsBetter => -value,
            Direction::HigherIsBetter => value,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::LowerIsBetter => write!(f, "lower is better"),
            Direction::HigherIsBetter => write!(f, "higher is better"),
        }
    }
}

/// Opaque actual-side state computed once by a metric's [`Metric::prepare`]
/// and reused across many evaluations against the *same* actual dataset.
///
/// Sweeps and campaigns evaluate a metric at every `(point, repetition)`
/// sample while the actual dataset never changes; whatever the metric derives
/// from the actual side alone (POI extraction, bounding boxes, grids) is
/// invariant across the whole run and can be computed once. The state is
/// deliberately opaque — each metric downcasts back to its own private type —
/// so the trait stays object-safe and new metrics can cache whatever they
/// need without touching the interface.
pub struct PreparedState(Option<Box<dyn Any + Send + Sync>>);

impl PreparedState {
    /// Wraps a metric-specific prepared value.
    pub fn new<T: Any + Send + Sync>(state: T) -> Self {
        Self(Some(Box::new(state)))
    }

    /// The state of metrics that have nothing to prepare (the default).
    pub fn empty() -> Self {
        Self(None)
    }

    /// Returns `true` when no state was prepared.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Borrows the prepared value as `T`, or `None` if this state is empty or
    /// was prepared by a different metric type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_ref().and_then(|boxed| boxed.downcast_ref::<T>())
    }
}

impl fmt::Debug for PreparedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedState").field("prepared", &self.0.is_some()).finish()
    }
}

/// A fingerprint of a dataset — each trace's user id, record count and an
/// order-sensitive hash over *every* record — embedded in prepared state so
/// evaluation detects state built for a different dataset instead of
/// silently computing wrong values from it.
///
/// The hash is computed straight off the columnar storage: one pass over each
/// trace span's `t`/`lat`/`lon` slices, mixing the raw `f64` bit patterns.
/// Because the columns store exactly the bits the old row layout stored per
/// [`geopriv_mobility::Record`], this produces *identical* fingerprints to
/// the historical record-by-record walk — prepared state cached before the
/// columnar refactor would still validate.
///
/// Computing (and re-checking) the fingerprint is a single cheap pass over
/// the columns, far below the cost of the work the prepared state caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetFingerprint {
    traces: Vec<(u64, usize, u64)>,
}

impl DatasetFingerprint {
    /// Fingerprints a dataset.
    pub fn of(dataset: &Dataset) -> Self {
        Self {
            traces: dataset
                .iter()
                .map(|t| {
                    // Multiply-mix fold (FNV-style) over the trace's column
                    // slices: position-dependent, so permuting records never
                    // collides the way a plain rotate-xor fold would for
                    // positions 64 apart.
                    let mut hash = 0xcbf2_9ce4_8422_2325u64;
                    for i in 0..t.len() {
                        let mixed = t.timestamps()[i].to_bits()
                            ^ t.latitudes()[i].to_bits().rotate_left(21)
                            ^ t.longitudes()[i].to_bits().rotate_left(42);
                        hash = (hash ^ mixed).wrapping_mul(0x100_0000_01b3);
                    }
                    (t.user().value(), t.len(), hash)
                })
                .collect(),
        }
    }

    /// Returns an error unless `dataset` has the fingerprinted structure.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::DatasetMismatch`] naming `metric` when the
    /// dataset's traces differ from the fingerprint.
    pub fn ensure_matches(&self, dataset: &Dataset, metric: &str) -> Result<(), MetricError> {
        if *self == Self::of(dataset) {
            Ok(())
        } else {
            Err(MetricError::DatasetMismatch {
                reason: format!("prepared state of {metric} was built for a different dataset"),
            })
        }
    }

    /// Per-user sub-fingerprints, one per distinct user in trace order.
    ///
    /// Each digest folds the user's per-trace `(record count, record hash)`
    /// entries — in the dataset's trace order — with the same FNV-style
    /// multiply-mix used for the per-trace hashes, so it is sensitive to any
    /// record change, any record count change, and any reordering of the
    /// user's traces, while being *independent of every other user*: a
    /// user's digest is a pure function of her own records. That is the
    /// property incremental recomputation keys on — comparing two datasets'
    /// sub-fingerprints identifies exactly which users need re-measurement.
    ///
    /// Traces of the same user are assumed contiguous, which
    /// [`geopriv_mobility::Dataset`] guarantees (its constructor sorts traces
    /// by user). Non-contiguous duplicates would produce one entry per run.
    pub fn per_user(&self) -> Vec<(UserId, u64)> {
        let mut out: Vec<(UserId, u64)> = Vec::new();
        for &(user, len, hash) in &self.traces {
            match out.last_mut() {
                Some((last, digest)) if last.value() == user => {
                    *digest = Self::mix_trace(*digest, len, hash);
                }
                _ => {
                    let digest = Self::mix_trace(0xcbf2_9ce4_8422_2325, len, hash);
                    out.push((UserId::new(user), digest));
                }
            }
        }
        out
    }

    /// Users whose sub-fingerprint differs between `self` (the new dataset)
    /// and `previous`, including users absent from `previous` entirely.
    /// Users present only in `previous` (removed from the fleet) are *not*
    /// reported — they simply have no entry to recompute.
    pub fn changed_users(&self, previous: &DatasetFingerprint) -> Vec<UserId> {
        let old: std::collections::BTreeMap<UserId, u64> =
            previous.per_user().into_iter().collect();
        self.per_user()
            .into_iter()
            .filter(|(user, digest)| old.get(user) != Some(digest))
            .map(|(user, _)| user)
            .collect()
    }

    fn mix_trace(digest: u64, len: usize, hash: u64) -> u64 {
        let digest = (digest ^ len as u64).wrapping_mul(0x100_0000_01b3);
        (digest ^ hash).wrapping_mul(0x100_0000_01b3)
    }
}

/// A metric value in `[0, 1]` together with its *user-keyed* per-user
/// breakdown.
///
/// Every breakdown entry carries the [`UserId`] it was measured for, so two
/// metrics evaluated over the same dataset can be joined by user even when
/// one of them excludes users it cannot evaluate (e.g. POI retrieval for
/// users without POIs) — positional zipping of breakdowns is never needed
/// and never correct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    value: f64,
    evaluated: usize,
    per_user: Vec<(UserId, f64)>,
}

impl MetricValue {
    /// Creates a metric value from user-keyed per-trace values.
    ///
    /// The aggregate is the mean over the given entries, summed in the given
    /// order — for metrics that evaluate one entry per trace this is the
    /// historical trace-grain mean, bit for bit. A user appearing several
    /// times (a dataset may hold several traces per user, e.g. one per day)
    /// contributes one *breakdown* entry carrying the mean of her traces, at
    /// her first position, so breakdown keys stay unique and joinable while
    /// the aggregate keeps weighting every trace equally.
    ///
    /// Non-finite values and an empty list are rejected; a metric that
    /// cannot evaluate *any* user represents that with
    /// [`MetricValue::defined_zero`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] if `per_user` is empty or
    /// contains non-finite values.
    pub fn from_per_user(per_user: Vec<(UserId, f64)>) -> Result<Self, MetricError> {
        if per_user.is_empty() {
            return Err(MetricError::InvalidParameter {
                name: "per_user",
                value: 0.0,
                reason: "metric needs at least one per-user value",
            });
        }
        if per_user.iter().any(|(_, v)| !v.is_finite()) {
            return Err(MetricError::InvalidParameter {
                name: "per_user",
                value: f64::NAN,
                reason: "per-user metric values must be finite",
            });
        }
        let value = per_user.iter().map(|(_, v)| v).sum::<f64>() / per_user.len() as f64;
        let evaluated = per_user.len();
        // Merge multi-trace users: one breakdown entry per user, in
        // first-appearance order, carrying the mean of the user's entries
        // (exactly the single entry for the common one-trace-per-user case).
        let mut index = std::collections::BTreeMap::new();
        let mut merged: Vec<(UserId, f64, usize)> = Vec::with_capacity(per_user.len());
        for (user, v) in per_user {
            match index.get(&user) {
                Some(&i) => {
                    let (_, sum, count): &mut (UserId, f64, usize) = &mut merged[i];
                    *sum += v;
                    *count += 1;
                }
                None => {
                    index.insert(user, merged.len());
                    merged.push((user, v, 1));
                }
            }
        }
        let per_user = merged.into_iter().map(|(user, sum, n)| (user, sum / n as f64)).collect();
        Ok(Self { value, evaluated, per_user })
    }

    /// The metric value of a dataset on which *no* user could be evaluated
    /// but the metric is still well defined as zero (e.g. POI retrieval when
    /// no user has a single POI: nothing is retrievable at all). The
    /// aggregate is `0.0` and the breakdown is empty — excluded users never
    /// appear in a breakdown.
    pub fn defined_zero() -> Self {
        Self { value: 0.0, evaluated: 0, per_user: Vec::new() }
    }

    /// The aggregate metric value (mean over the evaluated traces), in
    /// `[0, 1]`.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of per-trace entries behind the aggregate mean — the count of
    /// traces the metric actually evaluated, *before* multi-trace users are
    /// merged into the breakdown (zero for [`MetricValue::defined_zero`]).
    ///
    /// The cached per-user sweep uses this as the weight when it folds the
    /// users' aggregates into a dataset-level mean.
    pub fn evaluated_count(&self) -> usize {
        self.evaluated
    }

    /// The user-keyed per-user metric values, in dataset (trace) order.
    ///
    /// A metric may exclude users it cannot evaluate (e.g. POI retrieval for
    /// users without POIs — see the metric's docs); the breakdown then covers
    /// only the evaluated users. Join breakdowns of different metrics by
    /// [`UserId`], never by position.
    pub fn per_user(&self) -> &[(UserId, f64)] {
        &self.per_user
    }

    /// The evaluated users, in breakdown order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.per_user.iter().map(|(user, _)| *user)
    }

    /// The value measured for one user, or `None` if the metric excluded
    /// that user.
    pub fn value_for(&self, user: UserId) -> Option<f64> {
        self.per_user.iter().find(|(u, _)| *u == user).map(|(_, v)| *v)
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} (over {} users)", self.value, self.per_user.len())
    }
}

/// A metric comparing an actual dataset with its protected counterpart.
///
/// The paper uses two: a privacy metric, POI retrieval ("the proportion of
/// actual POIs retrieved from the protected data for each user"), where
/// lower is better, and a utility metric, area-coverage similarity at
/// city-block granularity, where higher is better. Privacy or utility is
/// not a separate interface: it is the [`Direction`] a metric reports.
pub trait Metric: Send + Sync {
    /// Human-readable name of the metric.
    fn name(&self) -> &str;

    /// Which way the metric improves.
    fn direction(&self) -> Direction;

    /// Evaluates the metric for an actual dataset and its protected counterpart.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::DatasetMismatch`] when the datasets are not
    /// aligned, or configuration errors.
    fn evaluate(&self, actual: &Dataset, protected: &Dataset) -> Result<MetricValue, MetricError>;

    /// Precomputes the actual-side state reused by
    /// [`Metric::evaluate_prepared`]. The default prepares nothing.
    ///
    /// Implementations must guarantee that `evaluate(a, p)` and
    /// `evaluate_prepared(&prepare(a)?, a, p)` return bit-identical values.
    ///
    /// # Errors
    ///
    /// Propagates errors from analyzing the actual dataset.
    fn prepare(&self, actual: &Dataset) -> Result<PreparedState, MetricError> {
        let _ = actual;
        Ok(PreparedState::empty())
    }

    /// Evaluates the metric, reusing state prepared from the same actual
    /// dataset by [`Metric::prepare`]. The default ignores the state and
    /// falls back to [`Metric::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::DatasetMismatch`] when the datasets are not
    /// aligned or (for metrics that prepare state and fingerprint it, see
    /// [`DatasetFingerprint`]) `prepared` was built for a different dataset.
    fn evaluate_prepared(
        &self,
        prepared: &PreparedState,
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<MetricValue, MetricError> {
        let _ = prepared;
        self.evaluate(actual, protected)
    }

    /// A stable key encoding the metric's full configuration, so prepared
    /// state can be shared between separately constructed but identically
    /// configured metric instances. Defaults to the metric name; metrics with
    /// parameters must include them.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(values: &[(u64, f64)]) -> Vec<(UserId, f64)> {
        values.iter().map(|&(u, v)| (UserId::new(u), v)).collect()
    }

    #[test]
    fn metric_value_aggregates_per_user_values() {
        let v = MetricValue::from_per_user(keyed(&[(1, 0.1), (2, 0.3), (3, 0.2)])).unwrap();
        assert!((v.value() - 0.2).abs() < 1e-12);
        assert_eq!(v.evaluated_count(), 3);
        assert_eq!(v.per_user().len(), 3);
        assert_eq!(
            v.users().collect::<Vec<_>>(),
            vec![UserId::new(1), UserId::new(2), UserId::new(3)]
        );
        assert_eq!(v.value_for(UserId::new(2)), Some(0.3));
        assert_eq!(v.value_for(UserId::new(9)), None);
        assert!(v.to_string().contains("3 users"));
    }

    #[test]
    fn metric_value_rejects_bad_input() {
        assert!(MetricValue::from_per_user(vec![]).is_err());
        assert!(MetricValue::from_per_user(keyed(&[(1, 0.5), (2, f64::NAN)])).is_err());
        assert!(MetricValue::from_per_user(keyed(&[(1, f64::INFINITY)])).is_err());
    }

    /// A dataset may hold several traces per user (one per day, say): the
    /// aggregate stays the per-trace mean while the breakdown merges the
    /// user's traces into one joinable entry.
    #[test]
    fn multi_trace_users_are_merged_in_the_breakdown_only() {
        let v = MetricValue::from_per_user(keyed(&[(1, 0.2), (2, 0.9), (1, 0.4)])).unwrap();
        // Aggregate: mean over the three traces, not over the two users.
        assert!((v.value() - 0.5).abs() < 1e-12);
        // The evaluated count keeps the trace grain too.
        assert_eq!(v.evaluated_count(), 3);
        // Breakdown: one entry per user, first-appearance order, per-user
        // mean of her traces.
        assert_eq!(v.per_user().len(), 2);
        assert_eq!(v.per_user()[0].0, UserId::new(1));
        assert!((v.per_user()[0].1 - 0.3).abs() < 1e-12);
        assert_eq!(v.value_for(UserId::new(2)), Some(0.9));
    }

    #[test]
    fn defined_zero_has_an_empty_breakdown() {
        let v = MetricValue::defined_zero();
        assert_eq!(v.value(), 0.0);
        assert_eq!(v.evaluated_count(), 0);
        assert!(v.per_user().is_empty());
        assert_eq!(v.users().count(), 0);
        assert_eq!(v.value_for(UserId::new(1)), None);
        assert!(v.to_string().contains("0 users"));
    }

    #[test]
    fn prepared_state_wraps_and_downcasts() {
        let empty = PreparedState::empty();
        assert!(empty.is_empty());
        assert!(empty.downcast_ref::<u32>().is_none());
        assert!(format!("{empty:?}").contains("false"));

        let state = PreparedState::new(vec![1u32, 2, 3]);
        assert!(!state.is_empty());
        assert_eq!(state.downcast_ref::<Vec<u32>>(), Some(&vec![1u32, 2, 3]));
        // Downcasting to the wrong type fails instead of panicking.
        assert!(state.downcast_ref::<String>().is_none());
    }

    #[test]
    fn fingerprint_detects_interior_record_changes() {
        use geopriv_geo::{GeoPoint, Seconds};
        use geopriv_mobility::{Record, Trace, UserId};

        let dataset_with_middle = |lat: f64| {
            let records = vec![
                Record::new(Seconds::new(0.0), GeoPoint::clamped(37.70, -122.45)),
                Record::new(Seconds::new(60.0), GeoPoint::clamped(lat, -122.44)),
                Record::new(Seconds::new(120.0), GeoPoint::clamped(37.72, -122.43)),
            ];
            Dataset::new(vec![Trace::new(UserId::new(1), records).unwrap()]).unwrap()
        };
        // Same user, length, first and last records — only the middle differs.
        let a = dataset_with_middle(37.71);
        let b = dataset_with_middle(37.99);
        let fp = DatasetFingerprint::of(&a);
        assert!(fp.ensure_matches(&a, "test").is_ok());
        assert!(matches!(fp.ensure_matches(&b, "test"), Err(MetricError::DatasetMismatch { .. })));
    }

    #[test]
    fn default_prepare_is_a_passthrough() {
        use geopriv_geo::{GeoPoint, Seconds};
        use geopriv_mobility::{Record, Trace, UserId};

        /// A metric relying entirely on the trait's default prepared-state
        /// plumbing.
        struct ConstantMetric;
        impl Metric for ConstantMetric {
            fn name(&self) -> &str {
                "constant"
            }
            fn direction(&self) -> Direction {
                Direction::LowerIsBetter
            }
            fn evaluate(&self, actual: &Dataset, _: &Dataset) -> Result<MetricValue, MetricError> {
                MetricValue::from_per_user(actual.iter().map(|t| (t.user(), 0.5)).collect())
            }
        }

        let trace = Trace::new(
            UserId::new(1),
            vec![Record::new(Seconds::new(0.0), GeoPoint::clamped(37.77, -122.41))],
        )
        .unwrap();
        let dataset = Dataset::new(vec![trace]).unwrap();
        let metric = ConstantMetric;
        assert_eq!(metric.cache_key(), "constant");
        let prepared = metric.prepare(&dataset).unwrap();
        assert!(prepared.is_empty());
        let direct = metric.evaluate(&dataset, &dataset).unwrap();
        let via_prepared = metric.evaluate_prepared(&prepared, &dataset, &dataset).unwrap();
        assert_eq!(direct, via_prepared);
    }
}
