//! Named, direction-tagged metric suites.
//!
//! The paper's framework fixes exactly one privacy and one utility metric,
//! but is explicitly meant to grow: "we also plan to extend our framework
//! with more metrics and parameters". [`MetricSuite`] is that growth point —
//! an ordered set of metrics, each addressed by a [`MetricId`] and tagged
//! with a [`Direction`](crate::Direction), so a study can sweep POI retrieval, distortion,
//! area coverage and hotspot preservation side by side instead of forking
//! the framework per metric pair.

use crate::error::MetricError;
use crate::traits::Metric;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a metric inside a suite: the metric's `name()`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricId(String);

impl MetricId {
    /// Creates an id from any string-like value.
    pub fn new(id: impl Into<String>) -> Self {
        Self(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for MetricId {
    fn from(id: &str) -> Self {
        Self::new(id)
    }
}

impl From<String> for MetricId {
    fn from(id: String) -> Self {
        Self(id)
    }
}

impl PartialEq<str> for MetricId {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for MetricId {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

/// One entry of a [`MetricSuite`]: a boxed [`Metric`].
pub struct SuiteMetric {
    metric: Box<dyn Metric>,
}

impl SuiteMetric {
    /// Wraps a metric.
    pub fn new<M: Metric + 'static>(metric: M) -> Self {
        Self::boxed(Box::new(metric))
    }

    /// Wraps an already-boxed metric.
    pub fn boxed(metric: Box<dyn Metric>) -> Self {
        Self { metric }
    }

    /// The id this metric is addressed by: its name.
    pub fn id(&self) -> MetricId {
        MetricId::new(self.name())
    }
}

/// A suite entry is used as the metric it wraps: `name`, `direction`,
/// `evaluate`, `prepare`, `evaluate_prepared` and `cache_key` resolve on
/// the `dyn Metric`.
impl std::ops::Deref for SuiteMetric {
    type Target = dyn Metric;

    fn deref(&self) -> &Self::Target {
        &*self.metric
    }
}

impl fmt::Debug for SuiteMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuiteMetric")
            .field("id", &self.id())
            .field("name", &self.name())
            .field("direction", &self.direction())
            .finish()
    }
}

/// An ordered set of metrics with unique [`MetricId`]s — the measurement
/// dimensions of one study.
///
/// # Examples
///
/// ```
/// use geopriv_metrics::{AreaCoverage, MetricSuite, PoiRetrieval, SuiteMetric};
///
/// # fn main() -> Result<(), geopriv_metrics::MetricError> {
/// let suite = MetricSuite::new(vec![
///     SuiteMetric::new(PoiRetrieval::default()),
///     SuiteMetric::new(AreaCoverage::default()),
/// ])?;
/// assert_eq!(suite.len(), 2);
/// assert!(suite.iter().any(|metric| metric.id() == "poi-retrieval"));
/// # Ok(())
/// # }
/// ```
pub struct MetricSuite {
    metrics: Vec<SuiteMetric>,
}

impl MetricSuite {
    /// Creates a suite from an ordered list of metrics.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidSuite`] for an empty list or two
    /// metrics of the same id.
    pub fn new(metrics: Vec<SuiteMetric>) -> Result<Self, MetricError> {
        if metrics.is_empty() {
            return Err(MetricError::InvalidSuite {
                reason: "a suite needs at least one metric".to_string(),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for metric in &metrics {
            if !seen.insert(metric.id()) {
                return Err(MetricError::InvalidSuite {
                    reason: format!(
                        "duplicate metric id \"{}\" — a suite holds one metric per id",
                        metric.id()
                    ),
                });
            }
        }
        Ok(Self { metrics })
    }

    /// Number of metrics.
    #[allow(clippy::len_without_is_empty)] // a suite is never empty
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Iterates over the metrics in suite order.
    pub fn iter(&self) -> impl Iterator<Item = &SuiteMetric> {
        self.metrics.iter()
    }
}

impl fmt::Debug for MetricSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.metrics.iter().map(|m| m.id())).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AreaCoverage, Direction, DistortionUtility, HotspotPreservation, PoiRetrieval};
    use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_suite() -> MetricSuite {
        MetricSuite::new(vec![
            SuiteMetric::new(PoiRetrieval::default()),
            SuiteMetric::new(AreaCoverage::default()),
        ])
        .unwrap()
    }

    #[test]
    fn metric_id_conversions_and_display() {
        let id = MetricId::new("poi-retrieval");
        assert_eq!(id, MetricId::from("poi-retrieval"));
        assert_eq!(id, MetricId::from("poi-retrieval".to_string()));
        assert_eq!(id.as_str(), "poi-retrieval");
        assert_eq!(id, "poi-retrieval");
        assert_eq!(id.to_string(), "poi-retrieval");
    }

    #[test]
    fn direction_goodness_and_display() {
        assert_eq!(Direction::LowerIsBetter.goodness(0.3), -0.3);
        assert_eq!(Direction::HigherIsBetter.goodness(0.3), 0.3);
        assert!(Direction::LowerIsBetter.to_string().contains("lower"));
        assert!(Direction::HigherIsBetter.to_string().contains("higher"));
    }

    #[test]
    fn suite_orders_and_tags_metrics() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 2);
        assert_eq!(
            suite.iter().map(SuiteMetric::id).collect::<Vec<_>>(),
            vec![MetricId::new("poi-retrieval"), MetricId::new("area-coverage")]
        );
        assert_eq!(suite.metrics[0].direction(), Direction::LowerIsBetter);
        assert_eq!(suite.metrics[1].direction(), Direction::HigherIsBetter);
        assert!(format!("{suite:?}").contains("poi-retrieval"));
        assert!(format!("{:?}", suite.metrics[0]).contains("LowerIsBetter"));
    }

    #[test]
    fn suite_rejects_empty_and_duplicate_ids() {
        assert!(matches!(MetricSuite::new(vec![]), Err(MetricError::InvalidSuite { .. })));
        let duplicated = MetricSuite::new(vec![
            SuiteMetric::new(AreaCoverage::default()),
            SuiteMetric::new(AreaCoverage::default()),
        ]);
        assert!(
            matches!(duplicated, Err(MetricError::InvalidSuite { reason }) if reason.contains("area-coverage"))
        );
    }

    /// Every shipped metric configuration, with the direction it must
    /// report: a metric's direction is a value, so nothing but this test
    /// catches a flipped one.
    #[test]
    fn suite_metric_delegates_evaluation_and_caching() {
        let mut rng = StdRng::seed_from_u64(3);
        let dataset =
            TaxiFleetBuilder::new().drivers(2).duration_hours(3.0).build(&mut rng).unwrap();
        let suite = MetricSuite::new(vec![
            SuiteMetric::new(PoiRetrieval::default()),
            SuiteMetric::new(AreaCoverage::default()),
            SuiteMetric::new(HotspotPreservation::default()),
            SuiteMetric::new(DistortionUtility::default()),
        ])
        .unwrap();
        let directions: Vec<_> = suite.iter().map(|m| (m.id(), m.direction())).collect();
        assert_eq!(
            directions,
            vec![
                (MetricId::new("poi-retrieval"), Direction::LowerIsBetter),
                (MetricId::new("area-coverage"), Direction::HigherIsBetter),
                (MetricId::new("hotspot-preservation"), Direction::HigherIsBetter),
                (MetricId::new("distortion-utility"), Direction::HigherIsBetter),
            ]
        );
        for metric in suite.iter() {
            assert_eq!(metric.cache_key(), metric.cache_key());
            let prepared = metric.prepare(&dataset).unwrap();
            let direct = metric.evaluate(&dataset, &dataset).unwrap();
            let via_prepared = metric.evaluate_prepared(&prepared, &dataset, &dataset).unwrap();
            assert_eq!(direct, via_prepared);
        }
    }

    #[test]
    fn a_suite_metric_measures_what_its_metric_measures() {
        let mut rng = StdRng::seed_from_u64(5);
        let actual =
            TaxiFleetBuilder::new().drivers(2).duration_hours(3.0).build(&mut rng).unwrap();
        let protected = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        let bare = DistortionUtility::default();
        let wrapped = SuiteMetric::boxed(Box::new(DistortionUtility::default()));
        assert_eq!((wrapped.name(), wrapped.direction()), (bare.name(), bare.direction()));
        assert_eq!(wrapped.id(), MetricId::new(DistortionUtility::ID));
        assert_eq!(wrapped.cache_key(), bare.cache_key());
        assert_eq!(
            wrapped.evaluate(&actual, &protected).unwrap(),
            bare.evaluate(&actual, &protected).unwrap()
        );
    }
}
