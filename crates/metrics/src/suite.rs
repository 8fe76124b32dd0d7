//! Named, direction-tagged metric suites.
//!
//! The paper's framework fixes exactly one privacy and one utility metric,
//! but is explicitly meant to grow: "we also plan to extend our framework
//! with more metrics and parameters". [`MetricSuite`] is that growth point —
//! an ordered set of metrics, each addressed by a [`MetricId`] and tagged
//! with a [`Direction`], so a study can sweep POI retrieval, distortion,
//! area coverage and hotspot preservation side by side instead of forking
//! the framework per metric pair.

use crate::error::MetricError;
use crate::traits::{Direction, Metric, MetricValue, PreparedState};
use geopriv_mobility::Dataset;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a metric inside a suite.
///
/// Defaults to the metric's `name()`; [`SuiteMetric::with_id`] overrides it
/// when one suite carries two differently configured instances of the same
/// metric family (e.g. area coverage at two cell sizes).
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

/// One entry of a [`MetricSuite`]: a boxed [`Metric`] plus its optional id
/// override.
pub struct SuiteMetric {
    metric: Box<dyn Metric>,
    id: Option<MetricId>,
}

impl SuiteMetric {
    /// Wraps a metric.
    pub fn new<M: Metric + 'static>(metric: M) -> Self {
        Self::boxed(Box::new(metric))
    }

    /// Wraps an already-boxed metric.
    pub fn boxed(metric: Box<dyn Metric>) -> Self {
        Self { metric, id: None }
    }

    /// Overrides the id this metric is addressed by inside its suite
    /// (default: the metric's `name()`).
    #[must_use]
    pub fn with_id(mut self, id: impl Into<MetricId>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// The id this metric is addressed by.
    pub fn id(&self) -> MetricId {
        self.id.clone().unwrap_or_else(|| MetricId::new(self.name()))
    }

    /// The underlying metric's human-readable name.
    pub fn name(&self) -> &str {
        self.metric.name()
    }

    /// Which way this metric improves.
    pub fn direction(&self) -> Direction {
        self.metric.direction()
    }

    /// Evaluates the metric on an actual/protected dataset pair.
    ///
    /// # Errors
    ///
    /// Propagates the underlying metric's errors.
    pub fn evaluate(
        &self,
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<MetricValue, MetricError> {
        self.metric.evaluate(actual, protected)
    }

    /// Precomputes the metric's actual-side state (see [`Metric::prepare`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying metric's errors.
    pub fn prepare(&self, actual: &Dataset) -> Result<PreparedState, MetricError> {
        self.metric.prepare(actual)
    }

    /// Evaluates the metric against prepared actual-side state (bit-identical
    /// to [`SuiteMetric::evaluate`] by the [`Metric`] contract).
    ///
    /// # Errors
    ///
    /// Propagates the underlying metric's errors.
    pub fn evaluate_prepared(
        &self,
        prepared: &PreparedState,
        actual: &Dataset,
        protected: &Dataset,
    ) -> Result<MetricValue, MetricError> {
        self.metric.evaluate_prepared(prepared, actual, protected)
    }

    /// The underlying metric's configuration cache key (see
    /// [`Metric::cache_key`]), used to share prepared state between
    /// identically configured metrics.
    pub fn cache_key(&self) -> String {
        self.metric.cache_key()
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
/// assert!(suite.get(&"poi-retrieval".into()).is_some());
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
    /// Returns [`MetricError::InvalidSuite`] for an empty list or duplicate
    /// ids (disambiguate with [`SuiteMetric::with_id`]).
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
                        "duplicate metric id \"{}\" — disambiguate with SuiteMetric::with_id",
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

    /// The metrics, in suite order.
    pub fn metrics(&self) -> &[SuiteMetric] {
        &self.metrics
    }

    /// Iterates over the metrics in suite order.
    pub fn iter(&self) -> impl Iterator<Item = &SuiteMetric> {
        self.metrics.iter()
    }

    /// The metric ids, in suite order.
    pub fn ids(&self) -> Vec<MetricId> {
        self.metrics.iter().map(SuiteMetric::id).collect()
    }

    /// Looks a metric up by id.
    pub fn get(&self, id: &MetricId) -> Option<&SuiteMetric> {
        self.metrics.iter().find(|m| &m.id() == id)
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
    use crate::{AreaCoverage, DistortionUtility, HotspotPreservation, PoiRetrieval};
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
            suite.ids(),
            vec![MetricId::new("poi-retrieval"), MetricId::new("area-coverage")]
        );
        assert_eq!(suite.metrics()[0].direction(), Direction::LowerIsBetter);
        assert_eq!(suite.metrics()[1].direction(), Direction::HigherIsBetter);
        assert!(suite.get(&"nope".into()).is_none());
        assert!(format!("{suite:?}").contains("poi-retrieval"));
        assert!(format!("{:?}", suite.metrics()[0]).contains("LowerIsBetter"));
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
        // with_id disambiguates.
        let suite = MetricSuite::new(vec![
            SuiteMetric::new(AreaCoverage::default()),
            SuiteMetric::new(AreaCoverage::default()).with_id("area-coverage-fine"),
        ])
        .unwrap();
        assert_eq!(suite.ids()[1], MetricId::new("area-coverage-fine"));
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
            SuiteMetric::new(AreaCoverage::cell_overlap()),
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
                (MetricId::new("area-coverage-f1"), Direction::HigherIsBetter),
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
}
