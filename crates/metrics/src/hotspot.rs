//! Hotspot-preservation utility metric.
//!
//! Many LBS analytics only need the *most visited places* of a user (her top
//! city blocks) rather than the full trace. This metric measures how well the
//! protected data preserves that ranking: the fraction of the user's top-`k`
//! most-visited cells that are still among the top-`k` of the protected
//! trace. It is an alternative utility plug-in demonstrating the modularity
//! claim of the paper ("by using different metrics it is possible to adapt
//! the provided model to specific privacy and utility guarantees").

use crate::error::MetricError;
use crate::grid_support::combined_bounds;
use crate::traits::{Direction, Metric, MetricValue};
use geopriv_geo::{CellId, Grid, Meters};
use geopriv_mobility::{Dataset, TraceView};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Utility metric: preservation of a user's top-`k` most-visited city blocks.
///
/// # Examples
///
/// ```
/// use geopriv_metrics::{HotspotPreservation, Metric};
/// use geopriv_lppm::{Pipeline, Lppm};
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let actual = TaxiFleetBuilder::new().drivers(2).duration_hours(4.0).build(&mut rng)?;
/// let released = Pipeline::new().protect_dataset(&actual, &mut rng)?;
/// let utility = HotspotPreservation::default().evaluate(&actual, &released)?;
/// assert!(utility.value() > 0.99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotPreservation {
    cell_size: Meters,
    top_k: usize,
}

impl Default for HotspotPreservation {
    fn default() -> Self {
        Self { cell_size: Meters::new(200.0), top_k: 5 }
    }
}

impl HotspotPreservation {
    /// The metric's id/name inside suites and sweep results.
    pub const ID: &'static str = "hotspot-preservation";

    /// Creates the metric with an explicit cell size and top-`k`.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for a non-positive cell size
    /// or `k = 0`.
    pub fn new(cell_size: Meters, top_k: usize) -> Result<Self, MetricError> {
        if !(cell_size.as_f64().is_finite() && cell_size.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "cell_size",
                value: cell_size.as_f64(),
                reason: "cell size must be finite and strictly positive",
            });
        }
        if top_k == 0 {
            return Err(MetricError::InvalidParameter {
                name: "top_k",
                value: 0.0,
                reason: "at least one hotspot must be compared",
            });
        }
        Ok(Self { cell_size, top_k })
    }

    /// The city-block cell size.
    pub fn cell_size(&self) -> Meters {
        self.cell_size
    }

    /// The number of top cells compared.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    fn top_cells(&self, grid: &Grid, trace: TraceView<'_>) -> BTreeSet<CellId> {
        let histogram = grid.histogram(trace.iter().map(|r| r.location()));
        let mut cells: Vec<(CellId, usize)> = histogram.into_iter().collect();
        // Sort by decreasing count, breaking ties by cell id for determinism.
        cells.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.into_iter().take(self.top_k).map(|(cell, _)| cell).collect()
    }
}

impl Metric for HotspotPreservation {
    fn name(&self) -> &str {
        Self::ID
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    // Keeps the trait's default passthrough `prepare`: the grid spans the
    // *protected* dataset too, so the only actual-side invariant is a
    // bounding box whose re-scan costs no more than verifying a cached copy
    // would.
    fn evaluate(&self, actual: &Dataset, protected: &Dataset) -> Result<MetricValue, MetricError> {
        let pairs = actual
            .paired_with(protected)
            .map_err(|e| MetricError::DatasetMismatch { reason: e.to_string() })?;
        let grid = Grid::new(combined_bounds(actual, protected)?, self.cell_size)?;

        let mut per_user = Vec::with_capacity(pairs.len());
        for (actual_trace, protected_trace) in pairs {
            let actual_top = self.top_cells(&grid, actual_trace);
            let protected_top = self.top_cells(&grid, protected_trace);
            if actual_top.is_empty() {
                per_user.push((actual_trace.user(), 1.0));
                continue;
            }
            let preserved = actual_top.intersection(&protected_top).count();
            per_user.push((actual_trace.user(), preserved as f64 / actual_top.len() as f64));
        }
        MetricValue::from_per_user(per_user)
    }

    fn cache_key(&self) -> String {
        format!("hotspot-preservation/cell={}/k={}", self.cell_size.as_f64(), self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm, Pipeline};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn taxi_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new().drivers(3).duration_hours(6.0).build(&mut rng).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(HotspotPreservation::new(Meters::new(200.0), 5).is_ok());
        assert!(HotspotPreservation::new(Meters::new(0.0), 5).is_err());
        assert!(HotspotPreservation::new(Meters::new(200.0), 0).is_err());
        assert!(HotspotPreservation::new(Meters::new(f64::NAN), 3).is_err());
        let m = HotspotPreservation::default();
        assert_eq!(m.name(), "hotspot-preservation");
        assert_eq!(m.cell_size().as_f64(), 200.0);
        assert_eq!(m.top_k(), 5);
    }

    #[test]
    fn identity_preserves_all_hotspots() {
        let actual = taxi_dataset(51);
        let mut rng = StdRng::seed_from_u64(1);
        let released = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();
        let value = HotspotPreservation::default().evaluate(&actual, &released).unwrap();
        assert!(value.value() > 0.999, "got {}", value.value());
    }

    #[test]
    fn hotspot_preservation_degrades_with_noise() {
        let actual = taxi_dataset(52);
        let preservation_at = |eps: f64| {
            let mut rng = StdRng::seed_from_u64(2);
            let protected = GeoIndistinguishability::new(Epsilon::new(eps).unwrap())
                .protect_dataset(&actual, &mut rng)
                .unwrap();
            HotspotPreservation::default().evaluate(&actual, &protected).unwrap().value()
        };
        let low_noise = preservation_at(1.0);
        let high_noise = preservation_at(0.0005);
        assert!(low_noise > 0.8, "low-noise preservation {low_noise}");
        assert!(high_noise < low_noise, "{high_noise} vs {low_noise}");
        assert!(high_noise < 0.6, "high-noise preservation {high_noise}");
    }

    #[test]
    fn mismatched_datasets_are_rejected() {
        let a = taxi_dataset(53);
        let b = a.take(1).unwrap();
        assert!(matches!(
            HotspotPreservation::default().evaluate(&a, &b),
            Err(MetricError::DatasetMismatch { .. })
        ));
    }

    #[test]
    fn prepared_evaluation_matches_direct_evaluation() {
        let actual = taxi_dataset(54);
        let mut rng = StdRng::seed_from_u64(4);
        let protected = GeoIndistinguishability::new(Epsilon::new(0.005).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        let metric = HotspotPreservation::default();
        // The grid metrics use the default passthrough prepare.
        let prepared = metric.prepare(&actual).unwrap();
        assert!(prepared.is_empty());
        let direct = metric.evaluate(&actual, &protected).unwrap();
        let via_prepared = metric.evaluate_prepared(&prepared, &actual, &protected).unwrap();
        assert_eq!(direct, via_prepared);
        assert_ne!(
            HotspotPreservation::new(Meters::new(200.0), 3).unwrap().cache_key(),
            metric.cache_key()
        );
    }
}
