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
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HotspotPreservation {
    _private: (),
}

/// Side of a city block the visits are counted on, in meters.
const CELL_SIZE_M: f64 = 200.0;

/// Number of most-visited cells compared per user.
const TOP_K: usize = 5;

impl HotspotPreservation {
    /// The metric's id/name inside suites and sweep results.
    pub const ID: &'static str = "hotspot-preservation";

    fn top_cells(&self, grid: &Grid, trace: TraceView<'_>) -> BTreeSet<CellId> {
        let histogram = grid.histogram(trace.iter().map(|r| r.location()));
        let mut cells: Vec<(CellId, usize)> = histogram.into_iter().collect();
        // Sort by decreasing count, breaking ties by cell id for determinism.
        cells.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.into_iter().take(TOP_K).map(|(cell, _)| cell).collect()
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
        let grid = Grid::new(combined_bounds(actual, protected)?, Meters::new(CELL_SIZE_M))?;

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
        format!("hotspot-preservation/cell={CELL_SIZE_M}/k={TOP_K}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{BoundingBox, GeoPoint, Seconds};
    use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm, Pipeline};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn taxi_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new().drivers(3).duration_hours(6.0).build(&mut rng).unwrap()
    }

    /// Places about 1.1 km apart on one meridian, so no two share a cell.
    fn places(n: usize) -> Vec<GeoPoint> {
        (0..n).map(|i| GeoPoint::new(37.70 + i as f64 * 0.01, -122.45).unwrap()).collect()
    }

    /// A one-user dataset that visits `places[i]` `counts[i]` times, in order.
    fn visits(places: &[GeoPoint], counts: &[usize]) -> Dataset {
        let mut records = Vec::new();
        for (&place, &count) in places.iter().zip(counts) {
            for _ in 0..count {
                records.push(Record::new(Seconds::new(records.len() as f64 * 60.0), place));
            }
        }
        Dataset::new(vec![Trace::new(UserId::new(1), records).unwrap()]).unwrap()
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
        let b = a.user_slice(0..1).unwrap();
        assert!(matches!(
            HotspotPreservation::default().evaluate(&a, &b),
            Err(MetricError::DatasetMismatch { .. })
        ));
    }

    #[test]
    fn the_five_most_visited_cells_are_compared() {
        let p = places(8);
        let counts = [7, 6, 5, 4, 3, 2, 1];
        let actual = visits(&p[..7], &counts);
        let preservation = |moved: usize| {
            let mut released = p[..7].to_vec();
            released[moved] = p[7];
            let protected = visits(&released, &counts);
            HotspotPreservation::default().evaluate(&actual, &protected).unwrap().value()
        };
        // Moving the most visited place loses one hotspot of five...
        assert_eq!(preservation(0), 0.8);
        // ...and moving the sixth loses none: it is not a hotspot.
        assert_eq!(preservation(5), 1.0);
    }

    #[test]
    fn ties_keep_the_lowest_cell_ids() {
        let bounds = BoundingBox::new(37.69, -122.46, 37.80, -122.44).unwrap();
        let grid = Grid::new(bounds, Meters::new(CELL_SIZE_M)).unwrap();
        let p = places(7);
        let dataset = visits(&p, &[1; 7]);
        let top = HotspotPreservation::default().top_cells(&grid, dataset.trace_at(0));
        let mut cells: Vec<CellId> = p.iter().map(|&x| grid.cell_of(x)).collect();
        cells.sort();
        assert_eq!(top, cells[..5].iter().copied().collect());
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
        assert!(format!("{prepared:?}").contains("prepared: false"));
        let direct = metric.evaluate(&actual, &protected).unwrap();
        let via_prepared = metric.evaluate_prepared(&prepared, &actual, &protected).unwrap();
        assert_eq!(direct, via_prepared);
    }
}
