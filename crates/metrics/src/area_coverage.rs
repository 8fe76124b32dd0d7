//! The area-coverage utility metric.
//!
//! The paper's utility objective: "maintaining a similar location precision
//! at the scale of a city block. More precisely, the difference between the
//! area coverage of users in the actual mobility traces and their protected
//! counterpart is expected to remain about the size of a city block and no
//! less accurate." Higher is better.

use crate::error::MetricError;
use crate::grid_support::combined_bounds;
use crate::traits::{Direction, Metric, MetricValue};
use geopriv_geo::{Grid, Meters};
use geopriv_mobility::Dataset;
use serde::{Deserialize, Serialize};

/// How the actual and protected coverages are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageSimilarity {
    /// Compare the *size* of the covered areas: `min(|A|, |P|) / max(|A|, |P|)`
    /// where `|A|` and `|P|` are the numbers of city-block cells covered by the
    /// actual and protected traces.
    ///
    /// This is the reading closest to the paper's definition ("the difference
    /// between the area coverage … is expected to remain about the size of a
    /// city block"): it penalizes the protected trace for inflating (or
    /// shrinking) the user's apparent coverage, and is the default.
    AreaRatio,
    /// Compare *which* cells are covered: the F1 score of the protected cell
    /// set against the actual cell set. Stricter than [`CoverageSimilarity::AreaRatio`]
    /// because it also requires the covered cells to be the right ones.
    CellF1,
}

/// Utility metric: similarity between the city-block area coverage of the
/// actual trace and of the protected trace.
///
/// For each user, the trace's *coverage* is the set of grid cells (square
/// cells of `cell_size`, 200 m — a San Francisco city block — by default)
/// touched by at least one record. The per-user utility compares the actual
/// and protected coverages according to the configured
/// [`CoverageSimilarity`]; the dataset-level value is the mean over users —
/// the quantity plotted on the y-axis of Figure 1b.
///
/// Both similarities read only three counts per user — the actual and the
/// protected coverage's sizes and the size of their intersection — which
/// one [`Grid::overlaps`] call makes for every user from the traces'
/// coordinate columns, without building a set per trace on grids dense
/// enough for a cell bitmap.
///
/// # Examples
///
/// ```
/// use geopriv_metrics::{AreaCoverage, Metric};
/// use geopriv_lppm::{Pipeline, Lppm};
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let actual = TaxiFleetBuilder::new().drivers(2).duration_hours(3.0).build(&mut rng)?;
/// let released = Pipeline::new().protect_dataset(&actual, &mut rng)?;
/// let utility = AreaCoverage::default().evaluate(&actual, &released)?;
/// assert!(utility.value() > 0.99); // releasing the truth keeps full utility
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaCoverage {
    cell_size: Meters,
    similarity: CoverageSimilarity,
}

impl Default for AreaCoverage {
    fn default() -> Self {
        Self { cell_size: Meters::new(200.0), similarity: CoverageSimilarity::AreaRatio }
    }
}

impl AreaCoverage {
    /// The id/name of the default ([`CoverageSimilarity::AreaRatio`]) variant
    /// inside suites and sweep results.
    pub const ID: &'static str = "area-coverage";

    /// Creates the metric with an explicit city-block cell size and the
    /// default (paper) similarity, [`CoverageSimilarity::AreaRatio`].
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for a non-positive cell size.
    pub fn new(cell_size: Meters) -> Result<Self, MetricError> {
        Self::with_similarity(cell_size, CoverageSimilarity::AreaRatio)
    }

    /// Creates the metric with an explicit cell size and similarity mode.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for a non-positive cell size.
    pub fn with_similarity(
        cell_size: Meters,
        similarity: CoverageSimilarity,
    ) -> Result<Self, MetricError> {
        if !(cell_size.as_f64().is_finite() && cell_size.as_f64() > 0.0) {
            return Err(MetricError::InvalidParameter {
                name: "cell_size",
                value: cell_size.as_f64(),
                reason: "cell size must be finite and strictly positive",
            });
        }
        Ok(Self { cell_size, similarity })
    }

    /// The city-block cell size.
    pub fn cell_size(&self) -> Meters {
        self.cell_size
    }

    /// The configured similarity mode.
    pub fn similarity(&self) -> CoverageSimilarity {
        self.similarity
    }
}

impl Metric for AreaCoverage {
    fn name(&self) -> &str {
        match self.similarity {
            CoverageSimilarity::AreaRatio => Self::ID,
            CoverageSimilarity::CellF1 => "area-coverage-f1",
        }
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    // The grid metrics keep the trait's default passthrough `prepare`: the
    // grid spans the *protected* dataset too, so the only actual-side
    // invariant is a bounding box whose re-scan costs no more than verifying
    // a cached copy would.
    fn evaluate(&self, actual: &Dataset, protected: &Dataset) -> Result<MetricValue, MetricError> {
        let pairs = actual
            .paired_with(protected)
            .map_err(|e| MetricError::DatasetMismatch { reason: e.to_string() })?;
        // One grid spanning both datasets so clamping at the border never
        // creates artificial matches between far-away cells.
        let bounds = combined_bounds(actual, protected)?;
        let grid = Grid::new(bounds, self.cell_size)?;

        let overlaps = grid.overlaps(
            pairs
                .iter()
                .map(|(a, p)| ((a.latitudes(), a.longitudes()), (p.latitudes(), p.longitudes()))),
        );
        let per_user = pairs
            .iter()
            .zip(overlaps)
            .map(|((actual_trace, _), overlap)| {
                let similarity = match self.similarity {
                    CoverageSimilarity::AreaRatio => overlap.area_ratio(),
                    CoverageSimilarity::CellF1 => overlap.f1(),
                };
                (actual_trace.user(), similarity)
            })
            .collect();
        MetricValue::from_per_user(per_user)
    }

    fn cache_key(&self) -> String {
        format!("{}/cell={}", self.name(), self.cell_size.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_lppm::{Epsilon, GaussianPerturbation, GeoIndistinguishability, Lppm, Pipeline};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The strict cell-overlap (F1) variant with the default 200 m cells.
    fn cell_f1() -> AreaCoverage {
        AreaCoverage::with_similarity(Meters::new(200.0), CoverageSimilarity::CellF1).unwrap()
    }

    fn taxi_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        TaxiFleetBuilder::new().drivers(4).duration_hours(6.0).build(&mut rng).unwrap()
    }

    #[test]
    fn construction_validates_cell_size() {
        assert!(AreaCoverage::new(Meters::new(200.0)).is_ok());
        assert!(AreaCoverage::new(Meters::new(0.0)).is_err());
        assert!(AreaCoverage::new(Meters::new(-10.0)).is_err());
        assert!(AreaCoverage::with_similarity(Meters::new(f64::NAN), CoverageSimilarity::CellF1)
            .is_err());
        let m = AreaCoverage::default();
        assert_eq!(m.name(), "area-coverage");
        assert_eq!(m.cell_size().as_f64(), 200.0);
        assert_eq!(m.similarity(), CoverageSimilarity::AreaRatio);
        assert_eq!(cell_f1().name(), "area-coverage-f1");
        assert_eq!(cell_f1().similarity(), CoverageSimilarity::CellF1);
    }

    #[test]
    fn identity_protection_keeps_full_utility_in_both_modes() {
        let actual = taxi_dataset(31);
        let mut rng = StdRng::seed_from_u64(1);
        let protected = Pipeline::new().protect_dataset(&actual, &mut rng).unwrap();
        for metric in [AreaCoverage::default(), cell_f1()] {
            let value = metric.evaluate(&actual, &protected).unwrap();
            assert!(value.value() > 0.999, "{}: got {}", metric.name(), value.value());
            assert!(!value.per_user().is_empty());
            assert!(value.per_user().iter().all(|&(_, v)| v > 0.999), "{}", metric.name());
        }
    }

    #[test]
    fn small_noise_keeps_high_utility_heavy_noise_destroys_it() {
        let actual = taxi_dataset(32);
        let utility_at = |eps: f64, metric: AreaCoverage| {
            let mut rng = StdRng::seed_from_u64(2);
            let protected = GeoIndistinguishability::new(Epsilon::new(eps).unwrap())
                .protect_dataset(&actual, &mut rng)
                .unwrap();
            metric.evaluate(&actual, &protected).unwrap().value()
        };
        // Paper-mode (area ratio): high utility at the paper's operating point.
        let at_operating_point = utility_at(0.01, AreaCoverage::default());
        assert!(at_operating_point > 0.6, "utility at eps=0.01 is {at_operating_point}");
        let heavy = utility_at(0.0005, AreaCoverage::default());
        assert!(heavy < at_operating_point, "heavy-noise {heavy} not below {at_operating_point}");

        // Strict mode: same ordering, lower absolute values.
        let strict_high = utility_at(0.5, cell_f1());
        let strict_low = utility_at(0.0005, cell_f1());
        assert!(strict_high > 0.85, "high-eps strict utility {strict_high}");
        assert!(strict_low < 0.4, "low-eps strict utility {strict_low}");
        // The strict metric is never more forgiving than the area ratio.
        assert!(utility_at(0.01, cell_f1()) <= at_operating_point + 1e-9);
    }

    #[test]
    fn utility_decreases_monotonically_with_gaussian_noise() {
        let actual = taxi_dataset(33);
        let utility_at = |sigma: f64| {
            let mut rng = StdRng::seed_from_u64(3);
            let protected = GaussianPerturbation::new(Meters::new(sigma))
                .unwrap()
                .protect_dataset(&actual, &mut rng)
                .unwrap();
            AreaCoverage::default().evaluate(&actual, &protected).unwrap().value()
        };
        let u_small = utility_at(10.0);
        let u_medium = utility_at(300.0);
        let u_large = utility_at(3_000.0);
        assert!(u_small > u_medium, "{u_small} vs {u_medium}");
        assert!(u_medium > u_large, "{u_medium} vs {u_large}");
    }

    #[test]
    fn coarser_cells_are_more_forgiving() {
        let actual = taxi_dataset(34);
        let mut rng = StdRng::seed_from_u64(4);
        let protected = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        for similarity in [CoverageSimilarity::AreaRatio, CoverageSimilarity::CellF1] {
            let fine = AreaCoverage::with_similarity(Meters::new(100.0), similarity)
                .unwrap()
                .evaluate(&actual, &protected)
                .unwrap();
            let coarse = AreaCoverage::with_similarity(Meters::new(1_000.0), similarity)
                .unwrap()
                .evaluate(&actual, &protected)
                .unwrap();
            assert!(
                coarse.value() >= fine.value(),
                "{similarity:?}: coarse {} < fine {}",
                coarse.value(),
                fine.value()
            );
        }
    }

    #[test]
    fn mismatched_datasets_are_rejected() {
        let a = taxi_dataset(35);
        let b = a.take(2).unwrap();
        assert!(matches!(
            AreaCoverage::default().evaluate(&a, &b),
            Err(MetricError::DatasetMismatch { .. })
        ));
    }

    #[test]
    fn prepared_evaluation_matches_direct_evaluation() {
        let actual = taxi_dataset(36);
        let mut rng = StdRng::seed_from_u64(5);
        let protected = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())
            .protect_dataset(&actual, &mut rng)
            .unwrap();
        for metric in [AreaCoverage::default(), cell_f1()] {
            // The grid metrics use the default passthrough prepare.
            let prepared = metric.prepare(&actual).unwrap();
            assert!(prepared.is_empty());
            let direct = metric.evaluate(&actual, &protected).unwrap();
            let via_prepared = metric.evaluate_prepared(&prepared, &actual, &protected).unwrap();
            assert_eq!(direct, via_prepared, "{}", metric.name());
        }
        // Distinct configurations have distinct cache keys.
        assert_ne!(AreaCoverage::default().cache_key(), cell_f1().cache_key());
        assert_ne!(
            AreaCoverage::new(Meters::new(100.0)).unwrap().cache_key(),
            AreaCoverage::default().cache_key()
        );
    }
}
