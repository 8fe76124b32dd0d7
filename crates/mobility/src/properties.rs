//! Dataset properties (the `d_j` of Equation 1).
//!
//! Step 1 of the framework identifies "the properties of the dataset that are
//! likely to influence privacy and utility metrics (i.e., reflecting
//! impactful characteristics of users such as the uniqueness)". This module
//! computes a standard battery of candidate properties per user and per
//! dataset; the framework then ranks them with a PCA
//! (`geopriv_analysis::Pca`) and keeps the influential ones.

use crate::dataset::Dataset;
use crate::error::MobilityError;
use crate::trace::TraceView;
use geopriv_geo::{Grid, Meters};
use serde::{Deserialize, Serialize};

/// The candidate dataset properties computed for one trace (one user).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceProperties {
    /// Number of location records.
    pub record_count: f64,
    /// Observation duration in hours.
    pub duration_hours: f64,
    /// Total travelled distance in kilometers.
    pub travelled_km: f64,
    /// Radius of gyration in meters (spatial compactness).
    pub radius_of_gyration_m: f64,
    /// Mean speed in meters per second.
    pub mean_speed_mps: f64,
    /// Median sampling interval in seconds.
    pub sampling_interval_s: f64,
    /// Number of distinct grid cells visited (spatial coverage).
    pub visited_cells: f64,
    /// Shannon entropy (in bits) of the distribution of visits over grid
    /// cells — a proxy for the "uniqueness" of the user's mobility.
    pub visit_entropy_bits: f64,
}

impl TraceProperties {
    /// Names of the properties, in the order produced by [`TraceProperties::as_vector`].
    pub const NAMES: [&'static str; 8] = [
        "record_count",
        "duration_hours",
        "travelled_km",
        "radius_of_gyration_m",
        "mean_speed_mps",
        "sampling_interval_s",
        "visited_cells",
        "visit_entropy_bits",
    ];

    /// Computes the properties of a trace (given as a zero-copy columnar
    /// view; use [`Trace::view`](crate::Trace::view) for an owned trace) on
    /// the given coverage grid.
    pub fn of(trace: TraceView<'_>, grid: &Grid) -> Self {
        let histogram = grid.histogram(trace.iter().map(|r| r.location()));
        let total: usize = histogram.values().sum();
        let entropy = if total == 0 {
            0.0
        } else {
            histogram
                .values()
                .map(|&count| {
                    let p = count as f64 / total as f64;
                    -p * p.log2()
                })
                .sum()
        };
        Self {
            record_count: trace.len() as f64,
            duration_hours: trace.duration().to_hours(),
            travelled_km: trace.travelled_distance().to_kilometers(),
            radius_of_gyration_m: trace.radius_of_gyration().as_f64(),
            mean_speed_mps: trace.mean_speed(),
            sampling_interval_s: trace.median_sampling_interval().as_f64(),
            visited_cells: histogram.len() as f64,
            visit_entropy_bits: entropy,
        }
    }

    /// The properties as a feature vector (same order as [`TraceProperties::NAMES`]).
    pub fn as_vector(&self) -> Vec<f64> {
        vec![
            self.record_count,
            self.duration_hours,
            self.travelled_km,
            self.radius_of_gyration_m,
            self.mean_speed_mps,
            self.sampling_interval_s,
            self.visited_cells,
            self.visit_entropy_bits,
        ]
    }
}

/// The property matrix of a whole dataset: one row of [`TraceProperties`] per trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProperties {
    rows: Vec<TraceProperties>,
}

impl DatasetProperties {
    /// Computes the per-trace properties of a dataset.
    ///
    /// `cell_size` controls the coverage grid used for the cell-count and
    /// entropy properties (200 m — a city block — by default elsewhere in the
    /// workspace).
    ///
    /// # Errors
    ///
    /// Propagates geospatial errors (degenerate bounding box, invalid cell size).
    pub fn compute(dataset: &Dataset, cell_size: Meters) -> Result<Self, MobilityError> {
        let bounds = dataset.bounding_box()?.expanded(0.05);
        let grid = Grid::new(bounds, cell_size)?;
        let rows = dataset.iter().map(|t| TraceProperties::of(t, &grid)).collect();
        Ok(Self { rows })
    }

    /// The property matrix as rows of feature vectors, suitable for
    /// `geopriv_analysis::Pca::fit`.
    pub fn as_matrix(&self) -> Vec<Vec<f64>> {
        self.rows.iter().map(TraceProperties::as_vector).collect()
    }

    /// The mean of each property over all traces.
    pub fn means(&self) -> Vec<f64> {
        let matrix = self.as_matrix();
        let n = matrix.len() as f64;
        let width = TraceProperties::NAMES.len();
        (0..width).map(|j| matrix.iter().map(|row| row[j]).sum::<f64>() / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, UserId};
    use crate::trace::Trace;
    use geopriv_geo::{GeoPoint, Seconds};

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn moving_trace(user: u64) -> Trace {
        let records: Vec<Record> = (0..60)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    gp(37.75 + i as f64 * 0.0005, -122.45 + i as f64 * 0.0005),
                )
            })
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn stationary_trace(user: u64) -> Trace {
        let records: Vec<Record> = (0..60)
            .map(|i| Record::new(Seconds::new(i as f64 * 30.0), gp(37.76, -122.44)))
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    #[test]
    fn properties_reflect_mobility_behaviour() {
        let dataset = Dataset::new(vec![moving_trace(1), stationary_trace(2)]).unwrap();
        let props = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        assert_eq!(props.rows.len(), 2);

        let moving = &props.rows[0];
        let stationary = &props.rows[1];

        assert_eq!(moving.record_count, 60.0);
        assert!((moving.duration_hours - 59.0 * 30.0 / 3600.0).abs() < 1e-9);
        assert!(moving.travelled_km > stationary.travelled_km);
        assert!(moving.radius_of_gyration_m > stationary.radius_of_gyration_m);
        assert!(moving.mean_speed_mps > 0.0);
        assert_eq!(stationary.mean_speed_mps, 0.0);
        assert!(moving.visited_cells > stationary.visited_cells);
        assert!(moving.visit_entropy_bits > stationary.visit_entropy_bits);
        assert_eq!(stationary.visited_cells, 1.0);
        assert_eq!(stationary.visit_entropy_bits, 0.0);
        assert_eq!(moving.sampling_interval_s, 30.0);
    }

    #[test]
    fn matrix_shape_matches_names() {
        let dataset = Dataset::new(vec![moving_trace(1), stationary_trace(2)]).unwrap();
        let props = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let matrix = props.as_matrix();
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0].len(), TraceProperties::NAMES.len());
        let means = props.means();
        assert_eq!(means.len(), TraceProperties::NAMES.len());
        assert!((means[0] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn means_average_each_property_over_the_traces() {
        let dataset =
            Dataset::new(vec![moving_trace(1), stationary_trace(2), moving_trace(3)]).unwrap();
        let props = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let matrix = props.as_matrix();
        for (j, mean) in props.means().into_iter().enumerate() {
            let expected = matrix.iter().map(|row| row[j]).sum::<f64>() / 3.0;
            assert_eq!(mean, expected, "{}", TraceProperties::NAMES[j]);
        }
        // Two identical moving traces give two identical rows.
        assert_eq!(matrix[0], matrix[2]);
    }

    #[test]
    fn entropy_of_uniform_visits_is_log2_of_cells() {
        // A trace visiting exactly two far-apart cells the same number of times
        // has entropy 1 bit.
        let a = gp(37.75, -122.45);
        let b = gp(37.78, -122.40);
        let records: Vec<Record> = (0..10)
            .map(|i| Record::new(Seconds::new(i as f64 * 60.0), if i % 2 == 0 { a } else { b }))
            .collect();
        let trace = Trace::new(UserId::new(1), records).unwrap();
        let dataset = Dataset::new(vec![trace]).unwrap();
        let props = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let row = &props.rows[0];
        assert_eq!(row.visited_cells, 2.0);
        assert!((row.visit_entropy_bits - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_cell_size_is_rejected() {
        let dataset = Dataset::new(vec![moving_trace(1)]).unwrap();
        assert!(DatasetProperties::compute(&dataset, Meters::new(0.0)).is_err());
    }
}
