//! # geopriv-metrics
//!
//! Privacy and utility metrics for the `geopriv` workspace — the two
//! assessment dimensions of Cerf et al.'s configuration framework.
//!
//! * [`Metric`] — the plug-in interface (the framework is "modular: by using
//!   different metrics…"); each metric reports the [`Direction`] in which it
//!   improves, lower for privacy, higher for utility.
//! * [`MetricSuite`] — an ordered set of metrics, each addressed by a
//!   [`MetricId`].
//! * [`PoiExtractor`] — stay-point clustering ("meaningful locations where a
//!   user made a significant stop").
//! * [`PoiRetrieval`] — the paper's privacy metric: proportion of actual POIs
//!   retrievable from the protected data (Figure 1a).
//! * [`AreaCoverage`] — the paper's utility metric: city-block area-coverage
//!   similarity (Figure 1b).
//! * [`MeanDistortion`] / [`DistortionUtility`] — auxiliary displacement
//!   metrics used in ablations.
//!
//! ## Example
//!
//! ```
//! use geopriv_metrics::{AreaCoverage, Direction, Metric, PoiRetrieval};
//! use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
//! use geopriv_mobility::generator::TaxiFleetBuilder;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let actual = TaxiFleetBuilder::new().drivers(2).duration_hours(4.0).build(&mut rng)?;
//! let protected = GeoIndistinguishability::new(Epsilon::new(0.01)?)
//!     .protect_dataset(&actual, &mut rng)?;
//!
//! let metrics: [&dyn Metric; 2] = [&PoiRetrieval::default(), &AreaCoverage::default()];
//! for metric in metrics {
//!     let value = metric.evaluate(&actual, &protected)?;
//!     assert!((0.0..=1.0).contains(&value.value()));
//! }
//! assert_eq!(metrics[0].direction(), Direction::LowerIsBetter);
//! assert_eq!(metrics[1].direction(), Direction::HigherIsBetter);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area_coverage;
pub mod distortion;
pub mod error;
mod grid_support;
pub mod hotspot;
pub mod poi;
pub mod poi_retrieval;
pub mod suite;
pub mod traits;

pub use area_coverage::AreaCoverage;
pub use distortion::{DistortionUtility, MeanDistortion};
pub use error::MetricError;
pub use hotspot::HotspotPreservation;
pub use poi::{Poi, PoiExtractor};
pub use poi_retrieval::PoiRetrieval;
pub use suite::{MetricId, MetricSuite, SuiteMetric};
pub use traits::{DatasetFingerprint, Direction, Metric, MetricValue, PreparedState};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::area_coverage::AreaCoverage;
    pub use crate::distortion::{DistortionUtility, MeanDistortion};
    pub use crate::error::MetricError;
    pub use crate::hotspot::HotspotPreservation;
    pub use crate::poi::{Poi, PoiExtractor};
    pub use crate::poi_retrieval::PoiRetrieval;
    pub use crate::suite::{MetricId, MetricSuite, SuiteMetric};
    pub use crate::traits::{DatasetFingerprint, Direction, Metric, MetricValue, PreparedState};
}
