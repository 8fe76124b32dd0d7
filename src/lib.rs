//! # geopriv
//!
//! Umbrella crate re-exporting the whole `geopriv` workspace: a framework for
//! the easy, automated configuration of Location Privacy Protection
//! Mechanisms (LPPMs), reproducing Cerf et al., *Toward an Easy Configuration
//! of Location Privacy Protection Mechanisms*, Middleware 2016.
//!
//! The public entry point is the fluent [`AutoConf`] facade — define the
//! system, sweep its configuration space (one axis or many), fit every
//! metric's model, state per-metric constraints, and get an operating-point
//! recommendation ([`core::Recommendation`], carrying a full
//! [`core::ConfigPoint`]) in one chain. The explicit step-by-step pipeline underneath stays public; see
//! the individual crates for details:
//!
//! * [`geo`] — geospatial primitives (points, projections, grids).
//! * [`analysis`] — regression, PCA, interpolation, saturation detection.
//! * [`mobility`] — mobility traces, datasets and synthetic generators.
//! * [`lppm`] — protection mechanisms (Geo-Indistinguishability & friends).
//! * [`metrics`] — the metric trait and direction-tagged suites
//!   ([`metrics::MetricSuite`]).
//! * [`core`] — the configuration framework itself.
//! * [`serve`] — online per-user enforcement of a recommendation behind an
//!   HTTP request path ([`serve::GeoPrivServer`]).
//!
//! ## Quickstart
//!
//! ```
//! use geopriv::prelude::*;
//! use geopriv::AutoConf;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Simulate a small mobility dataset (stand-in for the SF taxi traces).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let dataset = TaxiFleetBuilder::new()
//!     .drivers(4)
//!     .duration_hours(6.0)
//!     .build(&mut rng)?;
//!
//! // 2. Sweep GEO-I's ε, fit the response models, and invert them under
//! //    "at most 30 % POI retrieval, at least 50 % area coverage".
//! let recommendation = AutoConf::for_system(SystemDefinition::paper_geoi())
//!     .dataset(&dataset)
//!     .sweep(|s| s.points(9).seed(42))
//!     .fit()?
//!     .require("poi-retrieval", at_most(0.30))?
//!     .require("area-coverage", at_least(0.50))?
//!     .recommend()?;
//!
//! // 3. The recommended ε comes with per-metric predictions.
//! assert!(recommendation.parameter() > 0.0);
//! assert!(recommendation.predicted(&"poi-retrieval".into()).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod autoconf;
pub mod error;

pub use geopriv_analysis as analysis;
pub use geopriv_core as core;
pub use geopriv_geo as geo;
pub use geopriv_lppm as lppm;
pub use geopriv_metrics as metrics;
pub use geopriv_mobility as mobility;
pub use geopriv_serve as serve;

pub use autoconf::{
    AutoConf, AutoConfWithData, FittedAutoConf, MoveReason, MovedUser, RefreshReport, SweepBuilder,
};
pub use error::Error;

// The README's Rust examples compile as doctests, so they cannot drift from
// the API they show.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Convenient glob-import of the most commonly used items of the workspace.
pub mod prelude {
    pub use crate::autoconf::{
        AutoConf, AutoConfWithData, FittedAutoConf, MoveReason, MovedUser, RefreshReport,
        SweepBuilder,
    };
    pub use crate::error::Error;
    pub use geopriv_core::prelude::*;
    pub use geopriv_geo::prelude::*;
    pub use geopriv_lppm::prelude::*;
    pub use geopriv_metrics::prelude::*;
    pub use geopriv_mobility::prelude::*;
}
