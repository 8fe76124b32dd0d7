//! # geopriv-mobility
//!
//! Mobility traces, datasets and synthetic workload generators for the
//! `geopriv` workspace.
//!
//! The paper's framework manipulates *mobility traces* — "a set of
//! timestamped locations reflecting the user's moving activity" — grouped
//! into per-user [`Trace`]s and multi-user [`Dataset`]s. Because the original
//! cabspotting San-Francisco taxi dataset is not redistributable, the
//! [`generator`] module provides seeded simulators (taxi fleet, commuters)
//! that reproduce the structural characteristics the privacy/utility metrics
//! depend on.
//!
//! * [`Record`], [`Trace`], [`Dataset`] — the data model. Since the
//!   struct-of-arrays refactor the dataset is a *columnar* store:
//!   contiguous timestamp/latitude/longitude buffers plus a span table
//!   and a per-user index, with zero-copy [`TraceView`]s preserving
//!   the trace-oriented API.
//! * [`io`] — CSV import/export (combined layout and cabspotting layout).
//! * [`properties`] — candidate dataset properties (the `d_j` of Equation 1).
//! * [`generator`] — synthetic workload generators.
//!
//! ## Example
//!
//! ```
//! use geopriv_mobility::generator::TaxiFleetBuilder;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let dataset = TaxiFleetBuilder::new()
//!     .drivers(3)
//!     .duration_hours(4.0)
//!     .build(&mut rng)?;
//!
//! assert_eq!(dataset.user_count(), 3);
//! for trace in &dataset {
//!     assert!(trace.travelled_distance().to_kilometers() > 1.0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod generator;
pub mod io;
pub mod properties;
pub mod record;
pub mod trace;

pub use dataset::{Dataset, DatasetBuilder};
pub use error::MobilityError;
pub use properties::{DatasetProperties, TraceProperties};
pub use record::{Record, UserId};
pub use trace::{Trace, TraceView};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::dataset::{Dataset, DatasetBuilder};
    pub use crate::error::MobilityError;
    pub use crate::generator::{CityModel, CommuterBuilder, TaxiFleetBuilder};
    pub use crate::properties::{DatasetProperties, TraceProperties};
    pub use crate::record::{Record, UserId};
    pub use crate::trace::{Trace, TraceView};
}
