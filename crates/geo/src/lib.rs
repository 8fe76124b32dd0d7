//! # geopriv-geo
//!
//! Geospatial primitives used throughout the `geopriv` workspace.
//!
//! Everything in the reproduction of *Toward an Easy Configuration of
//! Location Privacy Protection Mechanisms* (Cerf et al., Middleware 2016)
//! manipulates geographic coordinates: the mobility generators emit
//! [`GeoPoint`]s, the LPPMs perturb them, and the privacy/utility metrics
//! compare them on metric grids. This crate provides the shared substrate:
//!
//! * [`GeoPoint`] — a validated WGS-84 latitude/longitude pair.
//! * [`Point`] — a point in a local planar frame, in meters.
//! * [`LocalProjection`] — an equirectangular projection centered on a
//!   reference point, accurate at city scale (the scale of the paper's
//!   San Francisco evaluation).
//! * [`distance`] — haversine distances.
//! * [`BoundingBox`] — geographic extents.
//! * [`Grid`] / [`CellSet`] / [`CellOverlap`] — uniform "city block" grids,
//!   coverage sets, and the |A|, |P|, |A ∩ P| cell counts the paper's
//!   area-coverage utility metric reads, made in one pass per trace.
//!
//! ## Example
//!
//! ```
//! use geopriv_geo::{GeoPoint, LocalProjection, distance};
//!
//! # fn main() -> Result<(), geopriv_geo::GeoError> {
//! let ferry_building = GeoPoint::new(37.7955, -122.3937)?;
//! let city_hall = GeoPoint::new(37.7793, -122.4193)?;
//!
//! // Roughly 2.9 km apart.
//! let d = distance::haversine(ferry_building, city_hall);
//! assert!((2_500.0..3_500.0).contains(&d.as_f64()));
//!
//! // Project into a local planar frame to work in meters.
//! let proj = LocalProjection::centered_on(ferry_building);
//! let p = proj.project(city_hall);
//! assert!((p.distance_to(proj.project(ferry_building)).as_f64() - d.as_f64()).abs() < 20.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod distance;
pub mod error;
pub mod grid;
pub mod point;
pub mod projection;
pub mod units;

pub use bbox::BoundingBox;
pub use error::GeoError;
pub use grid::{CellId, CellOverlap, CellSet, Grid};
pub use point::{GeoPoint, Point};
pub use projection::LocalProjection;
pub use units::{Degrees, Meters, Seconds};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::bbox::BoundingBox;
    pub use crate::distance;
    pub use crate::error::GeoError;
    pub use crate::grid::{CellId, CellOverlap, CellSet, Grid};
    pub use crate::point::{GeoPoint, Point};
    pub use crate::projection::LocalProjection;
    pub use crate::units::{Degrees, Meters, Seconds};
}
