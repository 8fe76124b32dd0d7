//! # geopriv-analysis
//!
//! Numerical analysis substrate for the `geopriv` workspace: everything the
//! *modeling* phase of Cerf et al.'s configuration framework needs.
//!
//! * [`stats`] — descriptive statistics (mean, variance, standard deviation).
//! * [`Matrix`] — small dense matrices with a linear solver.
//! * [`regression`] — ordinary least squares, simple and multiple.
//! * [`Pca`] — principal component analysis (Jacobi eigen-solver), used to
//!   select influential dataset properties (paper §3, step 1).
//! * [`Curve`] — empirical response curves, sorted by parameter value.
//! * [`saturation`] — detection of the non-saturated zone of a response
//!   (the vertical lines of Figure 1).
//! * [`model`] — the invertible parametric model of Equation 2
//!   ([`LogLinearModel`]).
//!
//! ## Example: fitting and inverting Equation 2
//!
//! ```
//! use geopriv_analysis::model::LogLinearModel;
//!
//! # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
//! let epsilons = [0.007, 0.01, 0.02, 0.04, 0.08];
//! let privacy: Vec<f64> = epsilons.iter().map(|e: &f64| 0.84 + 0.17 * e.ln()).collect();
//!
//! let model = LogLinearModel::fit(&epsilons, &privacy)?;
//! let epsilon_for_10_percent = model.invert(0.10)?;
//! assert!(epsilon_for_10_percent > 0.01 && epsilon_for_10_percent < 0.015);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod interpolation;
pub mod matrix;
pub mod model;
pub mod pca;
pub mod regression;
pub mod saturation;
pub mod stats;

pub use error::AnalysisError;
pub use interpolation::Curve;
pub use matrix::Matrix;
pub use model::LogLinearModel;
pub use pca::{Pca, PrincipalComponent};
pub use regression::{MultipleLinearRegression, SimpleLinearRegression};
pub use saturation::{find_active_zone, ActiveZone};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::AnalysisError;
    pub use crate::interpolation::Curve;
    pub use crate::matrix::Matrix;
    pub use crate::model::LogLinearModel;
    pub use crate::pca::{Pca, PrincipalComponent};
    pub use crate::regression::{MultipleLinearRegression, SimpleLinearRegression};
    pub use crate::saturation::{find_active_zone, ActiveZone};
}
