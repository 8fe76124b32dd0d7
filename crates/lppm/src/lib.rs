//! # geopriv-lppm
//!
//! Location Privacy Protection Mechanisms (LPPMs) for the `geopriv` workspace.
//!
//! The object of study of Cerf et al.'s configuration framework is the LPPM:
//! a mechanism that transforms an actual mobility trace into a protected one.
//! This crate provides:
//!
//! * [`Lppm`] — the common, object-safe mechanism interface, and [`Kernel`],
//!   the record loop each mechanism implements once: a dataset and a record
//!   stream are both protected by it;
//! * [`GeoIndistinguishability`] — the paper's illustrated mechanism
//!   (planar-Laplace noise parameterized by ε in m⁻¹, Andrés et al. CCS 2013);
//! * [`GridCloaking`], [`GaussianPerturbation`] — the additional mechanisms
//!   the paper's future work targets, used as baselines and ablations;
//! * [`Pipeline`] — sequential composition of mechanisms;
//! * [`stream::open_stream`] — record-at-a-time streaming sessions for the
//!   online serving path: the same kernel, one record per call, so the
//!   stream is bit-identical to the offline protection under a fixed seed;
//! * [`Epsilon`], [`ParameterDescriptor`] — typed configuration parameters and
//!   the sweep metadata the framework consumes;
//! * [`ConfigSpace`], [`ConfigPoint`] — multi-dimensional configuration
//!   spaces (ordered, uniquely named axes) and validated points inside them,
//!   the unit the framework sweeps and recommends.
//!
//! ## Example
//!
//! ```
//! use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
//! use geopriv_mobility::generator::TaxiFleetBuilder;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dataset = TaxiFleetBuilder::new().drivers(2).duration_hours(1.0).build(&mut rng)?;
//!
//! // ε = 0.01 m⁻¹ is the paper's recommended operating point.
//! let geoi = GeoIndistinguishability::new(Epsilon::new(0.01)?);
//! let protected = geoi.protect_dataset(&dataset, &mut rng)?;
//! assert_eq!(protected.user_count(), dataset.user_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloaking;
pub mod error;
pub mod gaussian;
pub mod geo_ind;
pub mod laplace;
pub mod params;
pub mod pipeline;
pub mod space;
pub mod stream;
pub mod traits;

pub use cloaking::GridCloaking;
pub use error::LppmError;
pub use gaussian::GaussianPerturbation;
pub use geo_ind::{GeoIndistinguishability, PAPER_EPSILON_RANGE};
pub use laplace::PlanarLaplace;
pub use params::{Epsilon, ParameterDescriptor, ParameterScale};
pub use pipeline::Pipeline;
pub use space::{ConfigPoint, ConfigSpace};
pub use stream::{open_stream, LppmStream};
pub use traits::{Kernel, Lppm};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cloaking::GridCloaking;
    pub use crate::error::LppmError;
    pub use crate::gaussian::GaussianPerturbation;
    pub use crate::geo_ind::GeoIndistinguishability;
    pub use crate::params::{Epsilon, ParameterDescriptor, ParameterScale};
    pub use crate::pipeline::Pipeline;
    pub use crate::space::{ConfigPoint, ConfigSpace};
    pub use crate::stream::{open_stream, LppmStream};
    pub use crate::traits::{Kernel, Lppm};
}
