//! # geopriv-core
//!
//! The configuration framework of Cerf et al., *Toward an Easy Configuration
//! of Location Privacy Protection Mechanisms* (Middleware 2016): an automated
//! pipeline that turns "I want at most 10 % POI retrieval and at least 80 %
//! utility" into "configure GEO-I with ε = 0.01".
//!
//! The three steps of the paper map onto three modules:
//!
//! 1. **System definition** ([`system`]) — pick the LPPM with its
//!    [`geopriv_lppm::ConfigSpace`] of swept parameters and a
//!    [`geopriv_metrics::MetricSuite`]: an ordered set of
//!    named, direction-tagged metrics generalizing the paper's fixed
//!    privacy/utility pair; [`property_selection`] ranks candidate dataset
//!    properties with a PCA.
//! 2. **Modeling** ([`experiment`] + [`modeling`]) — automatically sweep the
//!    configuration space (full-factorial grid or the paper's one-at-a-time
//!    design), measure every suite metric into a per-metric column store,
//!    and fit the invertible (log-)linear relationship of Equation 2 — per
//!    axis inside its non-saturated zone, or as a multivariate surface on
//!    grids. The [`campaign`] engine scales
//!    this step to many systems × many datasets on one shared work pool with
//!    amortized actual-side metric state.
//! 3. **Configuration** ([`configurator`]) — invert the fitted models under
//!    the designer's per-metric [`objectives`] and recommend a
//!    [`geopriv_lppm::ConfigPoint`] satisfying every constraint.
//!
//! ## End-to-end example
//!
//! ```no_run
//! use geopriv_core::prelude::*;
//! use geopriv_mobility::generator::TaxiFleetBuilder;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A stand-in for the San Francisco taxi dataset.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dataset = TaxiFleetBuilder::new().drivers(20).duration_hours(12.0).build(&mut rng)?;
//!
//! // Step 1 — define the system (GEO-I, POI retrieval, area coverage).
//! let system = SystemDefinition::paper_geoi();
//!
//! // Step 2 — sweep ε, measure every suite metric, fit the invertible models.
//! let sweep = ExperimentRunner::new(SweepConfig::default()).run(&system, &dataset)?;
//! let fitted = Modeler::new().fit(&sweep)?;
//!
//! // Step 3 — state per-metric objectives and invert.
//! let objectives = Objectives::new()
//!     .require("poi-retrieval", at_most(0.10))?
//!     .require("area-coverage", at_least(0.80))?;
//! let configurator = Configurator::new(fitted);
//! let recommendation = configurator.recommend(&objectives)?;
//! println!("use ε = {:.4}", recommendation.parameter());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod configurator;
pub mod error;
pub mod experiment;
pub mod json;
pub mod modeling;
pub mod objectives;
pub mod pareto;
pub mod property_selection;
pub mod report;
pub mod system;

pub use cache::{CacheStats, MeasurementCache};
pub use campaign::{CampaignResult, CampaignRun, CampaignRunner};
pub use configurator::{
    Configurator, PerUserRecommendation, Recommendation, UserRecommendation, UserVerdict,
};
pub use error::CoreError;
pub use experiment::{
    derive_point_seed, derive_unit_seed, derive_user_seed, CachedSweep, ExperimentRunner, Grain,
    MetricColumn, SweepConfig, SweepMode, SweepPlan, SweepResult, UserColumn,
};
pub use json::JsonValue;
pub use modeling::{
    AxisFit, FitDiagnostics, FittedSuite, MetricDiagnostics, MetricModel, MetricResponse, Modeler,
    ParametricModel, PerAxisFit, PerUserFits, SurfaceFit, UserFit, UserFitOutcome,
};
pub use objectives::{at_least, at_most, Constraint, ConstraintKind, Objectives};
pub use pareto::{ParetoFrontier, TradeOffPoint};
pub use property_selection::{PropertySelection, PropertySelector, RankedProperty};
pub use system::{
    GaussianPerturbationFactory, GeoIndistinguishabilityFactory, GridCloakingFactory, LppmFactory,
    PipelineFactory, SystemDefinition,
};

// The metric-suite vocabulary the core API is expressed in, re-exported so
// `geopriv_core` users need not depend on `geopriv_metrics` directly.
pub use geopriv_metrics::{Direction, MetricId, MetricSuite, SuiteMetric};

// The configuration-space vocabulary the factories and sweeps are expressed
// in, re-exported for the same reason.
pub use geopriv_lppm::{ConfigPoint, ConfigSpace};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cache::{CacheStats, MeasurementCache};
    pub use crate::campaign::{CampaignResult, CampaignRun, CampaignRunner};
    pub use crate::configurator::{
        Configurator, PerUserRecommendation, Recommendation, UserRecommendation, UserVerdict,
    };
    pub use crate::error::CoreError;
    pub use crate::experiment::{
        CachedSweep, ExperimentRunner, Grain, MetricColumn, SweepConfig, SweepMode, SweepPlan,
        SweepResult, UserColumn,
    };
    pub use crate::modeling::{
        AxisFit, FitDiagnostics, FittedSuite, MetricDiagnostics, MetricModel, MetricResponse,
        Modeler, ParametricModel, PerUserFits, SurfaceFit, UserFit, UserFitOutcome,
    };
    pub use crate::objectives::{at_least, at_most, Constraint, ConstraintKind, Objectives};
    pub use crate::pareto::{ParetoFrontier, TradeOffPoint};
    pub use crate::property_selection::{PropertySelection, PropertySelector};
    pub use crate::report;
    pub use crate::system::{
        GaussianPerturbationFactory, GeoIndistinguishabilityFactory, GridCloakingFactory,
        LppmFactory, PipelineFactory, SystemDefinition,
    };
    pub use geopriv_lppm::{ConfigPoint, ConfigSpace};
    pub use geopriv_metrics::{Direction, MetricId, MetricSuite, SuiteMetric};
}
