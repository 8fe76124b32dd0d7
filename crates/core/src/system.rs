//! System definition (step 1 of the framework).
//!
//! "First, the system needs to be defined: (1) the objective metrics for
//! privacy (Pr) and utility (Ut), (2) the LPPM configuration parameters p_i
//! and their range of values, and (3) the properties of the dataset d_i that
//! are likely to influence privacy and utility metrics."
//!
//! [`SystemDefinition`] bundles those ingredients: a [`MetricSuite`] — an
//! ordered set of named, direction-tagged metrics generalizing the paper's
//! fixed privacy/utility pair — and an [`LppmFactory`] describing the
//! mechanism and its [`ConfigSpace`] of swept parameters (note the paper's
//! plural: "the LPPM configuration parameters p_i"). Dataset properties are
//! handled separately by [`crate::property_selection`] since the paper's
//! GEO-I illustration uses none ("no dataset properties is considered").

use crate::error::CoreError;
use geopriv_geo::Meters;
use geopriv_lppm::{
    ConfigPoint, ConfigSpace, Epsilon, GaussianPerturbation, GeoIndistinguishability, GridCloaking,
    Lppm, ParameterDescriptor, Pipeline,
};
use geopriv_metrics::{AreaCoverage, Metric, MetricSuite, PoiRetrieval, SuiteMetric};
use std::collections::{HashMap, HashSet};

/// A factory able to instantiate an LPPM at any point of its configuration
/// space.
///
/// The framework sweeps the whole [`ConfigSpace`] — one axis for the paper's
/// GEO-I ε, several for multi-parameter mechanisms or composed pipelines
/// (grid or one-at-a-time, see [`crate::experiment::SweepPlan`]). A
/// single-parameter factory is the one-axis case: its value is the
/// one-coordinate [`ConfigPoint`] of its space
/// ([`ConfigSpace::point_from_coords`]).
pub trait LppmFactory: Send + Sync {
    /// Name of the mechanism family (e.g. `"geo-indistinguishability"`).
    fn name(&self) -> &str;

    /// The full configuration space: every swept parameter with its range
    /// and scale. This is the one declaration of what the framework sweeps;
    /// a mechanism itself declares no parameters.
    fn space(&self) -> ConfigSpace;

    /// Instantiates the mechanism at a concrete configuration point.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for points that do not
    /// belong to the factory's space.
    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError>;
}

/// A mechanism's axis (its name and scale) over a custom range: what each
/// single-axis factory's `with_range` sweeps.
fn over_range(
    axis: &ParameterDescriptor,
    min: f64,
    max: f64,
) -> Result<ParameterDescriptor, CoreError> {
    ParameterDescriptor::new(axis.name(), min, max, axis.scale())
        .map_err(|e| CoreError::InvalidConfiguration { reason: e.to_string() })
}

/// Factory for [`GeoIndistinguishability`] swept over ε.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoIndistinguishabilityFactory {
    descriptor: ParameterDescriptor,
}

impl Default for GeoIndistinguishabilityFactory {
    fn default() -> Self {
        Self { descriptor: GeoIndistinguishability::epsilon_descriptor() }
    }
}

impl GeoIndistinguishabilityFactory {
    /// Creates the factory with the paper's ε range (10⁻⁴ to 1 m⁻¹).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the factory with a custom ε range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an invalid range.
    pub fn with_range(min_epsilon: f64, max_epsilon: f64) -> Result<Self, CoreError> {
        let descriptor = GeoIndistinguishability::epsilon_descriptor();
        Ok(Self { descriptor: over_range(&descriptor, min_epsilon, max_epsilon)? })
    }
}

impl LppmFactory for GeoIndistinguishabilityFactory {
    fn name(&self) -> &str {
        "geo-indistinguishability"
    }

    fn space(&self) -> ConfigSpace {
        ConfigSpace::single(self.descriptor.clone())
    }

    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
        self.space().check(point).map_err(CoreError::from)?;
        let epsilon = Epsilon::new(point.coords()[0]).map_err(CoreError::from)?;
        Ok(Box::new(GeoIndistinguishability::new(epsilon)))
    }
}

/// Factory for [`GridCloaking`] swept over the cell size (meters).
#[derive(Debug, Clone, PartialEq)]
pub struct GridCloakingFactory {
    descriptor: ParameterDescriptor,
}

impl Default for GridCloakingFactory {
    fn default() -> Self {
        Self { descriptor: GridCloaking::cell_size_descriptor() }
    }
}

impl GridCloakingFactory {
    /// Creates the factory with the default cell-size range (50 m – 5 km).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the factory with a custom cell-size range (meters).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an invalid range.
    pub fn with_range(min_cell_m: f64, max_cell_m: f64) -> Result<Self, CoreError> {
        let descriptor = GridCloaking::cell_size_descriptor();
        Ok(Self { descriptor: over_range(&descriptor, min_cell_m, max_cell_m)? })
    }
}

impl LppmFactory for GridCloakingFactory {
    fn name(&self) -> &str {
        "grid-cloaking"
    }

    fn space(&self) -> ConfigSpace {
        ConfigSpace::single(self.descriptor.clone())
    }

    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
        self.space().check(point).map_err(CoreError::from)?;
        Ok(Box::new(GridCloaking::new(Meters::new(point.coords()[0])).map_err(CoreError::from)?))
    }
}

/// Factory for [`GaussianPerturbation`] swept over σ (meters).
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianPerturbationFactory {
    descriptor: ParameterDescriptor,
}

impl Default for GaussianPerturbationFactory {
    fn default() -> Self {
        Self { descriptor: GaussianPerturbation::sigma_descriptor() }
    }
}

impl GaussianPerturbationFactory {
    /// Creates the factory with the default σ range (1 m – 10 km).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the factory with a custom σ range (meters).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an invalid range.
    pub fn with_range(min_sigma_m: f64, max_sigma_m: f64) -> Result<Self, CoreError> {
        let descriptor = GaussianPerturbation::sigma_descriptor();
        Ok(Self { descriptor: over_range(&descriptor, min_sigma_m, max_sigma_m)? })
    }
}

impl LppmFactory for GaussianPerturbationFactory {
    fn name(&self) -> &str {
        "gaussian-perturbation"
    }

    fn space(&self) -> ConfigSpace {
        ConfigSpace::single(self.descriptor.clone())
    }

    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
        self.space().check(point).map_err(CoreError::from)?;
        Ok(Box::new(
            GaussianPerturbation::new(Meters::new(point.coords()[0])).map_err(CoreError::from)?,
        ))
    }
}

/// Factory for a composed [`Pipeline`]: stage factories applied in order,
/// with one configuration axis per stage parameter — the first-class entry
/// point to multi-axis studies (e.g. GEO-I ε × cloaking cell size).
///
/// A pipeline has at least one stage: [`PipelineFactory::new`] takes the
/// first. The combined space concatenates the stage spaces. A name on more
/// than one stage is prefixed with its 1-based stage position
/// (`"1.epsilon"`, `"3.epsilon"`), and a name still taken after that (a
/// nested pipeline factory's own `"2.epsilon"`) gets the first free suffix
/// (`"2.epsilon#2"`), so every axis maps back to exactly one stage
/// parameter.
///
/// # Examples
///
/// ```
/// use geopriv_core::{GeoIndistinguishabilityFactory, GridCloakingFactory, LppmFactory,
///     PipelineFactory};
///
/// # fn main() -> Result<(), geopriv_core::CoreError> {
/// let factory =
///     PipelineFactory::new(GeoIndistinguishabilityFactory::new()).then(GridCloakingFactory::new());
/// let space = factory.space();
/// assert_eq!(space.names(), vec!["epsilon", "cell_size"]);
/// let lppm = factory.instantiate_at(&space.point(&[("epsilon", 0.01), ("cell_size", 500.0)])?)?;
/// assert_eq!(lppm.name(), "pipeline[geo-indistinguishability, grid-cloaking]");
/// # Ok(())
/// # }
/// ```
pub struct PipelineFactory {
    /// The stage factories, in order; never empty.
    stages: Vec<Box<dyn LppmFactory>>,
    name: String,
    /// Per-stage axis lists after cross-stage qualification, and the space
    /// they form, rebuilt once per composition step so the sweep hot path
    /// (one `instantiate_at` per design point) never re-derives them.
    qualified: Vec<Vec<ParameterDescriptor>>,
    space: ConfigSpace,
}

impl PipelineFactory {
    /// Creates a pipeline factory whose first stage is `first`; append more
    /// stages with [`PipelineFactory::then`].
    pub fn new<F: LppmFactory + 'static>(first: F) -> Self {
        let space = first.space();
        Self { stages: Vec::new(), name: String::new(), qualified: Vec::new(), space }.then(first)
    }

    /// Appends a stage factory.
    #[must_use]
    pub fn then<F: LppmFactory + 'static>(self, factory: F) -> Self {
        self.then_boxed(Box::new(factory))
    }

    /// Appends an already-boxed stage factory.
    #[must_use]
    pub fn then_boxed(mut self, factory: Box<dyn LppmFactory>) -> Self {
        self.stages.push(factory);
        let names: Vec<&str> = self.stages.iter().map(|s| s.name()).collect();
        self.name = format!("pipeline[{}]", names.join(", "));
        let spaces: Vec<ConfigSpace> = self.stages.iter().map(|s| s.space()).collect();
        self.qualified = qualify_stage_parameters(&spaces);
        // Every stage space has an axis and the qualified names are unique,
        // so the concatenated axes always form a space.
        if let Ok(space) = ConfigSpace::new(self.qualified.concat()) {
            self.space = space;
        }
        self
    }
}

impl LppmFactory for PipelineFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> ConfigSpace {
        self.space.clone()
    }

    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
        self.space.check(point).map_err(CoreError::from)?;
        // The point's coordinates are in space order, which is per-stage
        // concatenation order: hand each stage its own slice, translated back
        // to the stage's unqualified axis names.
        let coords = point.coords();
        let mut pipeline = Pipeline::new();
        let mut offset = 0;
        for (stage, qualified) in self.stages.iter().zip(&self.qualified) {
            let stage_space = stage.space();
            let stage_point =
                stage_space.point_from_coords(&coords[offset..offset + qualified.len()])?;
            offset += qualified.len();
            pipeline = pipeline.then_boxed(stage.instantiate_at(&stage_point)?);
        }
        Ok(Box::new(pipeline))
    }
}

/// Qualifies the stage spaces' axes so the flattened list has globally
/// unique names, keeping the per-stage grouping (see [`PipelineFactory`]).
/// Unambiguous names pass through unqualified.
fn qualify_stage_parameters(spaces: &[ConfigSpace]) -> Vec<Vec<ParameterDescriptor>> {
    // A space's names are unique, so each stage counts a name at most once.
    let mut stages_exposing: HashMap<&str, usize> = HashMap::new();
    for axis in spaces.iter().flat_map(ConfigSpace::axes) {
        *stages_exposing.entry(axis.name()).or_insert(0) += 1;
    }
    let mut taken: HashSet<String> = HashSet::new();
    spaces
        .iter()
        .enumerate()
        .map(|(stage, space)| {
            space
                .axes()
                .iter()
                .map(|axis| {
                    let name = if stages_exposing[axis.name()] > 1 {
                        format!("{}.{}", stage + 1, axis.name())
                    } else {
                        axis.name().to_string()
                    };
                    let mut unique = name.clone();
                    let mut suffix = 1;
                    while !taken.insert(unique.clone()) {
                        suffix += 1;
                        unique = format!("{name}#{suffix}");
                    }
                    axis.with_name(unique)
                })
                .collect()
        })
        .collect()
}

impl std::fmt::Debug for PipelineFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineFactory")
            .field("stages", &self.name)
            .field("len", &self.stages.len())
            .finish()
    }
}

/// The system under study: the LPPM (with its configuration space) and the
/// suite of evaluation metrics.
pub struct SystemDefinition {
    factory: Box<dyn LppmFactory>,
    suite: MetricSuite,
}

impl SystemDefinition {
    /// Defines a system from a mechanism factory and a metric suite.
    pub fn new(factory: Box<dyn LppmFactory>, suite: MetricSuite) -> Self {
        Self { factory, suite }
    }

    /// Defines a system from the paper's shape — one privacy metric and one
    /// utility metric, in that order. Each keeps the direction it reports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when both metrics share a
    /// name (give them distinct ids via [`MetricSuite::new`] instead).
    pub fn with_pair(
        factory: Box<dyn LppmFactory>,
        privacy_metric: Box<dyn Metric>,
        utility_metric: Box<dyn Metric>,
    ) -> Result<Self, CoreError> {
        let suite = MetricSuite::new(vec![
            SuiteMetric::boxed(privacy_metric),
            SuiteMetric::boxed(utility_metric),
        ])
        .map_err(|e| CoreError::InvalidConfiguration { reason: e.to_string() })?;
        Ok(Self::new(factory, suite))
    }

    /// The paper's illustrated system: GEO-I swept over ε, POI retrieval as
    /// the privacy metric, city-block area coverage as the utility metric.
    pub fn paper_geoi() -> Self {
        Self::with_pair(
            Box::new(GeoIndistinguishabilityFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .expect("the paper metrics have distinct names")
    }

    /// The mechanism factory.
    pub fn factory(&self) -> &dyn LppmFactory {
        self.factory.as_ref()
    }

    /// The metric suite.
    pub fn suite(&self) -> &MetricSuite {
        &self.suite
    }

    /// The full configuration space (shortcut for `factory().space()`).
    pub fn space(&self) -> ConfigSpace {
        self.factory.space()
    }

    /// A stable key identifying this system's full configuration: mechanism
    /// family, the configuration space (every axis's range/scale) and every
    /// metric configuration, in suite order.
    ///
    /// The campaign engine uses it to label runs and to recognize systems
    /// whose metrics can share prepared actual-side state.
    pub fn cache_key(&self) -> String {
        let metric_keys: Vec<String> = self.suite.iter().map(|m| m.cache_key()).collect();
        format!(
            "{}[{}]|{}",
            self.factory.name(),
            self.factory.space().cache_token(),
            metric_keys.join("|")
        )
    }
}

impl std::fmt::Debug for SystemDefinition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemDefinition")
            .field("lppm", &self.factory.name())
            .field("parameters", &self.factory.space().names())
            .field("metrics", &self.suite)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_lppm::ParameterScale;
    use geopriv_metrics::{Direction, HotspotPreservation, MetricId};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one axis of a single-parameter factory.
    fn axis(factory: &dyn LppmFactory) -> ParameterDescriptor {
        factory.space().single_axis().expect("a single-parameter factory").clone()
    }

    /// Instantiates a single-parameter factory at `value`.
    fn instantiate(factory: &dyn LppmFactory, value: f64) -> Result<Box<dyn Lppm>, CoreError> {
        factory.instantiate_at(&factory.space().point_from_coords(&[value])?)
    }

    /// A GEO-I mechanism at `epsilon`.
    fn geoi(epsilon: f64) -> GeoIndistinguishability {
        GeoIndistinguishability::new(geopriv_lppm::Epsilon::new(epsilon).unwrap())
    }

    /// One driver's hour, protected by `lppm` under a fixed seed.
    fn protected(lppm: &dyn Lppm) -> Dataset {
        let mut rng = StdRng::seed_from_u64(9);
        let dataset =
            TaxiFleetBuilder::new().drivers(1).duration_hours(1.0).build(&mut rng).unwrap();
        lppm.protect_dataset(&dataset, &mut rng).unwrap()
    }

    #[test]
    fn geoi_factory_instantiates_across_its_range() {
        let factory = GeoIndistinguishabilityFactory::new();
        assert_eq!(factory.name(), "geo-indistinguishability");
        let descriptor = axis(&factory);
        assert_eq!(descriptor.name(), "epsilon");
        assert_eq!(descriptor.scale(), ParameterScale::Logarithmic);
        for value in descriptor.sweep(7) {
            let lppm = instantiate(&factory, value).unwrap();
            assert_eq!(lppm.name(), "geo-indistinguishability");
        }
        assert!(instantiate(&factory, 0.0).is_err());
        assert!(instantiate(&factory, -1.0).is_err());
    }

    #[test]
    fn geoi_factory_custom_range() {
        let factory = GeoIndistinguishabilityFactory::with_range(0.001, 0.1).unwrap();
        let d = axis(&factory);
        assert_eq!(d.min(), 0.001);
        assert_eq!(d.max(), 0.1);
        assert!(GeoIndistinguishabilityFactory::with_range(0.1, 0.001).is_err());
        assert!(GeoIndistinguishabilityFactory::with_range(0.0, 0.1).is_err());
    }

    #[test]
    fn other_factories_instantiate() {
        let cloaking = GridCloakingFactory::new();
        assert!(instantiate(&cloaking, 500.0).is_ok());
        assert!(instantiate(&cloaking, 0.0).is_err());
        assert_eq!(axis(&cloaking).name(), "cell_size");

        let gaussian = GaussianPerturbationFactory::new();
        assert!(instantiate(&gaussian, 100.0).is_ok());
        assert!(instantiate(&gaussian, -1.0).is_err());
        assert_eq!(axis(&gaussian).name(), "sigma");
    }

    #[test]
    fn every_factory_gains_a_custom_range_constructor() {
        // The API-consistency satellite: with_range exists on all three
        // single-axis factories, with identical validation behavior.
        let cloaking = GridCloakingFactory::with_range(100.0, 1000.0).unwrap();
        assert_eq!((axis(&cloaking).min(), axis(&cloaking).max()), (100.0, 1000.0));
        assert_eq!(axis(&cloaking).scale(), ParameterScale::Logarithmic);
        // Instantiation enforces the configured range uniformly.
        assert!(instantiate(&cloaking, 500.0).is_ok());
        assert!(instantiate(&cloaking, 50.0).is_err());
        assert!(GridCloakingFactory::with_range(1000.0, 100.0).is_err());
        assert!(GridCloakingFactory::with_range(0.0, 100.0).is_err());

        let gaussian = GaussianPerturbationFactory::with_range(10.0, 200.0).unwrap();
        assert_eq!((axis(&gaussian).min(), axis(&gaussian).max()), (10.0, 200.0));
        assert!(instantiate(&gaussian, 100.0).is_ok());
        assert!(instantiate(&gaussian, 1000.0).is_err());
        assert!(GaussianPerturbationFactory::with_range(200.0, 10.0).is_err());
    }

    #[test]
    fn pipeline_factory_composes_spaces_and_mechanisms() {
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GridCloakingFactory::with_range(100.0, 2000.0).unwrap());
        assert_eq!(factory.name(), "pipeline[geo-indistinguishability, grid-cloaking]");
        assert!(format!("{factory:?}").contains("PipelineFactory"));

        let space = factory.space();
        assert_eq!(space.names(), vec!["epsilon", "cell_size"]);
        assert_eq!(space.axis("cell_size").unwrap().max(), 2000.0);

        let point = space.point(&[("epsilon", 0.01), ("cell_size", 500.0)]).unwrap();
        let lppm = factory.instantiate_at(&point).unwrap();
        assert_eq!(lppm.name(), "pipeline[geo-indistinguishability, grid-cloaking]");

        // Out-of-space points and foreign points are rejected.
        let foreign = ConfigSpace::single(GeoIndistinguishability::epsilon_descriptor())
            .point(&[("epsilon", 0.01)])
            .unwrap();
        assert!(factory.instantiate_at(&foreign).is_err());
    }

    #[test]
    fn pipeline_factory_qualifies_colliding_stage_axes() {
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GeoIndistinguishabilityFactory::with_range(1e-3, 0.1).unwrap());
        let space = factory.space();
        assert_eq!(space.names(), vec!["1.epsilon", "2.epsilon"]);
        // Each qualified axis keeps its own stage's range.
        assert_eq!(space.axis("2.epsilon").unwrap().min(), 1e-3);

        // Instantiation routes each qualified value to its stage: the
        // result protects exactly as the hand-built pipeline does, and not
        // as the one with the stages' values swapped.
        let point = space.point(&[("1.epsilon", 0.5), ("2.epsilon", 0.002)]).unwrap();
        let lppm = factory.instantiate_at(&point).unwrap();
        let routed = protected(lppm.as_ref());
        assert_eq!(routed, protected(&Pipeline::new().then(geoi(0.5)).then(geoi(0.002))));
        assert_ne!(routed, protected(&Pipeline::new().then(geoi(0.002)).then(geoi(0.5))));
        // A value valid for stage 1 but not stage 2 fails validation.
        assert!(space.point(&[("1.epsilon", 0.5), ("2.epsilon", 0.5)]).is_err());
    }

    #[test]
    fn a_pipeline_factory_starts_from_its_first_stage() {
        // No factory is empty: `new` takes the first stage, so the space,
        // the cache key and instantiation all work from the start.
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new());
        assert_eq!(factory.name(), "pipeline[geo-indistinguishability]");
        assert_eq!(factory.space(), GeoIndistinguishabilityFactory::new().space());
        let point = factory.space().point(&[("epsilon", 0.01)]).unwrap();
        assert!(factory.instantiate_at(&point).is_ok());
        let system = SystemDefinition::with_pair(
            Box::new(factory),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .unwrap();
        assert!(system.cache_key().contains("epsilon"));
    }

    #[test]
    fn qualified_names_stay_unique_next_to_a_suffixed_stage_axis() {
        /// GEO-I with its one axis renamed.
        struct Renamed(&'static str);
        impl LppmFactory for Renamed {
            fn name(&self) -> &str {
                self.0
            }
            fn space(&self) -> ConfigSpace {
                ConfigSpace::single(GeoIndistinguishability::epsilon_descriptor().with_name(self.0))
            }
            fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
                let epsilon = point.single().unwrap_or(0.01);
                Ok(Box::new(GeoIndistinguishability::new(geopriv_lppm::Epsilon::new(epsilon)?)))
            }
        }
        // The third stage's "1.epsilon" meets the first stage's qualified
        // name and takes the suffix "#2", which the fourth stage's raw name
        // already is: the fourth takes the next free one.
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GeoIndistinguishabilityFactory::new())
            .then(Renamed("1.epsilon"))
            .then(Renamed("1.epsilon#2"));
        let space = factory.space();
        assert_eq!(space.names(), ["1.epsilon", "2.epsilon", "1.epsilon#2", "1.epsilon#2#2"]);
        let point = space.point_from_coords(&[0.5, 0.1, 0.01, 0.002]).unwrap();
        assert_eq!(factory.instantiate_at(&point).unwrap().name().matches("geo-ind").count(), 4);
    }

    #[test]
    fn colliding_stage_axes_are_qualified_by_position() {
        // Two GEO-I stages both expose "epsilon": without qualification the
        // sweep could not tell which stage it targets. A stage between them
        // keeps its own name and still takes a position.
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GridCloakingFactory::new())
            .then(GeoIndistinguishabilityFactory::new());
        let space = factory.space();
        assert_eq!(space.names(), ["1.epsilon", "cell_size", "3.epsilon"]);
        // Qualification renames only; range and scale survive.
        let first = space.axis("1.epsilon").unwrap();
        let d = GeoIndistinguishability::epsilon_descriptor();
        assert_eq!((first.min(), first.max(), first.scale()), (d.min(), d.max(), d.scale()));
        // Non-colliding names stay unqualified.
        let single = PipelineFactory::new(GridCloakingFactory::new())
            .then(GeoIndistinguishabilityFactory::new());
        assert_eq!(single.space().names(), ["cell_size", "epsilon"]);
    }

    #[test]
    fn nested_pipeline_factories_get_occurrence_suffixes() {
        // The inner factory's "2.epsilon" meets the outer second stage's
        // qualified "2.epsilon": position cannot split them, occurrence does.
        let inner = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GeoIndistinguishabilityFactory::new());
        let factory = PipelineFactory::new(inner)
            .then(GeoIndistinguishabilityFactory::new())
            .then(GeoIndistinguishabilityFactory::new());
        let space = factory.space();
        assert_eq!(space.names(), ["1.epsilon", "2.epsilon", "2.epsilon#2", "3.epsilon"]);

        let point = space.point_from_coords(&[0.5, 0.1, 0.01, 0.002]).unwrap();
        let lppm = factory.instantiate_at(&point).unwrap();
        let by_hand = Pipeline::new()
            .then(Pipeline::new().then(geoi(0.5)).then(geoi(0.1)))
            .then(geoi(0.01))
            .then(geoi(0.002));
        assert_eq!(lppm.name(), by_hand.name());
        assert_eq!(protected(lppm.as_ref()), protected(&by_hand));
    }

    #[test]
    fn pipeline_factory_protects_data_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset =
            TaxiFleetBuilder::new().drivers(1).duration_hours(1.0).build(&mut rng).unwrap();
        let factory = PipelineFactory::new(GeoIndistinguishabilityFactory::new())
            .then(GridCloakingFactory::new());
        let point = factory.space().point(&[("epsilon", 0.01), ("cell_size", 500.0)]).unwrap();
        let lppm = factory.instantiate_at(&point).unwrap();
        let protected = lppm.protect_dataset(&dataset, &mut rng).unwrap();
        assert_eq!(protected.record_count(), dataset.record_count());
    }

    #[test]
    fn paper_system_definition_wires_the_right_components() {
        let system = SystemDefinition::paper_geoi();
        assert_eq!(system.factory().name(), "geo-indistinguishability");
        assert_eq!(system.space().names(), vec!["epsilon"]);
        assert_eq!(
            system.suite().ids(),
            vec![MetricId::new("poi-retrieval"), MetricId::new("area-coverage")]
        );
        assert_eq!(system.suite().metrics()[0].direction(), Direction::LowerIsBetter);
        assert_eq!(system.suite().metrics()[1].direction(), Direction::HigherIsBetter);
        let debug = format!("{system:?}");
        assert!(debug.contains("poi-retrieval"));
    }

    #[test]
    fn systems_carry_suites_of_any_size() {
        let system = SystemDefinition::new(
            Box::new(GeoIndistinguishabilityFactory::new()),
            MetricSuite::new(vec![
                SuiteMetric::new(PoiRetrieval::default()),
                SuiteMetric::new(geopriv_metrics::DistortionUtility::default()),
                SuiteMetric::new(AreaCoverage::default()),
                SuiteMetric::new(HotspotPreservation::default()),
            ])
            .unwrap(),
        );
        assert_eq!(system.suite().len(), 4);
        // The cache key covers every metric.
        assert!(system.cache_key().contains("hotspot-preservation"));
        assert!(system.cache_key().contains("distortion-utility"));
    }

    #[test]
    fn with_pair_rejects_colliding_metric_names() {
        /// A utility metric that (wrongly) reuses the privacy metric's name.
        struct Impostor;
        impl Metric for Impostor {
            fn name(&self) -> &str {
                "poi-retrieval"
            }
            fn direction(&self) -> Direction {
                Direction::HigherIsBetter
            }
            fn evaluate(
                &self,
                actual: &geopriv_mobility::Dataset,
                _: &geopriv_mobility::Dataset,
            ) -> Result<geopriv_metrics::MetricValue, geopriv_metrics::MetricError> {
                geopriv_metrics::MetricValue::from_per_user(
                    actual.iter().map(|t| (t.user(), 0.0)).collect(),
                )
            }
        }
        let result = SystemDefinition::with_pair(
            Box::new(GeoIndistinguishabilityFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(Impostor),
        );
        assert!(matches!(result, Err(CoreError::InvalidConfiguration { .. })));
    }

    #[test]
    fn cache_key_distinguishes_systems_and_is_stable() {
        let paper = SystemDefinition::paper_geoi();
        assert_eq!(paper.cache_key(), SystemDefinition::paper_geoi().cache_key());
        assert!(paper.cache_key().contains("geo-indistinguishability"));

        let cloaking = SystemDefinition::with_pair(
            Box::new(GridCloakingFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .unwrap();
        assert_ne!(paper.cache_key(), cloaking.cache_key());

        // Same mechanism over a different range is a different system.
        let narrow = SystemDefinition::with_pair(
            Box::new(GeoIndistinguishabilityFactory::with_range(1e-3, 0.1).unwrap()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .unwrap();
        assert_ne!(paper.cache_key(), narrow.cache_key());

        // A composed system's key covers every axis of its space.
        let composed = SystemDefinition::with_pair(
            Box::new(
                PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                    .then(GridCloakingFactory::new()),
            ),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .unwrap();
        assert!(composed.cache_key().contains("epsilon"));
        assert!(composed.cache_key().contains("cell_size"));
        assert_ne!(composed.cache_key(), paper.cache_key());
    }

    #[test]
    fn instantiate_at_rejects_out_of_space_wire_points_without_panicking() {
        // The serving layer instantiates mechanisms at points deserialized
        // from JSON (`ConfigPoint::from_named` builds them unvalidated), so
        // every factory must turn a hostile point into a typed error, never
        // a panic — that is what the server's fallback path dispatches on.
        let factories: Vec<Box<dyn LppmFactory>> = vec![
            Box::new(GeoIndistinguishabilityFactory::new()),
            Box::new(GridCloakingFactory::new()),
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(
                PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                    .then(GridCloakingFactory::new()),
            ),
        ];
        for factory in &factories {
            let space = factory.space();
            // A well-formed wire point round-trips into a mechanism.
            let good = ConfigPoint::from_named(
                space.axes().iter().map(|a| (a.name().to_string(), a.default_value())).collect(),
            );
            assert!(factory.instantiate_at(&good).is_ok(), "{}", factory.name());

            // Out-of-range coordinate on the first axis.
            let mut named: Vec<(String, f64)> =
                space.axes().iter().map(|a| (a.name().to_string(), a.default_value())).collect();
            named[0].1 = space.axes()[0].max() * 10.0;
            let out_of_range = ConfigPoint::from_named(named.clone());
            assert!(
                matches!(
                    factory.instantiate_at(&out_of_range),
                    Err(CoreError::Lppm(_) | CoreError::InvalidConfiguration { .. })
                ),
                "{} accepted an out-of-range point",
                factory.name()
            );

            // Non-finite coordinate (a tampered or truncated document).
            named[0].1 = f64::NAN;
            assert!(factory.instantiate_at(&ConfigPoint::from_named(named)).is_err());

            // Wrong axis name.
            let misnamed = ConfigPoint::from_named(
                space
                    .axes()
                    .iter()
                    .map(|a| (format!("not-{}", a.name()), a.default_value()))
                    .collect(),
            );
            assert!(factory.instantiate_at(&misnamed).is_err());

            // Wrong dimensionality: an extra axis appended.
            let mut extra: Vec<(String, f64)> =
                space.axes().iter().map(|a| (a.name().to_string(), a.default_value())).collect();
            extra.push(("stowaway".to_string(), 1.0));
            assert!(factory.instantiate_at(&ConfigPoint::from_named(extra)).is_err());

            // The empty point.
            assert!(factory.instantiate_at(&ConfigPoint::from_named(Vec::new())).is_err());
        }
    }

    #[test]
    fn instantiated_mechanism_protects_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let dataset =
            TaxiFleetBuilder::new().drivers(1).duration_hours(1.0).build(&mut rng).unwrap();
        let system = SystemDefinition::paper_geoi();
        let lppm = instantiate(system.factory(), 0.01).unwrap();
        let protected = lppm.protect_dataset(&dataset, &mut rng).unwrap();
        assert_eq!(protected.record_count(), dataset.record_count());
    }
}
