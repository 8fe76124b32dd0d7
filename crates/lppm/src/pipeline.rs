//! Composition of protection mechanisms.
//!
//! Mechanisms compose naturally: e.g. downsample the release stream, then add
//! Geo-Indistinguishability noise. [`Pipeline`] applies a sequence of LPPMs
//! in order and is itself an LPPM, so composed mechanisms can be fed to the
//! configuration framework unchanged.
//!
//! A pipeline's kernel holds one kernel per stage and passes whatever it
//! receives through them in order: stage k + 1 protects what stage k
//! released, and a stage that releases nothing ends the call. With at most
//! one stage that draws randomness ([`Lppm::draws_randomness`]) the draws
//! are that stage's, in its record order, however the records are split, so
//! each call passes its records through whole. With two or more, the
//! stages' draws interleave by call, so the kernel passes one record at a
//! time: record-major order, the only one a stream can reproduce.

use crate::error::LppmError;
use crate::params::ParameterDescriptor;
use crate::space::ConfigSpace;
use crate::traits::{Kernel, Lppm};
use geopriv_mobility::{DatasetBuilder, TraceView};
use rand::RngCore;

/// Qualifies per-stage parameter descriptors so the flattened list has
/// globally unique names, preserving the per-stage grouping.
///
/// A name exposed by more than one stage is qualified by its 1-based stage
/// position (`"1.epsilon"`, `"3.epsilon"`); names still colliding after that
/// (a stage exposing one name twice, or a literal `"1.epsilon"` parameter)
/// get an occurrence suffix (`"1.epsilon#2"`). Unambiguous names pass
/// through unqualified. This is the naming contract of
/// [`Pipeline::parameters`], shared with factory-side pipeline composition
/// so a qualified axis name always maps back to one stage parameter.
pub fn qualify_stage_parameters(
    per_stage: &[Vec<ParameterDescriptor>],
) -> Vec<Vec<ParameterDescriptor>> {
    // How many *stages* expose each name (duplicates within one stage count
    // once: position-qualification could not disambiguate those — the
    // occurrence pass below handles them).
    let mut stages_exposing: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for descriptors in per_stage {
        let mut seen_in_stage = std::collections::HashSet::new();
        for d in descriptors {
            if seen_in_stage.insert(d.name()) {
                *stages_exposing.entry(d.name().to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<Vec<ParameterDescriptor>> = Vec::with_capacity(per_stage.len());
    for (stage, descriptors) in per_stage.iter().enumerate() {
        out.push(
            descriptors
                .iter()
                .map(|d| {
                    if stages_exposing[d.name()] > 1 {
                        d.with_name(format!("{}.{}", stage + 1, d.name()))
                    } else {
                        d.clone()
                    }
                })
                .collect(),
        );
    }
    // Final uniqueness pass: whatever ambiguity survives stage qualification
    // is resolved by occurrence, so the flattened list never contains two
    // descriptors a sweep cannot tell apart.
    let mut occurrences: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for descriptors in &mut out {
        for d in descriptors {
            let n = occurrences.entry(d.name().to_string()).or_insert(0);
            *n += 1;
            if *n > 1 {
                *d = d.with_name(format!("{}#{}", d.name(), n));
            }
        }
    }
    out
}

/// A sequence of LPPMs applied one after the other.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm, Pipeline, TemporalDownsampling};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let pipeline = Pipeline::new()
///     .then(TemporalDownsampling::new(2)?)
///     .then(GeoIndistinguishability::new(Epsilon::new(0.01)?));
/// assert_eq!(pipeline.len(), 2);
/// assert_eq!(pipeline.name(), "pipeline[temporal-downsampling, geo-indistinguishability]");
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn Lppm>>,
    name: String,
}

impl Pipeline {
    /// Creates an empty pipeline (equivalent to the identity mechanism).
    pub fn new() -> Self {
        Self { stages: Vec::new(), name: "pipeline[]".to_string() }
    }

    /// Appends a mechanism to the end of the pipeline.
    pub fn then<M: Lppm + 'static>(mut self, mechanism: M) -> Self {
        self.stages.push(Box::new(mechanism));
        self.rebuild_name();
        self
    }

    /// Appends an already-boxed mechanism to the end of the pipeline.
    pub fn then_boxed(mut self, mechanism: Box<dyn Lppm>) -> Self {
        self.stages.push(mechanism);
        self.rebuild_name();
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    fn rebuild_name(&mut self) {
        let names: Vec<&str> = self.stages.iter().map(|s| s.name()).collect();
        self.name = format!("pipeline[{}]", names.join(", "));
    }

    /// The pipeline's full qualified configuration space: one axis per stage
    /// parameter, with the unique names of [`Pipeline::parameters`].
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] when the pipeline exposes no
    /// parameters at all (nothing to sweep).
    pub fn config_space(&self) -> Result<ConfigSpace, LppmError> {
        ConfigSpace::new(self.parameters())
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.name)
            .field("len", &self.stages.len())
            .finish()
    }
}

impl Lppm for Pipeline {
    fn name(&self) -> &str {
        &self.name
    }

    /// Concatenates the stage descriptors, guaranteeing unique names. A
    /// parameter name exposed by more than one stage (e.g. two GEO-I stages,
    /// both `"epsilon"`) would be ambiguous — the sweep could not tell which
    /// stage it targets — so every occurrence of a colliding name is
    /// qualified by its 1-based stage position (`"1.epsilon"`,
    /// `"2.epsilon"`). Names still colliding after that (a stage exposing one
    /// name twice, or a stage literally naming a parameter `"1.epsilon"`)
    /// get an occurrence suffix (`"1.epsilon#2"`). Unambiguous names are
    /// passed through unqualified.
    fn parameters(&self) -> Vec<ParameterDescriptor> {
        let per_stage: Vec<Vec<ParameterDescriptor>> =
            self.stages.iter().map(|s| s.parameters()).collect();
        qualify_stage_parameters(&per_stage).into_iter().flatten().collect()
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        let randomizing = self.stages.iter().filter(|s| s.draws_randomness()).count();
        Box::new(PipelineKernel {
            stages: self.stages.iter().map(|s| s.kernel()).collect(),
            released: (1..self.stages.len()).map(|_| DatasetBuilder::new()).collect(),
            record_major: randomizing > 1,
        })
    }

    fn draws_randomness(&self) -> bool {
        self.stages.iter().any(|s| s.draws_randomness())
    }
}

/// The kernel of a [`Pipeline`] (see the module docs).
struct PipelineKernel {
    stages: Vec<Box<dyn Kernel>>,
    /// What each stage but the last released in the current pass.
    released: Vec<DatasetBuilder>,
    record_major: bool,
}

impl PipelineKernel {
    fn pass(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder) {
        let Some((last, inner)) = self.stages.split_last_mut() else {
            records.iter().for_each(|r| out.push_record(r.timestamp(), r.location()));
            return;
        };
        let mut input = records;
        for (stage, released) in inner.iter_mut().zip(&mut self.released) {
            released.clear();
            released.begin_trace(records.user());
            stage.protect(input, rng, released);
            match released.open_trace() {
                Some(view) => input = view,
                None => return,
            }
        }
        last.protect(input, rng, out);
    }
}

impl Kernel for PipelineKernel {
    fn protect(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder) {
        if self.record_major {
            (0..records.len()).for_each(|i| self.pass(records.slice(i..i + 1), rng, out));
        } else {
            self.pass(records, rng, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloaking::GridCloaking;
    use crate::geo_ind::GeoIndistinguishability;
    use crate::params::Epsilon;
    use crate::temporal::TemporalDownsampling;
    use crate::traits::Identity;
    use geopriv_geo::{distance, GeoPoint, Meters, Seconds};
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        let records: Vec<Record> = (0..100)
            .map(|i| {
                Record::new(Seconds::new(i as f64 * 30.0), GeoPoint::new(37.77, -122.42).unwrap())
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Pipeline::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        let t = trace();
        assert_eq!(p.protect_trace(&t, &mut rng).unwrap(), t);
        assert!(p.parameters().is_empty());
        assert_eq!(p.name(), "pipeline[]");
    }

    #[test]
    fn stages_apply_in_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        let pipeline = Pipeline::new()
            .then(TemporalDownsampling::new(4).unwrap())
            .then(GeoIndistinguishability::new(Epsilon::new(0.05).unwrap()));
        let protected = pipeline.protect_trace(&t, &mut rng).unwrap();
        // Downsampling happened…
        assert_eq!(protected.len(), 25);
        // …and the noise displaced the surviving records.
        let displaced = protected
            .iter()
            .filter(|r| {
                distance::haversine(r.location(), GeoPoint::new(37.77, -122.42).unwrap()).as_f64()
                    > 1.0
            })
            .count();
        assert!(displaced > 20);
    }

    /// The stage-major reference: each stage's `protect_trace` applied to
    /// the previous stage's whole output, one RNG threaded through.
    fn stage_major(stages: &[&dyn Lppm], trace: &Trace, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        stages.iter().fold(trace.clone(), |t, stage| stage.protect_trace(&t, &mut rng).unwrap())
    }

    #[test]
    fn one_randomizing_stage_keeps_the_stage_major_bits() {
        // Longer than two sampler chunks, on a moving path.
        let records = (0..300)
            .map(|i| {
                let location =
                    GeoPoint::new(37.76 + (i % 13) as f64 * 4e-4, -122.44 + i as f64 * 1e-4);
                Record::new(Seconds::new(i as f64 * 30.0), location.unwrap())
            })
            .collect();
        let t = Trace::new(UserId::new(3), records).unwrap();
        let cloaking = GridCloaking::new(Meters::new(500.0)).unwrap();
        let downsampling = TemporalDownsampling::new(3).unwrap();
        for (seed, epsilon) in [(1, 1e-4), (2, 1e-2), (3, 1.0)] {
            let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
            let pipelines: [(Pipeline, [&dyn Lppm; 2]); 2] = [
                (Pipeline::new().then(geoi).then(cloaking), [&geoi, &cloaking]),
                (Pipeline::new().then(downsampling).then(geoi), [&downsampling, &geoi]),
            ];
            for (pipeline, stages) in &pipelines {
                let protected = pipeline.protect_trace(&t, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    protected.unwrap(),
                    stage_major(stages, &t, seed),
                    "{}",
                    pipeline.name()
                );
            }
        }
    }

    #[test]
    fn parameters_are_concatenated_and_name_lists_stages() {
        let pipeline = Pipeline::new()
            .then(Identity::new())
            .then_boxed(Box::new(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())));
        assert_eq!(pipeline.len(), 2);
        assert_eq!(pipeline.parameters().len(), 1);
        assert_eq!(pipeline.name(), "pipeline[identity, geo-indistinguishability]");
        assert!(format!("{pipeline:?}").contains("Pipeline"));
    }

    #[test]
    fn colliding_stage_parameters_are_qualified_by_position() {
        // Two GEO-I stages both expose "epsilon": without qualification the
        // sweep could not tell which stage it targets.
        let pipeline = Pipeline::new()
            .then(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap()))
            .then(TemporalDownsampling::new(2).unwrap())
            .then(GeoIndistinguishability::new(Epsilon::new(0.1).unwrap()));
        let names: Vec<String> =
            pipeline.parameters().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, vec!["1.epsilon", "factor", "3.epsilon"]);
        // Qualification renames only; range and scale survive.
        let first = &pipeline.parameters()[0];
        assert_eq!((first.min(), first.max(), first.scale()), {
            let d = GeoIndistinguishability::epsilon_descriptor();
            (d.min(), d.max(), d.scale())
        });
        // Non-colliding names stay unqualified.
        let single = Pipeline::new()
            .then(TemporalDownsampling::new(2).unwrap())
            .then(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap()));
        let names: Vec<String> = single.parameters().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, vec!["factor", "epsilon"]);
    }

    #[test]
    fn within_stage_duplicates_get_occurrence_suffixes() {
        use crate::params::ParameterScale;

        /// A (misbehaved) stage exposing the same parameter name twice.
        struct TwinParams;
        impl Lppm for TwinParams {
            fn name(&self) -> &str {
                "twin-params"
            }
            fn parameters(&self) -> Vec<ParameterDescriptor> {
                let d = ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic)
                    .unwrap();
                vec![d.clone(), d]
            }
            fn kernel(&self) -> Box<dyn Kernel> {
                Identity.kernel()
            }
        }

        // Stage qualification cannot split a within-stage duplicate, so the
        // occurrence pass must — the returned names are always unique.
        let pipeline = Pipeline::new()
            .then(TwinParams)
            .then(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap()));
        let names: Vec<String> =
            pipeline.parameters().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, vec!["1.epsilon", "1.epsilon#2", "2.epsilon"]);
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn config_space_exposes_the_qualified_axes() {
        let pipeline = Pipeline::new()
            .then(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap()))
            .then(TemporalDownsampling::new(2).unwrap())
            .then(GeoIndistinguishability::new(Epsilon::new(0.1).unwrap()));
        let space = pipeline.config_space().unwrap();
        assert_eq!(space.names(), vec!["1.epsilon", "factor", "3.epsilon"]);
        // A parameterless pipeline has no space to sweep.
        assert!(Pipeline::new().config_space().is_err());
        assert!(Pipeline::new().then(Identity::new()).config_space().is_err());
    }

    #[test]
    fn pipeline_errors_propagate() {
        let mut rng = StdRng::seed_from_u64(3);
        // A 3-record trace downsampled by 4 keeps one record; a second
        // downsampling by 4 still keeps one record — no error. Force an error
        // with an invalid parameter instead at construction time.
        assert!(TemporalDownsampling::new(0).is_err());
        // And a valid pipeline on a tiny trace still works.
        let t = Trace::new(
            UserId::new(1),
            vec![Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.42).unwrap())],
        )
        .unwrap();
        let pipeline = Pipeline::new().then(TemporalDownsampling::new(4).unwrap());
        assert_eq!(pipeline.protect_trace(&t, &mut rng).unwrap().len(), 1);
    }
}
