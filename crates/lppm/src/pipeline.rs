//! Composition of protection mechanisms.
//!
//! Mechanisms compose naturally: e.g. add Geo-Indistinguishability noise,
//! then cloak the noisy locations to grid cells. [`Pipeline`] applies a sequence of LPPMs
//! in order and is itself an LPPM. Its configuration space is its stage
//! factories' spaces, composed by `PipelineFactory` in `geopriv-core`, which
//! builds one pipeline per configuration point.
//!
//! A pipeline's kernel holds one kernel per stage and passes whatever it
//! receives through them in order: stage k + 1 protects what stage k
//! released, and a stage that releases nothing ends the call. With at most
//! one stage that draws randomness ([`Lppm::draws_randomness`]) the draws
//! are that stage's, in its record order, however the records are split, so
//! each call passes its records through whole. With two or more, the
//! stages' draws interleave by call, so the kernel passes one record at a
//! time: record-major order, the only one a stream can reproduce.

use crate::traits::{Kernel, Lppm};
use geopriv_mobility::{DatasetBuilder, TraceView};
use rand::RngCore;

/// A sequence of LPPMs applied one after the other.
///
/// # Examples
///
/// ```
/// use geopriv_geo::Meters;
/// use geopriv_lppm::{Epsilon, GeoIndistinguishability, GridCloaking, Lppm, Pipeline};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let pipeline = Pipeline::new()
///     .then(GeoIndistinguishability::new(Epsilon::new(0.01)?))
///     .then(GridCloaking::new(Meters::new(500.0))?);
/// assert_eq!(pipeline.len(), 2);
/// assert_eq!(pipeline.name(), "pipeline[geo-indistinguishability, grid-cloaking]");
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
    use crate::traits::testing::ProtectOne;
    use crate::traits::testing::Withhold;
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
        assert_eq!(p.protect_one(&t, &mut rng).unwrap(), t);
        assert_eq!(p.name(), "pipeline[]");
    }

    #[test]
    fn stages_apply_in_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        let pipeline = Pipeline::new()
            .then(Withhold::EveryNth(4))
            .then(GeoIndistinguishability::new(Epsilon::new(0.05).unwrap()));
        let protected = pipeline.protect_one(&t, &mut rng).unwrap();
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

    /// The stage-major reference: each stage applied alone to the previous
    /// stage's whole output, one RNG threaded through.
    fn stage_major(stages: &[&dyn Lppm], trace: &Trace, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        stages.iter().fold(trace.clone(), |t, stage| stage.protect_one(&t, &mut rng).unwrap())
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
        let downsampling = Withhold::EveryNth(3);
        for (seed, epsilon) in [(1, 1e-4), (2, 1e-2), (3, 1.0)] {
            let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
            let pipelines: [(Pipeline, [&dyn Lppm; 2]); 2] = [
                (Pipeline::new().then(geoi).then(cloaking), [&geoi, &cloaking]),
                (Pipeline::new().then(downsampling).then(geoi), [&downsampling, &geoi]),
            ];
            for (pipeline, stages) in &pipelines {
                let protected = pipeline.protect_one(&t, &mut StdRng::seed_from_u64(seed));
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
    fn name_lists_stages_in_order() {
        let pipeline = Pipeline::new()
            .then(Pipeline::new())
            .then_boxed(Box::new(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())));
        assert_eq!(pipeline.len(), 2);
        assert_eq!(pipeline.name(), "pipeline[pipeline[], geo-indistinguishability]");
        assert!(format!("{pipeline:?}").contains("Pipeline"));
    }

    #[test]
    fn pipeline_errors_propagate() {
        let mut rng = StdRng::seed_from_u64(3);
        // A stage that keeps every fourth record keeps the one record of a
        // one-record trace: no error.
        let t = Trace::new(
            UserId::new(1),
            vec![Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.42).unwrap())],
        )
        .unwrap();
        let pipeline = Pipeline::new().then(Withhold::EveryNth(4));
        assert_eq!(pipeline.protect_one(&t, &mut rng).unwrap().len(), 1);
    }
}
