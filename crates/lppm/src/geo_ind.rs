//! Geo-Indistinguishability (GEO-I).
//!
//! The LPPM the paper configures: Andrés, Bordenabe, Chatzikokolakis and
//! Palamidessi, *Geo-indistinguishability: Differential Privacy for
//! Location-based Systems*, CCS 2013. Each released location is the actual
//! location plus planar-Laplace noise calibrated by ε (in m⁻¹): the lower
//! the ε, the higher the noise and therefore the stronger the privacy
//! guarantee — and the lower the utility of the released data.
//!
//! The kernel releases its records one at a time: each draws one noise
//! vector from [`PlanarLaplace::sample`] — a Gamma(2, 1/ε) radius along a
//! uniform direction, from one `ln` and a rejection loop that ends after
//! 4/π attempts on average (see the [`crate::laplace`] module docs) — and
//! moves the record by it within the trace's local projection. Batch, trace,
//! stream and serve protection all run this one loop, so they release the
//! same bits for the same RNG.

use crate::laplace::PlanarLaplace;
use crate::params::{Epsilon, ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm};
use geopriv_geo::LocalProjection;
use geopriv_mobility::{DatasetBuilder, TraceView};
use rand::RngCore;

/// The ε range swept by the paper's evaluation (Figure 1): 10⁻⁴ to 1 m⁻¹.
pub const PAPER_EPSILON_RANGE: (f64, f64) = (1e-4, 1.0);

/// The Geo-Indistinguishability mechanism.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dataset = TaxiFleetBuilder::new().drivers(2).duration_hours(2.0).build(&mut rng)?;
///
/// let geoi = GeoIndistinguishability::new(Epsilon::new(0.01)?);
/// let protected = geoi.protect_dataset(&dataset, &mut rng)?;
/// assert_eq!(protected.record_count(), dataset.record_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoIndistinguishability {
    epsilon: Epsilon,
}

impl GeoIndistinguishability {
    /// Creates the mechanism with the given privacy parameter.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// The configured ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The parameter descriptor for ε over the paper's sweep range.
    pub fn epsilon_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::new(
            "epsilon",
            PAPER_EPSILON_RANGE.0,
            PAPER_EPSILON_RANGE.1,
            ParameterScale::Logarithmic,
        )
        .expect("static descriptor is valid")
    }
}

impl Lppm for GeoIndistinguishability {
    fn name(&self) -> &str {
        "geo-indistinguishability"
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        Box::new(GeoIndistinguishabilityKernel {
            noise: PlanarLaplace::new(self.epsilon),
            projection: None,
        })
    }
}

/// GEO-I's kernel: one planar-Laplace sample per record, in record order.
struct GeoIndistinguishabilityKernel {
    noise: PlanarLaplace,
    /// One projection per trace, centered on its first record, keeps the
    /// planar approximation error negligible at city scale while avoiding a
    /// data-dependent (privacy-leaking) global frame.
    projection: Option<LocalProjection>,
}

impl Kernel for GeoIndistinguishabilityKernel {
    fn protect(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder) {
        let projection = *self
            .projection
            .get_or_insert_with(|| LocalProjection::centered_on(records.first().location()));
        for record in records.iter() {
            let (dx, dy) = self.noise.sample(rng);
            let released = projection.project(record.location()).translated(dx, dy);
            out.push_record(record.timestamp(), projection.unproject(released));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::open_stream;
    use crate::traits::testing::ProtectOne;
    use geopriv_geo::{distance, GeoPoint, Seconds};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::{Dataset, Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn location_bits(records: impl IntoIterator<Item = Record>) -> Vec<u64> {
        records
            .into_iter()
            .flat_map(|r| [r.location().latitude().to_bits(), r.location().longitude().to_bits()])
            .collect()
    }

    fn geoi(epsilon: f64) -> GeoIndistinguishability {
        GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
    }

    /// Asserts that `protect_dataset`, over the whole dataset or one trace
    /// at a time, and a stream's pushes release the same bits for every
    /// trace of `dataset`. Both batch forms thread one
    /// `StdRng::seed_from_u64(seed)` through the traces; trace `i`'s stream
    /// is seeded with `i` and compared with that trace alone under that seed.
    fn assert_paths_agree(epsilon: f64, dataset: &Dataset, seed: u64) {
        let geoi = geoi(epsilon);
        let mut trace_rng = StdRng::seed_from_u64(seed);
        let mut traces = DatasetBuilder::new();
        for (i, view) in dataset.iter().enumerate() {
            let what = format!("eps {epsilon}, trace {i} of {} records", view.len());
            let trace = geoi.protect_one(&view.to_trace(), &mut trace_rng).unwrap();
            traces.push_view(trace.view());

            let mut stream = open_stream(&geoi, i as u64);
            let streamed: Vec<Record> = view.iter().map(|r| stream.push(r).unwrap()).collect();
            let mut seeded = StdRng::seed_from_u64(i as u64);
            let batch = geoi.protect_one(&view.to_trace(), &mut seeded).unwrap();
            assert_eq!(location_bits(streamed), location_bits(batch.iter()), "stream, {what}");
        }
        let protected = geoi.protect_dataset(dataset, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert_eq!(protected, traces.finish().unwrap(), "protect_dataset, eps {epsilon}");
    }

    /// One trace of `len` records on a short north-bound walk.
    fn walk(len: usize) -> Trace {
        let records = (0..len)
            .map(|i| {
                let location = GeoPoint::new(37.76 + i as f64 * 1e-4, -122.44).unwrap();
                Record::new(Seconds::new(i as f64 * 30.0), location)
            })
            .collect();
        Trace::new(UserId::new(len as u64), records).unwrap()
    }

    #[test]
    fn trace_lengths_release_the_same_bits_on_every_path() {
        let lengths = [1, 2, 63, 64, 65, 129];
        let dataset = Dataset::new(lengths.iter().map(|&len| walk(len)).collect()).unwrap();
        for &epsilon in &[1e-4, 1e-2, 1.0] {
            assert_paths_agree(epsilon, &dataset, 5);
        }
    }

    #[test]
    fn taxi_fleet_releases_the_same_bits_on_every_path() {
        let mut rng = StdRng::seed_from_u64(21);
        let fleet = TaxiFleetBuilder::new().drivers(4).duration_hours(4.0).build(&mut rng).unwrap();
        for &epsilon in &[1e-4, 1e-2, 1.0] {
            assert_paths_agree(epsilon, &fleet, 8);
        }
    }

    fn trace() -> Trace {
        let records: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.76 + (i % 10) as f64 * 0.001, -122.44).unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_and_metadata() {
        assert!(Epsilon::new(0.01).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        let geoi = geoi(0.02);
        assert_eq!(geoi.name(), "geo-indistinguishability");
        assert_eq!(geoi.epsilon().value(), 0.02);
        let descriptor = GeoIndistinguishability::epsilon_descriptor();
        assert_eq!(descriptor.name(), "epsilon");
        assert_eq!((descriptor.min(), descriptor.max()), PAPER_EPSILON_RANGE);
        assert_eq!(descriptor.scale(), ParameterScale::Logarithmic);
    }

    #[test]
    fn protection_preserves_structure_and_timestamps() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = trace();
        let geoi = geoi(0.01);
        let protected = geoi.protect_one(&t, &mut rng).unwrap();
        assert_eq!(protected.len(), t.len());
        assert_eq!(protected.user(), t.user());
        for (a, b) in t.iter().zip(protected.iter()) {
            assert_eq!(a.timestamp(), b.timestamp());
        }
    }

    #[test]
    fn mean_displacement_matches_two_over_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        for &eps in &[0.005, 0.01, 0.05] {
            let geoi = geoi(eps);
            let protected = geoi.protect_one(&t, &mut rng).unwrap();
            let mean_displacement: f64 = t
                .iter()
                .zip(protected.iter())
                .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
                .sum::<f64>()
                / t.len() as f64;
            let expected = 2.0 / eps;
            assert!(
                (mean_displacement - expected).abs() / expected < 0.25,
                "eps={eps}: mean {mean_displacement} expected {expected}"
            );
        }
    }

    #[test]
    fn larger_epsilon_perturbs_less() {
        let t = trace();
        let displacement = |eps: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let protected = geoi(eps).protect_one(&t, &mut rng).unwrap();
            t.iter()
                .zip(protected.iter())
                .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(displacement(0.001, 3) > 10.0 * displacement(0.1, 3));
    }

    #[test]
    fn deterministic_under_seed() {
        let t = trace();
        let geoi = geoi(0.01);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(
            geoi.protect_one(&t, &mut rng_a).unwrap(),
            geoi.protect_one(&t, &mut rng_b).unwrap()
        );
    }
}
