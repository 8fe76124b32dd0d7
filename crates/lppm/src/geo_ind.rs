//! Geo-Indistinguishability (GEO-I).
//!
//! The LPPM the paper configures: Andrés, Bordenabe, Chatzikokolakis and
//! Palamidessi, *Geo-indistinguishability: Differential Privacy for
//! Location-based Systems*, CCS 2013. Each released location is the actual
//! location plus planar-Laplace noise calibrated by ε (in m⁻¹): the lower
//! the ε, the higher the noise and therefore the stronger the privacy
//! guarantee — and the lower the utility of the released data.
//!
//! The kernel walks the records it receives in chunks of a fixed stack
//! buffer, samples each chunk's noise with the staged
//! [`PlanarLaplace::sample_into`] and displaces each record with
//! `displaced`. A one-record call (a stream push) samples with
//! [`PlanarLaplace::sample`], the one-record case of the same sampler, whose
//! scratch holds one lane. Staging changes no bit: see the
//! [`crate::laplace`] module docs.

use crate::error::LppmError;
use crate::laplace::{PlanarLaplace, CHUNK};
use crate::params::{Epsilon, ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm};
use geopriv_geo::{GeoPoint, LocalProjection};
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

    /// Creates the mechanism from a raw ε value in m⁻¹.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for non-positive or non-finite values.
    pub fn with_epsilon(epsilon: f64) -> Result<Self, LppmError> {
        Ok(Self::new(Epsilon::new(epsilon)?))
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

/// GEO-I's per-record math: `location` moved by the noise vector `(dx, dy)`
/// in meters, within the trace's local projection.
fn displaced(projection: &LocalProjection, location: GeoPoint, dx: f64, dy: f64) -> GeoPoint {
    projection.unproject(projection.project(location).translated(dx, dy))
}

impl Lppm for GeoIndistinguishability {
    fn name(&self) -> &str {
        "geo-indistinguishability"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![Self::epsilon_descriptor()]
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
        if records.len() == 1 {
            let (record, (dx, dy)) = (records.first(), self.noise.sample(rng));
            out.push_record(record.timestamp(), displaced(&projection, record.location(), dx, dy));
            return;
        }
        let (mut dx, mut dy) = ([0.0; CHUNK], [0.0; CHUNK]);
        let mut records = records.iter();
        while records.len() > 0 {
            let n = records.len().min(CHUNK);
            self.noise.sample_into(rng, &mut dx[..n], &mut dy[..n]);
            for (record, (&dx, &dy)) in records.by_ref().take(n).zip(dx.iter().zip(&dy)) {
                out.push_record(
                    record.timestamp(),
                    displaced(&projection, record.location(), dx, dy),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::scalar_reference::{self, ScriptedRng};
    use crate::stream::open_stream;
    use geopriv_geo::{distance, GeoPoint, Seconds};
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::{Dataset, Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The record-at-a-time GEO-I loop the chunked one replaced, verbatim
    /// over the scalar reference sampler.
    fn reference_protect(epsilon: f64, trace: TraceView<'_>, rng: &mut dyn RngCore) -> Vec<u64> {
        let projection = LocalProjection::centered_on(trace.first().location());
        let mut bits = Vec::new();
        for record in trace.iter() {
            let (dx, dy) = scalar_reference::sample(epsilon, rng);
            let actual = projection.project(record.location());
            let released = projection.unproject(actual.translated(dx, dy));
            bits.extend([released.latitude().to_bits(), released.longitude().to_bits()]);
        }
        bits
    }

    fn location_bits(records: impl IntoIterator<Item = Record>) -> Vec<u64> {
        records
            .into_iter()
            .flat_map(|r| [r.location().latitude().to_bits(), r.location().longitude().to_bits()])
            .collect()
    }

    /// Asserts `protect_trace`, `protect_view` and the stream release
    /// exactly the reference loop's bits for every trace of `dataset`, with
    /// one RNG threaded through the traces as `protect_dataset` does.
    fn assert_matches_reference(
        epsilon: f64,
        dataset: &Dataset,
        rng: impl Fn() -> Box<dyn RngCore>,
    ) {
        let geoi = GeoIndistinguishability::with_epsilon(epsilon).unwrap();
        let (mut reference_rng, mut trace_rng, mut view_rng) = (rng(), rng(), rng());
        let mut out = DatasetBuilder::new();
        for (i, view) in dataset.iter().enumerate() {
            let reference = reference_protect(epsilon, view, &mut reference_rng);
            let what = format!("eps {epsilon}, trace {i} of {} records", view.len());

            let trace = geoi.protect_trace(&view.to_trace(), &mut trace_rng).unwrap();
            assert_eq!(location_bits(trace.iter()), reference, "protect_trace, {what}");

            let mut single = DatasetBuilder::new();
            geoi.protect_view(view, &mut single, &mut view_rng).unwrap();
            let single = single.finish().unwrap();
            assert_eq!(location_bits(single.trace_at(0).iter()), reference, "protect_view, {what}");
            out.push_view(single.trace_at(0));

            let mut stream = open_stream(&geoi, i as u64);
            let streamed: Vec<Record> = view.iter().map(|r| stream.push(r).unwrap()).collect();
            let seeded = reference_protect(epsilon, view, &mut StdRng::seed_from_u64(i as u64));
            assert_eq!(location_bits(streamed), seeded, "stream, {what}");
        }
        let protected = geoi.protect_dataset(dataset, &mut rng()).unwrap();
        assert_eq!(protected, out.finish().unwrap(), "protect_dataset, eps {epsilon}");
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
    fn chunk_edges_are_bit_identical_to_the_scalar_reference() {
        let lengths = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1];
        let dataset = Dataset::new(lengths.iter().map(|&len| walk(len)).collect()).unwrap();
        for &epsilon in &[1e-4, 1e-2, 1.0] {
            assert_matches_reference(epsilon, &dataset, || Box::new(StdRng::seed_from_u64(5)));
        }
    }

    #[test]
    fn taxi_fleet_is_bit_identical_to_the_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let fleet = TaxiFleetBuilder::new().drivers(4).duration_hours(4.0).build(&mut rng).unwrap();
        for &epsilon in &[1e-4, 1e-2, 1.0] {
            assert_matches_reference(epsilon, &fleet, || Box::new(StdRng::seed_from_u64(8)));
        }
    }

    #[test]
    fn p_zero_records_are_bit_identical_to_the_scalar_reference() {
        // p = 0 gives radius 0: the record is released at its own location
        // (through the projection round trip). Zeroed draws sit on both sides
        // of the chunk boundaries, counted across the dataset's traces.
        let long = walk(2 * CHUNK + 1);
        let dataset = Dataset::new(vec![long.clone(), walk(3)]).unwrap();
        assert_eq!(dataset.trace_at(1).len(), long.len());
        let zeroed = [1, 3, 3 + CHUNK - 1, 3 + CHUNK, 3 + 2 * CHUNK];
        for &epsilon in &[1e-4, 1.0] {
            assert_matches_reference(epsilon, &dataset, || {
                Box::new(ScriptedRng::zero_p_of(17, &zeroed))
            });
        }
        let zeroed = [0, CHUNK - 1, CHUNK, 2 * CHUNK];
        let geoi = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        let protected =
            geoi.protect_trace(&long, &mut ScriptedRng::zero_p_of(17, &zeroed)).unwrap();
        let projection = LocalProjection::centered_on(long.first().location());
        for &k in &zeroed {
            let at_rest = displaced(&projection, long.view().location(k), 0.0, 0.0);
            assert_eq!(protected.view().location(k), at_rest, "record {k}");
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
        assert!(GeoIndistinguishability::with_epsilon(0.01).is_ok());
        assert!(GeoIndistinguishability::with_epsilon(0.0).is_err());
        let geoi = GeoIndistinguishability::with_epsilon(0.02).unwrap();
        assert_eq!(geoi.name(), "geo-indistinguishability");
        assert_eq!(geoi.epsilon().value(), 0.02);
        let params = geoi.parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name(), "epsilon");
        assert_eq!(params[0].scale(), ParameterScale::Logarithmic);
    }

    #[test]
    fn protection_preserves_structure_and_timestamps() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = trace();
        let geoi = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        let protected = geoi.protect_trace(&t, &mut rng).unwrap();
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
            let geoi = GeoIndistinguishability::with_epsilon(eps).unwrap();
            let protected = geoi.protect_trace(&t, &mut rng).unwrap();
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
            let protected = GeoIndistinguishability::with_epsilon(eps)
                .unwrap()
                .protect_trace(&t, &mut rng)
                .unwrap();
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
        let geoi = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(
            geoi.protect_trace(&t, &mut rng_a).unwrap(),
            geoi.protect_trace(&t, &mut rng_b).unwrap()
        );
    }
}
