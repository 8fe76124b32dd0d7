//! Gaussian perturbation baseline.
//!
//! The simplest randomized LPPM: add isotropic Gaussian noise of standard
//! deviation σ (meters) to every location. It provides no formal
//! differential-privacy guarantee (the Gaussian tail decays too fast for
//! ε-geo-indistinguishability) but is the standard straw-man baseline against
//! which GEO-I is compared.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm};
use geopriv_geo::{LocalProjection, Meters};
use geopriv_mobility::{DatasetBuilder, TraceView};
use rand::{Rng, RngCore};

/// Isotropic Gaussian location perturbation.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{GaussianPerturbation, Lppm};
/// use geopriv_geo::Meters;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let mechanism = GaussianPerturbation::new(Meters::new(100.0))?;
/// assert_eq!(mechanism.name(), "gaussian-perturbation");
/// assert!(GaussianPerturbation::new(Meters::new(-1.0)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPerturbation {
    sigma: Meters,
}

impl GaussianPerturbation {
    /// Creates the mechanism with noise standard deviation `sigma` per axis.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for negative or non-finite values.
    pub fn new(sigma: Meters) -> Result<Self, LppmError> {
        if !(sigma.as_f64().is_finite() && sigma.as_f64() >= 0.0) {
            return Err(LppmError::InvalidParameter {
                name: "sigma",
                value: sigma.as_f64(),
                reason: "noise standard deviation must be finite and non-negative",
            });
        }
        Ok(Self { sigma })
    }

    /// The parameter descriptor for σ (1 m to 10 km, logarithmic).
    pub fn sigma_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::new("sigma", 1.0, 10_000.0, ParameterScale::Logarithmic)
            .expect("static descriptor is valid")
    }

    fn sample_normal(rng: &mut dyn RngCore, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * std_dev
    }
}

impl Lppm for GaussianPerturbation {
    fn name(&self) -> &str {
        "gaussian-perturbation"
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        Box::new(GaussianKernel { sigma: self.sigma.as_f64(), projection: None })
    }
}

/// The Gaussian kernel: projection anchored on the trace's first record,
/// then per record a draw for dx before one for dy.
struct GaussianKernel {
    sigma: f64,
    projection: Option<LocalProjection>,
}

impl Kernel for GaussianKernel {
    fn protect(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder) {
        let projection = *self
            .projection
            .get_or_insert_with(|| LocalProjection::centered_on(records.first().location()));
        for record in records.iter() {
            let p = projection.project(record.location());
            let dx = GaussianPerturbation::sample_normal(rng, self.sigma);
            let dy = GaussianPerturbation::sample_normal(rng, self.sigma);
            out.push_record(record.timestamp(), projection.unproject(p.translated(dx, dy)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testing::ProtectOne;
    use geopriv_geo::{distance, GeoPoint, Seconds};
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        let records: Vec<Record> = (0..300)
            .map(|i| {
                Record::new(Seconds::new(i as f64 * 30.0), GeoPoint::new(37.77, -122.42).unwrap())
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_validates_sigma() {
        assert!(GaussianPerturbation::new(Meters::new(50.0)).is_ok());
        assert!(GaussianPerturbation::new(Meters::new(0.0)).is_ok());
        assert!(GaussianPerturbation::new(Meters::new(-1.0)).is_err());
        assert!(GaussianPerturbation::new(Meters::new(f64::NAN)).is_err());
        let g = GaussianPerturbation::new(Meters::new(10.0)).unwrap();
        assert_eq!(g.name(), "gaussian-perturbation");
    }

    #[test]
    fn sigma_descriptor_spans_one_metre_to_ten_kilometres() {
        let d = GaussianPerturbation::sigma_descriptor();
        assert_eq!((d.name(), d.min(), d.max()), ("sigma", 1.0, 10_000.0));
        assert_eq!(d.scale(), ParameterScale::Logarithmic);
        assert!(GaussianPerturbation::new(Meters::new(1.0)).unwrap().draws_randomness());
    }

    #[test]
    fn zero_sigma_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = trace();
        let g = GaussianPerturbation::new(Meters::new(0.0)).unwrap();
        let protected = g.protect_one(&t, &mut rng).unwrap();
        for (a, b) in t.iter().zip(protected.iter()) {
            assert!(distance::haversine(a.location(), b.location()).as_f64() < 1e-6);
        }
    }

    #[test]
    fn mean_displacement_matches_rayleigh_mean() {
        // With isotropic Gaussian noise, displacement follows a Rayleigh
        // distribution with mean sigma * sqrt(pi/2).
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        let sigma = 100.0;
        let g = GaussianPerturbation::new(Meters::new(sigma)).unwrap();
        let protected = g.protect_one(&t, &mut rng).unwrap();
        let mean: f64 = t
            .iter()
            .zip(protected.iter())
            .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
            .sum::<f64>()
            / t.len() as f64;
        let expected = sigma * (std::f64::consts::PI / 2.0).sqrt();
        assert!((mean - expected).abs() / expected < 0.15, "mean {mean} expected {expected}");
    }

    #[test]
    fn timestamps_and_structure_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = trace();
        let g = GaussianPerturbation::new(Meters::new(200.0)).unwrap();
        let protected = g.protect_one(&t, &mut rng).unwrap();
        assert_eq!(protected.len(), t.len());
        for (a, b) in t.iter().zip(protected.iter()) {
            assert_eq!(a.timestamp(), b.timestamp());
        }
    }
}
