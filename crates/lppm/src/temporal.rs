//! Temporal degradation mechanisms.
//!
//! Two simple mechanisms that protect by releasing *fewer* records rather
//! than perturbing their coordinates:
//!
//! * [`TemporalDownsampling`] keeps every `n`-th record (deterministic
//!   sub-sampling of the release stream);
//! * [`ReleaseSampling`] releases each record independently with probability
//!   `p` (randomized thinning).
//!
//! Both reduce the adversary's ability to detect dwell periods (POIs need a
//! minimum number of observations to be clustered) at the cost of coverage.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::{Kernel, Lppm};
use geopriv_mobility::{DatasetBuilder, TraceView};
use rand::{Rng, RngCore};

/// The kernel of both mechanisms: releases, unchanged, each record for which
/// `keep(index in the trace, rng)` holds.
struct Keep<F> {
    keep: F,
    index: usize,
}

fn keep<F>(keep: F) -> Box<dyn Kernel>
where
    F: FnMut(usize, &mut dyn RngCore) -> bool + Send + 'static,
{
    Box::new(Keep { keep, index: 0 })
}

impl<F: FnMut(usize, &mut dyn RngCore) -> bool + Send> Kernel for Keep<F> {
    fn protect(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder) {
        for record in records.iter() {
            if (self.keep)(self.index, rng) {
                out.push_record(record.timestamp(), record.location());
            }
            self.index += 1;
        }
    }
}

/// Keeps every `n`-th record of a trace.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Lppm, TemporalDownsampling};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let lppm = TemporalDownsampling::new(4)?;
/// assert_eq!(lppm.factor(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalDownsampling {
    factor: usize,
}

impl TemporalDownsampling {
    /// Creates the mechanism keeping one record out of every `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] if `factor` is zero.
    pub fn new(factor: usize) -> Result<Self, LppmError> {
        if factor == 0 {
            return Err(LppmError::InvalidParameter {
                name: "factor",
                value: 0.0,
                reason: "downsampling factor must be at least 1",
            });
        }
        Ok(Self { factor })
    }

    /// The downsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Lppm for TemporalDownsampling {
    fn name(&self) -> &str {
        "temporal-downsampling"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![ParameterDescriptor::new("factor", 1.0, 64.0, ParameterScale::Logarithmic)
            .expect("static descriptor is valid")]
    }

    /// Keeps each record whose index in the trace is a multiple of the
    /// factor: the first record, then every `factor`-th one after it.
    fn kernel(&self) -> Box<dyn Kernel> {
        let factor = self.factor;
        keep(move |index, _| index % factor == 0)
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

/// Releases each record independently with probability `p`.
///
/// The first record of a trace is always released so the protected trace is
/// never empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseSampling {
    probability: f64,
}

impl ReleaseSampling {
    /// Creates the mechanism with release probability `probability ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] outside that range.
    pub fn new(probability: f64) -> Result<Self, LppmError> {
        if !(probability.is_finite() && probability > 0.0 && probability <= 1.0) {
            return Err(LppmError::InvalidParameter {
                name: "probability",
                value: probability,
                reason: "release probability must be in (0, 1]",
            });
        }
        Ok(Self { probability })
    }

    /// The per-record release probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl Lppm for ReleaseSampling {
    fn name(&self) -> &str {
        "release-sampling"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![ParameterDescriptor::new("probability", 0.01, 1.0, ParameterScale::Linear)
            .expect("static descriptor is valid")]
    }

    /// Keeps the first record, then draws one `gen_bool(p)` per record.
    fn kernel(&self) -> Box<dyn Kernel> {
        let probability = self.probability;
        keep(move |index, rng| index == 0 || rng.gen_bool(probability))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{GeoPoint, Seconds};
    use geopriv_mobility::{Record, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(n: usize) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(Seconds::new(i as f64 * 30.0), GeoPoint::new(37.77, -122.42).unwrap())
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn downsampling_validation_and_behaviour() {
        assert!(TemporalDownsampling::new(0).is_err());
        let lppm = TemporalDownsampling::new(4).unwrap();
        assert_eq!(lppm.factor(), 4);
        assert_eq!(lppm.name(), "temporal-downsampling");
        assert_eq!(lppm.parameters().len(), 1);

        let mut rng = StdRng::seed_from_u64(1);
        let t = trace(100);
        let protected = lppm.protect_trace(&t, &mut rng).unwrap();
        assert_eq!(protected.len(), 25);
        assert_eq!(protected.first().timestamp().as_f64(), 0.0);

        // Factor 1 is the identity.
        let identity = TemporalDownsampling::new(1).unwrap().protect_trace(&t, &mut rng).unwrap();
        assert_eq!(identity, t);
    }

    #[test]
    fn release_sampling_validation() {
        assert!(ReleaseSampling::new(0.0).is_err());
        assert!(ReleaseSampling::new(-0.5).is_err());
        assert!(ReleaseSampling::new(1.5).is_err());
        assert!(ReleaseSampling::new(f64::NAN).is_err());
        assert!(ReleaseSampling::new(1.0).is_ok());
        let lppm = ReleaseSampling::new(0.3).unwrap();
        assert_eq!(lppm.probability(), 0.3);
        assert_eq!(lppm.name(), "release-sampling");
    }

    #[test]
    fn release_sampling_keeps_roughly_p_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace(5_000);
        let lppm = ReleaseSampling::new(0.25).unwrap();
        let protected = lppm.protect_trace(&t, &mut rng).unwrap();
        let fraction = protected.len() as f64 / t.len() as f64;
        assert!((fraction - 0.25).abs() < 0.03, "kept {fraction}");
        // Timestamps remain ordered and are a subset of the original ones.
        let original: std::collections::BTreeSet<u64> =
            t.iter().map(|r| r.timestamp().as_f64() as u64).collect();
        for r in &protected {
            assert!(original.contains(&(r.timestamp().as_f64() as u64)));
        }
    }

    #[test]
    fn release_sampling_never_empties_a_trace() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = trace(3);
        let lppm = ReleaseSampling::new(0.01).unwrap();
        for _ in 0..50 {
            let protected = lppm.protect_trace(&t, &mut rng).unwrap();
            assert!(!protected.is_empty());
        }
    }

    #[test]
    fn probability_one_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = trace(50);
        let protected = ReleaseSampling::new(1.0).unwrap().protect_trace(&t, &mut rng).unwrap();
        assert_eq!(protected, t);
    }
}
