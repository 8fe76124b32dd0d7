//! The [`Lppm`] trait, the common interface of every protection mechanism,
//! and the [`Kernel`] trait, the one place a mechanism's math lives.

use crate::error::LppmError;
use geopriv_geo::GeoPoint;
use geopriv_mobility::{Dataset, DatasetBuilder, Trace, TraceView};
use rand::RngCore;

/// A mechanism's record loop over one trace.
///
/// [`Lppm::kernel`] hands out a fresh kernel per trace. Each call to
/// [`Kernel::protect`] protects the next records of that trace, in order,
/// and appends every record it releases to `out`'s open trace (see
/// [`DatasetBuilder::begin_trace`]). A kernel may release fewer records than
/// it receives.
///
/// **Contract:** the released records and the RNG draws are the same
/// however the trace is split across calls — the whole trace in one call,
/// chunks, or one record at a time. The batch paths ([`Lppm::protect_view`]
/// and friends) hand each trace to its kernel in one call, a stream
/// ([`crate::open_stream`]) one record per call, so the two release the same
/// records under the same seed because both run the same kernel.
pub trait Kernel: Send {
    /// Protects `records`, the next records of the trace, writing each
    /// released record to `out`.
    fn protect(&mut self, records: TraceView<'_>, rng: &mut dyn RngCore, out: &mut DatasetBuilder);
}

/// A Location Privacy Protection Mechanism.
///
/// An LPPM transforms an *actual* mobility trace into a *protected* trace
/// that can be released to a location-based service. A mechanism implements
/// [`Lppm::kernel`]; every protection path — one trace, a columnar view, a
/// dataset, a record stream — is derived from that kernel. Randomness comes
/// from an explicitly passed generator, so experiments are reproducible
/// under a fixed seed.
///
/// A mechanism is one configured instance; its configuration space (what
/// the framework sweeps) is declared once, by the factory that instantiates
/// it (`LppmFactory::space` in `geopriv-core`).
///
/// The trait is object safe: the configuration framework stores mechanisms as
/// `Box<dyn Lppm>` when sweeping configuration parameters.
pub trait Lppm: Send + Sync {
    /// Human-readable name of the mechanism (e.g. `"geo-indistinguishability"`).
    fn name(&self) -> &str;

    /// A fresh kernel for one trace.
    fn kernel(&self) -> Box<dyn Kernel>;

    /// Whether the mechanism's kernel may draw from the RNG. `true`, the
    /// default, is always correct; a mechanism that never draws says `false`,
    /// which lets a [`crate::Pipeline`] keep its stages' chunked calls.
    fn draws_randomness(&self) -> bool {
        true
    }

    /// Protects a single trace.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::Mobility`] if the mechanism released no record.
    fn protect_trace(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        let mut out = DatasetBuilder::with_capacity(1, trace.len());
        out.begin_trace(trace.user());
        self.kernel().protect(trace.view(), rng, &mut out);
        out.finish_trace()?;
        Ok(out.finish()?.trace_at(0).to_trace())
    }

    /// Protects one trace given as a zero-copy columnar view, appending the
    /// protected trace to the columnar `out` builder: the hot path of
    /// [`Lppm::protect_dataset`], one kernel call per trace.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::Mobility`] if the mechanism released no record.
    fn protect_view(
        &self,
        trace: TraceView<'_>,
        out: &mut DatasetBuilder,
        rng: &mut dyn RngCore,
    ) -> Result<(), LppmError> {
        out.begin_trace(trace.user());
        self.kernel().protect(trace, rng, out);
        Ok(out.finish_trace()?)
    }

    /// Protects every trace of a dataset, in order, with
    /// [`Lppm::protect_view`].
    ///
    /// # Errors
    ///
    /// Propagates the first per-trace error.
    fn protect_dataset(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
    ) -> Result<Dataset, LppmError> {
        let mut out = DatasetBuilder::with_capacity(dataset.len(), dataset.record_count());
        for trace in dataset {
            self.protect_view(trace, &mut out, rng)?;
        }
        Ok(out.finish()?)
    }
}

/// The kernel of a deterministic mechanism that releases every record at a
/// location computed from its own.
pub(crate) struct Relocate<F>(pub(crate) F);

impl<F: Fn(GeoPoint) -> GeoPoint + Send> Kernel for Relocate<F> {
    fn protect(&mut self, records: TraceView<'_>, _: &mut dyn RngCore, out: &mut DatasetBuilder) {
        for record in records.iter() {
            out.push_record(record.timestamp(), (self.0)(record.location()));
        }
    }
}

/// A no-op mechanism that releases the actual trace unchanged.
///
/// Useful as the "no protection" baseline: privacy metrics should be at their
/// worst and utility metrics at their best when evaluated against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Identity {
    /// Creates the identity mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl Lppm for Identity {
    fn name(&self) -> &str {
        "identity"
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        Box::new(Relocate(|location| location))
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{GeoPoint, Seconds};
    use geopriv_mobility::{Record, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let trace = Trace::new(
            UserId::new(1),
            vec![
                Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.41).unwrap()),
                Record::new(Seconds::new(60.0), GeoPoint::new(37.78, -122.42).unwrap()),
            ],
        )
        .unwrap();
        Dataset::new(vec![trace]).unwrap()
    }

    #[test]
    fn identity_returns_the_same_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = dataset();
        let lppm = Identity::new();
        assert_eq!(lppm.name(), "identity");
        let protected = lppm.protect_dataset(&d, &mut rng).unwrap();
        assert_eq!(protected, d);
    }

    #[test]
    fn a_mechanism_that_releases_nothing_fails_offline_and_withholds_online() {
        /// Withholds every record.
        struct Silence;
        impl Lppm for Silence {
            fn name(&self) -> &str {
                "silence"
            }
            fn kernel(&self) -> Box<dyn Kernel> {
                struct Nothing;
                impl Kernel for Nothing {
                    fn protect(
                        &mut self,
                        _: TraceView<'_>,
                        _: &mut dyn RngCore,
                        _: &mut DatasetBuilder,
                    ) {
                    }
                }
                Box::new(Nothing)
            }
        }
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let empty =
            |e| matches!(e, LppmError::Mobility(geopriv_mobility::MobilityError::EmptyTrace));
        assert!(empty(Silence.protect_trace(&d.to_traces()[0], &mut rng).unwrap_err()));
        assert!(empty(Silence.protect_dataset(&d, &mut rng).unwrap_err()));
        let mut stream = crate::open_stream(&Silence, 3);
        assert!(d.trace_at(0).iter().all(|r| stream.push(r).is_none()));
        assert!(stream.is_empty());
    }

    #[test]
    fn lppm_is_object_safe() {
        let mut rng = StdRng::seed_from_u64(2);
        let mechanisms: Vec<Box<dyn Lppm>> = vec![Box::new(Identity::new())];
        let d = dataset();
        for m in &mechanisms {
            assert!(m.protect_dataset(&d, &mut rng).is_ok());
        }
    }
}
