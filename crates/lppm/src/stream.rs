//! Streaming protection sessions: record-at-a-time LPPM application.
//!
//! Everything else in this crate protects *complete* traces — the offline
//! study shape. An online service (the `geopriv-serve` crate) instead sees
//! one `(user, record)` update at a time and must release each protected
//! record immediately, under the same determinism contract as the offline
//! paths: with a fixed seed, the records a stream releases are **bit
//! identical** to what [`Lppm::protect_dataset`] releases for the records
//! pushed so far.
//!
//! [`open_stream`] is the entry point. A stream is the mechanism's
//! [`Kernel`] called with one record per push, plus a persistent
//! `StdRng::seed_from_u64(seed)`. The batch paths call the same kernel with
//! the whole trace, and the kernel contract makes the split irrelevant: the
//! equivalence holds because only one implementation exists. Every push is
//! O(1) for every mechanism; a mechanism that withholds a record makes that
//! push return `None`.

use crate::traits::{Kernel, Lppm};
use geopriv_mobility::{DatasetBuilder, Record, TraceView, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

thread_local! {
    /// The sink each push's release is read back from, shared by the
    /// streams of a thread so that a session, of which a server holds
    /// thousands, stores no buffer of its own. Kernels never push to a
    /// stream, so its borrow never nests.
    static SINK: RefCell<DatasetBuilder> = RefCell::new(DatasetBuilder::new());
}

/// A streaming protection session for one user's record stream.
///
/// Obtained from [`open_stream`]. Pushing the records of a trace in
/// timestamp order releases, record for record, what
/// [`Lppm::protect_dataset`] releases for that trace under a fresh RNG
/// seeded with the session seed.
pub struct LppmStream {
    kernel: Box<dyn Kernel>,
    rng: StdRng,
    released: usize,
}

/// Opens a streaming session of `lppm` whose RNG is
/// `StdRng::seed_from_u64(seed)`.
pub fn open_stream(lppm: &dyn Lppm, seed: u64) -> LppmStream {
    LppmStream { kernel: lppm.kernel(), rng: StdRng::seed_from_u64(seed), released: 0 }
}

impl LppmStream {
    /// Protects the next record of the stream and returns its protected
    /// twin, or `None` when the mechanism withholds it.
    pub fn push(&mut self, record: Record) -> Option<Record> {
        // Kernels never read the view's user.
        let user = UserId::new(0);
        let t = [record.timestamp().as_f64()];
        let (lat, lon) = ([record.location().latitude()], [record.location().longitude()]);
        let view = TraceView::from_columns(user, &t, &lat, &lon);
        let released = SINK.with_borrow_mut(|out| {
            out.clear();
            out.begin_trace(user);
            self.kernel.protect(view, &mut self.rng, out);
            out.open_trace().map(|released| released.first())
        })?;
        self.released += 1;
        Some(released)
    }

    /// Number of records released so far.
    pub fn len(&self) -> usize {
        self.released
    }

    /// Returns `true` before the first release.
    pub fn is_empty(&self) -> bool {
        self.released == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloaking::GridCloaking;
    use crate::gaussian::GaussianPerturbation;
    use crate::geo_ind::GeoIndistinguishability;
    use crate::params::Epsilon;
    use crate::pipeline::Pipeline;
    use crate::traits::testing::{ProtectOne, Withhold};
    use geopriv_geo::{GeoPoint, Meters, Seconds};
    use geopriv_mobility::{Dataset, Trace};

    fn trace() -> Trace {
        let records: Vec<Record> = (0..40)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.76 + (i % 7) as f64 * 0.0011, -122.44 + i as f64 * 0.0003)
                        .unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(7), records).unwrap()
    }

    /// The offline reference: the whole trace protected alone, with a fresh
    /// seeded RNG.
    fn offline(lppm: &dyn Lppm, t: &Trace, seed: u64) -> Vec<Record> {
        lppm.protect_one(t, &mut StdRng::seed_from_u64(seed)).unwrap().iter().collect()
    }

    /// Pushes the whole trace and asserts the released records, withheld
    /// pushes left out, are the offline ones; returns how many were withheld.
    fn assert_stream_matches_offline(lppm: &dyn Lppm, seed: u64) -> usize {
        let t = trace();
        let reference = offline(lppm, &t, seed);
        let mut stream = open_stream(lppm, seed);
        assert!(stream.is_empty());
        let released: Vec<Record> = t.iter().filter_map(|record| stream.push(record)).collect();
        assert_eq!(released, reference, "{} diverged from the offline path", lppm.name());
        assert_eq!(stream.len(), reference.len());
        t.len() - released.len()
    }

    fn geoi(epsilon: f64) -> GeoIndistinguishability {
        GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
    }

    #[test]
    fn geoi_stream_is_bit_identical_to_offline() {
        assert_stream_matches_offline(&geoi(0.01), 42);
    }

    #[test]
    fn gaussian_stream_is_bit_identical_to_offline() {
        assert_stream_matches_offline(&GaussianPerturbation::new(Meters::new(150.0)).unwrap(), 9);
    }

    #[test]
    fn deterministic_mechanisms_stream_bit_identically() {
        assert_stream_matches_offline(&GridCloaking::new(Meters::new(400.0)).unwrap(), 1);
        assert_stream_matches_offline(&Pipeline::new(), 1);
    }

    #[test]
    fn pipelines_stream_bit_identically() {
        let cloaking = GridCloaking::new(Meters::new(500.0)).unwrap();
        assert_stream_matches_offline(
            &Pipeline::new().then_boxed(Box::new(geoi(0.01))).then_boxed(Box::new(cloaking)),
            4,
        );
        let thinned = Pipeline::new()
            .then_boxed(Box::new(Withhold::EveryNth(2)))
            .then_boxed(Box::new(geoi(0.01)));
        assert_eq!(assert_stream_matches_offline(&thinned, 3), 20);
    }

    #[test]
    fn record_dropping_mechanisms_stream_what_they_release() {
        // Keeping every fourth record withholds three of every four;
        // sampling withholds at random, the first record never.
        assert_eq!(assert_stream_matches_offline(&Withhold::EveryNth(4), 3), 30);
        let withheld = assert_stream_matches_offline(&Withhold::Sample(0.5), 3);
        assert!((1..40).contains(&withheld), "withheld {withheld}");
    }

    #[test]
    fn two_randomizing_stages_stream_record_major() {
        // With two stages drawing randomness the pipeline kernel passes one
        // record at a time through both, offline too, so the stream
        // reproduces the offline release.
        let pipeline = Pipeline::new()
            .then_boxed(Box::new(geoi(0.01)))
            .then_boxed(Box::new(GaussianPerturbation::new(Meters::new(50.0)).unwrap()));
        assert_eq!(assert_stream_matches_offline(&pipeline, 3), 0);
        let thinned = Pipeline::new()
            .then_boxed(Box::new(Withhold::Sample(0.5)))
            .then_boxed(Box::new(geoi(0.02)));
        assert_stream_matches_offline(&thinned, 8);
    }

    #[test]
    fn streams_with_different_seeds_diverge() {
        let lppm = geoi(0.01);
        let t = trace();
        let mut a = open_stream(&lppm, 1);
        let mut b = open_stream(&lppm, 2);
        let record = t.view().first();
        assert_ne!(a.push(record), b.push(record));
    }

    #[test]
    fn kernel_streams_match_a_restarted_session() {
        // Restarting a session with the same seed replays the same stream —
        // the reproducibility contract the serving layer builds on.
        let lppm = GaussianPerturbation::new(Meters::new(80.0)).unwrap();
        let t = trace();
        let mut first = open_stream(&lppm, 11);
        let released: Vec<Option<Record>> = t.iter().map(|r| first.push(r)).collect();
        let mut second = open_stream(&lppm, 11);
        for (i, record) in t.iter().enumerate() {
            assert_eq!(second.push(record), released[i]);
        }
    }

    #[test]
    fn streamed_records_rebuild_a_valid_dataset() {
        let lppm = GridCloaking::new(Meters::new(250.0)).unwrap();
        let t = trace();
        let mut stream = open_stream(&lppm, 0);
        let released: Vec<Record> = t.iter().filter_map(|r| stream.push(r)).collect();
        let rebuilt = Dataset::new(vec![Trace::new(t.user(), released).unwrap()]).unwrap();
        assert_eq!(rebuilt.record_count(), t.len());
    }
}
