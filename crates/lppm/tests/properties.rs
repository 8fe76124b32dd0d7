//! Property-based tests of the protection mechanisms.

use geopriv_geo::{distance, GeoPoint, Meters, Seconds};
use geopriv_lppm::{
    open_stream, Epsilon, GaussianPerturbation, GeoIndistinguishability, GridCloaking, Kernel,
    Lppm, LppmError, Pipeline,
};
use geopriv_mobility::{Dataset, DatasetBuilder, Record, Trace, TraceView, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One trace protected alone, through [`Lppm::protect_dataset`].
trait ProtectOne {
    fn protect_one(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError>;
}

impl<L: Lppm + ?Sized> ProtectOne for L {
    fn protect_one(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        let dataset = Dataset::new(vec![trace.clone()])?;
        Ok(self.protect_dataset(&dataset, rng)?.trace_at(0).to_trace())
    }
}

/// A mechanism that releases fewer records than it receives, unchanged. No
/// shipped mechanism withholds records, but kernels, pipelines and streams
/// still handle it.
#[derive(Debug, Clone, Copy)]
enum Withhold {
    /// Keeps each record whose index in the trace is a multiple of `n`,
    /// drawing nothing.
    EveryNth(usize),
    /// Keeps the first record, then each later one with probability `p`.
    Sample(f64),
}

impl Lppm for Withhold {
    fn name(&self) -> &str {
        match self {
            Withhold::EveryNth(_) => "every-nth",
            Withhold::Sample(_) => "sampling",
        }
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        struct Keep(Withhold, usize);
        impl Kernel for Keep {
            fn protect(
                &mut self,
                records: TraceView<'_>,
                rng: &mut dyn RngCore,
                out: &mut DatasetBuilder,
            ) {
                for record in records.iter() {
                    let keep = match self.0 {
                        Withhold::EveryNth(n) => self.1 % n == 0,
                        Withhold::Sample(p) => self.1 == 0 || rng.gen_bool(p),
                    };
                    if keep {
                        out.push_record(record.timestamp(), record.location());
                    }
                    self.1 += 1;
                }
            }
        }
        Box::new(Keep(*self, 0))
    }

    fn draws_randomness(&self) -> bool {
        matches!(self, Withhold::Sample(_))
    }
}

/// A deterministic trace near San Francisco parameterized by length and step size.
fn trace(n: usize, step_m: f64) -> Trace {
    let records: Vec<Record> = (0..n.max(2))
        .map(|i| {
            Record::new(
                Seconds::new(i as f64 * 30.0),
                GeoPoint::clamped(
                    37.75 + (i as f64 * step_m * ((i % 3) as f64 - 1.0)) / 111_000.0,
                    -122.44 + (i as f64 * step_m) / 88_000.0,
                ),
            )
        })
        .collect();
    Trace::new(UserId::new(9), records).expect("ordered records")
}

/// Every shipped mechanism, the empty pipeline, both withholding ones, plus
/// the pipelines [every-nth → GEO-I], [GEO-I → cloaking] and [GEO-I →
/// Gaussian].
fn mechanisms(epsilon: f64, sigma: f64, cell: f64, factor: usize, p: f64) -> Vec<Box<dyn Lppm>> {
    let geoi = || GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
    let gaussian = || GaussianPerturbation::new(Meters::new(sigma)).unwrap();
    let cloaking = || GridCloaking::new(Meters::new(cell)).unwrap();
    let downsampling = || Withhold::EveryNth(factor);
    vec![
        Box::new(Pipeline::new()),
        Box::new(geoi()),
        Box::new(gaussian()),
        Box::new(cloaking()),
        Box::new(downsampling()),
        Box::new(Withhold::Sample(p)),
        Box::new(Pipeline::new().then_boxed(Box::new(downsampling())).then_boxed(Box::new(geoi()))),
        Box::new(Pipeline::new().then_boxed(Box::new(geoi())).then_boxed(Box::new(cloaking()))),
        Box::new(Pipeline::new().then_boxed(Box::new(geoi())).then_boxed(Box::new(gaussian()))),
    ]
}

/// Protects `t` with one kernel, handing it consecutive pieces of the
/// lengths in `pieces` (cycled), and returns the released records' bits plus
/// the RNG's next draw, which tells whether both runs drew alike.
fn protect_in_pieces(lppm: &dyn Lppm, t: &Trace, pieces: &[usize], seed: u64) -> (Vec<u64>, u64) {
    let (mut kernel, mut rng) = (lppm.kernel(), StdRng::seed_from_u64(seed));
    let mut out = DatasetBuilder::new();
    out.begin_trace(t.user());
    let mut start = 0;
    for &len in pieces.iter().cycle() {
        if start == t.len() {
            break;
        }
        let end = (start + len).min(t.len());
        kernel.protect(t.view().slice(start..end), &mut rng, &mut out);
        start = end;
    }
    let released = out.open_trace().map_or_else(Vec::new, |view| {
        view.iter()
            .flat_map(|r| {
                let location = r.location();
                [r.timestamp().as_f64(), location.latitude(), location.longitude()]
            })
            .map(f64::to_bits)
            .collect()
    });
    (released, rng.next_u64())
}

/// An RNG that fails the test on any draw.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u32(&mut self) -> u32 {
        panic!("a deterministic mechanism drew from the RNG")
    }

    fn next_u64(&mut self) -> u64 {
        panic!("a deterministic mechanism drew from the RNG")
    }
}

#[test]
fn deterministic_mechanisms_never_draw() {
    let t = trace(150, 40.0);
    let cloaking = || GridCloaking::new(Meters::new(300.0)).unwrap();
    let mut deterministic: Vec<Box<dyn Lppm>> = mechanisms(0.01, 50.0, 300.0, 3, 0.5)
        .into_iter()
        .filter(|m| !m.draws_randomness())
        .collect();
    let names: Vec<&str> = deterministic.iter().map(|m| m.name()).collect();
    assert_eq!(names, ["pipeline[]", "grid-cloaking", "every-nth"]);
    deterministic.push(Box::new(Pipeline::new()));
    deterministic.push(Box::new(
        Pipeline::new()
            .then_boxed(Box::new(Withhold::EveryNth(2)))
            .then_boxed(Box::new(cloaking())),
    ));
    for mechanism in &deterministic {
        assert!(!mechanism.draws_randomness(), "{}", mechanism.name());
        let protected = mechanism.protect_one(&t, &mut NoDraws).unwrap();
        let mut stream = open_stream(mechanism.as_ref(), 0);
        assert!(t.iter().filter_map(|r| stream.push(r)).eq(protected.iter()));
    }
    let geoi = GeoIndistinguishability::new(Epsilon::new(0.01).unwrap());
    let randomized = Pipeline::new().then_boxed(Box::new(cloaking())).then_boxed(Box::new(geoi));
    assert!(randomized.draws_randomness());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_release_the_same_records_however_a_trace_is_split(
        n in 2usize..300,
        pieces in prop::collection::vec(1usize..=129, 1..8),
        epsilon in 1e-4f64..1.0,
        sigma in 0.0f64..500.0,
        cell in 50.0f64..2_000.0,
        factor in 1usize..6,
        p in 0.05f64..1.0,
        seed in 0u64..500,
    ) {
        let t = trace(n, 35.0);
        for mechanism in mechanisms(epsilon, sigma, cell, factor, p) {
            let whole = protect_in_pieces(mechanism.as_ref(), &t, &[t.len()], seed);
            let split = protect_in_pieces(mechanism.as_ref(), &t, &pieces, seed);
            prop_assert!(whole == split, "{} changed with pieces {:?}", mechanism.name(), pieces);
        }
    }

    #[test]
    fn all_mechanisms_produce_valid_nonempty_traces(
        n in 2usize..150,
        step in 0.0f64..120.0,
        epsilon in 1e-4f64..1.0,
        sigma in 0.0f64..2_000.0,
        cell in 50.0f64..2_000.0,
        factor in 1usize..16,
        probability in 0.01f64..1.0,
        seed in 0u64..500,
    ) {
        let t = trace(n, step);
        let mechanisms: Vec<Box<dyn Lppm>> = vec![
            Box::new(Pipeline::new()),
            Box::new(GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())),
            Box::new(GaussianPerturbation::new(Meters::new(sigma)).unwrap()),
            Box::new(GridCloaking::new(Meters::new(cell)).unwrap()),
            Box::new(Withhold::EveryNth(factor)),
            Box::new(Withhold::Sample(probability)),
        ];
        for mechanism in &mechanisms {
            let mut rng = StdRng::seed_from_u64(seed);
            let protected = mechanism.protect_one(&t, &mut rng).unwrap();
            prop_assert!(!protected.is_empty(), "{} emptied the trace", mechanism.name());
            prop_assert_eq!(protected.user(), t.user());
            // Timestamps stay within the original observation window and ordered.
            let (released, original) = (protected.view(), t.view());
            let last = released.record(released.len() - 1);
            let original_last = original.record(original.len() - 1);
            prop_assert!(released.first().timestamp() >= original.first().timestamp() - Seconds::new(1e-9));
            prop_assert!(last.timestamp() <= original_last.timestamp() + Seconds::new(1e-9));
            for w in protected.iter().collect::<Vec<_>>().windows(2) {
                prop_assert!(w[0].timestamp() <= w[1].timestamp());
            }
            // Coordinates stay valid.
            for r in &protected {
                prop_assert!((-90.0..=90.0).contains(&r.location().latitude()));
                prop_assert!((-180.0..=180.0).contains(&r.location().longitude()));
            }
        }
    }

    #[test]
    fn geoi_mean_displacement_scales_inversely_with_epsilon(
        epsilon in 0.002f64..0.5,
        seed in 0u64..500,
    ) {
        // Enough records for the empirical mean to concentrate.
        let t = trace(400, 30.0);
        let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = geoi.protect_one(&t, &mut rng).unwrap();
        let mean: f64 = t
            .iter()
            .zip(protected.iter())
            .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
            .sum::<f64>()
            / t.len() as f64;
        let expected = 2.0 / epsilon;
        prop_assert!(
            (mean - expected).abs() / expected < 0.35,
            "epsilon {}: mean displacement {} expected {}",
            epsilon,
            mean,
            expected
        );
    }

    #[test]
    fn deterministic_mechanisms_ignore_the_rng(
        n in 2usize..100,
        step in 0.0f64..100.0,
        cell in 50.0f64..1_500.0,
        seed_a in 0u64..100,
        seed_b in 100u64..200,
    ) {
        let t = trace(n, step);
        let deterministic: Vec<Box<dyn Lppm>> = vec![
            Box::new(GridCloaking::new(Meters::new(cell)).unwrap()),
            Box::new(Withhold::EveryNth(3)),
            Box::new(Pipeline::new()),
        ];
        for mechanism in &deterministic {
            let mut rng_a = StdRng::seed_from_u64(seed_a);
            let mut rng_b = StdRng::seed_from_u64(seed_b);
            prop_assert_eq!(
                mechanism.protect_one(&t, &mut rng_a).unwrap(),
                mechanism.protect_one(&t, &mut rng_b).unwrap(),
                "{} is not deterministic",
                mechanism.name()
            );
        }
    }

    #[test]
    fn downsampling_keeps_ceil_n_over_factor_records(n in 2usize..200, factor in 1usize..20) {
        let t = trace(n, 25.0);
        let mut rng = StdRng::seed_from_u64(1);
        let protected = Withhold::EveryNth(factor).protect_one(&t, &mut rng).unwrap();
        let expected = t.len().div_ceil(factor);
        prop_assert_eq!(protected.len(), expected);
    }

    #[test]
    fn release_sampling_is_a_subset_preserving_order(n in 2usize..200, probability in 0.05f64..1.0, seed in 0u64..300) {
        let t = trace(n, 40.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = Withhold::Sample(probability).protect_one(&t, &mut rng).unwrap();
        prop_assert!(protected.len() <= t.len());
        // Every released record exists verbatim in the original trace.
        let originals: Vec<(f64, f64, f64)> = t
            .iter()
            .map(|r| (r.timestamp().as_f64(), r.location().latitude(), r.location().longitude()))
            .collect();
        for r in &protected {
            let key = (r.timestamp().as_f64(), r.location().latitude(), r.location().longitude());
            prop_assert!(originals.contains(&key));
        }
    }

    #[test]
    fn cloaking_displacements_are_bounded(
        n in 2usize..100,
        step in 0.0f64..100.0,
        cell in 50.0f64..2_000.0,
    ) {
        let t = trace(n, step);
        let mut rng = StdRng::seed_from_u64(5);

        let cloaked = GridCloaking::new(Meters::new(cell)).unwrap().protect_one(&t, &mut rng).unwrap();
        let cloak_bound = cell / 2.0 * 2f64.sqrt() * 1.02;
        for (a, b) in t.iter().zip(cloaked.iter()) {
            prop_assert!(distance::haversine(a.location(), b.location()).as_f64() <= cloak_bound);
        }
    }
}

/// Property tests of the configuration-space enumeration contract
/// (`ParameterDescriptor::sweep` and `ConfigSpace::grid` /
/// `ConfigSpace::one_at_a_time`): monotone per axis, exact endpoints, every
/// generated point valid, deterministic ordering.
mod space_enumeration {
    use geopriv_lppm::{ConfigSpace, ParameterDescriptor, ParameterScale};
    use proptest::prelude::*;

    /// A strategy over valid descriptors: name, range and scale (strictly
    /// positive ranges so both scales are valid).
    fn descriptor(name: &'static str) -> impl Strategy<Value = ParameterDescriptor> {
        // The vendored proptest shim has no prop_oneof!; draw the scale from
        // an integer instead.
        (1e-6f64..1e3, 1.0001f64..1e4, 0u8..2).prop_map(move |(min, ratio, scale_pick)| {
            let scale =
                if scale_pick == 0 { ParameterScale::Linear } else { ParameterScale::Logarithmic };
            ParameterDescriptor::new(name, min, min * ratio, scale)
                .expect("strictly positive non-empty range")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sweeps_are_monotone_with_exact_endpoints_inside_the_range(
            axis in descriptor("p"),
            count in 0usize..60,
        ) {
            let sweep = axis.sweep(count);
            // The count is clamped to at least 2.
            prop_assert_eq!(sweep.len(), count.max(2));
            // Both endpoints exactly — no ULP drift tolerated.
            prop_assert_eq!(sweep[0], axis.min());
            prop_assert_eq!(*sweep.last().unwrap(), axis.max());
            // Strictly increasing, and every value in range.
            prop_assert!(sweep.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(sweep.iter().all(|&v| axis.contains(v)));
            // Deterministic: re-enumeration is identical.
            prop_assert_eq!(sweep, axis.sweep(count));
        }

        #[test]
        fn grids_enumerate_the_full_factorial_in_row_major_order(
            a in descriptor("a"),
            b in descriptor("b"),
            count_a in 2usize..7,
            count_b in 2usize..7,
        ) {
            let space = ConfigSpace::new(vec![a.clone(), b.clone()]).unwrap();
            let grid = space.grid(&[count_a, count_b]).unwrap();
            prop_assert_eq!(grid.len(), count_a * count_b);

            // Every generated point validates against the space.
            prop_assert!(grid.iter().all(|p| space.contains(p)));

            // Row-major: the last axis varies fastest, each axis's own
            // column is monotone within a row/block.
            let sweep_a = a.sweep(count_a);
            let sweep_b = b.sweep(count_b);
            for (index, point) in grid.iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), sweep_a[index / count_b]);
                prop_assert_eq!(point.get("b").unwrap(), sweep_b[index % count_b]);
            }
            // Corners carry the exact endpoints.
            prop_assert_eq!(grid[0].coords(), vec![a.min(), b.min()]);
            prop_assert_eq!(grid[grid.len() - 1].coords(), vec![a.max(), b.max()]);

            // Deterministic ordering: re-enumeration is identical.
            prop_assert_eq!(space.grid(&[count_a, count_b]).unwrap(), grid);
        }

        #[test]
        fn one_at_a_time_legs_hold_other_axes_at_defaults(
            a in descriptor("a"),
            b in descriptor("b"),
            count_a in 2usize..7,
            count_b in 2usize..7,
        ) {
            let space = ConfigSpace::new(vec![a.clone(), b.clone()]).unwrap();
            let star = space.one_at_a_time(&[count_a, count_b]).unwrap();
            prop_assert_eq!(star.len(), count_a + count_b);
            prop_assert!(star.iter().all(|p| space.contains(p)));

            let sweep_a = a.sweep(count_a);
            let sweep_b = b.sweep(count_b);
            for (i, point) in star[..count_a].iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), sweep_a[i]);
                prop_assert_eq!(point.get("b").unwrap(), b.default_value());
            }
            for (i, point) in star[count_a..].iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), a.default_value());
                prop_assert_eq!(point.get("b").unwrap(), sweep_b[i]);
            }
            prop_assert_eq!(space.one_at_a_time(&[count_a, count_b]).unwrap(), star);
        }

        #[test]
        fn one_axis_grids_equal_the_descriptor_sweep(
            axis in descriptor("p"),
            count in 2usize..40,
        ) {
            let space = ConfigSpace::single(axis.clone());
            let grid = space.grid(&[count]).unwrap();
            let star = space.one_at_a_time(&[count]).unwrap();
            let sweep = axis.sweep(count);
            prop_assert_eq!(grid.len(), sweep.len());
            for (point, value) in grid.iter().zip(&sweep) {
                prop_assert_eq!(point.single().unwrap(), *value);
            }
            // Both modes coincide on one axis — the single-scalar contract.
            prop_assert_eq!(star, grid);
        }
    }
}
