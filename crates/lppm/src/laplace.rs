//! The planar (polar) Laplace distribution of Geo-Indistinguishability.
//!
//! Andrés et al. (CCS 2013) perturb a location by a vector drawn from the
//! planar Laplace distribution with density `p(x) ∝ ε² e^(−ε·|x|) / (2π)`.
//! Sampling is done in polar coordinates: the angle is uniform in `[0, 2π)`
//! and the radius follows the distribution with CDF
//! `C(r) = 1 − (1 + εr)·e^(−εr)`, inverted via the `W₋₁` branch of the
//! Lambert W function:
//!
//! ```text
//! r = −(1/ε)·( W₋₁((p − 1)/e) + 1 ),   p ~ Uniform(0, 1)
//! ```
//!
//! # Staged evaluation
//!
//! One record's draw is a serial chain of libm calls: two `ln` (or one
//! `sqrt`) for the initial guess, one `exp` per Halley iteration (three or
//! four of them), then `cos` and `sin`. Each call's latency is several times
//! its throughput, and the guess branch and the iteration count are random,
//! so a record-at-a-time loop leaves the core mostly waiting.
//! [`PlanarLaplace::sample_into`] therefore evaluates a chunk of records in
//! stages: it draws every record's angle and probability, groups the records
//! by guess formula and computes every initial guess, then runs Halley passes
//! in which each pass advances every unfinished lane once and compacts the
//! survivors, and finally turns each radius into a vector, visiting the
//! records in order of angle. The libm calls of different records are
//! independent, so the core overlaps them. Grouping, compaction and the
//! update select without a branch, so the only branches on a lane's value
//! are the domain check and the p = 0 test, which real draws never take;
//! the angle order makes the branches inside `cos` and `sin` predictable.
//!
//! The bits are those of a record-at-a-time evaluation. Every lane performs
//! exactly the scalar sequence of operations — same guess formulas, same
//! 64-iteration cap, same two exit tests, same update — and every libm call
//! receives the same argument; only the order in which independent lanes
//! are visited changes. Rust never contracts a multiply and an add into a
//! fused multiply-add, and SSE2 rounds add, multiply, divide and square root
//! identically in scalar and vector form. The draws happen in the
//! record-at-a-time order (θ₁, p₁, θ₂, p₂, …), and a chunk of one record is
//! the record-at-a-time evaluation.

use crate::params::Epsilon;
use rand::Rng;
use std::f64::consts::{E, TAU};

/// Records evaluated together by [`PlanarLaplace::sample_into`]; GEO-I's
/// record loop hands it chunks of this length.
pub(crate) const CHUNK: usize = 64;

/// Evaluates the `W₋₁` branch of the Lambert W function for `x ∈ [−1/e, 0)`.
///
/// Uses an initial asymptotic guess followed by Halley iterations; accurate to
/// better than 10⁻¹⁰ over the domain needed by the planar Laplace sampler.
/// This is the one-lane case of the staged kernel behind
/// [`PlanarLaplace::sample_into`], so both return the same bits.
///
/// # Panics
///
/// Panics if `x` is outside `[−1/e, 0)`, which cannot happen for inputs
/// derived from a probability in `[0, 1)`.
pub fn lambert_w_minus1(x: f64) -> f64 {
    let mut w = [0.0];
    lambert_w_minus1_lanes(&[x], &mut w, &mut [0]);
    w[0]
}

/// Evaluates `w[i] = W₋₁(x[i])` for every lane `i` listed in `lanes`, which
/// is left in an unspecified order.
///
/// The guess stage first partitions `lanes` by the scalar guess's random
/// `x < −0.25` test without branching, then evaluates each guess formula on
/// its own lanes. Each Halley pass advances every unfinished lane by one
/// scalar iteration and keeps the lanes that neither exit test stopped at
/// the front of `lanes`, again without a branch. A lane stopped by the
/// residual test keeps its current `w`, as the scalar loop breaks before
/// its update.
///
/// # Panics
///
/// Panics if a listed `x[i]` is outside `[−1/e, 0)`.
fn lambert_w_minus1_lanes(x: &[f64], w: &mut [f64], mut lanes: &mut [u8]) {
    let min_x = -(-1.0f64).exp(); // −1/e

    // Partition the lanes by the scalar guess's test, without branching:
    // lanes[..near] take the branch-point series, the rest the asymptote.
    let mut near = 0;
    for k in 0..lanes.len() {
        let lane = lanes[k];
        let x = x[usize::from(lane)];
        assert!(
            (min_x..0.0).contains(&x),
            "lambert_w_minus1 is only defined on [-1/e, 0), got {x}"
        );
        lanes[k] = lanes[near];
        lanes[near] = lane;
        near += usize::from(x < -0.25);
    }

    // Initial guess (Chapeau-Blondeau & Monir, 2002): series in
    // sqrt(2(1+e x)) near the branch point, logarithmic asymptote near zero.
    let (near_branch_point, near_zero) = lanes.split_at(near);
    for &lane in near_branch_point {
        let i = usize::from(lane);
        let p = -(2.0 * (1.0 + E * x[i])).sqrt();
        w[i] = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0;
    }
    for &lane in near_zero {
        let i = usize::from(lane);
        let l1 = (-x[i]).ln();
        let l2 = (-l1).ln();
        w[i] = l1 - l2 + l2 / l1;
    }

    // Halley passes.
    for _ in 0..64 {
        if lanes.is_empty() {
            break;
        }
        let mut survivors = 0;
        for k in 0..lanes.len() {
            let lane = lanes[k];
            let i = usize::from(lane);
            let (w0, x) = (w[i], x[i]);
            let ew = w0.exp();
            let f = w0 * ew - x;
            let denominator = ew * (w0 + 1.0) - (w0 + 2.0) * f / (2.0 * w0 + 2.0);
            let step = f / denominator;
            let stepped = w0 - step;
            let converged = f.abs() < 1e-14;
            w[i] = select(converged, w0, stepped);
            let finished = converged | (step.abs() < 1e-14 * stepped.abs().max(1.0));
            lanes[survivors] = lane;
            survivors += usize::from(!finished);
        }
        lanes = &mut lanes[..survivors];
    }
}

/// `if condition { a } else { b }` without a branch. Written as an `if`, the
/// compiler moves the computation of the unused value behind a branch on the
/// lane's data, which mispredicts at random and flushes the other lanes' work.
fn select(condition: bool, a: f64, b: f64) -> f64 {
    let mask = u64::from(condition).wrapping_neg();
    f64::from_bits(a.to_bits() & mask | b.to_bits() & !mask)
}

/// The planar Laplace noise distribution with privacy parameter ε.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Epsilon, laplace::PlanarLaplace};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let noise = PlanarLaplace::new(Epsilon::new(0.01)?);
/// let (dx, dy) = noise.sample(&mut rng);
/// assert!(dx.is_finite() && dy.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanarLaplace {
    epsilon: Epsilon,
}

impl PlanarLaplace {
    /// Creates the distribution for a given ε.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// The ε parameter.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Mean noise distance `2/ε` in meters.
    pub fn mean_radius_m(&self) -> f64 {
        self.epsilon.expected_noise_radius_m()
    }

    /// Samples a noise radius in meters (the magnitude of the perturbation).
    pub fn sample_radius<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // p in [0, 1); p = 0 gives r = 0.
        let p: f64 = rng.gen_range(0.0..1.0);
        if p == 0.0 {
            return 0.0;
        }
        self.radius(lambert_w_minus1(w_argument(p)))
    }

    /// Samples a planar noise vector `(dx, dy)` in meters: the one-record
    /// case of [`PlanarLaplace::sample_into`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let (mut dx, mut dy) = ([0.0], [0.0]);
        self.sample_chunk::<R, 1>(rng, &mut dx, &mut dy);
        (dx[0], dy[0])
    }

    /// Samples one planar noise vector per element of `dx`/`dy`, bit for bit
    /// what calling [`PlanarLaplace::sample`] once per element gives, with
    /// the chunk's libm calls overlapped (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `dx` and `dy` differ in length.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, dx: &mut [f64], dy: &mut [f64]) {
        assert_eq!(dx.len(), dy.len(), "sample_into needs one dy per dx");
        for (dx, dy) in dx.chunks_mut(CHUNK).zip(dy.chunks_mut(CHUNK)) {
            self.sample_chunk::<R, CHUNK>(rng, dx, dy);
        }
    }

    /// The staged kernel over at most `N` records; `N` sizes the stack
    /// scratch, so the one-record case zeroes no chunk-sized buffer.
    fn sample_chunk<R: Rng + ?Sized, const N: usize>(
        &self,
        rng: &mut R,
        dx: &mut [f64],
        dy: &mut [f64],
    ) {
        const { assert!(N < 256, "lanes and their counts are u8") };
        let mut x = [0.0; N];
        let mut w = [0.0; N];
        let mut lanes = [0u8; N];
        // Draw θ into dx and p into dy, record by record. Only records with
        // p ≠ 0 join the W₋₁ lanes: p = 0 gives r = 0 without evaluating W.
        let mut active = 0;
        for (i, (theta, p)) in dx.iter_mut().zip(dy.iter_mut()).enumerate() {
            *theta = rng.gen_range(0.0..TAU);
            *p = rng.gen_range(0.0..1.0);
            x[i] = w_argument(*p);
            lanes[active] = i as u8;
            active += usize::from(*p != 0.0);
        }
        lambert_w_minus1_lanes(&x, &mut w, &mut lanes[..active]);
        let order = &mut lanes[..dx.len()];
        angle_order::<N>(dx, order);
        for &i in order.iter() {
            let i = usize::from(i);
            let (theta, p) = (dx[i], dy[i]);
            let radius = if p == 0.0 { 0.0 } else { self.radius(w[i]) };
            dx[i] = radius * theta.cos();
            dy[i] = radius * theta.sin();
        }
    }

    /// The radius whose CDF value `p` gave `w = W₋₁((p − 1)/e)`.
    fn radius(&self, w: f64) -> f64 {
        -(w + 1.0) / self.epsilon.value()
    }
}

/// Writes into `order` the indices of `angles` (each in `[0, 2π)`) ordered
/// by angle, up to a counting sort into `N` equal buckets. `cos` and `sin`
/// branch on their argument's range, and at random angles those branches
/// mispredict; in this order they rarely do.
fn angle_order<const N: usize>(angles: &[f64], order: &mut [u8]) {
    let mut bucket = [0u8; N];
    let mut start = [0u8; N];
    for (b, &angle) in bucket.iter_mut().zip(angles) {
        *b = ((angle * (N as f64 / TAU)) as usize).min(N - 1) as u8;
        start[usize::from(*b)] += 1;
    }
    let mut end = 0;
    for start in start.iter_mut() {
        end += *start;
        *start = end - *start;
    }
    for (i, &b) in bucket[..angles.len()].iter().enumerate() {
        let slot = &mut start[usize::from(b)];
        order[usize::from(*slot)] = i as u8;
        *slot += 1;
    }
}

/// The Lambert-W argument `(p − 1)/e` of the radius CDF's inverse at `p`.
fn w_argument(p: f64) -> f64 {
    (p - 1.0) / E
}

/// The record-at-a-time sampler the staged kernel replaced, kept verbatim
/// as the reference its equivalence tests compare against (host-independent,
/// unlike pinned digests: libm results may differ between builds), plus an
/// RNG that can script the p = 0 draws no real seed reaches.
#[cfg(test)]
pub(crate) mod scalar_reference {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The scalar `W₋₁`: branchy guess, serial Halley loop.
    pub(crate) fn lambert_w_minus1(x: f64) -> f64 {
        let min_x = -(-1.0f64).exp(); // −1/e
        assert!(
            (min_x..0.0).contains(&x),
            "lambert_w_minus1 is only defined on [-1/e, 0), got {x}"
        );

        // Initial guess (Chapeau-Blondeau & Monir, 2002): series in sqrt(2(1+e x))
        // near the branch point, logarithmic asymptote near zero.
        let mut w = if x < -0.25 {
            let p = -(2.0 * (1.0 + std::f64::consts::E * x)).sqrt();
            -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
        } else {
            let l1 = (-x).ln();
            let l2 = (-l1).ln();
            l1 - l2 + l2 / l1
        };

        // Halley iterations.
        for _ in 0..64 {
            let ew = w.exp();
            let f = w * ew - x;
            if f.abs() < 1e-14 {
                break;
            }
            let denominator = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
            let step = f / denominator;
            w -= step;
            if step.abs() < 1e-14 * w.abs().max(1.0) {
                break;
            }
        }
        w
    }

    /// The scalar planar-Laplace draw at ε: θ, then p, then the radius.
    pub(crate) fn sample<R: Rng + ?Sized>(epsilon: f64, rng: &mut R) -> (f64, f64) {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        // p in [0, 1); p = 0 gives r = 0.
        let p: f64 = rng.gen_range(0.0..1.0);
        let radius = if p == 0.0 {
            0.0
        } else {
            let argument = (p - 1.0) / std::f64::consts::E;
            -(lambert_w_minus1(argument) + 1.0) / epsilon
        };
        (radius * theta.cos(), radius * theta.sin())
    }

    /// A seeded [`StdRng`] whose listed draws (0-based `next_u64` calls)
    /// return 0. A planar-Laplace record draws θ then p, so zeroing draw
    /// `2k + 1` gives record `k` the probability p = 0.
    pub(crate) struct ScriptedRng {
        inner: StdRng,
        draw: usize,
        zeros: Vec<usize>,
    }

    impl ScriptedRng {
        /// Zeroes the p draw of each listed record.
        pub(crate) fn zero_p_of(seed: u64, records: &[usize]) -> Self {
            let zeros = records.iter().map(|&k| 2 * k + 1).collect();
            Self { inner: StdRng::seed_from_u64(seed), draw: 0, zeros }
        }
    }

    impl RngCore for ScriptedRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let bits = self.inner.next_u64();
            self.draw += 1;
            if self.zeros.contains(&(self.draw - 1)) {
                0
            } else {
                bits
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scalar_reference::{self, ScriptedRng};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Asserts the staged `W₋₁` equals the scalar reference bit for bit at
    /// every argument, one lane at a time and all lanes of a chunk at once.
    fn assert_w_matches_reference(arguments: &[f64]) {
        for chunk in arguments.chunks(CHUNK) {
            let mut w = [0.0; CHUNK];
            let mut lanes: Vec<u8> = (0..chunk.len() as u8).collect();
            lambert_w_minus1_lanes(chunk, &mut w, &mut lanes);
            for (&x, &w) in chunk.iter().zip(&w) {
                let reference = scalar_reference::lambert_w_minus1(x);
                assert_eq!(w.to_bits(), reference.to_bits(), "chunked W-1({x:e})");
                let one_lane = lambert_w_minus1(x);
                assert_eq!(one_lane.to_bits(), reference.to_bits(), "one-lane W-1({x:e})");
            }
        }
    }

    #[test]
    fn staged_w_is_bit_identical_to_the_scalar_reference_at_edge_arguments() {
        let ulp = 1.0 / (1u64 << 53) as f64; // the sampler's p step

        // p where (p − 1)/e crosses −0.25, the guess's switch.
        let switch = 1.0 - E / 4.0;
        let mut ps: Vec<f64> = (1..=16).map(|k| k as f64 * ulp).collect();
        ps.extend([1e-12, 1e-6, 0.5, 1.0 - ulp]);
        ps.extend((0..=16).map(|k| f64::from_bits(switch.to_bits() - 8 + k)));
        let arguments: Vec<f64> = ps.iter().map(|&p| w_argument(p)).collect();
        assert!(arguments.iter().any(|&x| x < -0.25) && arguments.iter().any(|&x| x >= -0.25));
        assert_w_matches_reference(&arguments);
        // The branch point itself, which p = 0 would give.
        assert_w_matches_reference(&[-(-1.0f64).exp()]);
    }

    #[test]
    fn staged_w_is_bit_identical_to_the_scalar_reference_on_seeded_draws() {
        let mut rng = StdRng::seed_from_u64(13);
        let arguments: Vec<f64> =
            (0..100_000).map(|_| w_argument(rng.gen_range(0.0..1.0))).collect();
        assert_w_matches_reference(&arguments);
    }

    #[test]
    fn sample_and_sample_into_are_bit_identical_to_the_scalar_reference() {
        for &epsilon in &[1e-4, 1e-2, 1.0] {
            let noise = PlanarLaplace::new(Epsilon::new(epsilon).unwrap());
            for len in [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
                // p = 0 at the first, a middle and the last record.
                let zeroed = [0, len / 2, len - 1];
                let mut reference_rng = ScriptedRng::zero_p_of(3, &zeroed);
                let reference: Vec<(f64, f64)> = (0..len)
                    .map(|_| scalar_reference::sample(epsilon, &mut reference_rng))
                    .collect();
                assert!(zeroed.iter().all(|&k| reference[k] == (0.0, 0.0)));

                let (mut dx, mut dy) = (vec![f64::NAN; len], vec![f64::NAN; len]);
                noise.sample_into(&mut ScriptedRng::zero_p_of(3, &zeroed), &mut dx, &mut dy);
                let mut one_by_one_rng = ScriptedRng::zero_p_of(3, &zeroed);
                for (k, &(rx, ry)) in reference.iter().enumerate() {
                    let bits = (rx.to_bits(), ry.to_bits());
                    assert_eq!((dx[k].to_bits(), dy[k].to_bits()), bits, "sample_into, len {len}");
                    let (sx, sy) = noise.sample(&mut one_by_one_rng);
                    assert_eq!((sx.to_bits(), sy.to_bits()), bits, "sample, len {len}");
                }
            }
        }
    }

    #[test]
    fn lambert_w_known_values() {
        // W-1(-1/e) = -1.
        let w = lambert_w_minus1(-(-1.0f64).exp() + 1e-15);
        assert!((w + 1.0).abs() < 1e-3, "got {w}");
        // W-1(-0.1) ≈ -3.577152.
        let w = lambert_w_minus1(-0.1);
        assert!((w + 3.577152).abs() < 1e-5, "got {w}");
        // W-1(-0.2) ≈ -2.542641.
        let w = lambert_w_minus1(-0.2);
        assert!((w + 2.542641).abs() < 1e-5, "got {w}");
        // The defining identity w e^w = x holds across the domain.
        for &x in &[-0.3, -0.25, -0.15, -0.05, -0.01, -0.001] {
            let w = lambert_w_minus1(x);
            assert!((w * w.exp() - x).abs() < 1e-10, "identity fails at {x}: w={w}");
            assert!(w <= -1.0, "W-1 branch must be <= -1, got {w} at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "only defined")]
    fn lambert_w_rejects_out_of_domain() {
        let _ = lambert_w_minus1(0.5);
    }

    #[test]
    fn radius_distribution_matches_theory() {
        // For the polar Laplace, E[r] = 2/epsilon and the CDF at the mean is
        // 1 - 3 e^-2 ≈ 0.594.
        let mut rng = StdRng::seed_from_u64(42);
        let eps = Epsilon::new(0.01).unwrap();
        let dist = PlanarLaplace::new(eps);
        assert_eq!(dist.epsilon(), eps);
        assert_eq!(dist.mean_radius_m(), 200.0);

        let n = 40_000;
        let radii: Vec<f64> = (0..n).map(|_| dist.sample_radius(&mut rng)).collect();
        assert!(radii.iter().all(|&r| r >= 0.0 && r.is_finite()));
        let mean = radii.iter().sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 4.0, "mean radius {mean}");
        let below_mean = radii.iter().filter(|&&r| r <= 200.0).count() as f64 / n as f64;
        assert!((below_mean - 0.594).abs() < 0.02, "CDF at mean {below_mean}");
    }

    #[test]
    fn noise_vector_is_isotropic() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = PlanarLaplace::new(Epsilon::new(0.05).unwrap());
        let n = 20_000;
        let samples: Vec<(f64, f64)> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean_x = samples.iter().map(|s| s.0).sum::<f64>() / n as f64;
        let mean_y = samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        // Isotropy: both components average to ~0 (mean radius is 40 m here).
        assert!(mean_x.abs() < 1.5, "mean x {mean_x}");
        assert!(mean_y.abs() < 1.5, "mean y {mean_y}");
        // All four quadrants are hit roughly equally.
        let q1 = samples.iter().filter(|s| s.0 > 0.0 && s.1 > 0.0).count() as f64 / n as f64;
        assert!((q1 - 0.25).abs() < 0.02, "first quadrant fraction {q1}");
    }

    #[test]
    fn smaller_epsilon_means_larger_noise() {
        let mut rng = StdRng::seed_from_u64(11);
        let low = PlanarLaplace::new(Epsilon::new(0.001).unwrap());
        let high = PlanarLaplace::new(Epsilon::new(0.1).unwrap());
        let n = 5_000;
        let mean_low: f64 = (0..n).map(|_| low.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        let mean_high: f64 = (0..n).map(|_| high.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean_low > 50.0 * mean_high, "low {mean_low} vs high {mean_high}");
    }
}
