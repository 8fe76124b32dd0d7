//! The planar (polar) Laplace distribution of Geo-Indistinguishability.
//!
//! Andrés et al. (CCS 2013) perturb a location by a vector drawn from the
//! planar Laplace distribution with density `p(x) ∝ ε² e^(−ε·|x|) / (2π)`:
//! a uniform angle and, independent of it, a radius of density `ε²·r·e^(−εr)`
//! and CDF `C(r) = 1 − (1 + εr)·e^(−εr)`. That is Gamma(2, 1/ε), the sum of
//! two independent exponentials of rate ε, so [`PlanarLaplace::sample`]
//! draws the sum instead of inverting `C` through Lambert's `W₋₁`:
//!
//! 1. Draw `(x, y)` uniformly in `[−1, 1)²` until `0 < s = x² + y² < 1`.
//! 2. Draw `u` uniformly in `(0, 1]`.
//! 3. Return `(x, y) · (−ln(u·s)/ε) / √s`.
//!
//! A point uniform in the unit disk lies within `√t` of its center with
//! probability `t`, so `s` is uniform on `(0, 1)`; by rotational symmetry the
//! direction `(x, y)/√s` is uniform and independent of `s`. So `−ln s` and
//! `−ln u` are independent Exp(1) variables, independent of the direction,
//! and `−ln(u·s)/ε` has exactly the radius's law. `ln` is the only libm
//! call: `sqrt` and the arithmetic are correctly rounded on every platform.
//!
//! # Termination
//!
//! Step 1 accepts an attempt with probability π/4, the disk's share of the
//! square (its center is one point of the RNG's 2⁵³ × 2⁵³ grid). Attempts are
//! geometric, 4/π on average, so a record takes 1 + 8/π ≈ 3.55 draws, and
//! more than 100 attempts occur with probability below 10⁻⁶⁶. The loop has
//! no cap: a cap would need a fallback and a value to choose.

use crate::params::Epsilon;
use rand::Rng;

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

    /// Samples a planar noise vector `(dx, dy)` in meters (see the module
    /// docs for the method).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let (x, y, s) = loop {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                break (x, y, s);
            }
        };
        let u = 1.0 - rng.gen_range(0.0..1.0);
        let scale = -(u * s).ln() / (self.epsilon.value() * s.sqrt());
        (x * scale, y * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::f64::consts::{LN_2, TAU};

    /// The 0.999 quantile of χ² with 63 degrees of freedom: the bound for a
    /// 64-cell table whose cells are equally likely.
    const CHI_SQUARED_63_AT_0_999: f64 = 103.5;

    /// `n` seeded noise vectors at `epsilon`.
    fn draws(epsilon: f64, seed: u64, n: usize) -> Vec<(f64, f64)> {
        let noise = PlanarLaplace::new(Epsilon::new(epsilon).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| noise.sample(&mut rng)).collect()
    }

    /// The radius CDF `C(r) = 1 − (1 + εr)·e^(−εr)`.
    fn radius_cdf(epsilon: f64, r: f64) -> f64 {
        1.0 - (1.0 + epsilon * r) * (-epsilon * r).exp()
    }

    /// Which of `k` equal sectors, counted from the +x axis, holds `(dx, dy)`.
    fn sector(dx: f64, dy: f64, k: usize) -> usize {
        let angle = dy.atan2(dx).rem_euclid(TAU);
        ((angle / TAU * k as f64) as usize).min(k - 1)
    }

    /// Pearson's χ² of `counts` against equally likely cells.
    fn chi_squared(counts: &[usize]) -> f64 {
        let expected = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
    }

    #[test]
    fn radius_distribution_matches_theory() {
        // Kolmogorov–Smirnov against C, at the 0.001 level.
        for (seed, epsilon) in [(1, 1e-4), (2, 1e-2), (3, 1.0)] {
            let mut cdf: Vec<f64> = draws(epsilon, seed, 1_000_000)
                .iter()
                .map(|&(dx, dy)| radius_cdf(epsilon, dx.hypot(dy)))
                .collect();
            cdf.sort_unstable_by(f64::total_cmp);
            let n = cdf.len() as f64;
            let d = cdf
                .iter()
                .enumerate()
                .map(|(i, &c)| (c - i as f64 / n).max((i + 1) as f64 / n - c))
                .fold(0.0, f64::max);
            assert!(d < 1.95 / n.sqrt(), "eps {epsilon}: KS statistic {d}");
        }
    }

    #[test]
    fn mean_radius_is_two_over_epsilon() {
        for epsilon in [1e-4, 1e-2, 1.0] {
            let radii = draws(epsilon, 4, 200_000).into_iter().map(|(dx, dy)| dx.hypot(dy));
            let mean = radii.sum::<f64>() / 2e5;
            assert!((mean * epsilon / 2.0 - 1.0).abs() < 0.01, "eps {epsilon}: mean {mean}");
        }
    }

    #[test]
    fn noise_vector_is_isotropic() {
        let mut sectors = [0; 64];
        for (dx, dy) in draws(0.05, 7, 1_000_000) {
            sectors[sector(dx, dy, 64)] += 1;
        }
        let statistic = chi_squared(&sectors);
        assert!(statistic < CHI_SQUARED_63_AT_0_999, "64-sector chi-squared {statistic}");
    }

    #[test]
    fn radius_and_angle_are_independent() {
        // The radius reuses the direction's s, so check the joint law: each
        // (radius octile, angle octant) cell holds 1/64 of the draws.
        let mut cells = [0; 64];
        for (dx, dy) in draws(0.01, 5, 1_000_000) {
            let octile = ((radius_cdf(0.01, dx.hypot(dy)) * 8.0) as usize).min(7);
            cells[8 * octile + sector(dx, dy, 8)] += 1;
        }
        let statistic = chi_squared(&cells);
        assert!(statistic < CHI_SQUARED_63_AT_0_999, "radius x angle chi-squared {statistic}");
    }

    /// An RNG that hands out the listed words, then panics.
    struct Scripted<I>(I);

    impl<I: Iterator<Item = u64>> RngCore for Scripted<I> {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the script covers every draw")
        }
    }

    #[test]
    fn scripted_draws_reject_the_center_and_the_rim() {
        // Word w draws (w >> 11)·2⁻⁵³: 0 draws 0, 1 << 63 draws 1/2, 3 << 62
        // draws 3/4 and !0 draws 1 − 2⁻⁵³. So x = −1, 0 or 1/2, and u = 1 or
        // 2⁻⁵³. (0, 0) and (−1, 0) are rejected, and (1/2, 0) gives s = 1/4:
        // the radius along +x is 55·ln 2/ε at u = 2⁻⁵³, then 2·ln 2/ε at u = 1.
        let (zero, half, three_quarters) = (0, 1 << 63, 3 << 62);
        let script = [half, half, zero, half, three_quarters, half, !0, three_quarters, half, zero];
        let noise = PlanarLaplace::new(Epsilon::new(0.01).unwrap());
        let mut rng = Scripted(script.into_iter());
        for multiple in [55.0, 2.0] {
            let ((dx, dy), r) = (noise.sample(&mut rng), multiple * LN_2 / 0.01);
            assert!((dx / r - 1.0).abs() < 1e-14 && dy == 0.0, "({dx}, {dy}), radius {r}");
        }
        assert_eq!(rng.0.next(), None, "every scripted word is drawn");
    }

    #[test]
    fn smaller_epsilon_means_larger_noise() {
        let mean_radius = |epsilon| {
            draws(epsilon, 11, 5_000).iter().map(|&(dx, dy)| dx.hypot(dy)).sum::<f64>() / 5e3
        };
        assert!(mean_radius(0.001) > 50.0 * mean_radius(0.1));
    }
}
