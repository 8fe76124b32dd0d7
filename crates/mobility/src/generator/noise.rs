//! Random sampling helpers shared by the synthetic mobility generators.
//!
//! Only the uniform generator of [`rand`] is assumed; the normal and
//! exponential variates needed by the simulators are derived here (Box-Muller
//! and inverse-CDF respectively), keeping the dependency surface to the
//! pre-approved crates.

use geopriv_geo::Point;
use rand::Rng;

/// Samples a normally distributed value with the given mean and standard deviation.
///
/// Uses the Box-Muller transform. A non-positive `std_dev` returns `mean`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return mean;
    }
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Samples an exponentially distributed value with the given mean.
///
/// Uses inverse-CDF sampling. A non-positive `mean` returns `0`.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Adds isotropic Gaussian jitter (standard deviation `sigma_m` meters per
/// axis) to a planar point. Models GPS measurement noise.
pub fn gps_jitter<R: Rng + ?Sized>(rng: &mut R, point: Point, sigma_m: f64) -> Point {
    if sigma_m <= 0.0 {
        return point;
    }
    Point::new(
        point.x() + sample_normal(rng, 0.0, sigma_m),
        point.y() + sample_normal(rng, 0.0, sigma_m),
    )
}

/// Samples an index according to non-negative weights.
///
/// Falls back to index 0 when all weights are zero or the slice is empty
/// degenerately (callers validate non-emptiness).
pub fn sample_weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 || weights.is_empty() {
        return 0;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if w.is_finite() && w > 0.0 {
            if target < w {
                return i;
            }
            target -= w;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_samples_have_expected_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| sample_normal(&mut rng, 10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn zero_std_returns_mean_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_normal(&mut rng, 5.0, 0.0), 5.0);
        assert_eq!(sample_normal(&mut rng, 5.0, -1.0), 5.0);
    }

    #[test]
    fn exponential_samples_have_expected_mean_and_are_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| sample_exponential(&mut rng, 300.0)).collect();
        assert!(samples.iter().all(|&v| v >= 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 300.0).abs() < 15.0, "mean {mean}");
        assert_eq!(sample_exponential(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn gps_jitter_moves_points_by_roughly_sigma() {
        let mut rng = StdRng::seed_from_u64(4);
        let origin = Point::new(0.0, 0.0);
        let displacements: Vec<f64> = (0..5_000)
            .map(|_| gps_jitter(&mut rng, origin, 10.0).distance_to(origin).as_f64())
            .collect();
        let mean = displacements.iter().sum::<f64>() / displacements.len() as f64;
        // Mean displacement of a 2D Gaussian is sigma * sqrt(pi/2) ≈ 12.5 m.
        assert!((mean - 12.5).abs() < 1.0, "mean {mean}");
        assert_eq!(gps_jitter(&mut rng, origin, 0.0), origin);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sample_weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");

        // Degenerate weights fall back to index 0.
        assert_eq!(sample_weighted_index(&mut rng, &[0.0, 0.0]), 0);
        assert_eq!(sample_weighted_index(&mut rng, &[]), 0);
    }
}
