//! Property-based tests for the numerical analysis substrate.

use geopriv_analysis::model::LogLinearModel;
use geopriv_analysis::{find_active_zone, stats, Curve, Matrix, Pca, SimpleLinearRegression};
use proptest::prelude::*;

fn finite_samples(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..max_len)
}

proptest! {
    #[test]
    fn mean_is_between_min_and_max(data in finite_samples(1, 50)) {
        let m = stats::mean(&data).unwrap();
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_is_nonnegative_and_shift_invariant(data in finite_samples(2, 50), shift in -1e5f64..1e5) {
        let v = stats::variance(&data).unwrap();
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let vs = stats::variance(&shifted).unwrap();
        prop_assert!((v - vs).abs() <= 1e-6 * v.max(1.0));
    }


    #[test]
    fn regression_residuals_are_orthogonal_to_predictor(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        xs in prop::collection::vec(-100.0f64..100.0, 3..30),
        noise in prop::collection::vec(-1.0f64..1.0, 3..30),
    ) {
        let n = xs.len().min(noise.len());
        let xs = &xs[..n];
        let ys: Vec<f64> = xs.iter().zip(&noise[..n]).map(|(x, e)| intercept + slope * x + e).collect();
        if let Ok(fit) = SimpleLinearRegression::fit(xs, &ys) {
            // OLS residuals sum to ~0 and are uncorrelated with x.
            let residuals: Vec<f64> =
                xs.iter().zip(&ys).map(|(x, y)| y - (fit.intercept() + fit.slope() * x)).collect();
            let sum: f64 = residuals.iter().sum();
            prop_assert!(sum.abs() < 1e-6 * (n as f64) * (1.0 + slope.abs() + intercept.abs()));
            prop_assert!((0.0..=1.0).contains(&fit.r_squared()));
        }
    }

    #[test]
    fn linear_solve_verifies_by_substitution(seed in 0u64..10_000) {
        // Build a well-conditioned system: diagonally dominant 4x4.
        let mut rows = Vec::new();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..4 {
            let mut row: Vec<f64> = (0..4).map(|_| next()).collect();
            row[i] += 10.0;
            rows.push(row);
        }
        let b: Vec<f64> = (0..4).map(|_| next() * 5.0).collect();
        let m = Matrix::from_rows(&rows).unwrap();
        let x = m.solve(&b).unwrap();
        let back = m.multiply_vec(&x).unwrap();
        for (computed, expected) in back.iter().zip(&b) {
            prop_assert!((computed - expected).abs() < 1e-8);
        }
    }

    #[test]
    fn pca_explained_variance_sums_to_one(rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 5..40)) {
        if let Ok(pca) = Pca::fit(&rows) {
            let total: f64 = pca.components().iter().map(|c| c.explained_variance_ratio).sum();
            prop_assert!((total - 1.0).abs() < 1e-6 || total.abs() < 1e-9);
            for c in pca.components() {
                prop_assert!(c.eigenvalue >= -1e-9);
                // Loadings are unit vectors.
                let norm: f64 = c.loadings.iter().map(|v| v * v).sum::<f64>().sqrt();
                prop_assert!((norm - 1.0).abs() < 1e-6);
            }
        }
    }


    #[test]
    fn log_linear_model_inversion_roundtrips(intercept in -2.0f64..2.0, slope in 0.01f64..1.0, t in 0.1f64..0.9) {
        let eps: Vec<f64> = (1..25).map(|i| 1e-4 * 1.5f64.powi(i)).collect();
        let ys: Vec<f64> = eps.iter().map(|e| intercept + slope * e.ln()).collect();
        let model = LogLinearModel::fit(&eps, &ys).unwrap();
        let (lo, hi) = model.domain();
        let x = lo * (hi / lo).powf(t);
        let y = model.predict(x);
        let back = model.invert(y).unwrap();
        prop_assert!((back - x).abs() / x < 1e-6);
        prop_assert!(model.r_squared() > 0.999);
    }

    #[test]
    fn active_zone_is_inside_domain(midpoint in -5.0f64..5.0, steepness in 0.5f64..4.0, amplitude in 0.1f64..1.0) {
        let samples: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let x = -10.0 + i as f64 / 3.0;
                (x, amplitude / (1.0 + (-(x - midpoint) * steepness).exp()))
            })
            .collect();
        let curve = Curve::new(samples).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        let (min_x, max_x) = (curve.points()[0].0, curve.points()[curve.points().len() - 1].0);
        prop_assert!(zone.min_x >= min_x && zone.max_x <= max_x);
        prop_assert!(zone.min_x < zone.max_x);
        prop_assert!(zone.contains(midpoint.clamp(min_x, max_x)) || zone.max_x - zone.min_x > 0.0);
    }
}
