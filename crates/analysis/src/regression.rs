//! Least-squares regression.
//!
//! The modeling phase of the paper (Equation 2) fits a *log-linear*
//! relationship between the GEO-I parameter ε and each metric:
//! `Pr = a + b·ln ε` and `Ut = α + β·ln ε`. [`SimpleLinearRegression`] is the
//! ordinary-least-squares engine behind that fit (the caller applies the
//! `ln` transform to the predictor); [`MultipleLinearRegression`] generalizes
//! to several predictors (configuration parameters plus dataset properties,
//! the `f(p₁…pₙ, d₁…dₘ)` of Equation 1).

use crate::error::AnalysisError;
use crate::matrix::Matrix;
use crate::stats;
use serde::{Deserialize, Serialize};

/// Result of an ordinary-least-squares fit `y ≈ intercept + slope · x`.
///
/// # Examples
///
/// ```
/// use geopriv_analysis::regression::SimpleLinearRegression;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [3.1, 4.9, 7.2, 8.8];
/// let fit = SimpleLinearRegression::fit(&x, &y)?;
/// assert!((fit.slope() - 2.0).abs() < 0.2);
/// assert!(fit.r_squared() > 0.98);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpleLinearRegression {
    intercept: f64,
    slope: f64,
    r_squared: f64,
    residual_std: f64,
    n: usize,
}

impl SimpleLinearRegression {
    /// Fits `y ≈ intercept + slope · x` by ordinary least squares.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::LengthMismatch`] if `x` and `y` differ in length.
    /// * [`AnalysisError::NotEnoughData`] with fewer than two samples.
    /// * [`AnalysisError::ZeroVariance`] if `x` is constant.
    /// * [`AnalysisError::NonFiniteInput`] for NaN/infinite samples.
    pub fn fit(x: &[f64], y: &[f64]) -> Result<Self, AnalysisError> {
        if x.len() != y.len() {
            return Err(AnalysisError::LengthMismatch { left: x.len(), right: y.len() });
        }
        if x.len() < 2 {
            return Err(AnalysisError::NotEnoughData { required: 2, actual: x.len() });
        }
        let mean_x = stats::mean(x)?;
        let mean_y = stats::mean(y)?;
        let sxx: f64 = x.iter().map(|v| (v - mean_x).powi(2)).sum();
        if sxx == 0.0 {
            return Err(AnalysisError::ZeroVariance);
        }
        let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mean_x) * (b - mean_y)).sum();
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;

        let ss_tot: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
        let ss_res: f64 = x.iter().zip(y).map(|(a, b)| (b - (intercept + slope * a)).powi(2)).sum();
        let r_squared = if ss_tot == 0.0 { 1.0 } else { (1.0 - ss_res / ss_tot).clamp(0.0, 1.0) };
        let dof = (x.len() as f64 - 2.0).max(1.0);
        let residual_std = (ss_res / dof).sqrt();

        Ok(Self { intercept, slope, r_squared, residual_std, n: x.len() })
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Coefficient of determination R² in `[0, 1]`.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Residual standard deviation.
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// Predicts `y` for a given `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Inverts the model: the `x` that yields the requested `y`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotInvertible`] if the slope is zero or not finite.
    pub fn invert(&self, y: f64) -> Result<f64, AnalysisError> {
        if self.slope == 0.0 || !self.slope.is_finite() {
            return Err(AnalysisError::NotInvertible);
        }
        Ok((y - self.intercept) / self.slope)
    }
}

/// Result of a multiple-linear-regression fit
/// `y ≈ β₀ + β₁ x₁ + … + β_k x_k` via the normal equations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultipleLinearRegression {
    coefficients: Vec<f64>,
    r_squared: f64,
    n: usize,
}

impl MultipleLinearRegression {
    /// Fits the model on a design of `observations x predictors`.
    ///
    /// Each row of `predictors` is one observation; an intercept column is
    /// added automatically.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::LengthMismatch`] if `predictors.len() != responses.len()`.
    /// * [`AnalysisError::NotEnoughData`] if there are fewer observations than
    ///   coefficients to estimate.
    /// * [`AnalysisError::SingularMatrix`] for collinear predictors.
    pub fn fit(predictors: &[Vec<f64>], responses: &[f64]) -> Result<Self, AnalysisError> {
        if predictors.len() != responses.len() {
            return Err(AnalysisError::LengthMismatch {
                left: predictors.len(),
                right: responses.len(),
            });
        }
        if predictors.is_empty() {
            return Err(AnalysisError::NotEnoughData { required: 2, actual: 0 });
        }
        let k = predictors[0].len();
        let n = predictors.len();
        if n < k + 1 {
            return Err(AnalysisError::NotEnoughData { required: k + 1, actual: n });
        }
        // Design matrix with intercept column.
        let design_rows: Vec<Vec<f64>> = predictors
            .iter()
            .map(|row| {
                let mut r = Vec::with_capacity(k + 1);
                r.push(1.0);
                r.extend_from_slice(row);
                r
            })
            .collect();
        let design = Matrix::from_rows(&design_rows)?;
        let xt = design.transpose();
        let xtx = xt.multiply(&design)?;
        let xty = xt.multiply_vec(responses)?;
        let coefficients = xtx.solve(&xty)?;

        let mean_y = stats::mean(responses)?;
        let ss_tot: f64 = responses.iter().map(|v| (v - mean_y).powi(2)).sum();
        let ss_res: f64 = design_rows
            .iter()
            .zip(responses)
            .map(|(row, &y)| {
                let pred: f64 = row.iter().zip(&coefficients).map(|(a, b)| a * b).sum();
                (y - pred).powi(2)
            })
            .sum();
        let r_squared = if ss_tot == 0.0 { 1.0 } else { (1.0 - ss_res / ss_tot).clamp(0.0, 1.0) };

        Ok(Self { coefficients, r_squared, n })
    }

    /// Fitted coefficients `[β₀ (intercept), β₁, …, β_k]`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The intercept `β₀`.
    pub fn intercept(&self) -> f64 {
        self.coefficients[0]
    }

    /// Coefficient of determination R² in `[0, 1]`.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicts the response for a new observation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::LengthMismatch`] if the number of predictors
    /// differs from the fitted model.
    pub fn predict(&self, predictors: &[f64]) -> Result<f64, AnalysisError> {
        if predictors.len() + 1 != self.coefficients.len() {
            return Err(AnalysisError::LengthMismatch {
                left: predictors.len(),
                right: self.coefficients.len() - 1,
            });
        }
        Ok(self.coefficients[0]
            + predictors.iter().zip(&self.coefficients[1..]).map(|(a, b)| a * b).sum::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 + 3.0 * v).collect();
        let fit = SimpleLinearRegression::fit(&x, &y).unwrap();
        assert!((fit.intercept() - 2.0).abs() < 1e-12);
        assert!((fit.slope() - 3.0).abs() < 1e-12);
        assert_eq!(fit.r_squared(), 1.0);
        assert!(fit.residual_std() < 1e-9);
    }

    #[test]
    fn noisy_line_has_good_but_imperfect_fit() {
        let x: Vec<f64> = (0..50).map(|i| i as f64 / 5.0).collect();
        // Deterministic "noise".
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 1.0 + 0.5 * v + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let fit = SimpleLinearRegression::fit(&x, &y).unwrap();
        assert!((fit.slope() - 0.5).abs() < 0.02);
        assert!((fit.intercept() - 1.0).abs() < 0.06);
        assert!(fit.r_squared() > 0.97 && fit.r_squared() < 1.0);
        assert!(fit.residual_std() > 0.0);
    }

    #[test]
    fn negative_slope_paper_like_fit() {
        // The paper's Equation 2 in reverse: Pr = 0.84 + 0.17 ln(eps).
        let eps = [0.007, 0.01, 0.02, 0.04, 0.08];
        let x: Vec<f64> = eps.iter().map(|e: &f64| e.ln()).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.84 + 0.17 * v).collect();
        let fit = SimpleLinearRegression::fit(&x, &y).unwrap();
        assert!((fit.intercept() - 0.84).abs() < 1e-10);
        assert!((fit.slope() - 0.17).abs() < 1e-10);
        // Inversion gives back ln(eps) for a target Pr of 10%.
        let ln_eps = fit.invert(0.10).unwrap();
        assert!((ln_eps.exp() - 0.0128).abs() < 0.001);
    }

    #[test]
    fn prediction_and_inversion_roundtrip() {
        let fit = SimpleLinearRegression::fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
        let y = fit.predict(1.7);
        let x = fit.invert(y).unwrap();
        assert!((x - 1.7).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(SimpleLinearRegression::fit(&[1.0], &[2.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, 2.0], &[2.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());

        // Horizontal line: slope 0 cannot be inverted.
        let flat = SimpleLinearRegression::fit(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(flat.slope(), 0.0);
        assert_eq!(flat.invert(4.0), Err(AnalysisError::NotInvertible));
    }

    #[test]
    fn multiple_regression_recovers_plane() {
        // y = 1 + 2 x1 - 3 x2
        let predictors: Vec<Vec<f64>> =
            (0..20).map(|i| vec![i as f64, (i * i % 7) as f64]).collect();
        let responses: Vec<f64> =
            predictors.iter().map(|p| 1.0 + 2.0 * p[0] - 3.0 * p[1]).collect();
        let fit = MultipleLinearRegression::fit(&predictors, &responses).unwrap();
        let c = fit.coefficients();
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[1] - 2.0).abs() < 1e-9);
        assert!((c[2] + 3.0).abs() < 1e-9);
        assert!((fit.r_squared() - 1.0).abs() < 1e-9);
        assert!((fit.predict(&[2.0, 1.0]).unwrap() - 2.0).abs() < 1e-9);
        assert!(fit.predict(&[1.0]).is_err());
    }

    #[test]
    fn multiple_regression_rejects_collinear_and_underdetermined() {
        // Perfectly collinear predictors.
        let predictors: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let responses: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(
            MultipleLinearRegression::fit(&predictors, &responses),
            Err(AnalysisError::SingularMatrix)
        );

        // Fewer observations than coefficients.
        assert!(MultipleLinearRegression::fit(&[vec![1.0, 2.0]], &[1.0]).is_err());
        // Mismatched lengths.
        assert!(MultipleLinearRegression::fit(&[vec![1.0], vec![2.0]], &[1.0]).is_err());
        // Empty input.
        assert!(MultipleLinearRegression::fit(&[], &[]).is_err());
    }
}
