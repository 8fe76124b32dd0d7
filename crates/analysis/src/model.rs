//! The parametric, invertible response model of Equation 2.
//!
//! The paper expresses each metric as a log-linear function of the
//! configuration parameter ε:
//!
//! ```text
//! Pr = a + b·ln ε        Ut = α + β·ln ε
//! ```
//!
//! [`LogLinearModel`] is exactly that object: it is fitted on `(ε, metric)`
//! samples restricted to the non-saturated zone, predicts the metric for a
//! given ε, and — crucially for the configuration step — *inverts* to give
//! the ε achieving a target metric value.

use crate::error::AnalysisError;
use crate::regression::SimpleLinearRegression;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's log-linear model `y = intercept + slope · ln x`.
///
/// The parameter `x` must be strictly positive (ε is in m⁻¹ > 0).
///
/// # Examples
///
/// ```
/// use geopriv_analysis::model::LogLinearModel;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// // Equation 2 of the paper: Pr = 0.84 + 0.17·ln ε.
/// let eps = [0.007, 0.01, 0.02, 0.04, 0.08];
/// let pr: Vec<f64> = eps.iter().map(|e: &f64| 0.84 + 0.17 * e.ln()).collect();
/// let model = LogLinearModel::fit(&eps, &pr)?;
///
/// // Inverting for the 10% POI-retrieval objective gives ε ≈ 0.013.
/// let eps_for_10_percent = model.invert(0.10)?;
/// assert!((eps_for_10_percent - 0.0128).abs() < 0.001);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogLinearModel {
    intercept: f64,
    slope: f64,
    r_squared: f64,
    domain: (f64, f64),
}

impl LogLinearModel {
    /// Fits `y = intercept + slope · ln x` on `(x, y)` samples.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::OutOfDomain`] if any `x` is not strictly positive.
    /// * Otherwise see [`SimpleLinearRegression::fit`].
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, AnalysisError> {
        if let Some(&bad) = xs.iter().find(|&&x| !(x.is_finite() && x > 0.0)) {
            return Err(AnalysisError::OutOfDomain {
                value: bad,
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            });
        }
        let ln_xs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let reg = SimpleLinearRegression::fit(&ln_xs, ys)?;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(Self {
            intercept: reg.intercept(),
            slope: reg.slope(),
            r_squared: reg.r_squared(),
            domain: (min, max),
        })
    }

    /// The fitted intercept (the paper's `a` / `α`).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope on `ln x` (the paper's `b` / `β`).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Predicted metric value at parameter value `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x.ln()
    }

    /// Parameter value at which the model attains the metric value `y`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotInvertible`] when the fitted slope is zero
    /// or not finite, and [`AnalysisError::OutOfDomain`] when the parameter
    /// value overflows `f64`.
    pub fn invert(&self, y: f64) -> Result<f64, AnalysisError> {
        if self.slope == 0.0 || !self.slope.is_finite() {
            return Err(AnalysisError::NotInvertible);
        }
        let ln_x = (y - self.intercept) / self.slope;
        let x = ln_x.exp();
        if !x.is_finite() {
            return Err(AnalysisError::OutOfDomain { value: y, min: f64::MIN, max: f64::MAX });
        }
        Ok(x)
    }

    /// Coefficient of determination of the fit, in `[0, 1]`.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Parameter domain `(min, max)` on which the model was fitted.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }
}

impl fmt::Display for LogLinearModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.4} + {:.4}·ln(x) (R² = {:.3})",
            self.intercept, self.slope, self.r_squared
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_models_are_not_invertible() {
        let log = LogLinearModel::fit(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(log.invert(4.0), Err(AnalysisError::NotInvertible));
    }

    #[test]
    fn log_linear_recovers_paper_coefficients() {
        // Utility side of Equation 2: Ut = 1.21 + 0.09 ln eps.
        let eps: Vec<f64> = (0..30).map(|i| 1e-4 * 10f64.powf(i as f64 / 7.5)).collect();
        let ut: Vec<f64> = eps.iter().map(|e| 1.21 + 0.09 * e.ln()).collect();
        let m = LogLinearModel::fit(&eps, &ut).unwrap();
        assert!((m.intercept() - 1.21).abs() < 1e-9);
        assert!((m.slope() - 0.09).abs() < 1e-9);
        assert!(m.r_squared() > 0.999);

        // Predict utility at eps = 0.01: the paper's 80% operating point.
        let predicted = m.predict(0.01);
        assert!((predicted - 0.7956).abs() < 0.01, "got {predicted}");
        // And invert for 80% utility: close to 0.01.
        let eps_for_80 = m.invert(0.80).unwrap();
        assert!((0.008..0.013).contains(&eps_for_80), "got {eps_for_80}");
    }

    #[test]
    fn log_linear_rejects_non_positive_parameters() {
        assert!(LogLinearModel::fit(&[0.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(LogLinearModel::fit(&[-1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(LogLinearModel::fit(&[f64::NAN, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn inversion_roundtrips_prediction() {
        let eps: Vec<f64> = (1..20).map(|i| i as f64 * 0.005).collect();
        let ys: Vec<f64> = eps.iter().map(|e| 0.84 + 0.17 * e.ln()).collect();
        let m = LogLinearModel::fit(&eps, &ys).unwrap();
        for &e in &[0.006, 0.02, 0.05, 0.09] {
            let y = m.predict(e);
            let back = m.invert(y).unwrap();
            assert!((back - e).abs() / e < 1e-9);
        }
    }

    #[test]
    fn display_shows_the_fitted_equation() {
        let eps = [0.01, 0.1, 1.0];
        let ys: Vec<f64> = eps.iter().map(|e: &f64| 0.5 - 0.25 * e.ln()).collect();
        let log = LogLinearModel::fit(&eps, &ys).unwrap();
        assert_eq!(log.to_string(), "y = 0.5000 + -0.2500·ln(x) (R² = 1.000)");
    }

    #[test]
    fn log_linear_inversion_past_f64_is_out_of_domain() {
        let eps = [0.01, 0.02, 0.04];
        let ys: Vec<f64> = eps.iter().map(|e: &f64| 0.84 + 0.17 * e.ln()).collect();
        let m = LogLinearModel::fit(&eps, &ys).unwrap();
        // ln x = (1000 - 0.84) / 0.17 overflows exp.
        assert!(matches!(m.invert(1000.0), Err(AnalysisError::OutOfDomain { .. })));
        assert!(m.invert(0.5).unwrap().is_finite());
    }
}
