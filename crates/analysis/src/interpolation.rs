//! Sampled response curves.
//!
//! Before fitting the parametric log-linear model of Equation 2, the
//! framework represents the measured response of each metric to the swept
//! parameter as an *empirical curve*. [`Curve`] stores such a sampled
//! response, sorted by parameter value; the saturation detector reads its
//! samples and range to find where the response is not flat.

use crate::error::AnalysisError;
use serde::{Deserialize, Serialize};

/// A curve through `(x, y)` samples, sorted by `x`.
///
/// # Examples
///
/// ```
/// use geopriv_analysis::interpolation::Curve;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// let curve = Curve::new(vec![(2.0, 20.0), (0.0, 0.0), (1.0, 10.0)])?;
/// assert_eq!(curve.points()[0], (0.0, 0.0));
/// assert_eq!(curve.range(), (0.0, 20.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    points: Vec<(f64, f64)>,
}

impl Curve {
    /// Creates a curve from `(x, y)` samples.
    ///
    /// Samples are sorted by `x`; duplicate `x` values keep the last `y`.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NotEnoughData`] with fewer than two distinct samples.
    /// * [`AnalysisError::NonFiniteInput`] for NaN/infinite samples.
    pub fn new(mut samples: Vec<(f64, f64)>) -> Result<Self, AnalysisError> {
        if samples.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(AnalysisError::NonFiniteInput);
        }
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        samples.dedup_by(|a, b| {
            if a.0 == b.0 {
                // Keep the later sample's y in `b` (dedup removes `a`).
                b.1 = a.1;
                true
            } else {
                false
            }
        });
        if samples.len() < 2 {
            return Err(AnalysisError::NotEnoughData { required: 2, actual: samples.len() });
        }
        Ok(Self { points: samples })
    }

    /// The sorted `(x, y)` samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Range of the curve: `(min y, max y)` over the samples.
    pub fn range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(_, y) in &self.points {
            min = min.min(y);
            max = max.max(y);
        }
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(samples: &[(f64, f64)]) -> Curve {
        Curve::new(samples.to_vec()).unwrap()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = Curve::new(vec![(2.0, 20.0), (0.0, 0.0), (1.0, 10.0), (1.0, 12.0)]).unwrap();
        assert_eq!(c.points().len(), 3);
        assert_eq!((c.points()[0].0, c.points()[2].0), (0.0, 2.0));
        // The later sample for x = 1.0 wins.
        assert_eq!(c.points()[1], (1.0, 12.0));

        assert!(Curve::new(vec![(0.0, 1.0)]).is_err());
        assert!(Curve::new(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Curve::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).is_err());
        assert!(Curve::new(vec![]).is_err());
    }

    #[test]
    fn range_reports_min_max_y() {
        let c = curve(&[(0.0, 3.0), (1.0, -1.0), (2.0, 7.0)]);
        assert_eq!(c.range(), (-1.0, 7.0));
    }
}
