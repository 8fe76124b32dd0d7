//! Piecewise-linear curves and their inversion.
//!
//! Before fitting the parametric log-linear model of Equation 2, the
//! framework represents the measured response of each metric to the swept
//! parameter as an *empirical curve*. [`Curve`] stores such a sampled
//! response, linear between samples, and — when the response is monotone —
//! inverts it to answer "which parameter value yields this metric value?"
//! directly from the measurements.

use crate::error::AnalysisError;
use serde::{Deserialize, Serialize};

/// Monotonicity classification of a sampled curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Monotonicity {
    /// Strictly or weakly increasing.
    Increasing,
    /// Strictly or weakly decreasing.
    Decreasing,
    /// Constant everywhere.
    Constant,
    /// Neither increasing nor decreasing.
    NonMonotone,
}

/// A piecewise-linear curve through `(x, y)` samples, sorted by `x`.
///
/// # Examples
///
/// ```
/// use geopriv_analysis::interpolation::Curve;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// let curve = Curve::new(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)])?;
/// assert_eq!(curve.invert(15.0)?, 1.5);
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

    /// The `x` values of the samples.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|(x, _)| *x).collect()
    }

    /// The `y` values of the samples.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|(_, y)| *y).collect()
    }

    /// Domain of the curve: `(min x, max x)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
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

    /// Classifies the monotonicity of the sampled response.
    pub fn monotonicity(&self) -> Monotonicity {
        let mut increasing = true;
        let mut decreasing = true;
        for w in self.points.windows(2) {
            if w[1].1 > w[0].1 {
                decreasing = false;
            }
            if w[1].1 < w[0].1 {
                increasing = false;
            }
        }
        match (increasing, decreasing) {
            (true, true) => Monotonicity::Constant,
            (true, false) => Monotonicity::Increasing,
            (false, true) => Monotonicity::Decreasing,
            (false, false) => Monotonicity::NonMonotone,
        }
    }

    /// Inverts a monotone curve: finds `x` such that the curve passes through
    /// `(x, y)`.
    ///
    /// If several segments attain `y` exactly (plateaus), the smallest such
    /// `x` is returned.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NotInvertible`] if the curve is not monotone or constant.
    /// * [`AnalysisError::OutOfDomain`] if `y` is outside the curve's range.
    pub fn invert(&self, y: f64) -> Result<f64, AnalysisError> {
        match self.monotonicity() {
            Monotonicity::Increasing | Monotonicity::Decreasing => {}
            Monotonicity::Constant | Monotonicity::NonMonotone => {
                return Err(AnalysisError::NotInvertible)
            }
        }
        let (min_y, max_y) = self.range();
        if !y.is_finite() || y < min_y || y > max_y {
            return Err(AnalysisError::OutOfDomain { value: y, min: min_y, max: max_y });
        }
        for w in self.points.windows(2) {
            let (x1, y1) = w[0];
            let (x2, y2) = w[1];
            let (lo, hi) = if y1 <= y2 { (y1, y2) } else { (y2, y1) };
            if y >= lo && y <= hi {
                if (y2 - y1).abs() < f64::EPSILON {
                    return Ok(x1);
                }
                let t = (y - y1) / (y2 - y1);
                return Ok(x1 + t * (x2 - x1));
            }
        }
        // Unreachable: y is within range, so some segment brackets it.
        Err(AnalysisError::OutOfDomain { value: y, min: min_y, max: max_y })
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
        assert_eq!(c.domain(), (0.0, 2.0));
        // The later sample for x = 1.0 wins.
        assert_eq!(c.points()[1], (1.0, 12.0));

        assert!(Curve::new(vec![(0.0, 1.0)]).is_err());
        assert!(Curve::new(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Curve::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).is_err());
        assert!(Curve::new(vec![]).is_err());
    }

    #[test]
    fn monotonicity_classification() {
        assert_eq!(
            curve(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]).monotonicity(),
            Monotonicity::Increasing
        );
        assert_eq!(
            curve(&[(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]).monotonicity(),
            Monotonicity::Decreasing
        );
        assert_eq!(
            curve(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]).monotonicity(),
            Monotonicity::Constant
        );
        assert_eq!(
            curve(&[(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]).monotonicity(),
            Monotonicity::NonMonotone
        );
        // Plateaus keep the overall classification.
        assert_eq!(
            curve(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]).monotonicity(),
            Monotonicity::Increasing
        );
    }

    #[test]
    fn inversion_of_monotone_curves() {
        let inc = curve(&[(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]);
        assert_eq!(inc.invert(5.0).unwrap(), 0.5);
        assert_eq!(inc.invert(20.0).unwrap(), 1.5);
        assert_eq!(inc.invert(0.0).unwrap(), 0.0);
        assert_eq!(inc.invert(30.0).unwrap(), 2.0);
        assert!(inc.invert(31.0).is_err());
        assert!(inc.invert(-1.0).is_err());

        let dec = curve(&[(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]);
        assert_eq!(dec.invert(0.75).unwrap(), 0.5);
        assert_eq!(dec.invert(0.25).unwrap(), 1.5);

        let flat = curve(&[(0.0, 1.0), (1.0, 1.0)]);
        assert_eq!(flat.invert(1.0), Err(AnalysisError::NotInvertible));
        let bumpy = curve(&[(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]);
        assert_eq!(bumpy.invert(1.5), Err(AnalysisError::NotInvertible));
    }

    #[test]
    fn inversion_on_plateau_returns_smallest_x() {
        let c = curve(&[(0.0, 0.0), (1.0, 5.0), (2.0, 5.0), (3.0, 10.0)]);
        assert_eq!(c.invert(5.0).unwrap(), 1.0);
    }

    #[test]
    fn roundtrip_interpolate_invert() {
        // The curve's y at x, on the segment that brackets x, inverts to x.
        let c = curve(&[(0.0, 0.2), (1.0, 0.35), (2.0, 0.6), (3.0, 0.9)]);
        for x in [0.25_f64, 0.8, 1.5, 2.9] {
            let (i, t) = (x.floor() as usize, x.fract());
            let (y1, y2) = (c.points()[i].1, c.points()[i + 1].1);
            let back = c.invert(y1 + t * (y2 - y1)).unwrap();
            assert!((back - x).abs() < 1e-9, "x={x} back={back}");
        }
    }

    #[test]
    fn range_reports_min_max_y() {
        let c = curve(&[(0.0, 3.0), (1.0, -1.0), (2.0, 7.0)]);
        assert_eq!(c.range(), (-1.0, 7.0));
    }
}
