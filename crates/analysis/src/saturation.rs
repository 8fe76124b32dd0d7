//! Saturation-zone detection.
//!
//! Figure 1 of the paper marks with vertical lines the zone where the metrics
//! are *not saturated* — the ε-range over which the metric actually responds
//! to the parameter. Outside that zone the response is flat (the metric is
//! pinned at its floor or ceiling) and a log-linear fit would be meaningless.
//! The paper restricts Equation 2 to this zone; [`find_active_zone`]
//! automates the detection.

use crate::error::AnalysisError;
use crate::interpolation::Curve;
use serde::{Deserialize, Serialize};

/// The detected non-saturated ("active") zone of a response curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveZone {
    /// Smallest `x` of the active zone.
    pub min_x: f64,
    /// Largest `x` of the active zone.
    pub max_x: f64,
}

impl ActiveZone {
    /// Returns `true` if `x` lies inside the zone.
    pub fn contains(&self, x: f64) -> bool {
        (self.min_x..=self.max_x).contains(&x)
    }
}

/// Fraction of the total dynamic range below which a sample is considered
/// saturated at the floor.
const LOW_FRACTION: f64 = 0.05;

/// Fraction of the total dynamic range above which a sample is considered
/// saturated at the ceiling.
const HIGH_FRACTION: f64 = 0.95;

/// Finds the contiguous zone of the curve where the response is neither
/// pinned at its floor nor at its ceiling.
///
/// The zone is the smallest contiguous index range containing every
/// sample whose normalized response lies strictly between 5 % and 95 % of
/// the total dynamic range. If a boundary sample exists on either side it
/// is included, so the zone brackets the transition like the vertical lines
/// in Figure 1.
///
/// # Errors
///
/// * [`AnalysisError::ZeroVariance`] if the curve is flat (no dynamic range).
/// * [`AnalysisError::NotEnoughData`] if fewer than two samples end up in the zone.
pub fn find_active_zone(curve: &Curve) -> Result<ActiveZone, AnalysisError> {
    let points = curve.points();
    let (min_y, max_y) = curve.range();
    let span = max_y - min_y;
    if span <= f64::EPSILON {
        return Err(AnalysisError::ZeroVariance);
    }

    let normalized: Vec<f64> = points.iter().map(|&(_, y)| (y - min_y) / span).collect();
    let active: Vec<usize> = normalized
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > LOW_FRACTION && v < HIGH_FRACTION)
        .map(|(i, _)| i)
        .collect();

    let (mut first, mut last) = match (active.first(), active.last()) {
        (Some(&f), Some(&l)) => (f, l),
        _ => {
            // No strictly-interior samples: the transition happens between
            // two consecutive samples. Find the steepest jump.
            let steepest = normalized
                .windows(2)
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    (a[1] - a[0]).abs().partial_cmp(&(b[1] - b[0]).abs()).expect("finite")
                })
                .map(|(i, _)| i)
                .ok_or(AnalysisError::NotEnoughData { required: 2, actual: points.len() })?;
            (steepest, steepest + 1)
        }
    };

    // Include one bracketing sample on each side when available.
    first = first.saturating_sub(1);
    last = (last + 1).min(points.len() - 1);

    if last - first + 1 < 2 {
        return Err(AnalysisError::NotEnoughData { required: 2, actual: last - first + 1 });
    }

    Ok(ActiveZone { min_x: points[first].0, max_x: points[last].0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sigmoid-like response: saturated low, transition, saturated high —
    /// the shape of Figure 1a with x = ln(ε).
    fn sigmoid_curve() -> Curve {
        let samples: Vec<(f64, f64)> = (0..41)
            .map(|i| {
                let x = -9.0 + i as f64 * 0.25; // ln(eps) from about -9 to 1
                let y = 0.4 / (1.0 + (-(x + 3.5) * 2.0).exp());
                (x, y)
            })
            .collect();
        Curve::new(samples).unwrap()
    }

    #[test]
    fn sigmoid_active_zone_brackets_the_transition() {
        let curve = sigmoid_curve();
        let zone = find_active_zone(&curve).unwrap();
        // The logistic midpoint is at x = -3.5; the zone must contain it.
        assert!(zone.contains(-3.5), "zone {zone:?}");
        // The saturated tails must be excluded.
        assert!(zone.min_x > -9.0);
        assert!(zone.max_x < 1.0);
        assert!(zone.max_x - zone.min_x > 0.5);
        assert!(curve.points().iter().filter(|&&(x, _)| zone.contains(x)).count() >= 3);
    }

    #[test]
    fn flat_curve_is_rejected() {
        let curve = Curve::new(vec![(0.0, 0.3), (1.0, 0.3), (2.0, 0.3)]).unwrap();
        assert_eq!(find_active_zone(&curve), Err(AnalysisError::ZeroVariance));
    }

    #[test]
    fn linear_curve_is_fully_active() {
        let samples: Vec<(f64, f64)> = (0..11).map(|i| (i as f64, i as f64)).collect();
        let curve = Curve::new(samples).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        // All interior samples are active; the zone spans (almost) everything.
        assert_eq!((zone.min_x, zone.max_x), (0.0, 10.0));
    }

    #[test]
    fn step_function_zone_is_the_jump() {
        // 0, 0, 0, 1, 1, 1: no strictly-interior samples.
        let samples = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)];
        let curve = Curve::new(samples).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        assert!(zone.contains(2.0) && zone.contains(3.0), "zone {zone:?}");
        assert!(zone.max_x - zone.min_x <= 3.0);
    }

    #[test]
    fn decreasing_response_is_supported() {
        let samples: Vec<(f64, f64)> = (0..31)
            .map(|i| {
                let x = i as f64 * 0.3;
                let y = 1.0 - 1.0 / (1.0 + (-(x - 4.5) * 1.5).exp());
                (x, y)
            })
            .collect();
        let curve = Curve::new(samples).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        assert!(zone.contains(4.5));
    }

    #[test]
    fn floor_and_ceiling_are_five_and_ninety_five_percent_of_the_range() {
        // Normalized responses 0.04 and 0.96 are saturated; 0.06 and 0.94 are not.
        let ys = [0.0, 0.04, 0.06, 0.5, 0.94, 0.96, 1.0];
        let curve =
            Curve::new(ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect()).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        // Samples 2..=4 are active; one bracketing sample joins on each side.
        assert_eq!((zone.min_x, zone.max_x), (1.0, 5.0));
    }

    #[test]
    fn zone_contains_its_edges_and_nothing_outside() {
        let zone = ActiveZone { min_x: -2.0, max_x: 1.5 };
        assert!(zone.contains(-2.0) && zone.contains(0.0) && zone.contains(1.5));
        assert!(!zone.contains(-2.000_001) && !zone.contains(1.6));
        assert!(!zone.contains(f64::NAN));
    }

    #[test]
    fn two_sample_curve_zone_is_both_samples() {
        let curve = Curve::new(vec![(0.0, 1.0), (1.0, 0.0)]).unwrap();
        let zone = find_active_zone(&curve).unwrap();
        assert_eq!((zone.min_x, zone.max_x), (0.0, 1.0));
    }
}
