//! Metric trade-off frontier.
//!
//! A natural extension of the paper's framework ("our future work will focus
//! in testing other LPPMs … we also plan to extend our framework with more
//! metrics and parameters"): instead of answering a single objective set,
//! expose the whole *Pareto frontier* of the measured sweep over any chosen
//! metric pair — the set of parameter values that are not dominated (some
//! other value being better on both chosen metrics). The configurator's
//! recommendations always lie on this frontier; the frontier view helps a
//! system designer pick objectives that are actually reachable before
//! invoking the inversion step.

use crate::error::CoreError;
use crate::experiment::SweepResult;
use geopriv_lppm::ConfigPoint;
use geopriv_metrics::{Direction, MetricId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One point of a two-metric trade-off frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeOffPoint {
    /// The measured configuration (one value per swept axis).
    pub point: ConfigPoint,
    /// The measured value of the frontier's first (x) metric.
    pub x: f64,
    /// The measured value of the frontier's second (y) metric.
    pub y: f64,
}

impl TradeOffPoint {
    /// Returns `true` if `self` dominates `other` under the given metric
    /// directions: at least as good on both metrics, strictly better on one.
    pub fn dominates(&self, other: &TradeOffPoint, x: Direction, y: Direction) -> bool {
        let (sx, sy) = (x.goodness(self.x), y.goodness(self.y));
        let (ox, oy) = (x.goodness(other.x), y.goodness(other.y));
        let no_worse = sx >= ox && sy >= oy;
        let strictly_better = sx > ox || sy > oy;
        no_worse && strictly_better
    }
}

impl fmt::Display for TradeOffPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.point.single() {
            Some(value) => write!(f, "parameter {:.5}: {:.3} vs {:.3}", value, self.x, self.y),
            None => write!(f, "{}: {:.3} vs {:.3}", self.point, self.x, self.y),
        }
    }
}

/// The Pareto frontier of a sweep over a chosen metric pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoFrontier {
    x_id: MetricId,
    x_direction: Direction,
    y_id: MetricId,
    y_direction: Direction,
    points: Vec<TradeOffPoint>,
}

impl ParetoFrontier {
    /// Extracts the frontier over the paper's default pair: the sweep's first
    /// lower-is-better metric (x) against its first higher-is-better metric
    /// (y).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] when the sweep lacks a metric of
    ///   either direction (choose the pair explicitly with
    ///   [`ParetoFrontier::for_pair`]) or contains non-finite metric values.
    pub fn from_sweep(sweep: &SweepResult) -> Result<Self, CoreError> {
        let pick = |direction: Direction| {
            sweep.column_by_direction(direction).map(|c| c.id.clone()).ok_or_else(|| {
                CoreError::InvalidConfiguration {
                    reason: format!(
                        "sweep has no {direction} metric; pick the frontier pair explicitly"
                    ),
                }
            })
        };
        let x = pick(Direction::LowerIsBetter)?;
        let y = pick(Direction::HigherIsBetter)?;
        Self::for_pair(sweep, &x, &y)
    }

    /// Extracts the non-dominated points of a sweep over an explicitly chosen
    /// metric pair, sorted from best-x to best-y end.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownMetric`] when either id is not a sweep column.
    /// * [`CoreError::InvalidConfiguration`] when a metric value is NaN or
    ///   infinite — dominance is meaningless on non-finite values, so
    ///   construction rejects them instead of panicking mid-comparison.
    pub fn for_pair(
        sweep: &SweepResult,
        x_id: &MetricId,
        y_id: &MetricId,
    ) -> Result<Self, CoreError> {
        let column = |id: &MetricId| {
            sweep.column(id).ok_or_else(|| CoreError::UnknownMetric {
                metric: id.to_string(),
                available: sweep.ids().iter().map(MetricId::to_string).collect(),
            })
        };
        let x_column = column(x_id)?;
        let y_column = column(y_id)?;
        for column in [x_column, y_column] {
            for (point, value) in sweep.points.iter().zip(&column.means) {
                if !value.is_finite() {
                    return Err(CoreError::InvalidConfiguration {
                        reason: format!(
                            "metric \"{}\" is non-finite ({value}) at {point}; \
                             a trade-off frontier needs finite metric values",
                            column.id
                        ),
                    });
                }
            }
        }

        let (x_direction, y_direction) = (x_column.direction, y_column.direction);
        let candidates: Vec<TradeOffPoint> = sweep
            .points
            .iter()
            .zip(x_column.means.iter().zip(&y_column.means))
            .map(|(point, (&x, &y))| TradeOffPoint { point: point.clone(), x, y })
            .collect();
        let mut frontier: Vec<TradeOffPoint> = candidates
            .iter()
            .filter(|candidate| {
                !candidates.iter().any(|o| o.dominates(candidate, x_direction, y_direction))
            })
            .cloned()
            .collect();
        frontier.sort_by(|a, b| {
            // Finiteness was checked above, so the comparisons are total.
            x_direction
                .goodness(b.x)
                .partial_cmp(&x_direction.goodness(a.x))
                .expect("metric values are finite")
                .then(a.y.partial_cmp(&b.y).expect("finite"))
        });
        frontier.dedup_by(|a, b| a.x == b.x && a.y == b.y);
        Ok(Self {
            x_id: x_id.clone(),
            x_direction,
            y_id: y_id.clone(),
            y_direction,
            points: frontier,
        })
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the frontier is empty (only for empty sweeps).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The knee point: the frontier point maximizing the summed goodness of
    /// both metrics (for the paper's pair, `utility − privacy`), i.e. the
    /// best balanced compromise when the designer has no explicit objectives
    /// yet.
    pub fn knee(&self) -> Option<TradeOffPoint> {
        self.points.iter().cloned().max_by(|a, b| {
            let score =
                |p: &TradeOffPoint| self.x_direction.goodness(p.x) + self.y_direction.goodness(p.y);
            score(a).partial_cmp(&score(b)).expect("metric values are finite")
        })
    }
}

impl fmt::Display for ParetoFrontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pareto frontier of {} vs {} ({} points):",
            self.x_id,
            self.y_id,
            self.points.len()
        )?;
        for p in &self.points {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MetricColumn;
    use geopriv_lppm::{ConfigSpace, ParameterDescriptor, ParameterScale};

    fn privacy_id() -> MetricId {
        MetricId::new("poi-retrieval")
    }

    fn utility_id() -> MetricId {
        MetricId::new("area-coverage")
    }

    fn epsilon_space() -> ConfigSpace {
        ConfigSpace::single(
            ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap(),
        )
    }

    fn tradeoff(parameter: f64, x: f64, y: f64) -> TradeOffPoint {
        TradeOffPoint { point: epsilon_space().point_from_coords(&[parameter]).unwrap(), x, y }
    }

    fn sweep_from(points: &[(f64, f64, f64)]) -> SweepResult {
        let parameters: Vec<f64> = points.iter().map(|&(p, _, _)| p).collect();
        SweepResult::from_axis(
            "geo-indistinguishability",
            ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap(),
            &parameters,
            vec![
                MetricColumn {
                    id: privacy_id(),
                    direction: Direction::LowerIsBetter,
                    means: points.iter().map(|&(_, privacy, _)| privacy).collect(),
                    runs: vec![],
                },
                MetricColumn {
                    id: utility_id(),
                    direction: Direction::HigherIsBetter,
                    means: points.iter().map(|&(_, _, utility)| utility).collect(),
                    runs: vec![],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn domination_logic() {
        let a = tradeoff(0.01, 0.1, 0.8);
        let b = tradeoff(0.02, 0.2, 0.7);
        let c = tradeoff(0.03, 0.1, 0.8);
        let (lower, higher) = (Direction::LowerIsBetter, Direction::HigherIsBetter);
        assert!(a.dominates(&b, lower, higher));
        assert!(!b.dominates(&a, lower, higher));
        assert!(!a.dominates(&c, lower, higher)); // equal on both axes: no strict improvement
                                                  // Directions matter: if x were higher-is-better, b would win on x.
        assert!(!a.dominates(&b, higher, higher));
        assert!(a.to_string().contains("0.800"));
    }

    #[test]
    fn monotone_sweeps_are_entirely_on_the_frontier() {
        // When both metrics increase with the parameter (the Figure 1 shape),
        // every point is a genuine trade-off: nothing dominates anything.
        let sweep =
            sweep_from(&[(0.001, 0.0, 0.3), (0.01, 0.1, 0.6), (0.1, 0.5, 0.9), (1.0, 0.9, 1.0)]);
        let frontier = ParetoFrontier::from_sweep(&sweep).unwrap();
        assert_eq!(frontier.len(), 4);
        assert!(!frontier.is_empty());
        assert_eq!(frontier.x_id, privacy_id());
        assert_eq!(frontier.y_id, utility_id());
        // Sorted from the most private end (best x) onward.
        let privacies: Vec<f64> = frontier.points.iter().map(|p| p.x).collect();
        assert!(privacies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dominated_points_are_removed() {
        let sweep = sweep_from(&[
            (0.001, 0.0, 0.5),
            (0.01, 0.2, 0.4), // dominated by the first point (worse on both axes)
            (0.1, 0.3, 0.9),
        ]);
        let frontier = ParetoFrontier::from_sweep(&sweep).unwrap();
        assert_eq!(frontier.len(), 2);
        assert!(frontier.points.iter().all(|p| p.point.single() != Some(0.01)));
    }

    #[test]
    fn knee_and_constraint_queries() {
        let sweep = sweep_from(&[
            (0.001, 0.0, 0.3),
            (0.01, 0.05, 0.8), // best balance: utility - privacy = 0.75
            (0.1, 0.5, 0.95),
            (1.0, 0.95, 1.0),
        ]);
        let frontier = ParetoFrontier::from_sweep(&sweep).unwrap();
        let knee = frontier.knee().unwrap();
        assert_eq!(knee.point.single(), Some(0.01));
        assert!(frontier.to_string().contains("Pareto frontier"));
    }

    #[test]
    fn repeated_measurements_appear_once_at_their_first_parameter() {
        let sweep = sweep_from(&[
            (0.001, 0.2, 0.6),
            (0.01, 0.2, 0.6), // the same trade-off again
            (0.1, 0.3, 0.5),  // dominated by both
            (1.0, 0.4, 0.9),
        ]);
        let frontier = ParetoFrontier::from_sweep(&sweep).unwrap();
        let kept: Vec<Option<f64>> = frontier.points.iter().map(|p| p.point.single()).collect();
        assert_eq!(kept, vec![Some(0.001), Some(1.0)]);
    }

    #[test]
    fn display_lists_the_pair_and_every_point() {
        let sweep = sweep_from(&[(0.001, 0.0, 0.3), (0.01, 0.1, 0.6)]);
        let text = ParetoFrontier::from_sweep(&sweep).unwrap().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "Pareto frontier of poi-retrieval vs area-coverage (2 points):",
                "  parameter 0.00100: 0.000 vs 0.300",
                "  parameter 0.01000: 0.100 vs 0.600",
            ]
        );
    }

    #[test]
    fn explicit_pairs_choose_any_two_columns() {
        let mut sweep = sweep_from(&[(0.001, 0.1, 0.3), (0.01, 0.2, 0.6), (0.1, 0.5, 0.9)]);
        sweep.columns.push(MetricColumn {
            id: MetricId::new("hotspot-preservation"),
            direction: Direction::HigherIsBetter,
            means: vec![0.9, 0.6, 0.2],
            runs: vec![],
        });
        let frontier =
            ParetoFrontier::for_pair(&sweep, &MetricId::new("hotspot-preservation"), &utility_id())
                .unwrap();
        // Both higher-is-better and moving in opposite directions: every
        // point is a trade-off.
        assert_eq!(frontier.len(), 3);
        assert_eq!(frontier.x_id, MetricId::new("hotspot-preservation"));

        // Unknown ids are typed errors.
        assert!(matches!(
            ParetoFrontier::for_pair(&sweep, &MetricId::new("nope"), &utility_id()),
            Err(CoreError::UnknownMetric { .. })
        ));
    }

    #[test]
    fn non_finite_metric_values_are_rejected_not_panicked_on() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sweep = sweep_from(&[(0.001, 0.0, 0.5), (0.01, bad, 0.7), (0.1, 0.3, 0.9)]);
            match ParetoFrontier::from_sweep(&sweep) {
                Err(CoreError::InvalidConfiguration { reason }) => {
                    assert!(reason.contains("poi-retrieval"), "reason: {reason}");
                    assert!(reason.contains("non-finite"), "reason: {reason}");
                }
                other => panic!("expected a typed error for {bad}, got {other:?}"),
            }
        }
        // Non-finite values in the y column are caught too.
        let sweep = sweep_from(&[(0.001, 0.0, f64::NAN), (0.01, 0.1, 0.7)]);
        assert!(matches!(
            ParetoFrontier::from_sweep(&sweep),
            Err(CoreError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn frontier_of_real_shaped_sweep_contains_the_operating_point_region() {
        // An Equation-2-like sweep: the frontier keeps the transition region
        // where the paper's operating point lives.
        let samples: Vec<(f64, f64, f64)> = (0..25)
            .map(|i| {
                let eps = 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / 24.0);
                (
                    eps,
                    (0.84 + 0.17 * eps.ln()).clamp(0.0, 0.45),
                    (1.21 + 0.09 * eps.ln()).clamp(0.2, 1.0),
                )
            })
            .collect();
        let frontier = ParetoFrontier::from_sweep(&sweep_from(&samples)).unwrap();
        // The saturated tails collapse to a single frontier point each; the
        // transition region (about one decade of epsilon) survives in full.
        assert!(frontier.len() >= 8, "frontier has only {} points", frontier.len());
        assert!(frontier.points.iter().any(|p| p.x <= 0.10 && p.y >= 0.7));
    }
}
