//! Per-metric objectives.
//!
//! Step 3 of the framework takes "the specified privacy and utility
//! objectives" and inverts the fitted model to find the configuration that
//! satisfies them. The paper's illustration uses *at most 10 % POI retrieval*
//! and *at least 80 % area-coverage utility*; [`Objectives`] generalizes that
//! pair to any set of per-metric [`Constraint`]s — [`at_most`] for metrics
//! that improve downward, [`at_least`] for metrics that improve upward.

use crate::error::CoreError;
use geopriv_metrics::MetricId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which side of the bound a constraint admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintKind {
    /// The metric must stay at or below the bound (privacy-style).
    AtMost,
    /// The metric must stay at or above the bound (utility-style).
    AtLeast,
}

/// A bound on one metric, in metric units (`[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    kind: ConstraintKind,
    bound: f64,
}

/// Requires a metric to stay at or below `bound` — the natural constraint for
/// [`geopriv_metrics::Direction::LowerIsBetter`] metrics.
pub fn at_most(bound: f64) -> Constraint {
    Constraint { kind: ConstraintKind::AtMost, bound }
}

/// Requires a metric to stay at or above `bound` — the natural constraint for
/// [`geopriv_metrics::Direction::HigherIsBetter`] metrics.
pub fn at_least(bound: f64) -> Constraint {
    Constraint { kind: ConstraintKind::AtLeast, bound }
}

impl Constraint {
    /// The constraint side.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// The bound, in metric units.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Validates the bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.bound.is_finite() && (0.0..=1.0).contains(&self.bound)) {
            return Err(CoreError::InvalidConfiguration {
                reason: format!("a metric bound must be in [0, 1], got {}", self.bound),
            });
        }
        Ok(())
    }

    /// Returns `true` if a measured metric value satisfies the constraint
    /// (with a small numerical tolerance).
    pub fn is_satisfied_by(&self, value: f64) -> bool {
        match self.kind {
            ConstraintKind::AtMost => value <= self.bound + 1e-9,
            ConstraintKind::AtLeast => value >= self.bound - 1e-9,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ConstraintKind::AtMost => write!(f, "≤ {:.2}", self.bound),
            ConstraintKind::AtLeast => write!(f, "≥ {:.2}", self.bound),
        }
    }
}

/// The set of per-metric constraints the system designer states.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Objectives {
    constraints: Vec<(MetricId, Constraint)>,
}

impl Objectives {
    /// Creates an empty objective set; add constraints with
    /// [`Objectives::require`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint on one metric. A metric may carry several
    /// constraints (e.g. a band: `at_least(0.1)` *and* `at_most(0.3)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for a bound outside
    /// `[0, 1]`.
    pub fn require(
        mut self,
        metric: impl Into<MetricId>,
        constraint: Constraint,
    ) -> Result<Self, CoreError> {
        constraint.validate()?;
        self.constraints.push((metric.into(), constraint));
        Ok(self)
    }

    /// The paper's illustration: at most 10 % POI retrieval, at least 80 %
    /// area-coverage utility.
    pub fn paper_example() -> Self {
        Self::new()
            .require(geopriv_metrics::PoiRetrieval::ID, at_most(0.10))
            .and_then(|o| o.require(geopriv_metrics::AreaCoverage::ID, at_least(0.80)))
            .expect("static objectives are valid")
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[(MetricId, Constraint)] {
        &self.constraints
    }

    /// Returns `true` when no constraint was stated.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

impl fmt::Display for Objectives {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "no objectives");
        }
        for (i, (id, constraint)) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{id} {constraint}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_validation_and_satisfaction() {
        assert!(at_most(0.1).validate().is_ok());
        assert!(at_most(0.0).validate().is_ok());
        assert!(at_most(1.0).validate().is_ok());
        assert!(at_most(-0.1).validate().is_err());
        assert!(at_most(1.5).validate().is_err());
        assert!(at_most(f64::NAN).validate().is_err());
        assert!(at_least(-0.1).validate().is_err());
        assert!(at_least(2.0).validate().is_err());

        let upper = at_most(0.1);
        assert_eq!(upper.kind(), ConstraintKind::AtMost);
        assert_eq!(upper.bound(), 0.1);
        assert!(upper.is_satisfied_by(0.05));
        assert!(upper.is_satisfied_by(0.1));
        assert!(!upper.is_satisfied_by(0.2));
        assert!(upper.to_string().contains("≤"));

        let lower = at_least(0.8);
        assert_eq!(lower.kind(), ConstraintKind::AtLeast);
        assert!(lower.is_satisfied_by(0.9));
        assert!(lower.is_satisfied_by(0.8));
        assert!(!lower.is_satisfied_by(0.5));
        assert!(lower.to_string().contains("≥"));
    }

    #[test]
    fn satisfaction_tolerates_a_billionth() {
        let upper = at_most(0.1);
        assert!(upper.is_satisfied_by(0.1 + 5e-10));
        assert!(!upper.is_satisfied_by(0.1 + 2e-9));
        let lower = at_least(0.8);
        assert!(lower.is_satisfied_by(0.8 - 5e-10));
        assert!(!lower.is_satisfied_by(0.8 - 2e-9));
        assert!(!upper.is_satisfied_by(f64::NAN) && !lower.is_satisfied_by(f64::NAN));
    }

    #[test]
    fn objectives_collect_per_metric_constraints() {
        let objectives = Objectives::new()
            .require("poi-retrieval", at_most(0.1))
            .unwrap()
            .require("area-coverage", at_least(0.8))
            .unwrap()
            .require("area-coverage", at_most(0.95))
            .unwrap();
        assert_eq!(objectives.constraints().len(), 3);
        assert!(!objectives.is_empty());
        let text = objectives.to_string();
        assert!(text.contains("poi-retrieval ≤ 0.10"));
        assert!(text.contains("area-coverage ≥ 0.80"));
        assert!(text.contains(" and "));
    }

    #[test]
    fn invalid_bounds_are_rejected_by_require() {
        assert!(Objectives::new().require("m", at_most(1.5)).is_err());
        assert!(Objectives::new().require("m", at_least(f64::INFINITY)).is_err());
        assert!(Objectives::new().to_string().contains("no objectives"));
    }

    #[test]
    fn paper_example_objectives() {
        let o = Objectives::paper_example();
        assert_eq!(o.constraints().len(), 2);
        assert_eq!(o.constraints()[0].0, MetricId::new("poi-retrieval"));
        assert_eq!(o.constraints()[0].1.bound(), 0.10);
        assert_eq!(o.constraints()[1].1.bound(), 0.80);
        assert!(o.to_string().contains("and"));
    }
}
