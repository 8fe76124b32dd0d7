//! Configuration by model inversion (step 3 of the framework).
//!
//! "Finally, the LPPM configuration (i.e. the value of p_i) is computed by
//! inverting the f function, using the specified privacy and utility
//! objectives." [`Configurator`] turns a [`FittedSuite`] and a set of
//! per-metric [`Objectives`] into a concrete [`ConfigPoint`]
//! recommendation — the paper's "configuring ε = 0.01 ensures 80 % utility
//! while guaranteeing 10 % privacy".
//!
//! On a one-axis space the inversion is analytic, exactly as in the paper:
//! every constraint's feasible interval is computed by inverting the fitted
//! model and the intervals are intersected. On multi-axis spaces the
//! configurator searches the modeled region on a deterministic geometric
//! candidate grid, keeps the points satisfying every constraint, and
//! recommends the one with the largest worst-case slack.

use crate::error::CoreError;
use crate::experiment::run_indexed;
use crate::modeling::{FittedSuite, MetricModel, MetricResponse, PerUserFits, UserFitOutcome};
use crate::objectives::{Constraint, ConstraintKind, Objectives};
use geopriv_analysis::model::LogLinearModel;
use geopriv_lppm::{ConfigPoint, ConfigSpace, ParameterDescriptor};
use geopriv_metrics::MetricId;
use geopriv_mobility::UserId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome of inverting the fitted models for a set of objectives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended configuration: one value per axis of the space.
    pub point: ConfigPoint,
    /// Per axis, the interval of values covered by configurations satisfying
    /// every constraint (for a one-axis space, the exact analytic feasible
    /// interval intersected with the constrained models' domains).
    pub feasible: Vec<(String, (f64, f64))>,
    /// Metric values predicted by the fitted models at the recommended
    /// point, for every metric of the suite, in suite order.
    pub predictions: Vec<(MetricId, f64)>,
}

impl Recommendation {
    /// The predicted value of one metric at the recommended point.
    pub fn predicted(&self, id: &MetricId) -> Option<f64> {
        self.predictions.iter().find(|(m, _)| m == id).map(|(_, v)| *v)
    }

    /// The recommended scalar value of a one-axis recommendation (legacy 1-D
    /// accessor).
    ///
    /// # Panics
    ///
    /// Panics for multi-axis recommendations — read
    /// [`Recommendation::point`] there.
    pub fn parameter(&self) -> f64 {
        self.point.single().unwrap_or_else(|| {
            panic!("recommendation spans {} axes; read .point instead", self.point.len())
        })
    }

    /// The feasible interval of a one-axis recommendation (legacy 1-D
    /// accessor).
    ///
    /// # Panics
    ///
    /// Panics for multi-axis recommendations — read
    /// [`Recommendation::feasible`] there.
    pub fn feasible_range(&self) -> (f64, f64) {
        match self.feasible.as_slice() {
            [(_, range)] => *range,
            ranges => panic!("recommendation spans {} axes; read .feasible instead", ranges.len()),
        }
    }
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ((name, value), (_, range))) in
            self.point.values().iter().zip(&self.feasible).enumerate()
        {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{name} = {value:.4} (feasible in [{:.4}, {:.4}])", range.0, range.1)?;
        }
        for (id, value) in &self.predictions {
            write!(f, ", predicted {id} {value:.3}")?;
        }
        Ok(())
    }
}

/// The explicit per-user feasibility verdict of a
/// [`Configurator::recommend_per_user`] entry.
///
/// # Fallback policy (normative)
///
/// This enum is the single normative statement of the framework's fallback
/// policy; every other description of it (reports, wire formats, the serving
/// layer) mirrors what is written here:
///
/// 1. A **feasible** user is deployed at the point her *own* models
///    recommend. Only these users carry `fallback = false` on the wire.
/// 2. An **infeasible** user (her own models admit no point satisfying every
///    objective) is assigned the *dataset-level* point — the recommendation
///    the whole dataset's models produce — with the reason recorded. Her
///    predictions are still computed under her own models at that point.
/// 3. An **unmodeled** user (excluded by a metric, or a degenerate response)
///    is likewise assigned the dataset-level point; she has no models, so
///    her predictions are empty.
/// 4. The policy never invents intermediate points and never drops a user:
///    every user of the study appears in the output with exactly one of
///    these three verdicts, and the deployed point is always either her own
///    or the dataset anchor.
///
/// The serving layer extends the same policy to users *absent* from the
/// recommendation entirely (seen at request time only): they are served at
/// the dataset-level point, exactly as rule 2 treats known-but-infeasible
/// users.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UserVerdict {
    /// The user's own models admit a configuration satisfying every
    /// constraint; her recommended point is her own.
    Feasible,
    /// No configuration satisfies every constraint under this user's models;
    /// the fallback policy assigned her the dataset-level point.
    Infeasible {
        /// Why the user's own inversion failed.
        reason: String,
    },
    /// The user could not be modeled at all (a metric excluded her, or her
    /// response was degenerate); the fallback policy assigned her the
    /// dataset-level point.
    Unmodeled {
        /// Why the user has no models.
        reason: String,
    },
}

impl UserVerdict {
    /// Returns `true` for a user whose own models produced her point.
    pub fn is_feasible(&self) -> bool {
        matches!(self, UserVerdict::Feasible)
    }

    /// Short machine-stable label (`feasible` / `infeasible` / `unmodeled`).
    pub fn label(&self) -> &'static str {
        match self {
            UserVerdict::Feasible => "feasible",
            UserVerdict::Infeasible { .. } => "infeasible",
            UserVerdict::Unmodeled { .. } => "unmodeled",
        }
    }
}

impl fmt::Display for UserVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserVerdict::Feasible => write!(f, "feasible"),
            UserVerdict::Infeasible { reason } => write!(f, "infeasible ({reason})"),
            UserVerdict::Unmodeled { reason } => write!(f, "unmodeled ({reason})"),
        }
    }
}

/// One user's row of a per-user recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserRecommendation {
    /// The user this row configures.
    pub user: UserId,
    /// Whether the point is the user's own or the fallback, and why.
    pub verdict: UserVerdict,
    /// The configuration to deploy for this user: her own satisfying point
    /// when feasible, the dataset-level point otherwise.
    pub point: ConfigPoint,
    /// Metric values predicted at `point` under the *user's own* models, in
    /// suite order — empty for [`UserVerdict::Unmodeled`] users (they have
    /// no models to predict with).
    pub predictions: Vec<(MetricId, f64)>,
}

impl UserRecommendation {
    /// The predicted value of one metric at this user's point.
    pub fn predicted(&self, id: &MetricId) -> Option<f64> {
        self.predictions.iter().find(|(m, _)| m == id).map(|(_, v)| *v)
    }

    /// Returns `true` when the fallback policy assigned this user's point.
    pub fn used_fallback(&self) -> bool {
        !self.verdict.is_feasible()
    }
}

/// The outcome of a per-user inversion: the dataset-level recommendation
/// (also the fallback anchor) plus one [`UserRecommendation`] per user.
///
/// This is the deployment artifact of the framework: exported with
/// [`crate::report::per_user_recommendation_to_json`] and loaded back by the
/// serving layer with [`crate::report::per_user_recommendation_from_json`].
/// Which users ride [`PerUserRecommendation::dataset`] is governed by the
/// fallback policy documented on [`UserVerdict`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerUserRecommendation {
    /// The dataset-grain recommendation — what every user would get without
    /// per-user configuration, and the fallback point for infeasible users.
    pub dataset: Recommendation,
    /// One row per user, in the sweep's user order.
    pub users: Vec<UserRecommendation>,
}

impl PerUserRecommendation {
    /// Number of users configured with their own point.
    pub fn feasible_count(&self) -> usize {
        self.users.iter().filter(|u| u.verdict.is_feasible()).count()
    }

    /// Number of users on the fallback point.
    pub fn fallback_count(&self) -> usize {
        self.users.len() - self.feasible_count()
    }
}

/// Candidates per axis of the multi-axis search. One-axis recommendations
/// are analytic and take none.
const SEARCH_RESOLUTION: usize = 25;

/// Inverts fitted metric models to recommend a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Configurator {
    fitted: FittedSuite,
}

impl Configurator {
    /// Creates a configurator from a fitted suite.
    pub fn new(fitted: FittedSuite) -> Self {
        Self { fitted }
    }

    /// The underlying fitted suite.
    pub fn fitted(&self) -> &FittedSuite {
        &self.fitted
    }

    /// Computes the parameter interval satisfying one constraint
    /// `metric(x) ≤/≥ bound` for a monotone model, clipped to `domain`.
    fn interval_for(
        model: &LogLinearModel,
        constraint: &Constraint,
        domain: (f64, f64),
    ) -> Result<(f64, f64), CoreError> {
        let critical = model.invert(constraint.bound())?;
        // An upper bound on an increasing metric caps the parameter from
        // above; the three other (kind, slope-sign) combinations follow by
        // symmetry.
        let increasing = model.slope() > 0.0;
        let caps_above = match constraint.kind() {
            ConstraintKind::AtMost => increasing,
            ConstraintKind::AtLeast => !increasing,
        };
        if caps_above {
            Ok((domain.0, critical.min(domain.1)))
        } else {
            Ok((critical.max(domain.0), domain.1))
        }
    }

    /// Resolves and validates every constrained metric's model inside
    /// `fitted`.
    fn constrained_models<'a>(
        fitted: &'a FittedSuite,
        objectives: &'a Objectives,
    ) -> Result<Vec<(&'a MetricId, &'a Constraint, &'a MetricModel)>, CoreError> {
        if objectives.is_empty() {
            return Err(CoreError::InvalidConfiguration {
                reason: "recommendation needs at least one constraint".to_string(),
            });
        }
        objectives
            .constraints()
            .iter()
            .map(|(id, constraint)| {
                constraint.validate()?;
                let model = fitted.model(id).ok_or_else(|| CoreError::UnknownMetric {
                    metric: id.to_string(),
                    available: fitted.ids().iter().map(MetricId::to_string).collect(),
                })?;
                Ok((id, constraint, model))
            })
            .collect()
    }

    /// Recommends a configuration point satisfying every constraint.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] for an empty objective set or an
    ///   invalid bound.
    /// * [`CoreError::UnknownMetric`] when a constraint references a metric
    ///   that was not fitted.
    /// * [`CoreError::Infeasible`] when no configuration in the modeled
    ///   region satisfies every constraint.
    /// * [`CoreError::Analysis`] when a model cannot be inverted.
    pub fn recommend(&self, objectives: &Objectives) -> Result<Recommendation, CoreError> {
        Self::recommend_on(&self.fitted, objectives)
    }

    /// [`Configurator::recommend`] over an arbitrary fitted suite — the
    /// shared engine behind the dataset-level recommendation and every
    /// per-user recommendation.
    fn recommend_on(
        fitted: &FittedSuite,
        objectives: &Objectives,
    ) -> Result<Recommendation, CoreError> {
        let constrained = Self::constrained_models(fitted, objectives)?;
        if fitted.space.single_axis().is_some() {
            Self::recommend_analytic(fitted, &constrained)
        } else {
            Self::recommend_searched(fitted, &constrained)
        }
    }

    /// The paper's analytic inversion on a one-axis space — arithmetic
    /// unchanged from the single-scalar framework.
    fn recommend_analytic(
        fitted: &FittedSuite,
        constrained: &[(&MetricId, &Constraint, &MetricModel)],
    ) -> Result<Recommendation, CoreError> {
        let axis = fitted.space.single_axis().expect("one-axis space").clone();
        let models: Vec<(&MetricId, &Constraint, &LogLinearModel)> = constrained
            .iter()
            .map(|(id, constraint, model)| {
                let fit = model.axis().expect("one-axis suites carry axis fits");
                (*id, *constraint, &fit.model)
            })
            .collect();

        // Work inside the intersection of what the constrained models were
        // fitted on: in the paper's pair the privacy zone is typically
        // narrower (Figure 1a) than the utility zone (Figure 1b); the
        // recommendation must stay where every constrained model is
        // meaningful.
        let domain = models
            .iter()
            .map(|(_, _, m)| m.domain())
            .reduce(|a, b| (a.0.max(b.0), a.1.min(b.1)))
            .expect("objectives are non-empty");
        if domain.0 >= domain.1 {
            return Err(CoreError::Infeasible {
                reason: "the constrained metrics' models were fitted on disjoint parameter ranges"
                    .to_string(),
            });
        }

        let mut feasible = domain;
        let mut intervals = Vec::with_capacity(models.len());
        for (id, constraint, model) in &models {
            let interval = Self::interval_for(model, constraint, domain)?;
            feasible = (feasible.0.max(interval.0), feasible.1.min(interval.1));
            intervals.push((*id, *constraint, interval));
        }
        if feasible.0 > feasible.1 {
            let conflict: Vec<String> = intervals
                .iter()
                .map(|(id, constraint, interval)| {
                    format!(
                        "{id} {constraint} requires {} in [{:.4}, {:.4}]",
                        axis.name(),
                        interval.0,
                        interval.1
                    )
                })
                .collect();
            return Err(CoreError::Infeasible {
                reason: format!("no value satisfies every constraint: {}", conflict.join("; ")),
            });
        }

        // The geometric midpoint: every axis is logarithmic.
        let parameter = (feasible.0 * feasible.1).sqrt();

        Ok(Recommendation {
            point: fitted.space.point_from_coords(&[parameter])?,
            feasible: vec![(axis.name().to_string(), feasible)],
            predictions: fitted
                .models
                .iter()
                .map(|m| {
                    let fit = m.axis().expect("one-axis suites carry axis fits");
                    (m.id.clone(), fit.model.predict(parameter))
                })
                .collect(),
        })
    }

    /// The candidate sub-axis of the multi-axis search: the modeled region
    /// of one axis (the intersection of the constrained models' claimed
    /// regions), keeping the axis name.
    fn candidate_axis(
        axis: &ParameterDescriptor,
        constrained: &[(&MetricId, &Constraint, &MetricModel)],
    ) -> Result<ParameterDescriptor, CoreError> {
        // Intersect the constrained models' claimed regions on this axis.
        let mut lo = axis.min();
        let mut hi = axis.max();
        for (_, _, model) in constrained {
            let (m_lo, m_hi) = match &model.response {
                MetricResponse::Surface(surface) => {
                    let index = surface
                        .axes
                        .iter()
                        .position(|a| a == axis.name())
                        .expect("surfaces cover every axis of the space");
                    surface.domain[index]
                }
                MetricResponse::PerAxis(fits) => fits
                    .iter()
                    .find(|f| f.axis == axis.name())
                    .map(|f| f.model.domain())
                    .expect("per-axis responses cover every axis of the space"),
                MetricResponse::Axis(fit) => fit.model.domain(),
            };
            lo = lo.max(m_lo);
            hi = hi.min(m_hi);
        }
        if lo >= hi {
            return Err(CoreError::Infeasible {
                reason: format!(
                    "the constrained metrics' models were fitted on disjoint ranges of axis \
                     \"{}\"",
                    axis.name()
                ),
            });
        }
        ParameterDescriptor::new(axis.name(), lo, hi).map_err(CoreError::from)
    }

    /// Deterministic grid search over the modeled region of a multi-axis
    /// space: keep every candidate satisfying all constraints, recommend the
    /// one maximizing the smallest constraint slack (ties broken by
    /// enumeration order).
    fn recommend_searched(
        fitted: &FittedSuite,
        constrained: &[(&MetricId, &Constraint, &MetricModel)],
    ) -> Result<Recommendation, CoreError> {
        let space = &fitted.space;
        // Candidate points: ConfigSpace::grid over the intersected per-axis
        // regions — the same deterministic row-major enumeration contract as
        // the sweep itself.
        let sub_axes: Vec<ParameterDescriptor> = space
            .axes()
            .iter()
            .map(|axis| Self::candidate_axis(axis, constrained))
            .collect::<Result<_, _>>()?;
        let sub_space = ConfigSpace::new(sub_axes).map_err(CoreError::from)?;
        let candidates = sub_space.grid(&vec![SEARCH_RESOLUTION; space.len()])?;
        let total = candidates.len();

        let mut best: Option<(f64, ConfigPoint)> = None;
        let mut feasible: Vec<Option<(f64, f64)>> = vec![None; space.len()];
        let mut satisfying = 0usize;
        for point in candidates {
            let mut slack = f64::INFINITY;
            for (_, constraint, model) in constrained {
                let predicted = model.predict(&point)?;
                let margin = match constraint.kind() {
                    ConstraintKind::AtMost => constraint.bound() - predicted,
                    ConstraintKind::AtLeast => predicted - constraint.bound(),
                };
                slack = slack.min(margin);
            }
            // The same numerical tolerance Constraint::is_satisfied_by uses.
            if slack >= -1e-9 {
                satisfying += 1;
                for (i, &coord) in point.coords().iter().enumerate() {
                    feasible[i] = Some(match feasible[i] {
                        None => (coord, coord),
                        Some((lo, hi)) => (lo.min(coord), hi.max(coord)),
                    });
                }
                if best.as_ref().map_or(true, |(best_slack, _)| slack > *best_slack) {
                    best = Some((slack, point));
                }
            }
        }

        let Some((_, point)) = best else {
            let constraints: Vec<String> = constrained
                .iter()
                .map(|(id, constraint, _)| format!("{id} {constraint}"))
                .collect();
            return Err(CoreError::Infeasible {
                reason: format!(
                    "none of the {total} searched configurations of ({}) satisfies every \
                     constraint: {}",
                    space.names().join(", "),
                    constraints.join("; ")
                ),
            });
        };
        debug_assert!(satisfying > 0);

        Ok(Recommendation {
            feasible: space
                .names()
                .iter()
                .zip(feasible)
                .map(|(name, range)| {
                    (name.to_string(), range.expect("a satisfying point bounds every axis"))
                })
                .collect(),
            predictions: fitted
                .models
                .iter()
                .map(|m| Ok((m.id.clone(), m.predict(&point)?)))
                .collect::<Result<_, CoreError>>()?,
            point,
        })
    }

    /// Recommends a configuration point *per user* from per-user fitted
    /// models — the paper's headline scenario: one sweep of the
    /// configuration space, then every user gets her own operating point.
    ///
    /// Each user with a complete fitted suite is inverted independently
    /// (analytic on one axis, the deterministic grid search otherwise) by
    /// the exact engine behind [`Configurator::recommend`]; the per-user
    /// inversions run on the shared work-stealing pool.
    ///
    /// **Fallback policy**: a user whose own models are infeasible under the
    /// objectives, or who could not be modeled at all, is assigned the
    /// *dataset-level* recommended point — the nearest satisfying
    /// configuration the framework can justify for her (it satisfies the
    /// constraints in expectation over the population). Her [`UserVerdict`]
    /// says explicitly why the fallback was applied; fallback users are
    /// never silently mixed with feasible ones. The normative statement of
    /// the policy lives on [`UserVerdict`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] when the per-user models were
    ///   fitted on a different configuration space, or the objective set is
    ///   empty.
    /// * [`CoreError::Infeasible`] when even the *dataset-level* models admit
    ///   no satisfying configuration — then there is no fallback point to
    ///   anchor infeasible users on, and no per-user table is produced.
    /// * [`CoreError::UnknownMetric`] when a constraint references a metric
    ///   that was not fitted.
    pub fn recommend_per_user(
        &self,
        per_user: &PerUserFits,
        objectives: &Objectives,
    ) -> Result<PerUserRecommendation, CoreError> {
        if per_user.space != self.fitted.space {
            return Err(CoreError::InvalidConfiguration {
                reason: format!(
                    "per-user models cover ({}) but the dataset suite covers ({})",
                    per_user.space.names().join(", "),
                    self.fitted.space.names().join(", ")
                ),
            });
        }
        let dataset = self.recommend(objectives)?;
        let users: Vec<UserRecommendation> = run_indexed(per_user.users.len(), true, |i| {
            let fit = &per_user.users[i];
            self.recommend_user(fit.user, &fit.outcome, &dataset, objectives)
        })?
        .into_iter()
        .collect::<Result<_, CoreError>>()?;
        Ok(PerUserRecommendation { dataset, users })
    }

    /// One user's recommendation: her own inversion when possible, the
    /// dataset-level fallback point (with an explicit verdict) otherwise.
    fn recommend_user(
        &self,
        user: UserId,
        outcome: &UserFitOutcome,
        dataset: &Recommendation,
        objectives: &Objectives,
    ) -> Result<UserRecommendation, CoreError> {
        let suite = match outcome {
            UserFitOutcome::Unfit { reason } => {
                return Ok(UserRecommendation {
                    user,
                    verdict: UserVerdict::Unmodeled { reason: reason.clone() },
                    point: dataset.point.clone(),
                    predictions: Vec::new(),
                });
            }
            UserFitOutcome::Fitted(suite) => suite,
        };
        match Self::recommend_on(suite, objectives) {
            Ok(recommendation) => Ok(UserRecommendation {
                user,
                verdict: UserVerdict::Feasible,
                point: recommendation.point,
                predictions: recommendation.predictions,
            }),
            // This user's own models admit no satisfying configuration (or
            // cannot be inverted): apply the documented fallback.
            Err(CoreError::Infeasible { reason }) => {
                self.fallback_for(user, suite, dataset, reason)
            }
            Err(CoreError::Analysis(error)) => {
                self.fallback_for(user, suite, dataset, error.to_string())
            }
            Err(other) => Err(other),
        }
    }

    /// Builds the fallback recommendation of one infeasible user: the
    /// dataset-level point, with the metrics predicted at that point under
    /// the *user's own* models — the report shows what she can actually
    /// expect there, not the population average.
    fn fallback_for(
        &self,
        user: UserId,
        suite: &FittedSuite,
        dataset: &Recommendation,
        reason: String,
    ) -> Result<UserRecommendation, CoreError> {
        let predictions = suite
            .models
            .iter()
            .map(|m| Ok((m.id.clone(), m.predict(&dataset.point)?)))
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(UserRecommendation {
            user,
            verdict: UserVerdict::Infeasible { reason },
            point: dataset.point.clone(),
            predictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MetricColumn, SweepMode, SweepResult};
    use crate::modeling::Modeler;
    use crate::objectives::{at_least, at_most, Objectives};
    use geopriv_lppm::ConfigSpace;
    use geopriv_metrics::Direction;

    fn privacy_id() -> MetricId {
        MetricId::new("poi-retrieval")
    }

    fn utility_id() -> MetricId {
        MetricId::new("area-coverage")
    }

    fn epsilon_axis() -> ParameterDescriptor {
        ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap()
    }

    fn paper_like_suite() -> FittedSuite {
        let points = 41;
        let parameters: Vec<f64> = (0..points)
            .map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / (points - 1) as f64))
            .collect();
        let privacy: Vec<f64> =
            parameters.iter().map(|e| (0.84 + 0.17 * e.ln()).clamp(0.0, 0.45)).collect();
        let utility: Vec<f64> =
            parameters.iter().map(|e| (1.21 + 0.09 * e.ln()).clamp(0.2, 1.0)).collect();
        let sweep = SweepResult::from_axis(
            "geo-indistinguishability",
            epsilon_axis(),
            &parameters,
            vec![
                MetricColumn {
                    id: privacy_id(),
                    direction: Direction::LowerIsBetter,
                    runs: vec![],
                    means: privacy,
                },
                MetricColumn {
                    id: utility_id(),
                    direction: Direction::HigherIsBetter,
                    runs: vec![],
                    means: utility,
                },
            ],
        )
        .unwrap();
        Modeler::new().fit(&sweep).unwrap()
    }

    fn configurator() -> Configurator {
        Configurator::new(paper_like_suite())
    }

    /// A 2-D grid suite: privacy rises with ε and falls with the cell size,
    /// utility the other way around — every constraint is satisfiable
    /// somewhere but not everywhere.
    fn grid_suite() -> FittedSuite {
        let space = ConfigSpace::new(vec![
            epsilon_axis(),
            ParameterDescriptor::new("cell_size", 50.0, 5000.0).unwrap(),
        ])
        .unwrap();
        let points = space.grid(&[9, 9]).unwrap();
        let privacy: Vec<f64> = points
            .iter()
            .map(|p| {
                0.75 + 0.06 * p.get("epsilon").unwrap().ln()
                    - 0.05 * p.get("cell_size").unwrap().ln()
            })
            .collect();
        let utility: Vec<f64> = points
            .iter()
            .map(|p| {
                0.55 + 0.04 * p.get("epsilon").unwrap().ln()
                    + 0.03 * p.get("cell_size").unwrap().ln()
            })
            .collect();
        let sweep = SweepResult::new(
            "pipeline[geo-indistinguishability, grid-cloaking]",
            space,
            SweepMode::Grid,
            points,
            vec![
                MetricColumn {
                    id: privacy_id(),
                    direction: Direction::LowerIsBetter,
                    runs: vec![],
                    means: privacy,
                },
                MetricColumn {
                    id: utility_id(),
                    direction: Direction::HigherIsBetter,
                    runs: vec![],
                    means: utility,
                },
            ],
        )
        .unwrap();
        Modeler::new().fit(&sweep).unwrap()
    }

    #[test]
    fn paper_objectives_yield_an_epsilon_near_0_01() {
        let recommendation = configurator().recommend(&Objectives::paper_example()).unwrap();
        assert_eq!(recommendation.point.values()[0].0, "epsilon");
        // The paper picks 0.01; any epsilon satisfying both objectives lies
        // between ~0.009 (utility >= 0.8) and ~0.013 (privacy <= 0.1).
        assert!(
            (0.005..0.02).contains(&recommendation.parameter()),
            "recommended {}",
            recommendation.parameter()
        );
        assert!(recommendation.feasible_range().0 <= recommendation.parameter());
        assert!(recommendation.feasible_range().1 >= recommendation.parameter());
        assert!(recommendation.predicted(&privacy_id()).unwrap() <= 0.10 + 0.02);
        assert!(recommendation.predicted(&utility_id()).unwrap() >= 0.80 - 0.02);
        assert!(recommendation.predicted(&"unknown".into()).is_none());
        assert!(recommendation.to_string().contains("epsilon"));
        assert!(recommendation.to_string().contains("poi-retrieval"));
    }

    #[test]
    fn looser_objectives_widen_the_feasible_range() {
        let configurator = configurator();
        let strict = configurator.recommend(&Objectives::paper_example()).unwrap();
        let loose = configurator
            .recommend(
                &Objectives::new()
                    .require("poi-retrieval", at_most(0.3))
                    .unwrap()
                    .require("area-coverage", at_least(0.5))
                    .unwrap(),
            )
            .unwrap();
        let strict_width = strict.feasible_range().1 / strict.feasible_range().0;
        let loose_width = loose.feasible_range().1 / loose.feasible_range().0;
        assert!(loose_width > strict_width);
    }

    #[test]
    fn impossible_objectives_are_reported_as_infeasible() {
        // Perfect privacy *and* perfect utility cannot both hold.
        let result = configurator().recommend(
            &Objectives::new()
                .require("poi-retrieval", at_most(0.01))
                .unwrap()
                .require("area-coverage", at_least(0.99))
                .unwrap(),
        );
        match result {
            Err(CoreError::Infeasible { reason }) => {
                assert!(reason.contains("poi-retrieval"), "reason: {reason}");
                assert!(reason.contains("area-coverage"), "reason: {reason}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unknown_metrics_and_empty_objectives_are_rejected() {
        let configurator = configurator();
        assert!(matches!(
            configurator.recommend(&Objectives::new()),
            Err(CoreError::InvalidConfiguration { .. })
        ));
        let result = configurator
            .recommend(&Objectives::new().require("poi-retrival", at_most(0.1)).unwrap());
        match result {
            Err(CoreError::UnknownMetric { metric, available }) => {
                assert_eq!(metric, "poi-retrival");
                assert!(available.contains(&"poi-retrieval".to_string()));
            }
            other => panic!("expected unknown metric, got {other:?}"),
        }
    }

    #[test]
    fn constraint_bands_on_one_metric_intersect() {
        // A band on the utility metric alone: at least 0.5 but at most 0.9.
        let recommendation = configurator()
            .recommend(
                &Objectives::new()
                    .require("area-coverage", at_least(0.5))
                    .unwrap()
                    .require("area-coverage", at_most(0.9))
                    .unwrap(),
            )
            .unwrap();
        let predicted = recommendation.predicted(&utility_id()).unwrap();
        assert!((0.5 - 1e-6..=0.9 + 1e-6).contains(&predicted), "predicted {predicted}");
    }

    #[test]
    fn recommendation_respects_the_model_domain() {
        let configurator = configurator();
        // Very loose objectives: the feasible range collapses to the fitted
        // domain, and the recommendation stays inside it.
        let recommendation = configurator
            .recommend(
                &Objectives::new()
                    .require("poi-retrieval", at_most(1.0))
                    .unwrap()
                    .require("area-coverage", at_least(0.0))
                    .unwrap(),
            )
            .unwrap();
        let models = &configurator.fitted().models;
        let privacy_domain = models[0].axis().unwrap().model.domain();
        let utility_domain = models[1].axis().unwrap().model.domain();
        let lo = privacy_domain.0.max(utility_domain.0);
        let hi = privacy_domain.1.min(utility_domain.1);
        assert!(recommendation.parameter() >= lo && recommendation.parameter() <= hi);
        assert_eq!(recommendation.feasible_range(), (lo, hi));
    }

    #[test]
    fn multi_axis_search_recommends_a_satisfying_point() {
        let configurator = Configurator::new(grid_suite());
        let objectives = Objectives::new()
            .require("poi-retrieval", at_most(0.15))
            .unwrap()
            .require("area-coverage", at_least(0.55))
            .unwrap();
        let recommendation = configurator.recommend(&objectives).unwrap();

        // The recommendation is a full configuration point…
        assert_eq!(recommendation.point.len(), 2);
        assert!(recommendation.point.get("epsilon").is_some());
        assert!(recommendation.point.get("cell_size").is_some());
        // …whose predictions satisfy every constraint.
        assert!(at_most(0.15).is_satisfied_by(recommendation.predicted(&privacy_id()).unwrap()));
        assert!(at_least(0.55).is_satisfied_by(recommendation.predicted(&utility_id()).unwrap()));
        // The per-axis feasible summaries bracket the recommendation.
        for ((name, value), (feasible_name, (lo, hi))) in
            recommendation.point.values().iter().zip(&recommendation.feasible)
        {
            assert_eq!(name, feasible_name);
            assert!(lo <= value && value <= hi);
        }
        // Display covers both axes.
        let text = recommendation.to_string();
        assert!(text.contains("epsilon") && text.contains("cell_size"));
        // The legacy scalar accessors refuse multi-axis recommendations.
        assert!(std::panic::catch_unwind(|| recommendation.parameter()).is_err());

        // Deterministic: same inputs, same recommendation.
        assert_eq!(configurator.recommend(&objectives).unwrap(), recommendation);
    }

    #[test]
    fn multi_axis_search_reports_infeasible_objectives() {
        let configurator = Configurator::new(grid_suite());
        let impossible = Objectives::new()
            .require("poi-retrieval", at_most(0.001))
            .unwrap()
            .require("area-coverage", at_least(0.999))
            .unwrap();
        match configurator.recommend(&impossible) {
            Err(CoreError::Infeasible { reason }) => {
                assert!(reason.contains("poi-retrieval"), "reason: {reason}");
                assert!(reason.contains("area-coverage"), "reason: {reason}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn per_user_recommendation_separates_feasible_and_fallback_users() {
        use geopriv_mobility::UserId;

        let sweep = crate::modeling::fixtures::per_user_sweep();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let per_user = Modeler::new().fit_per_user(&sweep).unwrap();
        let configurator = Configurator::new(fitted);
        // Privacy ≤ 0.15 and utility ≥ 0.80: feasible for the population and
        // for user 1, infeasible for user 2 (her privacy intercept is worse).
        let objectives = Objectives::new()
            .require("poi-retrieval", at_most(0.15))
            .unwrap()
            .require("area-coverage", at_least(0.80))
            .unwrap();
        let recommendation = configurator.recommend_per_user(&per_user, &objectives).unwrap();

        // The dataset anchor is exactly the plain recommendation.
        assert_eq!(recommendation.dataset, configurator.recommend(&objectives).unwrap());
        assert_eq!(recommendation.users.len(), 4);
        assert_eq!(recommendation.feasible_count(), 1);
        assert_eq!(recommendation.fallback_count(), 3);

        // User 1 gets her own point, satisfying every constraint under her
        // own models.
        let own = recommendation.users.iter().find(|row| row.user == UserId::new(1)).unwrap();
        assert!(own.verdict.is_feasible());
        assert!(!own.used_fallback());
        assert_eq!(own.verdict.label(), "feasible");
        assert!(at_most(0.15).is_satisfied_by(own.predicted(&privacy_id()).unwrap()));
        assert!(at_least(0.80).is_satisfied_by(own.predicted(&utility_id()).unwrap()));

        // User 2's own models are infeasible: she lands on the dataset point
        // with an explicit verdict, and her predictions there come from HER
        // models (the report shows what she can actually expect).
        let fallback = recommendation.users.iter().find(|row| row.user == UserId::new(2)).unwrap();
        assert!(matches!(&fallback.verdict, UserVerdict::Infeasible { .. }));
        assert!(fallback.used_fallback());
        assert_eq!(fallback.point, recommendation.dataset.point);
        let expected = per_user
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(2))
            .and_then(|fit| fit.outcome.fitted())
            .unwrap()
            .model(&privacy_id())
            .unwrap()
            .predict(&recommendation.dataset.point)
            .unwrap();
        assert_eq!(fallback.predicted(&privacy_id()), Some(expected));
        assert!(fallback.verdict.to_string().contains("infeasible"));

        // Users 3 and 4 could not be modeled: fallback point, no predictions.
        for user in [3u64, 4] {
            let unmodeled =
                recommendation.users.iter().find(|row| row.user == UserId::new(user)).unwrap();
            assert!(matches!(&unmodeled.verdict, UserVerdict::Unmodeled { .. }));
            assert_eq!(unmodeled.verdict.label(), "unmodeled");
            assert_eq!(unmodeled.point, recommendation.dataset.point);
            assert!(unmodeled.predictions.is_empty());
        }
        assert!(recommendation.users.iter().find(|row| row.user == UserId::new(9)).is_none());

        // Deterministic regardless of the thread pool.
        assert_eq!(
            configurator.recommend_per_user(&per_user, &objectives).unwrap(),
            recommendation
        );
    }

    #[test]
    fn per_user_recommendation_needs_a_feasible_dataset_anchor() {
        let sweep = crate::modeling::fixtures::per_user_sweep();
        let configurator = Configurator::new(Modeler::new().fit(&sweep).unwrap());
        let per_user = Modeler::new().fit_per_user(&sweep).unwrap();
        // Impossible for the population: no fallback anchor exists.
        let impossible = Objectives::new()
            .require("poi-retrieval", at_most(0.01))
            .unwrap()
            .require("area-coverage", at_least(0.99))
            .unwrap();
        assert!(matches!(
            configurator.recommend_per_user(&per_user, &impossible),
            Err(CoreError::Infeasible { .. })
        ));

        // A space mismatch between the per-user models and the suite is a
        // typed configuration error.
        let foreign = Configurator::new(grid_suite());
        assert!(matches!(
            foreign.recommend_per_user(&per_user, &Objectives::paper_example()),
            Err(CoreError::InvalidConfiguration { .. })
        ));
    }
}
