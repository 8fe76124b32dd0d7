//! Hold-out validation of the fitted suite.
//!
//! The paper fits Equation 2 on one dataset and trusts it to configure the
//! LPPM for that dataset. A natural robustness question (and a prerequisite
//! for the paper's future work on "other datasets") is whether a model fitted
//! on *some users* predicts the metrics measured on *other users*.
//! [`HoldOutValidator`] splits a dataset's users into a training and a
//! validation population, so every trace of a user falls on the same side,
//! fits every suite metric's model on the training sweep, and reports the
//! per-metric prediction errors on the validation sweep.

use crate::error::CoreError;
use crate::experiment::{ExperimentRunner, SweepConfig, SweepPlan, SweepResult};
use crate::modeling::{FittedSuite, MetricModel, Modeler};
use crate::system::SystemDefinition;
use geopriv_metrics::MetricId;
use geopriv_mobility::{Dataset, TraceView};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Prediction-error summary of one metric on the validation population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionError {
    /// Mean absolute error between predicted and measured metric values.
    pub mean_absolute_error: f64,
    /// Largest absolute error over the validation sweep points.
    pub max_absolute_error: f64,
    /// Number of sweep points the errors were computed on.
    pub points: usize,
}

/// The outcome of a hold-out validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Suite fitted on the training population.
    pub fitted: FittedSuite,
    /// Per-metric prediction error on the held-out population, in suite order.
    pub errors: Vec<(MetricId, PredictionError)>,
    /// Number of training traces.
    pub training_traces: usize,
    /// Number of validation traces.
    pub validation_traces: usize,
}

impl ValidationReport {
    /// The prediction error of one metric.
    pub fn error(&self, id: &MetricId) -> Option<&PredictionError> {
        self.errors.iter().find(|(m, _)| m == id).map(|(_, e)| e)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hold-out validation ({} training traces, {} validation traces):",
            self.training_traces, self.validation_traces
        )?;
        for (id, error) in &self.errors {
            write!(
                f,
                "\n  {id}: MAE {:.3}, max {:.3} over {} points",
                error.mean_absolute_error, error.max_absolute_error, error.points
            )?;
        }
        Ok(())
    }
}

/// Splits a dataset, fits on one half, and validates on the other.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldOutValidator {
    plan: SweepPlan,
}

impl HoldOutValidator {
    /// Creates a validator using the given sweep configuration (grid mode)
    /// for both the training and the validation sweeps.
    pub fn new(config: SweepConfig) -> Self {
        Self { plan: SweepPlan::grid(config) }
    }

    /// Creates a validator with an explicit sweep plan (mode, grain and
    /// refinement budget).
    pub fn with_plan(plan: SweepPlan) -> Self {
        Self { plan }
    }

    /// Splits `dataset` by alternating users in user-id order (the 1st,
    /// 3rd, … user trains, the 2nd, 4th, … validates, each with all of her
    /// traces), fits the suite on the training population and measures
    /// per-metric prediction errors on the validation population. On a
    /// dataset with one trace per user this alternates traces.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] if the dataset has fewer than two users.
    /// * Any experiment or modeling error from the underlying pipeline.
    pub fn validate(
        &self,
        system: &SystemDefinition,
        dataset: &Dataset,
    ) -> Result<ValidationReport, CoreError> {
        if dataset.user_count() < 2 {
            return Err(CoreError::InvalidConfiguration {
                reason: "hold-out validation needs at least two users".to_string(),
            });
        }
        let users = dataset.users();
        let validates = |t: TraceView<'_>| users.binary_search(&t.user()).is_ok_and(|i| i % 2 == 1);
        let training = dataset.filter(|t| !validates(t))?;
        let validation = dataset.filter(validates)?;

        let runner = ExperimentRunner::with_plan(self.plan.clone());
        let training_sweep = runner.run(system, &training)?;
        let fitted = Modeler::new().fit(&training_sweep)?;
        let validation_sweep = runner.run(system, &validation)?;

        let errors = fitted
            .models
            .iter()
            .map(|model| {
                let measured = validation_sweep
                    .values(&model.id)
                    .expect("validation sweep covers the same suite");
                let error = Self::prediction_error(model, &validation_sweep, measured);
                (model.id.clone(), error)
            })
            .collect();

        Ok(ValidationReport {
            fitted,
            errors,
            training_traces: training.len(),
            validation_traces: validation.len(),
        })
    }

    fn prediction_error(
        model: &MetricModel,
        validation: &SweepResult,
        measured: &[f64],
    ) -> PredictionError {
        // The model only claims validity where it was fitted — inside the
        // non-saturated zone of each 1-D fit, inside the swept domain of a
        // surface (mirroring the paper's Equation 2).
        let errors: Vec<f64> = validation
            .points
            .iter()
            .zip(measured)
            .filter(|(point, _)| model.in_zone(point))
            .map(|(point, m)| {
                let predicted = model
                    .predict(point)
                    .expect("validation points share the fitted space")
                    .clamp(0.0, 1.0);
                (predicted - m).abs()
            })
            .collect();
        if errors.is_empty() {
            return PredictionError {
                mean_absolute_error: 0.0,
                max_absolute_error: 0.0,
                points: 0,
            };
        }
        PredictionError {
            mean_absolute_error: errors.iter().sum::<f64>() / errors.len() as f64,
            max_absolute_error: errors.iter().copied().fold(0.0, f64::max),
            points: errors.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_mobility::generator::TaxiFleetBuilder;
    use geopriv_mobility::Trace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(drivers: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(17);
        TaxiFleetBuilder::new()
            .drivers(drivers)
            .duration_hours(5.0)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap()
    }

    fn config() -> SweepConfig {
        SweepConfig { points: 9, repetitions: 1, seed: 13, parallel: true }
    }

    #[test]
    fn rejects_datasets_that_cannot_be_split() {
        let validator = HoldOutValidator::new(config());
        let system = SystemDefinition::paper_geoi();
        let single = dataset(1);
        assert!(validator.validate(&system, &single).is_err());
    }

    /// A user with a trace per day stays on one side of the split: a model
    /// validated on a day of a user it was trained on would not be checked
    /// on *other* users.
    #[test]
    fn every_trace_of_a_user_falls_on_the_same_side() {
        let fleet = dataset(3);
        let first = fleet.trace_at(0);
        let next_day = Trace::from_columns(
            first.user(),
            first.timestamps().iter().map(|t| t + 86_400.0).collect(),
            first.latitudes().to_vec(),
            first.longitudes().to_vec(),
        )
        .unwrap();
        let mut traces = fleet.to_traces();
        traces.push(next_day);
        let two_days = Dataset::new(traces).unwrap();
        assert_eq!((two_days.len(), two_days.user_count()), (4, 3));

        let report = HoldOutValidator::new(config())
            .validate(&SystemDefinition::paper_geoi(), &two_days)
            .unwrap();
        // The first and third users train (three traces), the second validates.
        assert_eq!((report.training_traces, report.validation_traces), (3, 1));
    }

    #[test]
    fn model_fitted_on_half_the_fleet_predicts_the_other_half() {
        let validator = HoldOutValidator::new(config());
        let system = SystemDefinition::paper_geoi();
        let report = validator.validate(&system, &dataset(8)).unwrap();

        assert_eq!(report.training_traces, 4);
        assert_eq!(report.validation_traces, 4);
        let privacy = report.error(&"poi-retrieval".into()).unwrap();
        let utility = report.error(&"area-coverage".into()).unwrap();
        assert!(report.error(&"unknown".into()).is_none());
        assert!(privacy.points > 0);
        assert!(utility.points > 0);
        // Errors are valid magnitudes…
        assert!(privacy.mean_absolute_error >= 0.0);
        assert!(privacy.max_absolute_error >= privacy.mean_absolute_error);
        assert!(utility.max_absolute_error <= 1.0);
        // …and the utility model (a smooth, slowly varying response) transfers
        // across synthetic fleets with a small error.
        assert!(utility.mean_absolute_error < 0.15, "utility MAE {}", utility.mean_absolute_error);
        let text = report.to_string();
        assert!(text.contains("poi-retrieval") && text.contains("area-coverage"));
    }
}
