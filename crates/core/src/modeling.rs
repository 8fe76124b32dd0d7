//! Model fitting (step 2 of the framework, modeling half).
//!
//! "Based on this data, a mathematical relationship between privacy and
//! utility metrics, configuration parameters, and dataset properties is
//! computed as an invertible function" (Equation 1), which the GEO-I
//! illustration specializes into the log-linear Equation 2:
//!
//! ```text
//! ln ε = (Pr − a)/b = (Ut − α)/β
//! ```
//!
//! [`Modeler::fit`] takes a [`SweepResult`] over any [`ConfigSpace`] and
//! fits, per metric column:
//!
//! * **one axis** — the historical path, unchanged: detect the non-saturated
//!   zone (the vertical lines of Figure 1) and fit the invertible
//!   (log-)linear model inside it ([`AxisFit`]);
//! * **multi-axis grid** — Equation 1's multivariate form: an ordinary
//!   least-squares plane over the scaled axes (ln-axis per
//!   [`ParameterScale::Logarithmic`]), via
//!   [`geopriv_analysis::regression::MultipleLinearRegression`]
//!   ([`SurfaceFit`]);
//! * **multi-axis one-at-a-time** — one [`AxisFit`] per axis, each fitted on
//!   that axis's leg of the design (other axes at their defaults).
//!
//! Adaptive sweeps ([`SweepMode::Adaptive`]) fit exactly like grids — the
//! surface regression and the 1-D saturation detector both work on arbitrary
//! (irregular) point sets. [`Modeler::diagnose`] additionally reports where a
//! fit is still uncertain ([`FitDiagnostics`]: per-point residuals,
//! active-zone edges, the worst-fit point), which is what adaptive refinement
//! steers by.

use crate::error::CoreError;
use crate::experiment::{run_indexed, Grain, SweepMode, SweepResult, UserCurves};
use geopriv_analysis::model::{LinearModel, LogLinearModel, ResponseModel};
use geopriv_analysis::regression::MultipleLinearRegression;
use geopriv_analysis::{find_active_zone, ActiveZone, AnalysisError, Curve};
use geopriv_lppm::{ConfigPoint, ConfigSpace, ParameterScale};
use geopriv_metrics::{Direction, MetricId};
use geopriv_mobility::UserId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An invertible single-parameter model of a metric response, either linear
/// or log-linear in the configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ParametricModel {
    /// `metric = intercept + slope · parameter`
    Linear(LinearModel),
    /// `metric = intercept + slope · ln(parameter)` — the paper's Equation 2.
    LogLinear(LogLinearModel),
}

impl ParametricModel {
    /// Predicted metric value at the given parameter value.
    pub fn predict(&self, parameter: f64) -> f64 {
        match self {
            ParametricModel::Linear(m) => m.predict(parameter),
            ParametricModel::LogLinear(m) => m.predict(parameter),
        }
    }

    /// Parameter value achieving the requested metric value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotInvertible`] for flat responses.
    pub fn invert(&self, metric: f64) -> Result<f64, AnalysisError> {
        match self {
            ParametricModel::Linear(m) => m.invert(metric),
            ParametricModel::LogLinear(m) => m.invert(metric),
        }
    }

    /// Coefficient of determination of the fit.
    pub fn r_squared(&self) -> f64 {
        match self {
            ParametricModel::Linear(m) => m.r_squared(),
            ParametricModel::LogLinear(m) => m.r_squared(),
        }
    }

    /// The fitted intercept (the paper's `a` / `α`).
    pub fn intercept(&self) -> f64 {
        match self {
            ParametricModel::Linear(m) => m.intercept(),
            ParametricModel::LogLinear(m) => m.intercept(),
        }
    }

    /// The fitted slope (the paper's `b` / `β`).
    pub fn slope(&self) -> f64 {
        match self {
            ParametricModel::Linear(m) => m.slope(),
            ParametricModel::LogLinear(m) => m.slope(),
        }
    }

    /// Parameter domain on which the model was fitted.
    pub fn domain(&self) -> (f64, f64) {
        match self {
            ParametricModel::Linear(m) => m.domain(),
            ParametricModel::LogLinear(m) => m.domain(),
        }
    }

    /// Whether the metric increases with the parameter.
    pub fn is_increasing(&self) -> bool {
        self.slope() > 0.0
    }
}

impl fmt::Display for ParametricModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParametricModel::Linear(m) => write!(f, "{m}"),
            ParametricModel::LogLinear(m) => write!(f, "{m}"),
        }
    }
}

/// The fitted 1-D response of one metric along one named axis: the empirical
/// curve, its non-saturated zone, and the parametric model fitted inside
/// that zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisFit {
    /// Name of the axis the fit varies.
    pub axis: String,
    /// The full empirical response (axis value → metric), all design points
    /// of the axis's leg.
    pub curve: Curve,
    /// The detected non-saturated zone, in parameter units.
    pub active_zone: (f64, f64),
    /// The invertible model fitted on the non-saturated zone.
    pub model: ParametricModel,
}

/// The fitted multivariate response of one metric over all axes of a grid
/// design: `metric = β₀ + Σ βᵢ · scaledᵢ(xᵢ)` with `scaledᵢ = ln` on
/// logarithmic axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceFit {
    /// Axis names, in space order (the regression's predictor order).
    pub axes: Vec<String>,
    /// Per-axis scale (decides the `ln` transform), aligned with `axes`.
    pub scales: Vec<ParameterScale>,
    /// The fitted least-squares plane over the scaled axes.
    pub regression: MultipleLinearRegression,
    /// Per-axis fitted domain in parameter units, aligned with `axes`.
    pub domain: Vec<(f64, f64)>,
}

impl SurfaceFit {
    fn scaled(&self, coords: &[f64]) -> Vec<f64> {
        coords
            .iter()
            .zip(&self.scales)
            .map(|(&value, scale)| match scale {
                ParameterScale::Linear => value,
                ParameterScale::Logarithmic => value.ln(),
            })
            .collect()
    }

    /// Predicted metric value at a configuration point (axis order must
    /// match the fitted axes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for a point over
    /// different axes.
    pub fn predict(&self, point: &ConfigPoint) -> Result<f64, CoreError> {
        let names: Vec<&str> = point.values().iter().map(|(n, _)| n.as_str()).collect();
        if names != self.axes.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(CoreError::InvalidConfiguration {
                reason: format!(
                    "point axes ({}) do not match the fitted axes ({})",
                    names.join(", "),
                    self.axes.join(", ")
                ),
            });
        }
        Ok(self.regression.predict(&self.scaled(&point.coords()))?)
    }

    /// Coefficient of determination of the fit.
    pub fn r_squared(&self) -> f64 {
        self.regression.r_squared()
    }
}

/// An [`AxisFit`] plus its prediction at the axis default, pre-computed for
/// the additive one-at-a-time combination in [`MetricModel::predict`] and
/// stored alongside the fit so a deserialized suite predicts identically.
///
/// Dereferences to its [`AxisFit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerAxisFit {
    fit: AxisFit,
    default_prediction: f64,
}

impl std::ops::Deref for PerAxisFit {
    type Target = AxisFit;

    fn deref(&self) -> &AxisFit {
        &self.fit
    }
}

/// The fitted response of one metric — the shape depends on the sweep's
/// dimensionality and mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricResponse {
    /// A one-axis sweep: the historical invertible fit.
    Axis(AxisFit),
    /// A multi-axis one-at-a-time sweep: one 1-D fit per axis.
    PerAxis(Vec<PerAxisFit>),
    /// A multi-axis grid sweep: one multivariate plane over all axes.
    Surface(SurfaceFit),
}

/// The fitted model of one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricModel {
    /// Id of the metric.
    pub id: MetricId,
    /// Which way the metric improves.
    pub direction: Direction,
    /// The fitted response.
    pub response: MetricResponse,
}

impl MetricModel {
    /// The single-axis fit of a one-axis sweep, or `None` for multi-axis
    /// responses — the hinge legacy 1-D code paths turn on.
    pub fn axis(&self) -> Option<&AxisFit> {
        match &self.response {
            MetricResponse::Axis(fit) => Some(fit),
            _ => None,
        }
    }

    /// Predicted metric value at a configuration point.
    ///
    /// For one-at-a-time responses the prediction combines the per-axis fits
    /// additively around the all-defaults baseline (the star design measures
    /// no interactions): `ŷ(x) = Σᵢ fᵢ(xᵢ) − (k−1) · ȳ₀` with `ȳ₀` the mean
    /// per-axis prediction at the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for a point whose axes do
    /// not match the fitted response.
    pub fn predict(&self, point: &ConfigPoint) -> Result<f64, CoreError> {
        match &self.response {
            MetricResponse::Axis(fit) => {
                let value =
                    point.get(&fit.axis).ok_or_else(|| CoreError::InvalidConfiguration {
                        reason: format!("point has no axis \"{}\"", fit.axis),
                    })?;
                Ok(fit.model.predict(value))
            }
            MetricResponse::Surface(surface) => surface.predict(point),
            MetricResponse::PerAxis(fits) => {
                let mut total = 0.0;
                let mut baseline = 0.0;
                for fit in fits {
                    let value =
                        point.get(&fit.axis).ok_or_else(|| CoreError::InvalidConfiguration {
                            reason: format!("point has no axis \"{}\"", fit.axis),
                        })?;
                    total += fit.model.predict(value);
                    baseline += fit.default_prediction;
                }
                let k = fits.len() as f64;
                let mean_baseline = baseline / k;
                Ok(total - (k - 1.0) * mean_baseline)
            }
        }
    }
}

/// The complete modeling result: one [`MetricModel`] per metric of the swept
/// suite, in suite order, over the sweep's [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedSuite {
    /// The swept configuration space.
    pub space: ConfigSpace,
    /// How the space was enumerated (decides the response shape).
    pub mode: SweepMode,
    /// The fitted per-metric responses (`Pr = a + b·ln ε` and
    /// `Ut = α + β·ln ε` in the paper).
    pub models: Vec<MetricModel>,
}

impl FittedSuite {
    /// The fitted model of one metric.
    pub fn model(&self, id: &MetricId) -> Option<&MetricModel> {
        self.models.iter().find(|m| &m.id == id)
    }

    /// The metric ids, in suite order.
    pub fn ids(&self) -> Vec<MetricId> {
        self.models.iter().map(|m| m.id.clone()).collect()
    }

    /// The axis names joined for display (`"epsilon"` for the paper's 1-D
    /// study, `"epsilon × cell_size"` for a composed one).
    pub fn axis_label(&self) -> String {
        self.space.names().join(" × ")
    }
}

impl fmt::Display for FittedSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.models.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            match &m.response {
                MetricResponse::Axis(fit) => {
                    write!(f, "{} ({}): {}", m.id, fit.axis, fit.model)?;
                }
                MetricResponse::PerAxis(fits) => {
                    write!(f, "{} (one-at-a-time):", m.id)?;
                    for fit in fits {
                        write!(f, "\n  {}: {}", fit.axis, fit.model)?;
                    }
                }
                MetricResponse::Surface(surface) => {
                    write!(
                        f,
                        "{} ({}): multivariate R² = {:.3}",
                        m.id,
                        self.axis_label(),
                        surface.r_squared()
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// The modeling outcome of one user in a per-user fit: either a complete
/// [`FittedSuite`] over the user's own response curves, or the reason no
/// suite could be fitted (a metric excluded the user, or her response was
/// degenerate — flat, too few points in the active zone, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UserFitOutcome {
    /// Every suite metric's model was fitted on this user's curves.
    Fitted(FittedSuite),
    /// No usable per-user model; the configurator falls back to the
    /// dataset-level recommendation for this user.
    Unfit {
        /// Why the user could not be modeled.
        reason: String,
    },
}

impl UserFitOutcome {
    /// The fitted suite, if the user was modeled.
    pub fn fitted(&self) -> Option<&FittedSuite> {
        match self {
            UserFitOutcome::Fitted(suite) => Some(suite),
            UserFitOutcome::Unfit { .. } => None,
        }
    }
}

/// One user's per-user modeling result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserFit {
    /// The user the models belong to.
    pub user: UserId,
    /// The fitted suite, or why there is none.
    pub outcome: UserFitOutcome,
}

/// The complete per-user modeling result of one sweep: one [`UserFit`] per
/// user resolved by the sweep's [`crate::experiment::UserColumn`]s — the
/// paper's "one sweep, N user models" efficiency claim made concrete: the
/// expensive measurement runs once, and every user's models are fitted from
/// the shared design matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerUserFits {
    /// The swept configuration space (shared by every user's models).
    pub space: ConfigSpace,
    /// How the space was enumerated.
    pub mode: SweepMode,
    /// One entry per user, in the sweep's user order.
    pub users: Vec<UserFit>,
}

impl PerUserFits {
    /// Number of users (modeled or not).
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Returns `true` when the sweep resolved no users at all.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of users with a complete fitted suite.
    pub fn fitted_count(&self) -> usize {
        self.users.iter().filter(|f| f.outcome.fitted().is_some()).count()
    }
}

/// Where one metric's fitted model is still uncertain against the sweep it
/// was fitted on: the boundary/uncertainty report driving adaptive
/// refinement ([`SweepMode::Adaptive`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDiagnostics {
    /// Id of the diagnosed metric.
    pub id: MetricId,
    /// Absolute residual `|measured − predicted|` per design point, aligned
    /// with [`SweepResult::points`].
    pub residuals: Vec<f64>,
    /// Index (into [`SweepResult::points`]) of the worst-fit point — the
    /// first point attaining the maximum residual.
    pub worst_point: usize,
    /// The fitted active-zone edges per axis, `(axis name, (lo, hi))` in
    /// parameter units — the brackets holding the saturation knees 1-D and
    /// per-axis fits detected. Empty for surface fits (their validity region
    /// is the whole fitted domain).
    pub zone_edges: Vec<(String, (f64, f64))>,
}

impl MetricDiagnostics {
    /// The largest absolute residual (0 for an empty design).
    pub fn max_residual(&self) -> f64 {
        self.residuals.iter().copied().fold(0.0, f64::max)
    }
}

/// The fit-quality report of a whole suite: one [`MetricDiagnostics`] per
/// fitted model, in suite order. Produced by [`Modeler::diagnose`] (dataset
/// level) and [`Modeler::diagnose_user`] (one user's own curves).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitDiagnostics {
    /// One report per fitted metric model, in suite order.
    pub metrics: Vec<MetricDiagnostics>,
}

/// Fits invertible metric models from sweep measurements.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Modeler {
    _private: (),
}

impl Modeler {
    /// Creates a modeler with the default saturation thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits every metric's model from a sweep result.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] if the sweep has fewer than four
    ///   points (per axis leg in one-at-a-time mode).
    /// * [`CoreError::Analysis`] if a metric never responds to the parameters
    ///   (zero dynamic range) or the fit is degenerate.
    pub fn fit(&self, sweep: &SweepResult) -> Result<FittedSuite, CoreError> {
        let models = sweep
            .columns
            .iter()
            .map(|column| {
                let response = self.fit_response(sweep, &column.means, &column.id)?;
                Ok(MetricModel { id: column.id.clone(), direction: column.direction, response })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(FittedSuite { space: sweep.space.clone(), mode: sweep.mode, models })
    }

    /// Fits one model per *user* and metric from a per-user sweep — the
    /// paper's per-user configuration scenario: the sweep runs once, then
    /// every user's own response curves go through exactly the same
    /// axis/surface machinery as the dataset-level fit.
    ///
    /// Users whose curves cannot be modeled (a metric excluded them, or
    /// their response is degenerate) are reported as
    /// [`UserFitOutcome::Unfit`] with the reason, never dropped silently —
    /// the configurator applies its documented fallback policy to them.
    ///
    /// The per-user fits are independent, so they run on the same
    /// work-stealing pool as the sweep itself; the result does not depend on
    /// the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when the sweep was
    /// recorded at [`Grain::Dataset`] (request `per_user()` on the sweep
    /// plan).
    pub fn fit_per_user(&self, sweep: &SweepResult) -> Result<PerUserFits, CoreError> {
        if sweep.grain != Grain::PerUser {
            return Err(CoreError::InvalidConfiguration {
                reason: "per-user modeling needs a per-user sweep — request it with \
                         SweepPlan::per_user() (or .sweep(|s| s.per_user()) on the facade)"
                    .to_string(),
            });
        }
        let users = sweep.users();
        let curves = UserCurves::new(sweep);
        let fits = run_indexed(users.len(), true, |i| self.fit_user(sweep, &curves, users[i]))?;
        Ok(PerUserFits { space: sweep.space.clone(), mode: sweep.mode, users: fits })
    }

    /// Refits only the *changed* users of a per-user sweep, reusing the
    /// previous [`PerUserFits`] for everyone else — the modeling half of the
    /// incremental-recomputation path (see
    /// [`crate::experiment::SweepPlan::cached`]).
    ///
    /// A user is refitted when she appears in `changed` or has no entry in
    /// `previous`; every other user's [`UserFit`] is carried over verbatim.
    /// Because an unchanged user's response curves are bit-identical between
    /// the previous sweep and this one (the cached-sweep contract), the
    /// result is **bit-identical to a full [`Modeler::fit_per_user`]** on
    /// `sweep` — this is asserted by the incremental integration tests and
    /// the `fleet-refresh` benchmark workload on every run.
    ///
    /// Users present in `previous` but absent from `sweep` are dropped (they
    /// left the dataset); the output covers exactly `sweep.users()`, in
    /// sweep order.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfiguration`] when the sweep was recorded at
    ///   [`Grain::Dataset`], or when `previous` belongs to a different
    ///   configuration space or sweep mode (carrying fits across designs
    ///   would silently break the bit-identity contract).
    pub fn refit_per_user(
        &self,
        sweep: &SweepResult,
        previous: &PerUserFits,
        changed: &[UserId],
    ) -> Result<PerUserFits, CoreError> {
        if sweep.grain != Grain::PerUser {
            return Err(CoreError::InvalidConfiguration {
                reason: "per-user refitting needs a per-user sweep — request it with \
                         SweepPlan::per_user() (or .sweep(|s| s.per_user()) on the facade)"
                    .to_string(),
            });
        }
        if previous.space != sweep.space || previous.mode != sweep.mode {
            return Err(CoreError::InvalidConfiguration {
                reason: "the previous per-user fits belong to a different configuration \
                         space or sweep mode; refit from scratch with fit_per_user"
                    .to_string(),
            });
        }
        let kept: std::collections::BTreeMap<UserId, &UserFit> =
            previous.users.iter().map(|fit| (fit.user, fit)).collect();
        let changed: std::collections::BTreeSet<UserId> = changed.iter().copied().collect();
        let users = sweep.users();
        let curves = UserCurves::new(sweep);
        let fits = run_indexed(users.len(), true, |i| {
            let user = users[i];
            match kept.get(&user) {
                Some(&fit) if !changed.contains(&user) => fit.clone(),
                _ => self.fit_user(sweep, &curves, user),
            }
        })?;
        Ok(PerUserFits { space: sweep.space.clone(), mode: sweep.mode, users: fits })
    }

    /// Fits every suite metric on one user's curves (`curves` indexes
    /// `sweep`'s); any failure becomes an [`UserFitOutcome::Unfit`] with the
    /// reason.
    pub(crate) fn fit_user(
        &self,
        sweep: &SweepResult,
        curves: &UserCurves<'_>,
        user: UserId,
    ) -> UserFit {
        let mut models = Vec::with_capacity(sweep.columns.len());
        for column in &sweep.columns {
            let curve = curves.curve(&column.id, user);
            let Some(curve) = curve else {
                return UserFit {
                    user,
                    outcome: UserFitOutcome::Unfit {
                        reason: format!(
                            "metric \"{}\" excluded {user} from measurement (no evaluable data)",
                            column.id
                        ),
                    },
                };
            };
            match self.fit_response(sweep, curve, &column.id) {
                Ok(response) => models.push(MetricModel {
                    id: column.id.clone(),
                    direction: column.direction,
                    response,
                }),
                Err(error) => {
                    return UserFit {
                        user,
                        outcome: UserFitOutcome::Unfit {
                            reason: format!("metric \"{}\": {error}", column.id),
                        },
                    };
                }
            }
        }
        UserFit {
            user,
            outcome: UserFitOutcome::Fitted(FittedSuite {
                space: sweep.space.clone(),
                mode: sweep.mode,
                models,
            }),
        }
    }

    fn fit_response(
        &self,
        sweep: &SweepResult,
        means: &[f64],
        id: &MetricId,
    ) -> Result<MetricResponse, CoreError> {
        if let Some(axis) = sweep.space.single_axis() {
            let name = axis.name().to_string();
            let parameters = sweep.axis_values(&name).ok_or_else(|| CoreError::Internal {
                reason: format!("a design point lacks the sweep's single axis \"{name}\""),
            })?;
            let fit = self.fit_axis(&name, axis.scale(), &parameters, means, sweep.len(), id)?;
            return Ok(MetricResponse::Axis(fit));
        }
        match sweep.mode {
            // Adaptive designs are irregular grids; the surface regression
            // makes no regularity assumption, so they share the grid path.
            SweepMode::Grid | SweepMode::Adaptive => {
                Ok(MetricResponse::Surface(self.fit_surface(sweep, means)?))
            }
            SweepMode::OneAtATime => {
                let fits = self.fit_legs(sweep, means, id)?;
                Ok(MetricResponse::PerAxis(fits))
            }
        }
    }

    /// The historical 1-D fit: saturation-windowed invertible model on one
    /// axis — arithmetic unchanged from the single-scalar framework.
    fn fit_axis(
        &self,
        axis: &str,
        scale: ParameterScale,
        parameters: &[f64],
        values: &[f64],
        design_points: usize,
        id: &MetricId,
    ) -> Result<AxisFit, CoreError> {
        if parameters.len() < 4 {
            return Err(CoreError::InvalidConfiguration {
                reason: format!(
                    "modeling metric \"{id}\" on axis \"{axis}\" needs at least 4 sweep points, \
                     got {} (of {design_points} design points)",
                    parameters.len()
                ),
            });
        }
        let logarithmic = scale == ParameterScale::Logarithmic;

        // Work on a transformed x-axis (ln for logarithmic parameters) so the
        // saturation detector sees evenly spaced samples, exactly like the
        // log-scale x-axis of Figure 1.
        let transformed: Vec<f64> = if logarithmic {
            parameters.iter().map(|p| p.ln()).collect()
        } else {
            parameters.to_vec()
        };
        let detection_curve =
            Curve::new(transformed.iter().copied().zip(values.iter().copied()).collect())?;
        let zone: ActiveZone = find_active_zone(&detection_curve)?;

        // Restrict the raw samples to the active zone and fit the parametric model.
        let in_zone: Vec<(f64, f64)> = transformed
            .iter()
            .zip(parameters.iter())
            .zip(values.iter())
            .filter(|((t, _), _)| zone.contains(**t))
            .map(|((_, p), v)| (*p, *v))
            .collect();
        let zone_params: Vec<f64> = in_zone.iter().map(|(p, _)| *p).collect();
        let zone_values: Vec<f64> = in_zone.iter().map(|(_, v)| *v).collect();

        let model = if logarithmic {
            ParametricModel::LogLinear(LogLinearModel::fit(&zone_params, &zone_values)?)
        } else {
            ParametricModel::Linear(LinearModel::fit(&zone_params, &zone_values)?)
        };

        // The full empirical curve is kept in parameter units for reporting.
        let curve = Curve::new(parameters.iter().copied().zip(values.iter().copied()).collect())?;
        let active_zone = (
            zone_params.iter().copied().fold(f64::INFINITY, f64::min),
            zone_params.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        Ok(AxisFit { axis: axis.to_string(), curve, active_zone, model })
    }

    /// One 1-D fit per axis of a one-at-a-time design: each axis's leg is
    /// every design point holding all *other* axes at their defaults.
    fn fit_legs(
        &self,
        sweep: &SweepResult,
        means: &[f64],
        id: &MetricId,
    ) -> Result<Vec<PerAxisFit>, CoreError> {
        let defaults: Vec<f64> =
            sweep.space.axes().iter().map(|axis| axis.default_value()).collect();
        let mut fits = Vec::with_capacity(sweep.space.len());
        for (i, axis) in sweep.space.axes().iter().enumerate() {
            let leg: Vec<(f64, f64)> = sweep
                .points
                .iter()
                .zip(means)
                .filter(|(point, _)| {
                    point
                        .coords()
                        .iter()
                        .enumerate()
                        .all(|(j, &value)| j == i || value == defaults[j])
                })
                .map(|(point, &mean)| (point.coords()[i], mean))
                .collect();
            let parameters: Vec<f64> = leg.iter().map(|(p, _)| *p).collect();
            let values: Vec<f64> = leg.iter().map(|(_, v)| *v).collect();
            let fit =
                self.fit_axis(axis.name(), axis.scale(), &parameters, &values, sweep.len(), id)?;
            let default_prediction = fit.model.predict(defaults[i]);
            fits.push(PerAxisFit { fit, default_prediction });
        }
        Ok(fits)
    }

    /// Diagnoses a fitted suite against the sweep it was fitted on: per-point
    /// residuals of every metric model, the worst-fit point, and the
    /// active-zone edges — the uncertainty report adaptive refinement
    /// ([`SweepMode::Adaptive`]) decides its next evaluations by.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when the sweep lacks a
    /// column for a fitted metric or a model cannot predict at the sweep's
    /// points (suite and sweep do not belong together).
    pub fn diagnose(
        &self,
        sweep: &SweepResult,
        fitted: &FittedSuite,
    ) -> Result<FitDiagnostics, CoreError> {
        let mut metrics = Vec::with_capacity(fitted.models.len());
        for model in &fitted.models {
            let values =
                sweep.values(&model.id).ok_or_else(|| CoreError::InvalidConfiguration {
                    reason: format!("sweep has no column \"{}\" to diagnose against", model.id),
                })?;
            metrics.push(Self::diagnose_model(sweep, model, values)?);
        }
        Ok(FitDiagnostics { metrics })
    }

    /// Diagnoses one user's fitted suite against her own measured curves —
    /// the per-user counterpart of [`Modeler::diagnose`], used by adaptive
    /// refinement to keep spending evaluations on the users whose curves are
    /// still uncertain (successive halving at [`Grain::PerUser`]).
    ///
    /// # Errors
    ///
    /// As [`Modeler::diagnose`], plus when the sweep records no curve of
    /// `user` for a fitted metric.
    // audit:allow(R1): public API — the per-user counterpart of Modeler::diagnose
    pub fn diagnose_user(
        &self,
        sweep: &SweepResult,
        fitted: &FittedSuite,
        user: UserId,
    ) -> Result<FitDiagnostics, CoreError> {
        self.diagnose_user_in(sweep, &UserCurves::new(sweep), fitted, user)
    }

    /// [`Modeler::diagnose_user`] reading the user's curves from `curves`,
    /// an index of `sweep`'s built once by a caller that diagnoses many
    /// users.
    pub(crate) fn diagnose_user_in(
        &self,
        sweep: &SweepResult,
        curves: &UserCurves<'_>,
        fitted: &FittedSuite,
        user: UserId,
    ) -> Result<FitDiagnostics, CoreError> {
        let mut metrics = Vec::with_capacity(fitted.models.len());
        for model in &fitted.models {
            let curve =
                curves.curve(&model.id, user).ok_or_else(|| CoreError::InvalidConfiguration {
                    reason: format!("sweep records no curve of {user} for metric \"{}\"", model.id),
                })?;
            metrics.push(Self::diagnose_model(sweep, model, curve)?);
        }
        Ok(FitDiagnostics { metrics })
    }

    fn diagnose_model(
        sweep: &SweepResult,
        model: &MetricModel,
        values: &[f64],
    ) -> Result<MetricDiagnostics, CoreError> {
        let mut residuals = Vec::with_capacity(sweep.len());
        for (point, &value) in sweep.points.iter().zip(values) {
            residuals.push((value - model.predict(point)?).abs());
        }
        let worst_point = residuals
            .iter()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |best, (i, &r)| if r > best.1 { (i, r) } else { best })
            .0;
        let zone_edges = match &model.response {
            MetricResponse::Axis(fit) => vec![(fit.axis.clone(), fit.active_zone)],
            MetricResponse::PerAxis(fits) => {
                fits.iter().map(|f| (f.axis.clone(), f.active_zone)).collect()
            }
            MetricResponse::Surface(_) => Vec::new(),
        };
        Ok(MetricDiagnostics { id: model.id.clone(), residuals, worst_point, zone_edges })
    }

    /// Equation 1's multivariate form on a grid design: a least-squares
    /// plane over the scaled axes.
    fn fit_surface(&self, sweep: &SweepResult, means: &[f64]) -> Result<SurfaceFit, CoreError> {
        let scales: Vec<ParameterScale> =
            sweep.space.axes().iter().map(|axis| axis.scale()).collect();
        let predictors: Vec<Vec<f64>> = sweep
            .points
            .iter()
            .map(|point| {
                point
                    .coords()
                    .iter()
                    .zip(&scales)
                    .map(|(&value, scale)| match scale {
                        ParameterScale::Linear => value,
                        ParameterScale::Logarithmic => value.ln(),
                    })
                    .collect()
            })
            .collect();
        let regression = MultipleLinearRegression::fit(&predictors, means)?;
        let domain: Vec<(f64, f64)> = (0..sweep.space.len())
            .map(|i| {
                let axis_values: Vec<f64> = sweep.points.iter().map(|p| p.coords()[i]).collect();
                (
                    axis_values.iter().copied().fold(f64::INFINITY, f64::min),
                    axis_values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .collect();
        Ok(SurfaceFit {
            axes: sweep.space.names().iter().map(|n| n.to_string()).collect(),
            scales,
            regression,
            domain,
        })
    }
}

/// Shared synthetic per-user fixture for the core unit tests (modeling and
/// configurator).
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use crate::experiment::{MetricColumn, UserColumn};
    use geopriv_lppm::{ParameterDescriptor, ParameterScale};
    use geopriv_mobility::UserId;

    /// A synthetic per-user sweep: users 1 and 2 follow Equation 2 with
    /// per-user intercept shifts (user 2 is strictly worse off on privacy),
    /// user 3 is excluded from the privacy metric (no POIs), and user 4's
    /// utility response is flat (degenerate fit). The aggregate columns
    /// follow the paper's population curves, so the dataset-level scenario
    /// stays the classic feasible one.
    pub(crate) fn per_user_sweep() -> SweepResult {
        let points = 41;
        let parameters: Vec<f64> = (0..points)
            .map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / (points - 1) as f64))
            .collect();
        let privacy_curve = |shift: f64| -> Vec<f64> {
            parameters.iter().map(|e| (0.84 + shift + 0.17 * e.ln()).clamp(0.0, 0.45)).collect()
        };
        let utility_curve = |shift: f64| -> Vec<f64> {
            parameters.iter().map(|e| (1.21 + shift + 0.09 * e.ln()).clamp(0.2, 1.0)).collect()
        };
        let privacy_curves = vec![privacy_curve(0.0), privacy_curve(0.05), privacy_curve(0.02)];
        let utility_curves =
            vec![utility_curve(0.0), utility_curve(-0.03), utility_curve(0.02), vec![0.5; points]];
        let columns = vec![
            MetricColumn {
                id: MetricId::new("poi-retrieval"),
                direction: Direction::LowerIsBetter,
                runs: vec![],
                means: privacy_curve(0.0),
            },
            MetricColumn {
                id: MetricId::new("area-coverage"),
                direction: Direction::HigherIsBetter,
                runs: vec![],
                means: utility_curve(0.0),
            },
        ];
        let user_columns = vec![
            UserColumn {
                id: MetricId::new("poi-retrieval"),
                direction: Direction::LowerIsBetter,
                users: vec![UserId::new(1), UserId::new(2), UserId::new(4)],
                curves: privacy_curves,
            },
            UserColumn {
                id: MetricId::new("area-coverage"),
                direction: Direction::HigherIsBetter,
                users: vec![UserId::new(1), UserId::new(2), UserId::new(3), UserId::new(4)],
                curves: utility_curves,
            },
        ];
        let space = ConfigSpace::single(
            ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap(),
        );
        let points: Vec<_> =
            parameters.iter().map(|&value| space.point_from_coords(&[value]).unwrap()).collect();
        SweepResult::with_user_columns(
            "geo-indistinguishability",
            space,
            SweepMode::Grid,
            points,
            columns,
            user_columns,
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MetricColumn;
    use geopriv_lppm::{ParameterDescriptor, ParameterScale};

    fn privacy_id() -> MetricId {
        MetricId::new("poi-retrieval")
    }

    fn utility_id() -> MetricId {
        MetricId::new("area-coverage")
    }

    fn epsilon_axis() -> ParameterDescriptor {
        ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap()
    }

    /// Builds a synthetic sweep result following the paper's Equation 2 with
    /// saturation outside the active zone, without running any experiment.
    fn paper_like_sweep(points: usize) -> SweepResult {
        let parameters: Vec<f64> = (0..points)
            .map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / (points - 1) as f64))
            .collect();
        let privacy: Vec<f64> =
            parameters.iter().map(|e| (0.84 + 0.17 * e.ln()).clamp(0.0, 0.45)).collect();
        let utility: Vec<f64> =
            parameters.iter().map(|e| (1.21 + 0.09 * e.ln()).clamp(0.2, 1.0)).collect();
        SweepResult::from_axis(
            "geo-indistinguishability",
            epsilon_axis(),
            &parameters,
            vec![
                MetricColumn {
                    id: privacy_id(),
                    direction: Direction::LowerIsBetter,
                    runs: privacy.iter().map(|&v| vec![v]).collect(),
                    means: privacy,
                },
                MetricColumn {
                    id: utility_id(),
                    direction: Direction::HigherIsBetter,
                    runs: utility.iter().map(|&v| vec![v]).collect(),
                    means: utility,
                },
            ],
        )
        .unwrap()
    }

    /// A synthetic 2-D grid sweep: an additive plane in (ln ε, ln cell).
    fn grid_sweep() -> SweepResult {
        let space = geopriv_lppm::ConfigSpace::new(vec![
            epsilon_axis(),
            ParameterDescriptor::new("cell_size", 50.0, 5000.0, ParameterScale::Logarithmic)
                .unwrap(),
        ])
        .unwrap();
        let points = space.grid(&[5, 5]).unwrap();
        let response: Vec<f64> = points
            .iter()
            .map(|p| {
                0.9 + 0.05 * p.get("epsilon").unwrap().ln()
                    - 0.04 * p.get("cell_size").unwrap().ln()
            })
            .collect();
        SweepResult::new(
            "pipeline[geo-indistinguishability, grid-cloaking]",
            space,
            SweepMode::Grid,
            points,
            vec![MetricColumn {
                id: privacy_id(),
                direction: Direction::LowerIsBetter,
                runs: vec![],
                means: response,
            }],
        )
        .unwrap()
    }

    #[test]
    fn recovers_the_paper_coefficients_from_a_clean_sweep() {
        let sweep = paper_like_sweep(41);
        let fitted = Modeler::new().fit(&sweep).unwrap();
        assert_eq!(fitted.ids(), vec![privacy_id(), utility_id()]);
        assert_eq!(fitted.axis_label(), "epsilon");

        // Privacy side of Equation 2: a = 0.84, b = 0.17.
        let p = &fitted.model(&privacy_id()).unwrap().axis().unwrap().model;
        assert!((p.intercept() - 0.84).abs() < 0.08, "a = {}", p.intercept());
        assert!((p.slope() - 0.17).abs() < 0.04, "b = {}", p.slope());
        assert!(p.r_squared() > 0.95);
        assert!(p.is_increasing());

        // Utility side: alpha = 1.21, beta = 0.09.
        let u = &fitted.model(&utility_id()).unwrap().axis().unwrap().model;
        assert!((u.intercept() - 1.21).abs() < 0.12, "alpha = {}", u.intercept());
        assert!((u.slope() - 0.09).abs() < 0.03, "beta = {}", u.slope());
        assert!(u.r_squared() > 0.95);

        // Directions flow from the columns into the models.
        assert_eq!(fitted.model(&privacy_id()).unwrap().direction, Direction::LowerIsBetter);
        assert_eq!(fitted.model(&utility_id()).unwrap().direction, Direction::HigherIsBetter);

        // The display mentions both metrics.
        let text = fitted.to_string();
        assert!(text.contains("poi-retrieval") && text.contains("area-coverage"));

        // Point-based prediction equals scalar prediction on the 1-D path.
        let model = fitted.model(&privacy_id()).unwrap();
        let point = sweep.space.point_from_coords(&[0.01]).unwrap();
        assert_eq!(model.predict(&point).unwrap(), p.predict(0.01));
        assert_eq!(model.axis().unwrap().axis, "epsilon");
    }

    #[test]
    fn active_zones_exclude_the_saturated_tails() {
        let sweep = paper_like_sweep(41);
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let privacy = fitted.model(&privacy_id()).unwrap().axis().unwrap().clone();
        let utility = fitted.model(&utility_id()).unwrap().axis().unwrap().clone();
        // Privacy saturates at 0 below eps~0.007 and at 0.45 above eps~0.1:
        // the active zone must be a strict sub-range of the sweep.
        let (lo, hi) = privacy.active_zone;
        assert!(lo > 1e-4 * 1.5, "zone starts too early: {lo}");
        assert!(hi < 1.0 / 1.5, "zone ends too late: {hi}");
        assert!((lo..=hi).contains(&0.01));
        assert!(!(lo..=hi).contains(&1e-4));

        // The utility response spans more of the range, so its zone is wider
        // (in log terms) than the privacy zone — the paper's "evolves more
        // slowly on a larger range".
        let privacy_width = (privacy.active_zone.1 / privacy.active_zone.0).ln();
        let utility_width = (utility.active_zone.1 / utility.active_zone.0).ln();
        assert!(utility_width > privacy_width, "{utility_width} vs {privacy_width}");
    }

    #[test]
    fn model_inversion_recovers_the_operating_point() {
        let sweep = paper_like_sweep(41);
        let fitted = Modeler::new().fit(&sweep).unwrap();
        // Inverting the privacy model at 10% gives an epsilon near 0.0128
        // (the paper rounds to 0.01).
        let eps_for_privacy =
            fitted.model(&privacy_id()).unwrap().axis().unwrap().model.invert(0.10).unwrap();
        assert!((0.008..0.02).contains(&eps_for_privacy), "eps {eps_for_privacy}");
        // And the utility model predicts about 80% utility there.
        let predicted_utility =
            fitted.model(&utility_id()).unwrap().axis().unwrap().model.predict(eps_for_privacy);
        assert!((0.75..0.88).contains(&predicted_utility), "utility {predicted_utility}");
    }

    #[test]
    fn every_metric_of_a_larger_suite_is_fitted() {
        let mut sweep = paper_like_sweep(30);
        let extra: Vec<f64> = sweep
            .points
            .iter()
            .map(|p| (0.95 + 0.05 * p.single().unwrap().ln()).clamp(0.1, 0.9))
            .collect();
        sweep.columns.push(MetricColumn {
            id: MetricId::new("hotspot-preservation"),
            direction: Direction::HigherIsBetter,
            runs: extra.iter().map(|&v| vec![v]).collect(),
            means: extra,
        });
        let fitted = Modeler::new().fit(&sweep).unwrap();
        assert_eq!(fitted.models.len(), 3);
        assert!(fitted.model(&MetricId::new("hotspot-preservation")).is_some());
    }

    #[test]
    fn too_few_points_or_flat_metrics_are_rejected() {
        let sweep = paper_like_sweep(3);
        assert!(Modeler::new().fit(&sweep).is_err());

        let mut flat = paper_like_sweep(20);
        flat.columns[0].means = vec![0.3; 20];
        assert!(matches!(Modeler::new().fit(&flat), Err(CoreError::Analysis(_))));
    }

    #[test]
    fn linear_scale_parameters_use_a_linear_model() {
        let parameters: Vec<f64> = (0..15).map(|i| (i as f64 / 14.0).max(0.01)).collect();
        let privacy: Vec<f64> = parameters.iter().map(|p| 0.05 + 0.4 * p).collect();
        let utility: Vec<f64> = parameters.iter().map(|p| 0.2 + 0.75 * p).collect();
        let sweep = SweepResult::from_axis(
            "release-sampling",
            ParameterDescriptor::new("probability", 0.01, 1.0, ParameterScale::Linear).unwrap(),
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
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let p = fitted.model(&privacy_id()).unwrap().axis().unwrap();
        let u = fitted.model(&utility_id()).unwrap().axis().unwrap();
        assert!(matches!(p.model, ParametricModel::Linear(_)));
        assert!((p.model.slope() - 0.4).abs() < 0.05);
        assert!((u.model.slope() - 0.75).abs() < 0.05);
    }

    #[test]
    fn grid_sweeps_fit_a_multivariate_surface() {
        let sweep = grid_sweep();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        assert_eq!(fitted.axis_label(), "epsilon × cell_size");
        let model = fitted.model(&privacy_id()).unwrap();
        let surface = match &model.response {
            MetricResponse::Surface(s) => s,
            other => panic!("expected a surface, got {other:?}"),
        };
        // The plane is recovered near-exactly.
        assert!(surface.r_squared() > 0.999, "R² {}", surface.r_squared());
        let c = surface.regression.coefficients();
        assert!((c[0] - 0.9).abs() < 1e-9);
        assert!((c[1] - 0.05).abs() < 1e-9);
        assert!((c[2] + 0.04).abs() < 1e-9);

        // Prediction at an interior point matches the generating plane.
        let point = sweep.space.point_from_coords(&[0.01, 500.0]).unwrap();
        let expected = 0.9 + 0.05 * 0.01f64.ln() - 0.04 * 500.0f64.ln();
        assert!((model.predict(&point).unwrap() - expected).abs() < 1e-9);
        assert!(model.axis().is_none());
        // Foreign points are typed errors.
        let foreign =
            geopriv_lppm::ConfigSpace::single(epsilon_axis()).point_from_coords(&[0.01]).unwrap();
        assert!(model.predict(&foreign).is_err());
        // The display mentions the multivariate fit.
        assert!(fitted.to_string().contains("multivariate"));
    }

    use crate::modeling::fixtures::per_user_sweep;

    #[test]
    fn per_user_fits_model_every_modellable_user() {
        use geopriv_mobility::UserId;

        let sweep = per_user_sweep();
        let fits = Modeler::new().fit_per_user(&sweep).unwrap();
        assert_eq!(fits.mode, SweepMode::Grid);
        assert_eq!(fits.len(), 4);
        assert!(!fits.is_empty());
        assert_eq!(fits.fitted_count(), 2);

        // Users 1 and 2 get a complete suite fitted on their own curves —
        // user 2's shifted privacy intercept is recovered.
        for user in [1u64, 2] {
            let suite = fits
                .users
                .iter()
                .find(|fit| fit.user == UserId::new(user))
                .and_then(|fit| fit.outcome.fitted())
                .unwrap();
            assert_eq!(suite.ids(), vec![privacy_id(), utility_id()]);
        }
        let own = fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(2))
            .and_then(|fit| fit.outcome.fitted())
            .unwrap();
        let intercept = own.model(&privacy_id()).unwrap().axis().unwrap().model.intercept();
        assert!((intercept - 0.89).abs() < 0.08, "user 2 intercept {intercept}");

        // User 3 was excluded from the privacy metric: unfit, with the
        // metric named in the reason.
        match fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(3))
            .map(|fit| &fit.outcome)
            .unwrap()
        {
            UserFitOutcome::Unfit { reason } => {
                assert!(reason.contains("poi-retrieval"), "reason: {reason}");
                assert!(reason.contains("user-3"), "reason: {reason}");
            }
            other => panic!("expected unfit, got {other:?}"),
        }
        // User 4's flat utility response cannot be modeled.
        match fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(4))
            .map(|fit| &fit.outcome)
            .unwrap()
        {
            UserFitOutcome::Unfit { reason } => {
                assert!(reason.contains("area-coverage"), "reason: {reason}");
            }
            other => panic!("expected unfit, got {other:?}"),
        }
        assert!(fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(9))
            .map(|fit| &fit.outcome)
            .is_none());
        assert!(fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(3))
            .and_then(|fit| fit.outcome.fitted())
            .is_none());
    }

    #[test]
    fn per_user_fitting_requires_a_per_user_sweep() {
        let dataset_grain = paper_like_sweep(20);
        assert!(matches!(
            Modeler::new().fit_per_user(&dataset_grain),
            Err(CoreError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn diagnose_reports_residuals_worst_point_and_zone_edges() {
        let sweep = paper_like_sweep(12);
        let modeler = Modeler::new();
        let fitted = modeler.fit(&sweep).unwrap();
        let diagnostics = modeler.diagnose(&sweep, &fitted).unwrap();

        assert_eq!(diagnostics.metrics.len(), 2);
        assert!(diagnostics.metrics.iter().any(|m| m.id == privacy_id()));
        assert!(!diagnostics.metrics.iter().any(|m| m.id == MetricId::new("nope")));
        for report in &diagnostics.metrics {
            assert_eq!(report.residuals.len(), sweep.len());
            assert!(report.residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
            assert!(report.worst_point < sweep.len());
            let max = report.max_residual();
            assert_eq!(report.residuals[report.worst_point], max);
            // The clamped tails of the synthetic response put the largest
            // residuals outside the active zone, so the worst point's
            // residual is strictly positive.
            assert!(max > 0.0);
            // 1-D fits expose the single axis's active-zone bracket.
            assert_eq!(report.zone_edges.len(), 1);
            let (axis, (lo, hi)) = &report.zone_edges[0];
            assert_eq!(axis, "epsilon");
            assert!(lo < hi);
        }

        // A sweep without the fitted metric's column is a caller error.
        let mut stripped = sweep.clone();
        stripped.columns.retain(|c| c.id != privacy_id());
        assert!(matches!(
            modeler.diagnose(&stripped, &fitted),
            Err(CoreError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn diagnose_surface_fits_have_no_zone_edges() {
        let sweep = grid_sweep();
        let modeler = Modeler::new();
        let fitted = modeler.fit(&sweep).unwrap();
        let diagnostics = modeler.diagnose(&sweep, &fitted).unwrap();
        let report = diagnostics.metrics.iter().find(|m| m.id == privacy_id()).unwrap();
        // The synthetic plane fits exactly, and surface validity is the whole
        // fitted domain — no knee brackets to refine around.
        assert!(report.max_residual() < 1e-9);
        assert!(report.zone_edges.is_empty());
    }

    #[test]
    fn adaptive_mode_sweeps_fit_like_grids_even_when_irregular() {
        // An adaptive sweep is an irregular design: take the synthetic grid,
        // drop some interior points and relabel the mode. The surface fit
        // must digest it (regression needs no lattice structure).
        let grid = grid_sweep();
        let keep: Vec<usize> = (0..grid.len()).filter(|i| i % 3 != 1).collect();
        let sweep = SweepResult::new(
            grid.lppm_name.clone(),
            grid.space.clone(),
            SweepMode::Adaptive,
            keep.iter().map(|&i| grid.points[i].clone()).collect(),
            grid.columns
                .iter()
                .map(|c| MetricColumn {
                    id: c.id.clone(),
                    direction: c.direction,
                    runs: vec![],
                    means: keep.iter().map(|&i| c.means[i]).collect(),
                })
                .collect(),
        )
        .unwrap();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        assert_eq!(fitted.mode, SweepMode::Adaptive);
        let model = fitted.model(&privacy_id()).unwrap();
        assert!(matches!(model.response, MetricResponse::Surface(_)));
        let point = sweep.space.point_from_coords(&[0.05, 200.0]).unwrap();
        let expected = 0.9 + 0.05 * 0.05f64.ln() - 0.04 * 200.0f64.ln();
        assert!((model.predict(&point).unwrap() - expected).abs() < 1e-6);
    }

    #[test]
    fn diagnose_user_reads_the_users_own_curves() {
        use geopriv_mobility::UserId;

        let sweep = per_user_sweep();
        let modeler = Modeler::new();
        let fits = modeler.fit_per_user(&sweep).unwrap();
        let suite = fits
            .users
            .iter()
            .find(|fit| fit.user == UserId::new(2))
            .and_then(|fit| fit.outcome.fitted())
            .unwrap();
        let diagnostics = modeler.diagnose_user(&sweep, suite, UserId::new(2)).unwrap();
        for report in &diagnostics.metrics {
            assert_eq!(report.residuals.len(), sweep.len());
            assert!(report.worst_point < sweep.len());
        }
        // A user the sweep never recorded is a typed error, not a panic.
        assert!(matches!(
            modeler.diagnose_user(&sweep, suite, UserId::new(99)),
            Err(CoreError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn one_at_a_time_sweeps_fit_per_axis_models() {
        let space = geopriv_lppm::ConfigSpace::new(vec![
            epsilon_axis(),
            ParameterDescriptor::new("cell_size", 50.0, 5000.0, ParameterScale::Logarithmic)
                .unwrap(),
        ])
        .unwrap();
        let points = space.one_at_a_time(&[9, 9]).unwrap();
        let response: Vec<f64> = points
            .iter()
            .map(|p| {
                0.9 + 0.05 * p.get("epsilon").unwrap().ln()
                    - 0.04 * p.get("cell_size").unwrap().ln()
            })
            .collect();
        let sweep = SweepResult::new(
            "pipeline",
            space.clone(),
            SweepMode::OneAtATime,
            points,
            vec![MetricColumn {
                id: privacy_id(),
                direction: Direction::LowerIsBetter,
                runs: vec![],
                means: response,
            }],
        )
        .unwrap();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let model = fitted.model(&privacy_id()).unwrap();
        let fits = match &model.response {
            MetricResponse::PerAxis(fits) => fits,
            other => panic!("expected per-axis fits, got {other:?}"),
        };
        assert_eq!(fits.len(), 2);
        assert_eq!(fits[0].axis, "epsilon");
        assert_eq!(fits[1].axis, "cell_size");
        // Each leg recovers its own slope.
        assert!((fits[0].model.slope() - 0.05).abs() < 1e-6, "{}", fits[0].model.slope());
        assert!((fits[1].model.slope() + 0.04).abs() < 1e-6, "{}", fits[1].model.slope());
        // The additive combination reproduces the generating plane at an
        // off-star point (no interactions in the synthetic response).
        let point = space.point_from_coords(&[0.05, 200.0]).unwrap();
        let expected = 0.9 + 0.05 * 0.05f64.ln() - 0.04 * 200.0f64.ln();
        assert!((model.predict(&point).unwrap() - expected).abs() < 1e-6);
    }
}
