//! Reporting helpers used by the reproduction harness.
//!
//! The bench binaries regenerate the paper's figures as plain-text tables and
//! CSV series; these helpers render [`SweepResult`]s, [`FittedSuite`]s and
//! [`Recommendation`]s in a stable, diff-friendly format — one column per
//! configuration axis, one column or line per suite metric. A one-axis sweep
//! renders byte-identically to the historical single-scalar output.

use crate::configurator::{PerUserRecommendation, Recommendation, UserRecommendation, UserVerdict};
use crate::error::CoreError;
use crate::experiment::SweepResult;
use crate::json::{self, JsonValue};
use crate::modeling::{FittedSuite, MetricResponse};
use geopriv_lppm::ConfigPoint;
use geopriv_metrics::MetricId;
use geopriv_mobility::UserId;
use std::fmt::Write as _;

/// Renders a sweep as CSV: one column per configuration axis (design-matrix
/// order), one mean column per metric (suite order), then one `_std` column
/// per metric.
pub fn sweep_to_csv(sweep: &SweepResult) -> String {
    let mut out = String::new();
    let mut header = sweep.space.names().join(",");
    for column in &sweep.columns {
        let _ = write!(header, ",{}", column.id);
    }
    for column in &sweep.columns {
        let _ = write!(header, ",{}_std", column.id);
    }
    let _ = writeln!(out, "{header}");
    for (index, point) in sweep.points.iter().enumerate() {
        for (i, (_, value)) in point.values().iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ",");
            }
            let _ = write!(out, "{value:.6e}");
        }
        for column in &sweep.columns {
            let _ = write!(out, ",{:.4}", column.means[index]);
        }
        for column in &sweep.columns {
            let _ = write!(out, ",{:.4}", column.std(index));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a sweep as an aligned plain-text table (one row per design point,
/// one column per axis and per metric).
pub fn sweep_to_table(sweep: &SweepResult) -> String {
    let mut out = String::new();
    let width = |id: &geopriv_metrics::MetricId| id.as_str().len().max(10);
    for (i, name) in sweep.space.names().iter().enumerate() {
        if i > 0 {
            let _ = write!(out, "  ");
        }
        let _ = write!(out, "{name:>12}");
    }
    for column in &sweep.columns {
        let _ = write!(out, "  {:>w$}", column.id.as_str(), w = width(&column.id));
    }
    let _ = writeln!(out);
    for (index, point) in sweep.points.iter().enumerate() {
        for (i, (_, value)) in point.values().iter().enumerate() {
            if i > 0 {
                let _ = write!(out, "  ");
            }
            let _ = write!(out, "{value:>12.6}");
        }
        for column in &sweep.columns {
            let _ = write!(out, "  {:>w$.4}", column.means[index], w = width(&column.id));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the fitted Equation-2-style models, one line per metric (one
/// line per axis for one-at-a-time fits).
pub fn suite_report(fitted: &FittedSuite) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fitted suite ({}):", fitted.axis_label());
    for model in &fitted.models {
        match &model.response {
            MetricResponse::Axis(fit) => {
                let _ = writeln!(
                    out,
                    "  {:<20} = {:+.4} {:+.4}·ln({})   R² = {:.3}   active zone [{:.5}, {:.5}]",
                    model.id.as_str(),
                    fit.model.intercept(),
                    fit.model.slope(),
                    fit.axis,
                    fit.model.r_squared(),
                    fit.active_zone.0,
                    fit.active_zone.1
                );
            }
            MetricResponse::PerAxis(fits) => {
                let _ = writeln!(out, "  {:<20} (one axis at a time)", model.id.as_str());
                for fit in fits.iter() {
                    let _ = writeln!(
                        out,
                        "    {:<18} = {:+.4} {:+.4}·ln({})   R² = {:.3}   active zone \
                         [{:.5}, {:.5}]",
                        fit.axis,
                        fit.model.intercept(),
                        fit.model.slope(),
                        fit.axis,
                        fit.model.r_squared(),
                        fit.active_zone.0,
                        fit.active_zone.1
                    );
                }
            }
            MetricResponse::Surface(surface) => {
                let mut terms = format!("{:+.4}", surface.regression.intercept());
                for (axis, coefficient) in
                    surface.axes.iter().zip(&surface.regression.coefficients()[1..])
                {
                    let scaled = match surface.scales
                        [surface.axes.iter().position(|a| a == axis).expect("aligned")]
                    {
                        geopriv_lppm::ParameterScale::Logarithmic => format!("ln({axis})"),
                        geopriv_lppm::ParameterScale::Linear => axis.clone(),
                    };
                    let _ = write!(terms, " {coefficient:+.4}·{scaled}");
                }
                let _ = writeln!(
                    out,
                    "  {:<20} = {}   R² = {:.3}",
                    model.id.as_str(),
                    terms,
                    surface.r_squared()
                );
            }
        }
    }
    out
}

/// Renders a configuration recommendation: one line per configuration axis,
/// then one prediction line per metric.
pub fn recommendation_report(recommendation: &Recommendation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Recommended configuration:");
    for ((name, value), (_, range)) in
        recommendation.point.values().iter().zip(&recommendation.feasible)
    {
        let _ = writeln!(
            out,
            "  {} = {:.5}  (feasible range [{:.5}, {:.5}])",
            name, value, range.0, range.1
        );
    }
    for (id, value) in &recommendation.predictions {
        let _ = writeln!(out, "  predicted {id} = {value:.3}");
    }
    out
}

/// Renders one metric's per-user response curves as CSV: one column per
/// configuration axis, then one column per user (`user-<id>`), one row per
/// design point. Returns `None` when the sweep recorded no user column for
/// the metric (dataset grain, or unknown id).
pub fn user_curves_csv(sweep: &SweepResult, id: &MetricId) -> Option<String> {
    let column = sweep.user_column(id)?;
    let mut out = String::new();
    let mut header = sweep.space.names().join(",");
    for user in &column.users {
        let _ = write!(header, ",{user}");
    }
    let _ = writeln!(out, "{header}");
    for (index, point) in sweep.points.iter().enumerate() {
        for (i, (_, value)) in point.values().iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ",");
            }
            let _ = write!(out, "{value:.6e}");
        }
        for curve in &column.curves {
            let _ = write!(out, ",{:.4}", curve[index]);
        }
        let _ = writeln!(out);
    }
    Some(out)
}

/// Renders a per-user recommendation as an aligned plain-text table: the
/// dataset-level anchor, one row per user (verdict, configuration point,
/// per-metric predictions under the user's own models), and the reason each
/// fallback user was assigned the dataset-level point.
pub fn per_user_table(recommendation: &PerUserRecommendation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Per-user recommendations ({} users, {} feasible, {} on the dataset-level fallback):",
        recommendation.users.len(),
        recommendation.feasible_count(),
        recommendation.fallback_count()
    );
    let _ = writeln!(out, "  dataset-level anchor: {}", recommendation.dataset);

    let axes: Vec<String> =
        recommendation.dataset.point.values().iter().map(|(name, _)| name.clone()).collect();
    let metrics: Vec<MetricId> =
        recommendation.dataset.predictions.iter().map(|(id, _)| id.clone()).collect();
    let metric_width = |id: &MetricId| id.as_str().len().max(10);
    let _ = write!(out, "  {:>12}  {:>10}", "user", "verdict");
    for axis in &axes {
        let _ = write!(out, "  {axis:>12}");
    }
    for id in &metrics {
        let _ = write!(out, "  {:>w$}", id.as_str(), w = metric_width(id));
    }
    let _ = writeln!(out);
    for user in &recommendation.users {
        let _ = write!(out, "  {:>12}  {:>10}", user.user.to_string(), user.verdict.label());
        for (_, value) in user.point.values() {
            let _ = write!(out, "  {value:>12.6}");
        }
        for id in &metrics {
            match user.predicted(id) {
                Some(value) => {
                    let _ = write!(out, "  {:>w$.4}", value, w = metric_width(id));
                }
                None => {
                    let _ = write!(out, "  {:>w$}", "-", w = metric_width(id));
                }
            }
        }
        let _ = writeln!(out);
    }
    let fallbacks: Vec<_> = recommendation.users.iter().filter(|u| u.used_fallback()).collect();
    if !fallbacks.is_empty() {
        let _ = writeln!(out, "  fallback policy: dataset-level point applied to:");
        for user in fallbacks {
            let _ = writeln!(out, "    {}: {}", user.user, user.verdict);
        }
    }
    out
}

/// Renders a per-user recommendation as CSV:
/// `user,verdict,fallback,<axes…>,<metric ids…>,reason` — predictions of
/// unmodeled users are empty cells, reasons are double-quoted.
pub fn per_user_csv(recommendation: &PerUserRecommendation) -> String {
    let mut out = String::new();
    let axes: Vec<String> =
        recommendation.dataset.point.values().iter().map(|(name, _)| name.clone()).collect();
    let metrics: Vec<MetricId> =
        recommendation.dataset.predictions.iter().map(|(id, _)| id.clone()).collect();
    let mut header = String::from("user,verdict,fallback");
    for axis in &axes {
        let _ = write!(header, ",{axis}");
    }
    for id in &metrics {
        let _ = write!(header, ",{id}");
    }
    let _ = writeln!(out, "{header},reason");
    for user in &recommendation.users {
        let _ =
            write!(out, "{},{},{}", user.user.value(), user.verdict.label(), user.used_fallback());
        for (_, value) in user.point.values() {
            let _ = write!(out, ",{value:.6e}");
        }
        for id in &metrics {
            match user.predicted(id) {
                Some(value) => {
                    let _ = write!(out, ",{value:.4}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let reason = match &user.verdict {
            UserVerdict::Feasible => String::new(),
            UserVerdict::Infeasible { reason } | UserVerdict::Unmodeled { reason } => {
                reason.clone()
            }
        };
        let _ = writeln!(out, ",\"{}\"", reason.replace('"', "\"\""));
    }
    out
}

// --- JSON export -----------------------------------------------------------
//
// The vendored `serde` is a marker-trait shim (see `vendor/README.md`), so
// machine-consumable output is rendered by hand with the shared
// `json::string` and `json::number`: floats in Rust's shortest round-trip
// `Display` (valid JSON numbers, bit-faithful on re-parse), non-finite
// values as `null`.

fn json_point(point: &geopriv_lppm::ConfigPoint, indent: &str) -> String {
    let entries: Vec<String> = point
        .values()
        .iter()
        .map(|(name, value)| format!("{indent}  {}: {}", json::string(name), json::number(*value)))
        .collect();
    format!("{{\n{}\n{indent}}}", entries.join(",\n"))
}

fn json_predictions(predictions: &[(MetricId, f64)], indent: &str) -> String {
    if predictions.is_empty() {
        return "{}".to_string();
    }
    let entries: Vec<String> = predictions
        .iter()
        .map(|(id, value)| {
            format!("{indent}  {}: {}", json::string(id.as_str()), json::number(*value))
        })
        .collect();
    format!("{{\n{}\n{indent}}}", entries.join(",\n"))
}

fn json_recommendation(recommendation: &Recommendation, indent: &str) -> String {
    let feasible: Vec<String> = recommendation
        .feasible
        .iter()
        .map(|(name, (lo, hi))| {
            format!(
                "{indent}    {}: {{\"min\": {}, \"max\": {}}}",
                json::string(name),
                json::number(*lo),
                json::number(*hi)
            )
        })
        .collect();
    format!(
        "{{\n{indent}  \"point\": {},\n{indent}  \"feasible\": {{\n{}\n{indent}  }},\n{indent}  \
         \"predictions\": {}\n{indent}}}",
        json_point(&recommendation.point, &format!("{indent}  ")),
        feasible.join(",\n"),
        json_predictions(&recommendation.predictions, &format!("{indent}  ")),
    )
}

/// Renders a [`Recommendation`] as a deterministic, pretty-printed JSON
/// object: the configuration point (axis order), per-axis feasible intervals
/// and per-metric predictions (suite order).
pub fn recommendation_to_json(recommendation: &Recommendation) -> String {
    format!("{}\n", json_recommendation(recommendation, ""))
}

/// Renders a [`PerUserRecommendation`] as deterministic JSON: the documented
/// fallback policy, the dataset-level anchor and one object per user with
/// its verdict, fallback flag, point and predictions.
pub fn per_user_recommendation_to_json(recommendation: &PerUserRecommendation) -> String {
    let mut users = Vec::with_capacity(recommendation.users.len());
    for user in &recommendation.users {
        let reason = match &user.verdict {
            UserVerdict::Feasible => String::new(),
            UserVerdict::Infeasible { reason } | UserVerdict::Unmodeled { reason } => {
                reason.clone()
            }
        };
        let mut entry = format!(
            "    {{\n      \"user\": {},\n      \"verdict\": {},\n      \"fallback\": {}",
            user.user.value(),
            json::string(user.verdict.label()),
            user.used_fallback()
        );
        if !reason.is_empty() {
            let _ = write!(entry, ",\n      \"reason\": {}", json::string(&reason));
        }
        let _ = write!(
            entry,
            ",\n      \"point\": {},\n      \"predictions\": {}\n    }}",
            json_point(&user.point, "      "),
            json_predictions(&user.predictions, "      ")
        );
        users.push(entry);
    }
    format!(
        "{{\n  \"fallback_policy\": {},\n  \"feasible_users\": {},\n  \"fallback_users\": {},\n  \
         \"dataset\": {},\n  \"users\": [\n{}\n  ]\n}}\n",
        json::string("infeasible and unmodeled users are assigned the dataset-level point"),
        recommendation.feasible_count(),
        recommendation.fallback_count(),
        json_recommendation(&recommendation.dataset, "  "),
        users.join(",\n")
    )
}

// --- JSON import -----------------------------------------------------------
//
// The exact inverse of the exporters above, built on the framework's own
// [`crate::json`] parser. This is the wire format the serving layer loads at
// startup: a `PerUserRecommendation` exported by the offline pipeline is the
// deployment artifact, so parsing is strict — unknown verdict labels,
// inconsistent fallback flags and miscounted summaries are typed errors, not
// silent repairs.

fn shape_error(path: &str, reason: &str) -> CoreError {
    CoreError::Parse { reason: format!("{path}: {reason}") }
}

fn required<'a>(value: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, CoreError> {
    value.get(key).ok_or_else(|| shape_error(path, &format!("missing member \"{key}\"")))
}

fn number_at(value: &JsonValue, path: &str) -> Result<f64, CoreError> {
    value.as_f64().ok_or_else(|| shape_error(path, &format!("expected a number, found {value}")))
}

fn point_at(value: &JsonValue, path: &str) -> Result<ConfigPoint, CoreError> {
    let members = value
        .members()
        .ok_or_else(|| shape_error(path, &format!("expected an object, found {value}")))?;
    if members.is_empty() {
        return Err(shape_error(path, "a configuration point needs at least one axis"));
    }
    let mut named = Vec::with_capacity(members.len());
    for (axis, coordinate) in members {
        named.push((axis.clone(), number_at(coordinate, &format!("{path}.{axis}"))?));
    }
    Ok(ConfigPoint::from_named(named))
}

fn predictions_at(value: &JsonValue, path: &str) -> Result<Vec<(MetricId, f64)>, CoreError> {
    let members = value
        .members()
        .ok_or_else(|| shape_error(path, &format!("expected an object, found {value}")))?;
    let mut predictions = Vec::with_capacity(members.len());
    for (id, prediction) in members {
        predictions.push((MetricId::new(id), number_at(prediction, &format!("{path}.{id}"))?));
    }
    Ok(predictions)
}

fn recommendation_at(value: &JsonValue, path: &str) -> Result<Recommendation, CoreError> {
    let point = point_at(required(value, path, "point")?, &format!("{path}.point"))?;
    let feasible_value = required(value, path, "feasible")?;
    let members = feasible_value.members().ok_or_else(|| {
        shape_error(
            &format!("{path}.feasible"),
            &format!("expected an object, found {feasible_value}"),
        )
    })?;
    let mut feasible = Vec::with_capacity(members.len());
    for (axis, interval) in members {
        let interval_path = format!("{path}.feasible.{axis}");
        let min = number_at(required(interval, &interval_path, "min")?, &interval_path)?;
        let max = number_at(required(interval, &interval_path, "max")?, &interval_path)?;
        feasible.push((axis.clone(), (min, max)));
    }
    let predictions =
        predictions_at(required(value, path, "predictions")?, &format!("{path}.predictions"))?;
    Ok(Recommendation { point, feasible, predictions })
}

fn user_at(value: &JsonValue, path: &str) -> Result<UserRecommendation, CoreError> {
    let id = required(value, path, "user")?
        .as_u64()
        .ok_or_else(|| shape_error(path, "\"user\" must be an unsigned integer"))?;
    let label = required(value, path, "verdict")?
        .as_str()
        .ok_or_else(|| shape_error(path, "\"verdict\" must be a string"))?;
    let reason = match value.get("reason") {
        Some(reason) => reason
            .as_str()
            .ok_or_else(|| shape_error(path, "\"reason\" must be a string"))?
            .to_string(),
        None => String::new(),
    };
    let verdict = match label {
        "feasible" => UserVerdict::Feasible,
        "infeasible" => UserVerdict::Infeasible { reason },
        "unmodeled" => UserVerdict::Unmodeled { reason },
        other => {
            return Err(shape_error(path, &format!("unknown verdict label \"{other}\"")));
        }
    };
    let fallback = required(value, path, "fallback")?
        .as_bool()
        .ok_or_else(|| shape_error(path, "\"fallback\" must be a boolean"))?;
    if fallback == verdict.is_feasible() {
        return Err(shape_error(
            path,
            &format!("fallback flag {fallback} contradicts verdict \"{}\"", verdict.label()),
        ));
    }
    let point = point_at(required(value, path, "point")?, &format!("{path}.point"))?;
    let predictions =
        predictions_at(required(value, path, "predictions")?, &format!("{path}.predictions"))?;
    Ok(UserRecommendation { user: UserId::new(id), verdict, point, predictions })
}

/// Parses the JSON produced by [`recommendation_to_json`] back into a
/// [`Recommendation`]. Exact inverse: re-rendering the parsed value yields
/// the input byte for byte (floats use the shortest round-trip form).
///
/// # Errors
///
/// Returns [`CoreError::Parse`] on malformed JSON or a document without the
/// expected members, naming the offending field path.
pub fn recommendation_from_json(json: &str) -> Result<Recommendation, CoreError> {
    recommendation_at(&JsonValue::parse(json)?, "$")
}

/// Parses the JSON produced by [`per_user_recommendation_to_json`] back into
/// a [`PerUserRecommendation`] — the serving layer's startup artifact.
///
/// Parsing is strict: verdict labels must be known, each user's `fallback`
/// flag must agree with her verdict, and the `feasible_users` /
/// `fallback_users` summaries must match the user rows (a mismatch means the
/// document was hand-edited or truncated).
///
/// # Errors
///
/// Returns [`CoreError::Parse`] on malformed JSON or any of the consistency
/// violations above, naming the offending field path.
pub fn per_user_recommendation_from_json(json: &str) -> Result<PerUserRecommendation, CoreError> {
    let value = JsonValue::parse(json)?;
    let dataset = recommendation_at(required(&value, "$", "dataset")?, "$.dataset")?;
    let rows = required(&value, "$", "users")?
        .elements()
        .ok_or_else(|| shape_error("$.users", "expected an array"))?;
    let mut users = Vec::with_capacity(rows.len());
    for (index, row) in rows.iter().enumerate() {
        users.push(user_at(row, &format!("$.users[{index}]"))?);
    }
    let recommendation = PerUserRecommendation { dataset, users };
    let feasible = required(&value, "$", "feasible_users")?
        .as_u64()
        .ok_or_else(|| shape_error("$.feasible_users", "expected an unsigned integer"))?;
    let fallback = required(&value, "$", "fallback_users")?
        .as_u64()
        .ok_or_else(|| shape_error("$.fallback_users", "expected an unsigned integer"))?;
    if feasible as usize != recommendation.feasible_count()
        || fallback as usize != recommendation.fallback_count()
    {
        return Err(shape_error(
            "$",
            &format!(
                "summary counts ({feasible} feasible, {fallback} fallback) do not match the \
                 user rows ({} feasible, {} fallback)",
                recommendation.feasible_count(),
                recommendation.fallback_count()
            ),
        ));
    }
    Ok(recommendation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MetricColumn, SweepMode};
    use crate::modeling::Modeler;
    use crate::objectives::{at_least, at_most, Objectives};
    use geopriv_lppm::{ConfigSpace, ParameterDescriptor, ParameterScale};
    use geopriv_metrics::{Direction, MetricId};

    fn sweep() -> SweepResult {
        let parameters: Vec<f64> =
            (0..30).map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / 29.0)).collect();
        let privacy: Vec<f64> =
            parameters.iter().map(|e| (0.84 + 0.17 * e.ln()).clamp(0.0, 0.45)).collect();
        let utility: Vec<f64> =
            parameters.iter().map(|e| (1.21 + 0.09 * e.ln()).clamp(0.2, 1.0)).collect();
        SweepResult::from_axis(
            "geo-indistinguishability",
            ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap(),
            &parameters,
            vec![
                MetricColumn {
                    id: MetricId::new("poi-retrieval"),
                    direction: Direction::LowerIsBetter,
                    runs: privacy.iter().map(|&v| vec![v, v]).collect(),
                    means: privacy,
                },
                MetricColumn {
                    id: MetricId::new("area-coverage"),
                    direction: Direction::HigherIsBetter,
                    runs: utility.iter().map(|&v| vec![v, v]).collect(),
                    means: utility,
                },
            ],
        )
        .unwrap()
    }

    fn grid_sweep() -> SweepResult {
        let space = ConfigSpace::new(vec![
            ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap(),
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
                id: MetricId::new("poi-retrieval"),
                direction: Direction::LowerIsBetter,
                runs: vec![],
                means: response,
            }],
        )
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let s = sweep();
        let csv = sweep_to_csv(&s);
        assert_eq!(csv.lines().count(), 31);
        assert!(csv.starts_with("epsilon,poi-retrieval,area-coverage"));
        assert!(csv.lines().next().unwrap().contains("poi-retrieval_std"));
        assert!(csv.lines().nth(1).unwrap().split(',').count() == 5);
    }

    #[test]
    fn multi_axis_csv_has_one_column_per_axis() {
        let csv = sweep_to_csv(&grid_sweep());
        assert!(csv.starts_with("epsilon,cell_size,poi-retrieval"));
        assert_eq!(csv.lines().count(), 26);
        assert_eq!(csv.lines().nth(1).unwrap().split(',').count(), 4);
    }

    #[test]
    fn irregular_adaptive_designs_render_row_per_point() {
        // An adaptive sweep is not a full factorial: drop interior points
        // and relabel the mode. Rendering is per design point, so the row
        // count tracks the irregular design exactly.
        let grid = grid_sweep();
        let keep: Vec<usize> = (0..grid.points.len()).filter(|i| i % 4 != 2).collect();
        let irregular = SweepResult::new(
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
        let csv = sweep_to_csv(&irregular);
        assert!(csv.starts_with("epsilon,cell_size,poi-retrieval"));
        assert_eq!(csv.lines().count(), 1 + keep.len());
        let table = sweep_to_table(&irregular);
        assert_eq!(table.lines().count(), 1 + keep.len());
        assert!(table.contains("cell_size"));
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let s = sweep();
        let table = sweep_to_table(&s);
        assert_eq!(table.lines().count(), 31);
        assert!(table.contains("poi-retrieval"));
        assert!(table.contains("area-coverage"));

        let grid_table = sweep_to_table(&grid_sweep());
        assert_eq!(grid_table.lines().count(), 26);
        assert!(grid_table.contains("cell_size"));
    }

    #[test]
    fn suite_and_recommendation_reports_mention_key_numbers() {
        let s = sweep();
        let fitted = Modeler::new().fit(&s).unwrap();
        let report = suite_report(&fitted);
        assert!(report.contains("poi-retrieval"));
        assert!(report.contains("area-coverage"));
        assert!(report.contains("R²"));

        let configurator = crate::configurator::Configurator::new(fitted);
        let recommendation = configurator.recommend(&Objectives::paper_example()).unwrap();
        let report = recommendation_report(&recommendation);
        assert!(report.contains("epsilon"));
        assert!(report.contains("predicted poi-retrieval"));
        assert!(report.contains("predicted area-coverage"));
    }

    fn per_user_recommendation() -> PerUserRecommendation {
        let sweep = crate::modeling::fixtures::per_user_sweep();
        let fitted = Modeler::new().fit(&sweep).unwrap();
        let per_user = Modeler::new().fit_per_user(&sweep).unwrap();
        crate::configurator::Configurator::new(fitted)
            .recommend_per_user(
                &per_user,
                &Objectives::new()
                    .require("poi-retrieval", at_most(0.15))
                    .unwrap()
                    .require("area-coverage", at_least(0.80))
                    .unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn user_curves_render_one_column_per_user() {
        let per_user = crate::modeling::fixtures::per_user_sweep();
        let csv = user_curves_csv(&per_user, &MetricId::new("area-coverage")).unwrap();
        assert!(csv.starts_with("epsilon,user-1,user-2,user-3,user-4"));
        assert_eq!(csv.lines().count(), per_user.len() + 1);
        assert_eq!(csv.lines().nth(1).unwrap().split(',').count(), 5);
        // Unknown metrics and dataset-grain sweeps have no user curves.
        assert!(user_curves_csv(&per_user, &MetricId::new("nope")).is_none());
        assert!(user_curves_csv(&sweep(), &MetricId::new("poi-retrieval")).is_none());
    }

    #[test]
    fn per_user_table_and_csv_cover_every_user_and_fallback() {
        let recommendation = per_user_recommendation();
        let table = per_user_table(&recommendation);
        assert!(table.contains("4 users, 1 feasible, 3 on the dataset-level fallback"));
        assert!(table.contains("dataset-level anchor"));
        for user in ["user-1", "user-2", "user-3", "user-4"] {
            assert!(table.contains(user), "missing {user} in:\n{table}");
        }
        assert!(table.contains("feasible"));
        assert!(table.contains("unmodeled"));
        assert!(table.contains("fallback policy: dataset-level point applied to:"));

        let csv = per_user_csv(&recommendation);
        assert!(csv.starts_with("user,verdict,fallback,epsilon,poi-retrieval,area-coverage,reason"));
        assert_eq!(csv.lines().count(), 5);
        let feasible_row = csv.lines().nth(1).unwrap();
        assert!(feasible_row.starts_with("1,feasible,false,"));
        // Unmodeled users have empty prediction cells and a quoted reason.
        // (User order is first-appearance across the user columns: 1, 2, 4
        // from the privacy column, then 3 from the utility column.)
        let unmodeled_row = csv.lines().nth(3).unwrap();
        assert!(unmodeled_row.starts_with("4,unmodeled,true,"), "row: {unmodeled_row}");
        assert!(unmodeled_row.contains(",,"));
        assert!(unmodeled_row.ends_with('"'));
    }

    #[test]
    fn json_exports_are_valid_and_deterministic() {
        let s = sweep();
        let fitted = Modeler::new().fit(&s).unwrap();
        let recommendation = crate::configurator::Configurator::new(fitted)
            .recommend(&Objectives::paper_example())
            .unwrap();
        let json = recommendation_to_json(&recommendation);
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"point\""));
        assert!(json.contains("\"epsilon\""));
        assert!(json.contains("\"feasible\""));
        assert!(json.contains("\"min\""));
        assert!(json.contains("\"predictions\""));
        assert!(json.contains("\"poi-retrieval\""));
        assert_eq!(json, recommendation_to_json(&recommendation));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let per_user = per_user_recommendation();
        let json = per_user_recommendation_to_json(&per_user);
        assert!(json.contains("\"fallback_policy\""));
        assert!(json.contains("\"dataset\""));
        assert!(json.contains("\"users\""));
        assert!(json.contains("\"verdict\": \"feasible\""));
        assert!(json.contains("\"verdict\": \"unmodeled\""));
        assert!(json.contains("\"reason\""));
        assert!(json.contains("\"feasible_users\": 1"));
        assert!(json.contains("\"fallback_users\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn recommendation_json_round_trips() {
        let s = sweep();
        let fitted = Modeler::new().fit(&s).unwrap();
        let recommendation = crate::configurator::Configurator::new(fitted)
            .recommend(&Objectives::paper_example())
            .unwrap();
        let json = recommendation_to_json(&recommendation);
        let parsed = recommendation_from_json(&json).unwrap();
        // Struct equality AND byte equality of the re-render: the parser is
        // the exact inverse of the exporter.
        assert_eq!(parsed, recommendation);
        assert_eq!(recommendation_to_json(&parsed), json);
    }

    #[test]
    fn per_user_json_round_trips() {
        let recommendation = per_user_recommendation();
        let json = per_user_recommendation_to_json(&recommendation);
        let parsed = per_user_recommendation_from_json(&json).unwrap();
        assert_eq!(parsed, recommendation);
        assert_eq!(per_user_recommendation_to_json(&parsed), json);
    }

    #[test]
    fn large_per_user_documents_round_trip() {
        // 2,400 users render to about a megabyte. String parsing used to
        // re-validate the rest of the input for every character, so a
        // document this size took minutes to read back.
        let template = per_user_recommendation();
        let users = (0..2_400u64)
            .map(|i| {
                let mut row = template.users[i as usize % template.users.len()].clone();
                row.user = UserId::new(i + 1);
                row
            })
            .collect();
        let recommendation = PerUserRecommendation { dataset: template.dataset, users };
        let json = per_user_recommendation_to_json(&recommendation);
        let parsed = per_user_recommendation_from_json(&json).unwrap();
        assert_eq!(parsed, recommendation);
        assert_eq!(per_user_recommendation_to_json(&parsed), json);
    }

    #[test]
    fn tampered_per_user_documents_are_rejected() {
        let json = per_user_recommendation_to_json(&per_user_recommendation());

        // Summary counts must match the user rows.
        let miscounted = json.replacen("\"feasible_users\": 1", "\"feasible_users\": 2", 1);
        let err = per_user_recommendation_from_json(&miscounted).unwrap_err();
        assert!(err.to_string().contains("do not match the user rows"), "{err}");

        // The fallback flag must agree with the verdict.
        let contradicted = json.replacen(
            "\"verdict\": \"feasible\",\n      \"fallback\": false",
            "\"verdict\": \"feasible\",\n      \"fallback\": true",
            1,
        );
        let err = per_user_recommendation_from_json(&contradicted).unwrap_err();
        assert!(err.to_string().contains("contradicts verdict"), "{err}");

        // Unknown verdict labels are not repaired.
        let unknown = json.replacen("\"verdict\": \"unmodeled\"", "\"verdict\": \"undecided\"", 1);
        let err = per_user_recommendation_from_json(&unknown).unwrap_err();
        assert!(err.to_string().contains("unknown verdict label"), "{err}");

        // Missing members name the field path.
        let err = per_user_recommendation_from_json("{}").unwrap_err();
        assert!(err.to_string().contains("missing member \"dataset\""), "{err}");
        let err = recommendation_from_json("{\"point\": {}}").unwrap_err();
        assert!(err.to_string().contains("at least one axis"), "{err}");
        let err = recommendation_from_json("[1, 2]").unwrap_err();
        assert!(err.to_string().contains("missing member \"point\""), "{err}");
        let err = recommendation_from_json("not json").unwrap_err();
        assert!(matches!(err, CoreError::Parse { .. }), "{err}");
    }

    #[test]
    fn json_strings_and_numbers_are_escaped() {
        assert_eq!(json::string("plain"), "\"plain\"");
        assert_eq!(json::string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json::string("line\nbreak\tand\u{1}"), "\"line\\nbreak\\tand\\u0001\"");
        assert_eq!(json::number(0.5), "0.5");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
    }

    #[test]
    fn surface_reports_render_every_axis() {
        let fitted = Modeler::new().fit(&grid_sweep()).unwrap();
        let report = suite_report(&fitted);
        assert!(report.starts_with("Fitted suite (epsilon × cell_size):"));
        assert!(report.contains("ln(epsilon)"));
        assert!(report.contains("ln(cell_size)"));

        let recommendation = crate::configurator::Configurator::new(fitted)
            .recommend(
                &Objectives::new()
                    .require("poi-retrieval", at_most(0.4))
                    .unwrap()
                    .require("poi-retrieval", at_least(0.0))
                    .unwrap(),
            )
            .unwrap();
        let report = recommendation_report(&recommendation);
        assert!(report.contains("epsilon ="));
        assert!(report.contains("cell_size ="));
    }
}
