//! Golden-file tests of the JSON exporters: the rendered bytes of a fully
//! deterministic synthetic study are pinned under `tests/golden/`, so any
//! accidental format drift (key order, indentation, float rendering) fails
//! loudly. Regenerate intentionally with `UPDATE_GOLDEN=1 cargo test --test
//! json_export`.

use geopriv::prelude::*;
use geopriv_core::experiment::UserColumn;
use geopriv_core::report;
use geopriv_lppm::ParameterDescriptor;
use geopriv_mobility::UserId;

/// A deterministic synthetic per-user sweep (no RNG anywhere): users 1 and 2
/// follow Equation 2 with per-user shifts, user 3 has a flat utility
/// response and ends up unmodeled.
fn synthetic_per_user_sweep() -> SweepResult {
    let points = 41;
    let parameters: Vec<f64> =
        (0..points).map(|i| 1e-4 * (1.0f64 / 1e-4).powf(i as f64 / (points - 1) as f64)).collect();
    let privacy_curve = |shift: f64| -> Vec<f64> {
        parameters.iter().map(|e| (0.84 + shift + 0.17 * e.ln()).clamp(0.0, 0.45)).collect()
    };
    let utility_curve = |shift: f64| -> Vec<f64> {
        parameters.iter().map(|e| (1.21 + shift + 0.09 * e.ln()).clamp(0.2, 1.0)).collect()
    };
    let space = ConfigSpace::single(ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap());
    let design: Vec<_> =
        parameters.iter().map(|&value| space.point_from_coords(&[value]).unwrap()).collect();
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
            users: vec![UserId::new(1), UserId::new(2), UserId::new(3)],
            curves: vec![privacy_curve(0.0), privacy_curve(0.05), privacy_curve(-0.02)],
        },
        UserColumn {
            id: MetricId::new("area-coverage"),
            direction: Direction::HigherIsBetter,
            users: vec![UserId::new(1), UserId::new(2), UserId::new(3)],
            curves: vec![utility_curve(0.0), utility_curve(-0.03), vec![0.5; points]],
        },
    ];
    SweepResult::with_user_columns(
        "geo-indistinguishability",
        space,
        SweepMode::Grid,
        design,
        columns,
        user_columns,
    )
    .unwrap()
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path}; create with UPDATE_GOLDEN=1"));
    assert_eq!(expected, actual, "{name} drifted; regenerate with UPDATE_GOLDEN=1 if intended");
}

#[test]
fn per_user_golden_file_round_trips_through_the_parser() {
    let path = format!("{}/tests/golden/per_user_recommendation.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap();
    let parsed = report::per_user_recommendation_from_json(&golden).unwrap();
    assert_eq!(report::per_user_recommendation_to_json(&parsed), golden);
    assert_eq!(parsed.users.len(), 3);
    assert_eq!(parsed.feasible_count() + parsed.fallback_count(), 3);
    // User 3 is unmodeled in the synthetic study and rides the fallback.
    let fallback = parsed.users.iter().find(|row| row.user == UserId::new(3)).unwrap();
    assert!(fallback.used_fallback());
    assert_eq!(fallback.point, parsed.dataset.point);
}

#[test]
fn per_user_recommendation_json_matches_the_golden_file() {
    let sweep = synthetic_per_user_sweep();
    let fitted = Modeler::new().fit(&sweep).unwrap();
    let per_user = Modeler::new().fit_per_user(&sweep).unwrap();
    let recommendation = Configurator::new(fitted)
        .recommend_per_user(
            &per_user,
            &Objectives::new()
                .require("poi-retrieval", at_most(0.15))
                .unwrap()
                .require("area-coverage", at_least(0.80))
                .unwrap(),
        )
        .unwrap();
    check_golden(
        "per_user_recommendation.json",
        &report::per_user_recommendation_to_json(&recommendation),
    );
}
