//! Fixture-driven tests: one good and one bad file per lint, scanned
//! exactly as the engine would scan a real workspace file (zone lookup
//! included), with exact `line`/`lint` assertions. R1 is left out: a lone
//! fixture's items have no callers, and R1 has its own tests
//! (`reachability.rs`).
//!
//! The fixture sources live under `tests/fixtures/` — a directory the
//! engine itself refuses to scan (`config::EXCLUDED`), so the hostile
//! files can never leak into the repository's own audit.

use geopriv_audit::engine::FileFinding;
use geopriv_audit::{scan_sources, Finding, Lint};

/// Scans `source` as if it sat at `zone_path` in the repository, alone.
fn findings(zone_path: &str, source: &str) -> Vec<(u32, Lint)> {
    let report = scan_sources(&[(zone_path, source)]);
    report
        .findings
        .into_iter()
        .filter(|f| f.finding.lint != Lint::R1)
        .map(|f| (f.finding.line, f.finding.lint))
        .collect()
}

/// A deterministic-core path (D1/D2/D3 apply, P1 does not).
const DET: &str = "crates/core/src/fixture.rs";
/// A request-path file (P1/D3 apply, D2 does not).
const REQ: &str = "crates/serve/src/fixture.rs";
/// A vendored-shim file (SAFETY-comment rule only).
const VENDOR: &str = "vendor/shim/src/fixture.rs";

#[test]
fn d1_flags_hash_map_iteration_in_deterministic_code() {
    let found = findings(DET, include_str!("fixtures/d1_bad.rs"));
    assert_eq!(found, vec![(5, Lint::D1)]);
}

#[test]
fn d1_accepts_btreemap_iteration_and_hash_point_lookups() {
    assert_eq!(findings(DET, include_str!("fixtures/d1_good.rs")), vec![]);
}

#[test]
fn d2_flags_wall_clock_reads_in_deterministic_code() {
    let found = findings(DET, include_str!("fixtures/d2_bad.rs"));
    assert_eq!(found, vec![(2, Lint::D2), (7, Lint::D2)]);
}

#[test]
fn d2_accepts_injected_timestamps() {
    assert_eq!(findings(DET, include_str!("fixtures/d2_good.rs")), vec![]);
}

#[test]
fn d2_does_not_apply_in_timing_zones() {
    // The same wall-clock reads are fine where the zone map says so.
    assert_eq!(findings("geobench/src/fixture.rs", include_str!("fixtures/d2_bad.rs")), vec![]);
}

#[test]
fn d2_flags_wall_clock_reads_in_the_reproduction_bins() {
    // The paper's reproductions print figures, not timings: no clock there.
    let found = findings("crates/bench/src/bin/fig1.rs", include_str!("fixtures/d2_bad.rs"));
    assert_eq!(found, vec![(2, Lint::D2), (7, Lint::D2)]);
}

#[test]
fn d3_flags_entropy_seeding() {
    let found = findings(DET, include_str!("fixtures/d3_bad.rs"));
    assert_eq!(found, vec![(4, Lint::D3), (8, Lint::D3)]);
}

#[test]
fn d3_accepts_derived_seeds() {
    assert_eq!(findings(DET, include_str!("fixtures/d3_good.rs")), vec![]);
}

#[test]
fn p1_flags_every_panic_surface_on_the_request_path() {
    let found = findings(REQ, include_str!("fixtures/p1_bad.rs"));
    assert_eq!(
        found,
        vec![(2, Lint::P1), (6, Lint::P1), (10, Lint::P1), (14, Lint::P1), (18, Lint::P1)]
    );
}

#[test]
fn p1_accepts_typed_errors_defaults_and_full_range_slices() {
    assert_eq!(findings(REQ, include_str!("fixtures/p1_good.rs")), vec![]);
}

#[test]
fn p1_does_not_apply_in_deterministic_only_zones() {
    // The same panic surfaces scanned under a deterministic-core path:
    // P1 is not in that zone's lint set, so nothing fires.
    assert_eq!(findings(DET, include_str!("fixtures/p1_bad.rs")), vec![]);
}

#[test]
fn u1_requires_forbid_on_crate_roots() {
    let found = findings("crates/geo/src/lib.rs", include_str!("fixtures/u1_bad.rs"));
    assert_eq!(found, vec![(1, Lint::U1)]);
    assert_eq!(findings("crates/geo/src/lib.rs", include_str!("fixtures/u1_good.rs")), vec![]);
}

#[test]
fn u1_requires_safety_comments_on_vendor_unsafe() {
    let found = findings(VENDOR, include_str!("fixtures/u1_vendor_bad.rs"));
    assert_eq!(found, vec![(2, Lint::U1)]);
    assert_eq!(findings(VENDOR, include_str!("fixtures/u1_vendor_good.rs")), vec![]);
}

#[test]
fn allow_discipline_is_enforced() {
    let found = findings(REQ, include_str!("fixtures/allow_bad.rs"));
    // Line 2: directive without a reason (A1) — so line 3's indexing still
    // stands. Line 7: reasoned directive that suppresses nothing (A2).
    assert_eq!(found, vec![(2, Lint::A1), (3, Lint::P1), (7, Lint::A2)]);
}

#[test]
fn reasoned_allows_suppress_exactly_their_finding() {
    assert_eq!(findings(REQ, include_str!("fixtures/allow_good.rs")), vec![]);
}

#[test]
fn uncovered_files_are_their_own_finding() {
    let found = findings("rogue/orphan.rs", "pub fn f() {}\n");
    assert_eq!(found.len(), 1);
    assert_eq!(found.first().map(|f| f.1), Some(Lint::Z0));
}

#[test]
fn findings_render_as_file_line_id_message() {
    let finding = FileFinding {
        file: "crates/serve/src/fixture.rs".to_string(),
        finding: Finding { line: 6, lint: Lint::P1, message: "boom".to_string() },
    };
    assert_eq!(finding.render(), "crates/serve/src/fixture.rs:6: P1 boom");
}
