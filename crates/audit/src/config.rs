//! The committed zone map: which contract lints apply where.
//!
//! This file **is** the configuration — reviewed and versioned like any
//! other code. Every `.rs` file in the repository must fall under at least
//! one zone (the engine reports `Z0` for uncovered files), so nothing is
//! ever exempted *by silence*: the benchmark package and the middleware
//! timing layer, for example, are allowed to read wall clocks because their
//! zone says so, visibly, below.
//!
//! Zone semantics:
//! - A file may match several zones; the lints applied are the union.
//! - Each rule lists which of its lints also apply inside `#[cfg(test)]` /
//!   `#[test]` regions. Panic-freedom (P1) deliberately *includes* tests on
//!   the serving request path (hostile-client tests must exercise error
//!   paths, not mask them with `unwrap`) and *excludes* them on the sweep
//!   hot path, where panicking assertions are the test mechanism itself.

use crate::lints::Lint;

/// One zone rule: a path prefix (or exact file) and the lints it enables.
#[derive(Debug, Clone, Copy)]
pub struct ZoneRule {
    /// Human-readable zone name, shown in findings and docs.
    pub zone: &'static str,
    /// Repo-relative path prefix (`/`-separated). A file matches when its
    /// path equals the prefix or starts with `prefix` + `/`.
    pub prefix: &'static str,
    /// Lints enforced in non-test code.
    pub lints: &'static [Lint],
    /// The subset of `lints` also enforced inside test regions.
    pub test_lints: &'static [Lint],
}

/// Lints for deterministic-core zones: iteration order (D1), wall clock
/// (D2), entropy seeding (D3), the unsafe-code ban (U1) and reachability
/// (R1). Inside test regions only D3 and U1 apply — a test may iterate a
/// scratch map to assert set-equality, but may never draw entropy
/// (derandomized tests are themselves a workspace contract).
const DETERMINISTIC: &[Lint] = &[Lint::D1, Lint::D2, Lint::D3, Lint::U1, Lint::R1];
const DETERMINISTIC_TESTS: &[Lint] = &[Lint::D3, Lint::U1];

/// Lints for the serving request path: panic-freedom (P1) everywhere,
/// including tests (see module docs), plus D3/U1, and R1 outside tests.
const REQUEST_PATH: &[Lint] = &[Lint::P1, Lint::D3, Lint::U1, Lint::R1];
const REQUEST_PATH_TESTS: &[Lint] = &[Lint::P1, Lint::D3, Lint::U1];

/// Timing-allowed zones: D2 is deliberately absent — these measure wall
/// time as their purpose. Everything else still applies.
const TIMING: &[Lint] = &[Lint::D3, Lint::U1];

/// Test-support zones (integration tests, examples): deterministic seeding
/// and the unsafe ban still hold.
const SUPPORT: &[Lint] = &[Lint::D3, Lint::U1];

/// Vendored shims: the `SAFETY:`-comment rule (U1) only. Vendor code is
/// exempt from the crate-root `forbid(unsafe_code)` requirement but every
/// `unsafe` block must justify itself.
const VENDOR: &[Lint] = &[Lint::U1];

/// The committed zone map. Order matters only for display; matching is
/// by union over all rules.
pub const ZONES: &[ZoneRule] = &[
    // Deterministic core: bit-identical output is the contract.
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/geo/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/mobility/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/lppm/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/metrics/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/analysis/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/core/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    // The umbrella facade crate re-exports the deterministic pipeline.
    ZoneRule {
        zone: "deterministic-core",
        prefix: "src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    // The serving layer's deterministic files: the registry derives seeds
    // and replays streams; the protocol renders wire bytes. Both must be
    // bit-stable, so they sit in the deterministic zone *and* the request
    // path below.
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/serve/src/registry.rs",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/serve/src/protocol.rs",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    // The paper's reproduction binaries: a figure must print the same bytes
    // on every run.
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/bench",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    // The auditor itself renders findings; the gate's output is sorted and
    // must be the same on every run.
    ZoneRule {
        zone: "deterministic-core",
        prefix: "crates/audit/src",
        lints: DETERMINISTIC,
        test_lints: DETERMINISTIC_TESTS,
    },
    // Request path: a hostile client must not be able to panic the server.
    ZoneRule {
        zone: "request-path",
        prefix: "crates/serve/src",
        lints: REQUEST_PATH,
        test_lints: REQUEST_PATH_TESTS,
    },
    // Sweep hot path: PR 7 replaced the hot-path `expect`s with typed
    // `CoreError::Internal`; P1 keeps them out. Tests are exempt from P1
    // here (assertions panic by design) but D1–D3 still apply through the
    // deterministic-core rule above.
    ZoneRule {
        zone: "sweep-hot-path",
        prefix: "crates/core/src/experiment.rs",
        lints: &[Lint::P1],
        test_lints: &[],
    },
    ZoneRule {
        zone: "sweep-hot-path",
        prefix: "crates/core/src/campaign.rs",
        lints: &[Lint::P1],
        test_lints: &[],
    },
    // The measurement cache decodes untrusted bytes (a corrupted file must
    // fall back, never panic) and sits on the cached sweep's hot path.
    ZoneRule {
        zone: "sweep-hot-path",
        prefix: "crates/core/src/cache.rs",
        lints: &[Lint::P1],
        test_lints: &[],
    },
    // Timing-allowed zones — wall-clock reads are their purpose. Explicit
    // entries, not silent omissions (see module docs).
    ZoneRule {
        zone: "timing",
        prefix: "crates/serve/src/middleware.rs",
        lints: TIMING,
        test_lints: TIMING,
    },
    ZoneRule {
        zone: "timing",
        prefix: "crates/serve/src/server.rs",
        lints: TIMING,
        test_lints: TIMING,
    },
    ZoneRule {
        zone: "timing",
        prefix: "crates/serve/src/client.rs",
        lints: TIMING,
        test_lints: TIMING,
    },
    // Integration tests and examples.
    ZoneRule { zone: "tests", prefix: "tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule { zone: "tests", prefix: "crates/geo/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule {
        zone: "tests",
        prefix: "crates/mobility/tests",
        lints: SUPPORT,
        test_lints: SUPPORT,
    },
    ZoneRule { zone: "tests", prefix: "crates/lppm/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule { zone: "tests", prefix: "crates/metrics/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule {
        zone: "tests",
        prefix: "crates/analysis/tests",
        lints: SUPPORT,
        test_lints: SUPPORT,
    },
    ZoneRule { zone: "tests", prefix: "crates/core/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule { zone: "tests", prefix: "crates/serve/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule { zone: "tests", prefix: "crates/audit/tests", lints: SUPPORT, test_lints: SUPPORT },
    ZoneRule { zone: "examples", prefix: "examples", lints: SUPPORT, test_lints: SUPPORT },
    // The benchmark package times the workspace; wall-clock reads are its
    // purpose. Its thread-CPU clock and core pinning call libc, so U1 runs
    // in vendor mode there (see `SAFETY_COMMENT_MODE`).
    ZoneRule { zone: "timing", prefix: "geobench", lints: TIMING, test_lints: TIMING },
    // Vendored shims: `// SAFETY:` justification on every unsafe block.
    ZoneRule { zone: "vendor", prefix: "vendor", lints: VENDOR, test_lints: VENDOR },
];

/// Paths where U1 runs in vendor mode: `unsafe` is allowed when a
/// `// SAFETY:` comment justifies it, and no crate root must forbid it.
/// The vendored shims stand in for external crates; the benchmark calls
/// libc for thread CPU time and core affinity.
pub const SAFETY_COMMENT_MODE: &[&str] = &["vendor", "geobench"];

/// Whether U1 runs in vendor mode for `path` (repo-relative, `/`-separated).
pub fn is_safety_comment_mode(path: &str) -> bool {
    SAFETY_COMMENT_MODE.iter().any(|prefix| matches_prefix(path, prefix))
}

/// R1's roots outside the library zones: the reproduction bins, the
/// linter's own CLI, the examples and the benchmark. Every non-test token
/// of these files names something the repository runs, so each of them
/// must run, not only compile, in CI.
pub const ROOTS: &[&str] =
    &["crates/bench/src/bin", "crates/audit/src/main.rs", "examples", "geobench"];

/// Whether `path` (repo-relative, `/`-separated) is one of R1's roots.
pub fn is_root(path: &str) -> bool {
    ROOTS.iter().any(|prefix| matches_prefix(path, prefix))
}

/// Paths never scanned (build output, the linter's own hostile fixtures).
pub const EXCLUDED: &[&str] = &["target", "geobench/target", "crates/audit/tests/fixtures", ".git"];

/// Whether `path` (repo-relative, `/`-separated) is excluded from scanning.
pub fn is_excluded(path: &str) -> bool {
    EXCLUDED.iter().any(|prefix| matches_prefix(path, prefix))
}

/// All zone rules matching `path`.
pub fn zones_for(path: &str) -> Vec<&'static ZoneRule> {
    ZONES.iter().filter(|rule| matches_prefix(path, rule.prefix)).collect()
}

fn matches_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_both_deterministic_and_request_path() {
        let zones: Vec<&str> =
            zones_for("crates/serve/src/registry.rs").iter().map(|z| z.zone).collect();
        assert!(zones.contains(&"deterministic-core"));
        assert!(zones.contains(&"request-path"));
    }

    #[test]
    fn middleware_is_timing_allowed_but_still_request_path() {
        let zones: Vec<&str> =
            zones_for("crates/serve/src/middleware.rs").iter().map(|z| z.zone).collect();
        assert!(zones.contains(&"timing"));
        assert!(zones.contains(&"request-path"));
        // And no deterministic zone: D2 must not apply.
        assert!(!zones.contains(&"deterministic-core"));
    }

    #[test]
    fn benchmark_is_timing_allowed_with_vendor_mode_unsafe() {
        let zones: Vec<&str> =
            zones_for("geobench/src/calibrate.rs").iter().map(|z| z.zone).collect();
        assert_eq!(zones, vec!["timing"]);
        assert!(zones_for("geobench/build.rs").iter().all(|z| z.zone == "timing"));
        // Its libc calls need `// SAFETY:` comments, not a crate-root forbid.
        assert!(is_safety_comment_mode("geobench/src/calibrate.rs"));
        assert!(is_safety_comment_mode("vendor/rand/src/lib.rs"));
        assert!(!is_safety_comment_mode("crates/bench/src/lib.rs"));
        assert!(!is_safety_comment_mode("geobenchmarks/src/main.rs"));
        assert!(is_excluded("geobench/target/release/build/out.rs"));
    }

    #[test]
    fn prefix_matching_respects_path_boundaries() {
        assert!(matches_prefix("src/lib.rs", "src"));
        assert!(!matches_prefix("srcery/lib.rs", "src"));
        assert!(matches_prefix("vendor/rand/src/lib.rs", "vendor"));
    }

    #[test]
    fn r1_is_armed_in_every_library_zone_and_never_in_tests() {
        for rule in ZONES {
            let library = rule.prefix.starts_with("crates/") && rule.prefix.ends_with("/src")
                || rule.prefix == "src";
            assert!(!library || rule.lints.contains(&Lint::R1), "{}", rule.prefix);
            assert!(!rule.test_lints.contains(&Lint::R1), "{}", rule.prefix);
        }
        assert!(is_root("crates/bench/src/bin/fig1.rs"));
        assert!(is_root("geobench/build.rs"));
        assert!(!is_root("crates/bench/src/lib.rs"));
        assert!(!is_root("examplesque/main.rs"));
    }

    #[test]
    fn fixtures_are_excluded_from_scanning() {
        assert!(is_excluded("crates/audit/tests/fixtures/d1_bad.rs"));
        assert!(!is_excluded("crates/audit/tests/fixtures.rs"));
    }
}
