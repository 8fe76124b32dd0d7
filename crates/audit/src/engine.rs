//! The audit engine: walks the workspace, applies the zone map to every
//! `.rs` file, and reports every finding. The tree has none: there is no
//! ledger of tolerated findings, so the gate is zero.

use crate::config::{is_excluded, is_root, is_safety_comment_mode, zones_for};
use crate::lints::{scan_source, unreached, Finding, Lint, Role, ScanOptions};
use std::fs;
use std::path::{Path, PathBuf};

/// One finding with its repo-relative file path attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// The finding itself.
    pub finding: Finding,
}

impl FileFinding {
    /// Renders as `file:line: ID message` — the one format everything
    /// (terminal, CI log, fixture tests) consumes.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file,
            self.finding.line,
            self.finding.lint.id(),
            self.finding.message
        )
    }
}

/// Result of scanning the whole tree.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Findings that survived allow-comments, sorted by (file, line, lint).
    pub findings: Vec<FileFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scans every `.rs` file under `root` according to the zone map.
///
/// # Errors
///
/// Returns an error string when the tree cannot be walked or a file cannot
/// be read — IO problems, not lint findings.
pub fn scan_tree(root: &Path) -> Result<AuditReport, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let sources = files
        .into_iter()
        .map(|rel| match fs::read_to_string(root.join(&rel)) {
            Ok(source) => Ok((rel, source)),
            Err(e) => Err(format!("failed to read {rel}: {e}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sources: Vec<(&str, &str)> =
        sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    Ok(scan_sources(&sources))
}

/// Scans `(repo-relative path, source)` files as one tree: first judges
/// R1 over the whole tree's name graph, then scans each file with the zone
/// map's lints and its share of R1's findings.
pub fn scan_sources(sources: &[(&str, &str)]) -> AuditReport {
    let roles: Vec<(Role, &str)> =
        sources.iter().map(|&(rel, source)| (role(rel), source)).collect();
    let mut report = AuditReport { findings: Vec::new(), files_scanned: sources.len() };
    for (&(rel, source), r1) in sources.iter().zip(unreached(&roles)) {
        for finding in scan(rel, source, r1) {
            report.findings.push(FileFinding { file: rel.to_string(), finding });
        }
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.lint).cmp(&(&b.file, b.finding.line, b.finding.lint))
    });
    report
}

/// What `rel` is to R1: a root (a bin, an example, the benchmark), a
/// library file of a zone where R1 is armed, or neither.
fn role(rel: &str) -> Role {
    if is_root(rel) {
        Role::Root
    } else if zones_for(rel).iter().any(|zone| zone.lints.contains(&Lint::R1)) {
        Role::Library
    } else {
        Role::Ignored
    }
}

/// Scans one file as the engine does: zone lookup, crate-root detection,
/// vendor mode, then the token-level lints, with `r1` its R1 findings.
fn scan(rel: &str, source: &str, r1: Vec<Finding>) -> Vec<Finding> {
    let zones = zones_for(rel);
    if zones.is_empty() {
        return vec![Finding {
            line: 1,
            lint: Lint::Z0,
            message: format!(
                "`{rel}` is covered by no zone rule — add it to the zone map in \
                 crates/audit/src/config.rs (coverage must be explicit, never silent)"
            ),
        }];
    }
    let vendor = is_safety_comment_mode(rel);
    let mut options = ScanOptions {
        vendor,
        require_forbid: !vendor && is_crate_root(rel),
        ..ScanOptions::default()
    };
    for zone in &zones {
        for &lint in zone.lints {
            if !options.lints.contains(&lint) {
                options.lints.push(lint);
            }
        }
        for &lint in zone.test_lints {
            if !options.test_lints.contains(&lint) {
                options.test_lints.push(lint);
            }
        }
    }
    scan_source(source, &options, r1)
}

/// Whether `rel` is a crate-root file that must carry the forbid attribute.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(rel) => rel.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if is_excluded(&rel) || rel.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, files)?;
        } else if rel.ends_with(".rs") {
            files.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(line, lint)` of `source` scanned at `rel`, with no R1 findings.
    fn found(rel: &str, source: &str) -> Vec<(u32, Lint)> {
        scan(rel, source, Vec::new()).iter().map(|f| (f.line, f.lint)).collect()
    }

    #[test]
    fn zone_lookup_drives_scan_file() {
        let src = "fn f(x: Option<u32>) -> u32 { let _t = Instant::now(); x.unwrap() }";
        // A request-path file: P1 applies, D2 does not.
        assert_eq!(found("crates/serve/src/server.rs", src), vec![(1, Lint::P1)]);
        // A deterministic-core file: D2 applies, P1 does not.
        assert_eq!(found("crates/core/src/modeling.rs", src), vec![(1, Lint::D2)]);
        // An uncovered file is its own finding.
        assert_eq!(found("rogue/file.rs", "fn f() {}"), vec![(1, Lint::Z0)]);
        // The benchmark: wall clocks allowed, `unsafe` only with `// SAFETY:`.
        let src = "fn f() { let _t = Instant::now(); unsafe { g() } }\n\
                   // SAFETY: g has no preconditions\n\
                   fn h() { unsafe { g() } }\n";
        assert_eq!(found("geobench/src/calibrate.rs", src), vec![(1, Lint::U1)]);
    }

    #[test]
    fn r1_roles_follow_the_zone_map() {
        assert_eq!(role("crates/bench/src/bin/fig1.rs"), Role::Root);
        assert_eq!(role("crates/audit/src/main.rs"), Role::Root);
        assert_eq!(role("examples/quickstart.rs"), Role::Root);
        assert_eq!(role("geobench/src/main.rs"), Role::Root);
        assert_eq!(role("crates/bench/src/lib.rs"), Role::Library);
        assert_eq!(role("crates/serve/src/middleware.rs"), Role::Library);
        assert_eq!(role("src/lib.rs"), Role::Library);
        assert_eq!(role("tests/determinism.rs"), Role::Ignored);
        assert_eq!(role("crates/geo/tests/properties.rs"), Role::Ignored);
        assert_eq!(role("vendor/rand/src/lib.rs"), Role::Ignored);
    }
}
