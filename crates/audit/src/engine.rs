//! The audit engine: walks the workspace, applies the zone map to every
//! `.rs` file, and reconciles findings against the committed baseline.
//!
//! ## The ratchet
//!
//! `audit-baseline.txt` (repo root) lists grandfathered findings as
//! `(lint, count, file)` rows — `(R1, count, file#item)` for R1, whose rows
//! count one item each. `--check` passes only when the tree's findings match
//! the baseline *exactly*:
//!
//! - a row whose count **grows** fails (new debt is rejected), and
//! - a baseline row whose count **shrinks** fails too — fixing a finding
//!   must shrink the baseline in the same commit, so the ledger can never
//!   overstate the debt and silently re-absorb regressions.
//!
//! Per-file counts would let a new R1 finding hide behind a fixed one in
//! the same file (one item becomes reached, another unreached, the count
//! stays put); per-item rows make that swap fail both ways.
//!
//! `--write-baseline` regenerates the file from the current tree.

use crate::config::{counts_as_use, is_excluded, is_safety_comment_mode, zones_for};
use crate::lints::{scan_source_with, Finding, Lint, ScanOptions, Uses};
use std::collections::BTreeMap;
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

/// Scans `(repo-relative path, source)` files as one tree: first counts the
/// identifier uses of every file outside the `tests` and `vendor` zones,
/// then scans each file as [`scan_file`] does, with R1 armed against those
/// counts.
pub fn scan_sources(sources: &[(&str, &str)]) -> AuditReport {
    let mut uses = Uses::default();
    for (rel, source) in sources {
        if counts_as_use(rel) {
            uses.add(source);
        }
    }
    let mut report = AuditReport { findings: Vec::new(), files_scanned: sources.len() };
    for (rel, source) in sources {
        for finding in scan(rel, source, Some(&uses)) {
            report.findings.push(FileFinding { file: rel.to_string(), finding });
        }
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.lint).cmp(&(&b.file, b.finding.line, b.finding.lint))
    });
    report
}

/// Scans one file's source as the engine would: zone lookup, crate-root
/// detection, vendor mode, then the token-level lints — all but R1, which
/// needs the whole tree ([`scan_sources`]). Exposed for the fixture tests.
pub fn scan_file(rel: &str, source: &str) -> Vec<Finding> {
    scan(rel, source, None)
}

fn scan(rel: &str, source: &str, uses: Option<&Uses>) -> Vec<Finding> {
    let zones = zones_for(rel);
    if zones.is_empty() {
        return vec![Finding {
            line: 1,
            lint: Lint::Z0,
            item: None,
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
    scan_source_with(source, &options, uses)
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

/// The committed baseline: grandfathered finding counts per (file, lint),
/// and per (file#item, lint) for R1.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(file or file#item, lint id) → grandfathered count`, kept sorted by
    /// the map.
    pub counts: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Parses the baseline file format: `<lint-id> <count> <path>` rows
    /// (`<path>#<item>` for R1), `#` comments and blank lines ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed rows.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (lint, count, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(l), Some(c), Some(p)) => (l, c, p),
                _ => {
                    return Err(format!(
                        "audit-baseline.txt:{}: expected `<lint> <count> <path>`",
                        i + 1
                    ))
                }
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("audit-baseline.txt:{}: bad count `{count}`", i + 1))?;
            if counts.insert((path.to_string(), lint.to_string()), count).is_some() {
                return Err(format!(
                    "audit-baseline.txt:{}: duplicate entry for {path} {lint}",
                    i + 1
                ));
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline file from a report.
    pub fn render_from(report: &AuditReport) -> String {
        let mut out = String::from(
            "# audit-baseline.txt — grandfathered geopriv-audit findings.\n\
             # Format: <lint-id> <count> <path>, one row per file — except R1,\n\
             # one row per item: R1 <count> <path>#<item>. Ratchet rule: counts\n\
             # may only decrease. `cargo run -p geopriv-audit -- --check` fails if\n\
             # a row's count grows OR if this file lists findings that no longer\n\
             # exist (shrink the row — or delete it — in the same commit as the fix).\n\
             # Regenerate with `cargo run -p geopriv-audit -- --write-baseline`.\n",
        );
        for ((file, lint), count) in group_counts(report) {
            out.push_str(&format!("{lint} {count} {file}\n"));
        }
        out
    }

    /// Reconciles a report against the baseline; returns the error lines
    /// (empty = the gate passes).
    pub fn check(&self, report: &AuditReport) -> Vec<String> {
        let current = group_counts(report);
        let mut errors = Vec::new();
        for (key @ (row, lint), count) in &current {
            let allowed = self.counts.get(key).copied().unwrap_or(0);
            if *count > allowed {
                errors.push(format!(
                    "{row}: {count} {lint} finding(s), baseline allows {allowed} — fix them or \
                     audit:allow each with a reason"
                ));
            }
        }
        for (key @ (row, lint), allowed) in &self.counts {
            let count = current.get(key).copied().unwrap_or(0);
            if count < *allowed {
                errors.push(format!(
                    "ratchet: baseline lists {allowed} {lint} finding(s) for {row} but only \
                     {count} remain — shrink the baseline (cargo run -p geopriv-audit -- \
                     --write-baseline)"
                ));
            }
        }
        errors
    }
}

/// The baseline row a finding counts toward: `(file#item, R1)` for R1,
/// `(file, lint)` for every other lint.
fn row_key(f: &FileFinding) -> (String, String) {
    let row = match &f.finding.item {
        Some(item) => format!("{}#{item}", f.file),
        None => f.file.clone(),
    };
    (row, f.finding.lint.id().to_string())
}

fn group_counts(report: &AuditReport) -> BTreeMap<(String, String), usize> {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &report.findings {
        *counts.entry(row_key(f)).or_insert(0) += 1;
    }
    counts
}

/// Findings that the baseline does not cover, for display: everything in
/// rows whose count exceeds the baseline.
pub fn uncovered<'a>(report: &'a AuditReport, baseline: &Baseline) -> Vec<&'a FileFinding> {
    let current = group_counts(report);
    report
        .findings
        .iter()
        .filter(|f| {
            let key = row_key(f);
            let allowed = baseline.counts.get(&key).copied().unwrap_or(0);
            current.get(&key).copied().unwrap_or(0) > allowed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, u32, Lint)]) -> AuditReport {
        let items: Vec<_> =
            entries.iter().map(|&(file, line, lint)| (file, line, lint, "")).collect();
        report_items(&items)
    }

    /// A report whose R1 findings name the given items (ignored for other lints).
    fn report_items(entries: &[(&str, u32, Lint, &str)]) -> AuditReport {
        AuditReport {
            findings: entries
                .iter()
                .map(|&(file, line, lint, item)| FileFinding {
                    file: file.to_string(),
                    finding: Finding {
                        line,
                        lint,
                        item: (lint == Lint::R1).then(|| item.to_string()),
                        message: String::new(),
                    },
                })
                .collect(),
            files_scanned: 1,
        }
    }

    #[test]
    fn baseline_round_trips() {
        let r = report(&[("a.rs", 3, Lint::P1), ("a.rs", 9, Lint::P1), ("b.rs", 1, Lint::D1)]);
        let text = Baseline::render_from(&r);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.counts.get(&("a.rs".into(), "P1".into())), Some(&2));
        assert!(parsed.check(&r).is_empty());

        // R1 rows count per item; other lints' rows per file.
        let r = report_items(&[
            ("a.rs", 3, Lint::R1, "lonely"),
            ("a.rs", 9, Lint::R1, "lonely"),
            ("a.rs", 12, Lint::R1, "unused"),
            ("a.rs", 20, Lint::P1, ""),
        ]);
        let text = Baseline::render_from(&r);
        assert!(text.contains("\nP1 1 a.rs\nR1 2 a.rs#lonely\nR1 1 a.rs#unused\n"), "{text}");
        assert!(Baseline::parse(&text).unwrap().check(&r).is_empty());
    }

    #[test]
    fn growth_and_shrink_both_fail_the_ratchet() {
        let baseline = Baseline::parse("P1 2 a.rs\n").unwrap();
        // Growth: 3 findings against 2 allowed.
        let grown = report(&[("a.rs", 1, Lint::P1), ("a.rs", 2, Lint::P1), ("a.rs", 3, Lint::P1)]);
        assert_eq!(baseline.check(&grown).len(), 1);
        // Shrink: 1 finding against 2 allowed — stale baseline.
        let shrunk = report(&[("a.rs", 1, Lint::P1)]);
        let errors = baseline.check(&shrunk);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("ratchet"));
        // A clean tree against a non-empty baseline is also stale.
        assert_eq!(baseline.check(&report(&[])).len(), 1);
    }

    #[test]
    fn an_r1_swap_within_one_file_fails_the_ratchet() {
        // `unused` became reached and `fresh` unreached: the file still has
        // one R1 finding, which a per-file count would have let through.
        let baseline = Baseline::parse("R1 1 a.rs#unused\n").unwrap();
        let swapped = report_items(&[("a.rs", 5, Lint::R1, "fresh")]);
        let errors = baseline.check(&swapped);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("a.rs#fresh: 1 R1 finding(s), baseline allows 0"));
        assert!(errors[1].contains("ratchet") && errors[1].contains("a.rs#unused"));
        let shown: Vec<_> = uncovered(&swapped, &baseline).iter().map(|f| f.finding.line).collect();
        assert_eq!(shown, vec![5]);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("P1 two a.rs").is_err());
        assert!(Baseline::parse("P1 1").is_err());
        assert!(Baseline::parse("P1 1 a.rs\nP1 2 a.rs").is_err());
        assert!(Baseline::parse("# comment\n\nP1 1 a.rs").is_ok());
    }

    #[test]
    fn zone_lookup_drives_scan_file() {
        // A request-path file: P1 applies, D2 does not.
        let found = scan_file(
            "crates/serve/src/server.rs",
            "fn f(x: Option<u32>) -> u32 { let _t = Instant::now(); x.unwrap() }",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::P1);
        // A deterministic-core file: D2 applies, P1 does not.
        let found = scan_file(
            "crates/core/src/modeling.rs",
            "fn f(x: Option<u32>) -> u32 { let _t = Instant::now(); x.unwrap() }",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::D2);
        // An uncovered file is its own finding.
        let found = scan_file("rogue/file.rs", "fn f() {}");
        assert_eq!(found[0].lint, Lint::Z0);
        // The benchmark: wall clocks allowed, `unsafe` only with `// SAFETY:`.
        let src = "fn f() { let _t = Instant::now(); unsafe { g() } }\n\
                   // SAFETY: g has no preconditions\n\
                   fn h() { unsafe { g() } }\n";
        let found: Vec<(u32, Lint)> =
            scan_file("geobench/src/calibrate.rs", src).iter().map(|f| (f.line, f.lint)).collect();
        assert_eq!(found, vec![(1, Lint::U1)]);
    }
}
