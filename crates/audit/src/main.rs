//! CLI for the workspace contract linter.
//!
//! ```text
//! cargo run -p geopriv-audit                   # the CI gate
//! cargo run -p geopriv-audit -- --root …       # audit another checkout
//! ```
//!
//! Prints every finding. Exit codes: 0 clean, 1 any finding, 2 usage or IO
//! error.

#![forbid(unsafe_code)]

use geopriv_audit::scan_tree;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_root() -> Result<PathBuf, String> {
    // Default root: the workspace that contains this crate, so `cargo run
    // -p geopriv-audit` audits the tree it was built from regardless of the
    // invoking directory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    root.canonicalize().map_err(|e| format!("bad root: {e}"))
}

fn main() -> ExitCode {
    let root = match parse_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("geopriv-audit: {e}");
            eprintln!("usage: geopriv-audit [--root <path>]");
            return ExitCode::from(2);
        }
    };
    let report = match scan_tree(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("geopriv-audit: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &report.findings {
        println!("{}", finding.render());
    }
    if report.findings.is_empty() {
        println!("geopriv-audit: clean — {} file(s) scanned", report.files_scanned);
        return ExitCode::SUCCESS;
    }
    println!(
        "geopriv-audit: FAILED — {} finding(s) across {} file(s) scanned; see \
         docs/contracts.md for the contracts and the audit:allow escape hatch",
        report.findings.len(),
        report.files_scanned
    );
    ExitCode::FAILURE
}
