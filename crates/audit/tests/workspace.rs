//! The repository's own audit: the same walk as `geopriv-audit`. A library
//! item that nothing live reaches, or any other lint finding, fails this
//! test as well as the CI gate.

use geopriv_audit::scan_tree;
use std::path::Path;

#[test]
fn the_workspace_has_no_audit_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_tree(&root).expect("the workspace can be walked");
    let found: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(found.is_empty(), "geopriv-audit would fail:\n{}", found.join("\n"));
}
