//! The repository's own audit: the same walk as `geopriv-audit --check`,
//! reconciled against the committed `audit-baseline.txt`. A new `pub` item
//! that nothing reaches, a deletion that leaves a baseline row stale, or any
//! other lint regression fails this test as well as the CI gate.

use geopriv_audit::{scan_tree, Baseline};
use std::path::Path;

#[test]
fn the_workspace_matches_its_audit_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_tree(&root).expect("the workspace can be walked");
    let text = std::fs::read_to_string(root.join("audit-baseline.txt")).expect("baseline exists");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let errors = baseline.check(&report);
    assert!(errors.is_empty(), "geopriv-audit --check would fail:\n{}", errors.join("\n"));
}
