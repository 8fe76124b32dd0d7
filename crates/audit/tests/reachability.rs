//! R1 (reachability) on small synthetic trees: each test scans a handful of
//! `(path, source)` files through `scan_sources`, exactly as `scan_tree`
//! scans the repository, and asserts the exact `(file, line)` findings.

use geopriv_audit::{scan_sources, Lint};

/// A library file in a zone where R1 is armed.
const LIB: &str = "crates/geo/src/thing.rs";
/// Another library file of the same crate.
const OTHER: &str = "crates/geo/src/other.rs";

/// The `(file, line, lint)` findings of scanning `tree`.
fn findings(tree: &[(&str, &str)]) -> Vec<(String, u32, Lint)> {
    scan_sources(tree)
        .findings
        .into_iter()
        .map(|f| (f.file, f.finding.line, f.finding.lint))
        .collect()
}

fn r1(file: &str, line: u32) -> (String, u32, Lint) {
    (file.to_string(), line, Lint::R1)
}

#[test]
fn fires_for_an_item_named_only_in_docs_strings_and_re_exports() {
    let lib = "pub fn lonely() {}\n";
    let other = "/// Calls [`lonely`] — or would.\n\
                 pub fn caller() -> &'static str {\n\
                 \x20   // lonely()\n\
                 \x20   \"lonely\"\n\
                 }\n\
                 pub use crate::thing::lonely;\n\
                 fn main() { caller(); }\n";
    assert_eq!(findings(&[(LIB, lib), (OTHER, other)]), vec![r1(LIB, 1)]);
}

#[test]
fn fires_for_an_item_named_only_by_tests() {
    let lib = "pub fn tested() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { super::tested(); }\n\
               }\n";
    // Test-file helpers sit outside `#[test]` regions: only the zone keeps
    // them from counting.
    let integration = "fn fixture() { geopriv_geo::tested(); }\n#[test]\nfn t() { fixture(); }\n";
    let top_level = "fn fixture() { geopriv_geo::tested(); }\n";
    let tree =
        [(LIB, lib), ("crates/geo/tests/props.rs", integration), ("tests/e2e.rs", top_level)];
    assert_eq!(findings(&tree), vec![r1(LIB, 1)]);
}

#[test]
fn fires_for_a_type_named_only_inside_its_own_impl_blocks() {
    // The shape `geo::QuadTree` had: a type, its constructor and queries,
    // a trait impl — and no caller anywhere.
    let lib = "pub struct Tree {\n\
               \x20   nodes: Vec<Tree>,\n\
               }\n\
               impl Tree {\n\
               \x20   pub fn build() -> Tree { Tree { nodes: Vec::new() } }\n\
               \x20   pub fn nearest(&self) -> Option<&Tree> { self.nodes.first() }\n\
               }\n\
               impl Default for Tree {\n\
               \x20   fn default() -> Tree { Tree::build() }\n\
               }\n";
    assert_eq!(findings(&[(LIB, lib)]), vec![r1(LIB, 1), r1(LIB, 6)]);
}

#[test]
fn stays_silent_for_items_named_by_libraries_examples_and_the_benchmark() {
    let lib = "pub fn by_library() {}\n\
               pub fn by_example() {}\n\
               pub fn by_benchmark() {}\n";
    let tree = [
        (LIB, lib),
        (OTHER, "pub(crate) fn f() { crate::thing::by_library() }\n"),
        ("examples/demo.rs", "fn main() { geopriv_geo::by_example() }\n"),
        ("geobench/src/main.rs", "fn main() { geopriv_geo::by_benchmark() }\n"),
    ];
    assert_eq!(findings(&tree), vec![]);
}

#[test]
fn stays_silent_for_items_named_by_a_non_impl_function_of_their_own_file() {
    let lib = "pub struct Config;\n\
               pub fn helper() -> Config { Config }\n\
               pub(crate) fn caller() -> Config { helper() }\n";
    assert_eq!(findings(&[(LIB, lib)]), vec![]);
}

#[test]
fn impl_trait_in_argument_or_return_position_is_not_an_impl_block() {
    // The `autoconf::SweepBuilder` shape: a type that another function of
    // its file names only as `impl FnOnce(Builder) -> Builder`.
    let lib = "pub struct Builder;\n\
               pub struct Step;\n\
               pub fn sweep(plan: impl FnOnce(Builder) -> Builder) {}\n\
               pub fn step() -> impl FnOnce(Step) -> Step { |s| s }\n";
    let user = "fn main() { geopriv_geo::sweep(|b| b); geopriv_geo::step(); }\n";
    assert_eq!(findings(&[(LIB, lib), ("examples/demo.rs", user)]), vec![]);
}

#[test]
fn only_bare_pub_items_outside_tests_are_checked() {
    let lib = "pub(crate) fn scoped() {}\n\
               pub mod nested {}\n\
               pub struct Fields { pub unread: u32 }\n\
               pub const fn constant_fn() {}\n\
               pub async fn asynchronous() {}\n\
               pub const LIMIT: usize = 3;\n\
               pub static NAME: &str = \"x\";\n\
               pub type Alias = u32;\n\
               pub trait Shape {}\n\
               pub enum Kind { A }\n\
               #[cfg(test)]\n\
               pub fn test_helper() {}\n";
    let expected: Vec<_> = (3..=10).map(|line| r1(LIB, line)).collect();
    assert_eq!(findings(&[(LIB, lib)]), expected);
}

#[test]
fn r1_is_armed_only_in_library_zones() {
    let unused = "pub fn unused() {}\n";
    let tree = [
        ("examples/demo.rs", unused),
        ("geobench/src/lib.rs", unused),
        ("crates/geo/tests/props.rs", unused),
        ("vendor/shim/src/lib.rs", unused),
    ];
    assert_eq!(findings(&tree), vec![]);
    assert_eq!(
        findings(&[("crates/serve/src/thing.rs", unused)]),
        vec![r1("crates/serve/src/thing.rs", 1)]
    );
    // A single-file scan has no tree to count uses in: R1 stays off.
    assert_eq!(geopriv_audit::scan_file(LIB, unused), vec![]);
}

#[test]
fn allows_suppress_r1_and_an_unused_one_is_stale() {
    let lib = "// audit:allow(R1): the loader users call on their own files\n\
               pub fn load() {}\n\
               // audit:allow(R1): nothing to excuse — `used` has a caller\n\
               pub fn used() {}\n";
    let other = "pub(crate) fn f() { crate::thing::used() }\n";
    let found = findings(&[(LIB, lib), (OTHER, other)]);
    assert_eq!(found, vec![(LIB.to_string(), 3, Lint::A2)]);
    // Without the tree's counts the allow is not reported as stale.
    assert_eq!(geopriv_audit::scan_file(LIB, lib), vec![]);
}
