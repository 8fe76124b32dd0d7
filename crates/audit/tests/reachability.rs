//! R1 (liveness) on small synthetic trees: each test scans a handful of
//! `(path, source)` files through `scan_sources`, exactly as `scan_tree`
//! scans the repository, and asserts the exact `(file, line)` findings.
//! The sources need not compile: R1 reads tokens, not types.

use geopriv_audit::{scan_sources, Lint};

/// A library file in a zone where R1 is armed.
const LIB: &str = "crates/geo/src/thing.rs";
/// Another library file of the same crate.
const OTHER: &str = "crates/geo/src/other.rs";
/// An example: one of R1's roots.
const EXAMPLE: &str = "examples/demo.rs";

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
                 pub use crate::thing::lonely;\n";
    let example = "fn main() { geopriv_geo::caller(); }\n";
    assert_eq!(findings(&[(LIB, lib), (OTHER, other), (EXAMPLE, example)]), vec![r1(LIB, 1)]);
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
    // a trait impl — and no caller anywhere. Every item of the type goes
    // with it, the trait impl's too.
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
    assert_eq!(findings(&[(LIB, lib)]), vec![r1(LIB, 1), r1(LIB, 5), r1(LIB, 6), r1(LIB, 9)]);
}

#[test]
fn fires_for_two_items_that_name_only_each_other() {
    // The shape of `Trace::time_window` and its helper before both were
    // deleted by hand: each names the other, and nothing live names either.
    let lib = "pub struct Trace;\n\
               impl Trace {\n\
               \x20   pub fn time_window(&self, from: u32) -> Trace { window_of(self, from) }\n\
               }\n\
               pub fn window_of(trace: &Trace, from: u32) -> Trace { trace.time_window(from) }\n";
    let example = "fn main() { let _trace = geopriv_geo::Trace; }\n";
    assert_eq!(findings(&[(LIB, lib), (EXAMPLE, example)]), vec![r1(LIB, 3), r1(LIB, 5)]);
}

#[test]
fn fires_for_same_named_methods_that_nothing_live_calls() {
    // The `sample_count` shape: one type's method calls the same-named
    // method of another, and nothing live calls either. Counting names saw
    // a use of each outside its own definition.
    let lib = "pub struct Fit { n: usize }\n\
               impl Fit {\n\
               \x20   pub fn sample_count(&self) -> usize { self.n }\n\
               }\n\
               pub struct Zone { fit: Fit }\n\
               impl Zone {\n\
               \x20   pub fn sample_count(&self) -> usize { self.fit.sample_count() }\n\
               }\n";
    let example = "fn main() { let _zone: Option<geopriv_geo::Zone> = None; }\n";
    assert_eq!(findings(&[(LIB, lib), (EXAMPLE, example)]), vec![r1(LIB, 3), r1(LIB, 7)]);
}

#[test]
fn fires_for_an_item_named_only_inside_a_dead_items_body() {
    // `covariance`, reached only through `pearson_correlation`, which
    // nothing reaches.
    let lib =
        "pub fn covariance(a: &[f64], b: &[f64]) -> f64 { a.len() as f64 * b.len() as f64 }\n\
               pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 { covariance(a, b) }\n";
    assert_eq!(findings(&[(LIB, lib)]), vec![r1(LIB, 1), r1(LIB, 2)]);
}

#[test]
fn trait_impl_methods_are_live_with_their_self_type() {
    // Nothing names `fmt` (the trait's path is left out on purpose): the
    // live type's `fmt` is live because its type is, the dead type's is not.
    let lib = "pub struct Meters(f64);\n\
               impl Display for Meters {\n\
               \x20   fn fmt(&self, f: &mut Formatter<'_>) -> Result { write!(f, \"{} m\", self.0) }\n\
               }\n\
               pub struct Unused;\n\
               impl Display for Unused {\n\
               \x20   fn fmt(&self, f: &mut Formatter<'_>) -> Result { write!(f, \"-\") }\n\
               }\n";
    let example = "fn main() { println!(\"{}\", geopriv_geo::Meters(1.0)); }\n";
    assert_eq!(findings(&[(LIB, lib), (EXAMPLE, example)]), vec![r1(LIB, 5), r1(LIB, 7)]);
}

#[test]
fn what_an_allowed_item_names_is_live() {
    let lib = "// audit:allow(R1): public API — the loader users call on their own files\n\
               pub fn read_csv() -> Dataset { parse_row() }\n\
               fn parse_row() -> Dataset { Dataset }\n\
               pub struct Dataset;\n";
    assert_eq!(findings(&[(LIB, lib)]), vec![]);
}

#[test]
fn stays_silent_for_items_named_by_libraries_examples_and_the_benchmark() {
    let lib = "pub fn by_library() {}\n\
               pub fn by_example() {}\n\
               pub fn by_benchmark() {}\n";
    let tree = [
        (LIB, lib),
        (OTHER, "use crate::thing::by_library;\npub fn f() { by_library() }\n"),
        (EXAMPLE, "fn main() { geopriv_geo::by_example(); geopriv_geo::f() }\n"),
        ("geobench/src/main.rs", "fn main() { geopriv_geo::by_benchmark() }\n"),
    ];
    assert_eq!(findings(&tree), vec![]);
}

#[test]
fn stays_silent_for_items_named_by_a_non_impl_function_of_their_own_file() {
    let lib = "pub struct Config;\n\
               pub fn helper() -> Config { Config }\n\
               pub(crate) fn caller() -> Config { helper() }\n\
               crate::register!(caller);\n";
    // A module-level macro call is a root, like a plain `use`.
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
    assert_eq!(findings(&[(LIB, lib), (EXAMPLE, user)]), vec![]);
}

#[test]
fn every_item_outside_tests_is_checked() {
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
               fn private() {}\n\
               macro_rules! local { () => {} }\n\
               #[cfg(test)]\n\
               pub fn test_helper() {}\n\
               #[cfg(doctest)]\n\
               struct ReadmeDoctests;\n";
    let mut expected: Vec<_> = vec![r1(LIB, 1)];
    expected.extend((3..=12).map(|line| r1(LIB, line)));
    assert_eq!(findings(&[(LIB, lib)]), expected);
}

#[test]
fn r1_is_armed_only_in_library_zones() {
    let unused = "pub fn unused() {}\n";
    let tree = [
        (EXAMPLE, unused),
        ("geobench/src/lib.rs", unused),
        ("crates/bench/src/bin/fig9.rs", unused),
        ("crates/geo/tests/props.rs", unused),
        ("vendor/shim/src/lib.rs", unused),
    ];
    assert_eq!(findings(&tree), vec![]);
    assert_eq!(
        findings(&[("crates/serve/src/thing.rs", unused)]),
        vec![r1("crates/serve/src/thing.rs", 1)]
    );
}

#[test]
fn allows_suppress_r1_and_an_unused_one_is_stale() {
    let lib = "// audit:allow(R1): the loader users call on their own files\n\
               pub fn load() {}\n\
               // audit:allow(R1): nothing to excuse — `used` has a caller\n\
               pub fn used() {}\n";
    let example = "fn main() { geopriv_geo::used() }\n";
    let found = findings(&[(LIB, lib), (EXAMPLE, example)]);
    assert_eq!(found, vec![(LIB.to_string(), 3, Lint::A2)]);
}
