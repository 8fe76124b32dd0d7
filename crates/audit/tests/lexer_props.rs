//! Property tests for the token-level lexer: hazardous-looking text that
//! sits inside string literals, raw strings, or (nested) block comments
//! must never surface as a lint finding, whatever surrounds it.

use geopriv_audit::{scan_sources, Finding, Lint};
use proptest::prelude::*;

/// Phrases that would each trip a lint if they appeared as real code.
const HAZARDS: &[&str] = &[
    "rand::thread_rng()",
    "StdRng::from_entropy()",
    "value.unwrap()",
    "value.expect(msg)",
    "std::time::Instant::now()",
    "std::time::SystemTime::now()",
    "values[0]",
    "unreachable!()",
    "panic!(oops)",
    "for k in map.iter()",
    "audit:allow(P1)",
];

/// A file of the serving registry, where every lint but U1's crate-root
/// rule is armed outside tests.
const ARMED: &str = "crates/serve/src/registry.rs";

/// The findings of `src` scanned at [`ARMED`], with an example that calls
/// its functions `f` and `g`, so that R1 finds them live.
fn scan(src: &str) -> Vec<Finding> {
    let caller = "fn main() { f(); g(); }\n";
    let report = scan_sources(&[(ARMED, src), ("examples/caller.rs", caller)]);
    report.findings.into_iter().map(|f| f.finding).collect()
}

/// Lowercase filler that cannot itself form a hazard or close a literal.
fn filler() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..27, 0..12).prop_map(|bytes| {
        bytes.iter().map(|b| if *b == 26 { ' ' } else { (b'a' + b) as char }).collect()
    })
}

fn hazard() -> impl Strategy<Value = &'static str> {
    (0usize..HAZARDS.len()).prop_map(|i| HAZARDS.get(i).copied().unwrap_or(HAZARDS[0]))
}

proptest! {
    #[test]
    fn hazards_inside_string_literals_never_fire(pre in filler(), h in hazard(), post in filler()) {
        let src = format!("fn f() -> usize {{\n    let s = \"{pre}{h}{post}\";\n    s.len()\n}}\n");
        let found = scan(&src);
        prop_assert!(found.is_empty(), "{src} -> {found:?}");
    }

    #[test]
    fn hazards_inside_raw_strings_never_fire(pre in filler(), h in hazard(), post in filler()) {
        let src = format!(
            "fn f() -> usize {{\n    let s = r#\"{pre}\"{h}\"{post}\"#;\n    s.len()\n}}\n"
        );
        let found = scan(&src);
        prop_assert!(found.is_empty(), "{src} -> {found:?}");
    }

    #[test]
    fn hazards_inside_nested_block_comments_never_fire(
        pre in filler(),
        h1 in hazard(),
        h2 in hazard(),
        post in filler(),
    ) {
        let src = format!("fn f() {{}}\n/* {pre} /* {h1} */ {h2} {post} */\nfn g() {{}}\n");
        let found = scan(&src);
        prop_assert!(found.is_empty(), "{src} -> {found:?}");
    }

    #[test]
    fn hazards_inside_byte_and_char_adjacent_strings_never_fire(h in hazard()) {
        // Byte strings, char literals and lifetimes around a hazardous
        // string must not desynchronise the lexer into reading the hazard.
        let src = format!(
            "fn f<'a>(x: &'a [u8]) -> usize {{\n    let b = b\"{h}\";\n    let c = '\"';\n    \
             let s = \"{h}\";\n    x.len() + b.len() + s.len() + (c as usize)\n}}\n"
        );
        let found = scan(&src);
        prop_assert!(found.is_empty(), "{src} -> {found:?}");
    }

    #[test]
    fn real_code_after_a_literal_is_still_seen(pre in filler(), h in hazard()) {
        // The dual property: a literal must not swallow what follows it.
        let src = format!(
            "fn f(value: Option<u32>) -> u32 {{\n    let _s = \"{pre}{h}\";\n    value.unwrap()\n}}\n"
        );
        let found = scan(&src);
        prop_assert_eq!(found.len(), 1, "{src} -> {found:?}");
        prop_assert_eq!(found.first().map(|f| (f.line, f.lint)), Some((3, Lint::P1)));
    }
}
