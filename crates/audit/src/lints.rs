//! The zone-aware contract lints and their token-level detectors.
//!
//! Each lint has a stable id used in findings, in `audit:allow(<id>)`
//! escape hatches and in the committed baseline. The checks are heuristic
//! by design — a token-level view has no type information — but every
//! heuristic errs toward *reporting*, and the allow/baseline machinery is
//! the pressure valve. See `docs/contracts.md` for the contract each lint
//! enforces and the historical bug it guards against.

use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeMap;

/// The contract lints. `A1`/`A2`/`Z0` are meta-lints raised by the engine
/// itself (malformed allow, unused allow, file not covered by the zone
/// map); they cannot be allowed away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `HashMap`/`HashSet` iteration in deterministic or output-rendering
    /// code: hash order varies across runs and toolchains.
    D1,
    /// `Instant::now` / `SystemTime::now` in deterministic zones.
    D2,
    /// RNG construction from ambient entropy (`thread_rng`, `from_entropy`,
    /// `rand::random`): seeds must flow through the `derive_*_seed` family.
    D3,
    /// Panic surfaces (`unwrap`, `expect`, `panic!`, `unreachable!`,
    /// `todo!`, `unimplemented!`, slice indexing without `get`) on the
    /// request path and the sweep hot path.
    P1,
    /// Unsafe-code hygiene: non-vendor crate roots carry
    /// `#![forbid(unsafe_code)]`; vendor `unsafe` blocks carry `// SAFETY:`.
    U1,
    /// A bare-`pub` library item that no non-test code names outside its
    /// own definition: code that nothing reaches is deleted.
    R1,
    /// Malformed `audit:allow` (unknown lint id or missing reason).
    A1,
    /// An `audit:allow` that suppresses nothing (stale escape hatch).
    A2,
    /// A scanned file matched by no zone rule: coverage must be explicit.
    Z0,
}

impl Lint {
    /// The stable id used in findings, allows and the baseline.
    pub fn id(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::D2 => "D2",
            Lint::D3 => "D3",
            Lint::P1 => "P1",
            Lint::U1 => "U1",
            Lint::R1 => "R1",
            Lint::A1 => "A1",
            Lint::A2 => "A2",
            Lint::Z0 => "Z0",
        }
    }

    /// Parses a lint id as written in `audit:allow(<id>)`. Only the
    /// allowable (non-meta) lints parse.
    pub fn parse_allowable(id: &str) -> Option<Lint> {
        match id {
            "D1" => Some(Lint::D1),
            "D2" => Some(Lint::D2),
            "D3" => Some(Lint::D3),
            "P1" => Some(Lint::P1),
            "U1" => Some(Lint::U1),
            "R1" => Some(Lint::R1),
            _ => None,
        }
    }
}

/// One finding within a single file (the engine attaches the path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based line number.
    pub line: u32,
    /// The violated lint.
    pub lint: Lint,
    /// Human-readable explanation pointing at the offending construct.
    pub message: String,
    /// The item an R1 finding is about, which keys its baseline row; `None`
    /// for every other lint, whose rows are per file.
    pub item: Option<String>,
}

/// How one file should be scanned (derived from its zone memberships).
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Lints enforced outside test regions.
    pub lints: Vec<Lint>,
    /// Lints enforced inside `#[cfg(test)]` / `#[test]` regions.
    pub test_lints: Vec<Lint>,
    /// Whether the file is a crate root that must carry
    /// `#![forbid(unsafe_code)]` (U1).
    pub require_forbid: bool,
    /// Vendor mode for U1: `unsafe` is tolerated when justified by a
    /// `// SAFETY:` comment instead of being banned outright.
    pub vendor: bool,
}

/// An `audit:allow(<id>): <reason>` escape hatch parsed from a comment.
#[derive(Debug, Clone)]
struct Allow {
    line: u32,
    lint: Lint,
    used: bool,
}

/// Identifier uses across a scanned tree, for R1: how often each name
/// occurs as a token that counts as a use (see [`countable`]).
#[derive(Default)]
pub(crate) struct Uses(BTreeMap<String, usize>);

impl Uses {
    /// Adds one file's uses.
    pub(crate) fn add(&mut self, src: &str) {
        let tokens = lex(src);
        let sig = significant(&tokens);
        for (token, counts) in sig.iter().zip(countable(&sig, &test_regions(&sig))) {
            if let (true, Some(name)) = (counts, token.ident()) {
                *self.0.entry(name.to_string()).or_insert(0) += 1;
            }
        }
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The tokens lints look at: everything but comments.
fn significant(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| !matches!(t.kind, TokKind::Comment(_))).collect()
}

/// Scans one file's source under the given options and returns its
/// findings, sorted by line then lint id, with allows already applied and
/// allow-discipline findings (A1/A2) included. R1 needs the whole tree's
/// uses, so it stays off here.
pub fn scan_source(src: &str, options: &ScanOptions) -> Vec<Finding> {
    scan_source_with(src, options, None)
}

/// [`scan_source`], with R1 armed against `uses` when given.
pub(crate) fn scan_source_with(
    src: &str,
    options: &ScanOptions,
    uses: Option<&Uses>,
) -> Vec<Finding> {
    let tokens = lex(src);
    let sig = significant(&tokens);
    let comments: Vec<(u32, &str)> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Comment(text) => Some((t.line, text.as_str())),
            _ => None,
        })
        .collect();

    let test_regions = test_regions(&sig);
    let in_tests = |line: u32| in_regions(line, &test_regions);
    let enabled = |lint: Lint, line: u32| {
        if in_tests(line) {
            options.test_lints.contains(&lint)
        } else {
            options.lints.contains(&lint)
        }
    };

    let mut raw: Vec<Finding> = Vec::new();
    if options.lints.contains(&Lint::D1) || options.test_lints.contains(&Lint::D1) {
        detect_d1(&sig, &mut raw);
    }
    if options.lints.contains(&Lint::D2) || options.test_lints.contains(&Lint::D2) {
        detect_d2(&sig, &mut raw);
    }
    if options.lints.contains(&Lint::D3) || options.test_lints.contains(&Lint::D3) {
        detect_d3(&sig, &mut raw);
    }
    if options.lints.contains(&Lint::P1) || options.test_lints.contains(&Lint::P1) {
        detect_p1(&sig, &mut raw);
    }
    if options.lints.contains(&Lint::U1) || options.test_lints.contains(&Lint::U1) {
        detect_u1(&sig, &comments, options, &mut raw);
    }
    let r1_armed = options.lints.contains(&Lint::R1);
    if let (true, Some(uses)) = (r1_armed, uses) {
        detect_r1(&sig, &countable(&sig, &test_regions), uses, &mut raw);
    }
    raw.retain(|f| enabled(f.lint, f.line));

    // Dedup (several detectors can hit one construct on one line).
    raw.sort_by_key(|f| (f.line, f.lint));
    raw.dedup_by(|a, b| a.line == b.line && a.lint == b.lint);

    // Parse allows; malformed ones are findings themselves.
    let mut allows: Vec<Allow> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for (line, text) in &comments {
        parse_allows(*line, text, &mut allows, &mut findings);
    }

    // Apply allows: a finding is suppressed by a matching allow on the same
    // line (trailing comment) or the immediately preceding line.
    for finding in raw {
        let allow = allows.iter_mut().find(|a| {
            a.lint == finding.lint && (a.line == finding.line || a.line + 1 == finding.line)
        });
        match allow {
            Some(a) => a.used = true,
            None => findings.push(finding),
        }
    }
    for allow in &allows {
        // Without the tree's uses R1 cannot run, so its allows are not stale.
        let unjudged = allow.lint == Lint::R1 && r1_armed && uses.is_none();
        if !(allow.used || unjudged) {
            findings.push(Finding {
                line: allow.line,
                lint: Lint::A2,
                item: None,
                message: format!(
                    "unused audit:allow({}) — it suppresses nothing on this or the next line; \
                     remove it",
                    allow.lint.id()
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.lint));
    findings
}

/// Parses every allow directive in one comment's text. A directive must
/// *start* the comment (`// audit:allow(P1): reason`); prose that merely
/// mentions the syntax (docs, messages) is not a directive.
fn parse_allows(line: u32, text: &str, allows: &mut Vec<Allow>, findings: &mut Vec<Finding>) {
    if !text.trim_start().starts_with("audit:allow") {
        return;
    }
    let mut rest = text;
    while let Some(at) = rest.find("audit:allow") {
        rest = &rest[at + "audit:allow".len()..];
        let Some(open) = rest.strip_prefix('(') else {
            findings.push(Finding {
                line,
                lint: Lint::A1,
                item: None,
                message: "malformed audit:allow — expected `audit:allow(<lint-id>): <reason>`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = open.find(')') else {
            findings.push(Finding {
                line,
                lint: Lint::A1,
                item: None,
                message: "malformed audit:allow — unclosed lint id".to_string(),
            });
            break;
        };
        let id = &open[..close];
        rest = &open[close + 1..];
        let Some(lint) = Lint::parse_allowable(id) else {
            findings.push(Finding {
                line,
                lint: Lint::A1,
                item: None,
                message: format!("audit:allow names unknown or non-allowable lint `{id}`"),
            });
            continue;
        };
        let reason = rest.strip_prefix(':').map(str::trim_start).unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                line,
                lint: Lint::A1,
                item: None,
                message: format!(
                    "audit:allow({id}) without a reason — write `audit:allow({id}): <why this \
                     is sound>`"
                ),
            });
            continue;
        }
        allows.push(Allow { line, lint, used: false });
    }
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
fn test_regions(sig: &[&Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].is_punct('#') && i + 1 < sig.len() && sig[i + 1].is_punct('[') {
            let start_line = sig[i].line;
            let (attr_end, is_test) = parse_attribute(sig, i + 1);
            if is_test {
                if let Some((_, end_line)) = item_body(sig, attr_end + 1) {
                    regions.push((start_line, end_line));
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(lo, hi)| line >= lo && line <= hi)
}

/// Which tokens count as uses for R1: those outside test regions and
/// outside `pub use …;` statements (a re-export reaches nothing by itself).
fn countable(sig: &[&Token], test_regions: &[(u32, u32)]) -> Vec<bool> {
    let mut counts: Vec<bool> = sig.iter().map(|t| !in_regions(t.line, test_regions)).collect();
    let mut i = 0;
    while i + 1 < sig.len() {
        if sig[i].ident() == Some("pub") && sig[i + 1].ident() == Some("use") {
            while i < sig.len() && !sig[i].is_punct(';') {
                counts[i] = false;
                i += 1;
            }
        }
        i += 1;
    }
    counts
}

/// Parses an attribute starting at its `[`; returns (index of `]`, whether
/// it gates on test). `#[cfg(not(test))]` gates on *not* test and is
/// excluded.
fn parse_attribute(sig: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < sig.len() {
        match &sig[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i, has_test && !has_not);
                }
            }
            TokKind::Ident(name) if name == "test" => has_test = true,
            TokKind::Ident(name) if name == "not" => has_not = true,
            _ => {}
        }
        i += 1;
    }
    (sig.len().saturating_sub(1), false)
}

/// From the token after an attribute, skips further attributes and finds
/// the item's body: returns (index, line) of the closing `}` (or the `;`
/// of a body-less item).
fn item_body(sig: &[&Token], mut i: usize) -> Option<(usize, u32)> {
    // Skip stacked attributes and doc attributes.
    while i + 1 < sig.len() && sig[i].is_punct('#') && sig[i + 1].is_punct('[') {
        let (end, _) = parse_attribute(sig, i + 1);
        i = end + 1;
    }
    // Find the opening `{` of the body (or `;` for a body-less item),
    // tracking only ()/[] nesting — an item header contains no braces.
    let mut depth = 0i32;
    while i < sig.len() {
        match &sig[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return Some((i, sig[i].line)),
            TokKind::Punct('{') if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    // Match braces to the end of the body.
    let mut braces = 0i32;
    while i < sig.len() {
        match &sig[i].kind {
            TokKind::Punct('{') => braces += 1,
            TokKind::Punct('}') => {
                braces -= 1;
                if braces == 0 {
                    return Some((i, sig[i].line));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Item kinds R1 checks after a bare `pub`.
const R1_ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The item a `pub` at `at` declares, as (kind, name, line), when it is one
/// R1 checks: not `pub(crate)`, `pub mod`, `pub use` or a field.
fn pub_item<'t>(sig: &[&'t Token], at: usize) -> Option<(&'t str, &'t str, u32)> {
    let ident = |k: usize| sig.get(k).and_then(|t| t.ident());
    let mut k = at + 1;
    // `const fn`, `async fn`, `unsafe fn` and their combinations.
    while matches!(ident(k), Some("const" | "async" | "unsafe"))
        && matches!(ident(k + 1), Some("fn" | "const" | "async" | "unsafe"))
    {
        k += 1;
    }
    let kind = ident(k).filter(|kind| R1_ITEMS.contains(kind))?;
    Some((kind, ident(k + 1)?, sig[k + 1].line))
}

/// Every `impl` block as (self-type name, index of `impl`, index of its
/// closing `}`). A block's `impl` starts an item, so what precedes it ends
/// one; `impl Trait` in argument or return position is a type instead.
fn impl_blocks<'t>(sig: &[&'t Token]) -> Vec<(&'t str, usize, usize)> {
    let mut blocks = Vec::new();
    for i in 0..sig.len() {
        if sig[i].ident() != Some("impl") {
            continue;
        }
        if i > 0 && !matches!(sig[i - 1].kind, TokKind::Punct('}' | ';' | ']' | '{')) {
            continue;
        }
        // The self type is the header's last name outside generics: it
        // follows `for` when the block implements a trait.
        let (mut angle, mut self_type) = (0i32, None);
        for k in i + 1..sig.len() {
            match &sig[k].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !sig[k - 1].is_punct('-') => angle -= 1,
                TokKind::Punct('{' | ';') if angle == 0 => break,
                TokKind::Ident(name) if angle == 0 && name == "where" => break,
                TokKind::Ident(name) if angle == 0 => self_type = Some(name.as_str()),
                _ => {}
            }
        }
        if let (Some(self_type), Some((end, _))) = (self_type, item_body(sig, i)) {
            blocks.push((self_type, i, end));
        }
    }
    blocks
}

/// R1: a bare-`pub` item whose name no countable token outside its own
/// definition carries — for a struct, enum or type alias, outside its own
/// `impl` blocks too.
fn detect_r1(sig: &[&Token], countable: &[bool], uses: &Uses, findings: &mut Vec<Finding>) {
    let impls = impl_blocks(sig);
    let named = |name: &str, lo: usize, hi: usize| {
        (lo..=hi).filter(|&k| countable[k] && sig[k].ident() == Some(name)).count()
    };
    for i in 0..sig.len() {
        if !countable[i] || sig[i].ident() != Some("pub") {
            continue;
        }
        let Some((kind, name, line)) = pub_item(sig, i) else { continue };
        let end = item_body(sig, i).map_or(sig.len() - 1, |(end, _)| end);
        let mut own = named(name, i, end);
        if matches!(kind, "struct" | "enum" | "type") {
            own += impls
                .iter()
                .filter(|(self_type, _, _)| *self_type == name)
                .map(|&(_, lo, hi)| named(name, lo, hi))
                .sum::<usize>();
        }
        if uses.count(name) <= own {
            findings.push(Finding {
                line,
                lint: Lint::R1,
                item: Some(name.to_string()),
                message: format!(
                    "`{name}` is `pub` but no non-test code names it outside its own definition \
                     — delete it, or audit:allow(R1) it as deliberate public API"
                ),
            });
        }
    }
}

/// Names declared (or ascribed) in this file with a `HashMap`/`HashSet`
/// type, including through wrappers (`Mutex<HashMap<…>>`) and paths
/// (`std::collections::HashMap`).
fn hash_typed_names(sig: &[&Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..sig.len() {
        let is_hash = matches!(sig[i].ident(), Some("HashMap" | "HashSet"));
        if !is_hash {
            continue;
        }
        // Walk left over path segments (`std :: collections ::`), generic
        // wrappers (`Mutex <`) and references to reach `:` or `=`.
        let mut p = i as isize - 1;
        loop {
            if p >= 2
                && sig[p as usize].is_punct(':')
                && sig[p as usize - 1].is_punct(':')
                && sig[p as usize - 2].ident().is_some()
            {
                p -= 3; // `segment ::`
            } else if p >= 1
                && sig[p as usize].is_punct('<')
                && sig[p as usize - 1].ident().is_some()
            {
                p -= 2; // `Wrapper <`
            } else if p >= 0
                && (sig[p as usize].is_punct('&')
                    || sig[p as usize].ident() == Some("mut")
                    || sig[p as usize].ident() == Some("dyn"))
            {
                p -= 1;
            } else {
                break;
            }
        }
        if p < 1 {
            continue;
        }
        let (sep, before) = (sig[p as usize], sig[p as usize - 1]);
        let ascription = sep.is_punct(':')
            && !(p >= 2 && sig[p as usize - 1].is_punct(':'))
            && before.ident().is_some();
        let assignment = sep.is_punct('=') && before.ident().is_some();
        if ascription || assignment {
            if let Some(name) = before.ident() {
                if name != "mut" && !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn d1_message(name: &str) -> String {
    format!(
        "iteration over hash-ordered `{name}` (HashMap/HashSet) — hash order is \
         nondeterministic; use BTreeMap/BTreeSet or collect and sort"
    )
}

/// D1: iteration over names with a HashMap/HashSet-bearing type.
fn detect_d1(sig: &[&Token], findings: &mut Vec<Finding>) {
    let names = hash_typed_names(sig);
    if names.is_empty() {
        return;
    }
    // `.iter()`-family calls whose receiver chain touches a hash map name.
    for i in 0..sig.len() {
        if !sig[i].is_punct('.') {
            continue;
        }
        let Some(method) = sig.get(i + 1).and_then(|t| t.ident()) else { continue };
        if !ITER_METHODS.contains(&method) || !sig.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        for name in receiver_chain(sig, i) {
            if names.contains(&name) {
                findings.push(Finding {
                    line: sig[i + 1].line,
                    lint: Lint::D1,
                    item: None,
                    message: d1_message(&name),
                });
                break;
            }
        }
    }
    // `for pat in <expr> {` where <expr> mentions a hash map name that is
    // not immediately followed by `.` (method calls are judged above).
    let mut i = 0;
    while i < sig.len() {
        if sig[i].ident() != Some("for") {
            i += 1;
            continue;
        }
        let Some(in_at) = find_in_keyword(sig, i + 1) else {
            i += 1;
            continue;
        };
        let mut j = in_at + 1;
        let mut depth = 0i32;
        while j < sig.len() {
            match &sig[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                TokKind::Ident(name)
                    if names.iter().any(|n| n == name)
                        && !sig.get(j + 1).is_some_and(|t| t.is_punct('.')) =>
                {
                    findings.push(Finding {
                        line: sig[j].line,
                        lint: Lint::D1,
                        item: None,
                        message: d1_message(name),
                    });
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
}

/// The identifiers along a method-call receiver chain, walking left from
/// the `.` at `dot` over `)`/`]` groups, `.segment` hops and `::` paths.
fn receiver_chain(sig: &[&Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut i = dot as isize - 1;
    while i >= 0 {
        match &sig[i as usize].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => {
                let close = if sig[i as usize].is_punct(')') { ')' } else { ']' };
                let open = if close == ')' { '(' } else { '[' };
                let mut depth = 0i32;
                while i >= 0 {
                    if sig[i as usize].is_punct(close) {
                        depth += 1;
                    } else if sig[i as usize].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                i -= 1;
            }
            TokKind::Ident(name) => {
                chain.push(name.clone());
                if i >= 1 && sig[i as usize - 1].is_punct('.') {
                    i -= 2;
                } else if i >= 2
                    && sig[i as usize - 1].is_punct(':')
                    && sig[i as usize - 2].is_punct(':')
                {
                    i -= 3;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    chain
}

/// Finds the `in` keyword of a `for` loop, skipping the pattern.
fn find_in_keyword(sig: &[&Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, token) in sig.iter().enumerate().skip(from) {
        match &token.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Ident(name) if name == "in" && depth == 0 => return Some(k),
            TokKind::Punct('{') => return None, // malformed / not a loop
            _ => {}
        }
    }
    None
}

/// D2: `Instant::now` / `SystemTime::now`.
fn detect_d2(sig: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        let Some(name @ ("Instant" | "SystemTime")) = sig[i].ident() else { continue };
        let now = sig.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && sig.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && sig.get(i + 3).and_then(|t| t.ident()) == Some("now");
        if now {
            findings.push(Finding {
                line: sig[i].line,
                lint: Lint::D2,
                item: None,
                message: format!(
                    "wall-clock read `{name}::now` in a deterministic zone — time must come in \
                     as data, never be sampled"
                ),
            });
        }
    }
}

/// D3: RNG construction from ambient entropy.
fn detect_d3(sig: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        match sig[i].ident() {
            Some(name @ ("thread_rng" | "from_entropy")) => findings.push(Finding {
                line: sig[i].line,
                lint: Lint::D3,
                item: None,
                message: format!(
                    "entropy-seeded RNG (`{name}`) — seeds must flow through the \
                     `derive_*_seed` family so every stream is replayable"
                ),
            }),
            Some("rand")
                if sig.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && sig.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && sig.get(i + 3).and_then(|t| t.ident()) == Some("random") =>
            {
                findings.push(Finding {
                    line: sig[i].line,
                    lint: Lint::D3,
                    item: None,
                    message: "entropy-seeded RNG (`rand::random`) — seeds must flow through the \
                              `derive_*_seed` family so every stream is replayable"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// P1: panic surfaces.
fn detect_p1(sig: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        // `.unwrap()` / `.expect(…)` — `unwrap_or*` are distinct idents and
        // never match.
        if sig[i].is_punct('.') {
            if let Some(name @ ("unwrap" | "expect")) = sig.get(i + 1).and_then(|t| t.ident()) {
                if sig.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    findings.push(Finding {
                        line: sig[i + 1].line,
                        lint: Lint::P1,
                        item: None,
                        message: format!(
                            "`.{name}()` on a panic-free path — return a typed error instead"
                        ),
                    });
                }
            }
        }
        // panic-family macros.
        if let Some(name) = sig[i].ident() {
            if PANIC_MACROS.contains(&name) && sig.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                findings.push(Finding {
                    line: sig[i].line,
                    lint: Lint::P1,
                    item: None,
                    message: format!(
                        "`{name}!` on a panic-free path — return a typed error instead"
                    ),
                });
            }
        }
        // Indexing: `expr[…]` can panic; `expr[..]` (full range) cannot.
        // A `[` after a keyword (`for x in [1, 2]`, `return [0; 4]`) opens
        // an array literal, not an index expression.
        if sig[i].is_punct('[') && i > 0 {
            // `mut` covers slice types (`&mut [T]`): the keyword can never
            // immediately precede a real index expression.
            const KEYWORDS: &[&str] = &[
                "in", "return", "else", "match", "break", "continue", "move", "loop", "while",
                "if", "unsafe", "do", "yield", "mut",
            ];
            let indexes = match &sig[i - 1].kind {
                TokKind::Ident(name) => !KEYWORDS.contains(&name.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            let full_range = sig.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && sig.get(i + 2).is_some_and(|t| t.is_punct('.'))
                && sig.get(i + 3).is_some_and(|t| t.is_punct(']'));
            if indexes && !full_range {
                findings.push(Finding {
                    line: sig[i].line,
                    lint: Lint::P1,
                    item: None,
                    message: "indexing without `get` may panic — use `.get(…)` and handle `None`"
                        .to_string(),
                });
            }
        }
    }
}

/// U1: unsafe-code hygiene.
fn detect_u1(
    sig: &[&Token],
    comments: &[(u32, &str)],
    options: &ScanOptions,
    findings: &mut Vec<Finding>,
) {
    if options.require_forbid {
        let has_forbid = sig.windows(6).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].ident() == Some("forbid")
                && w[4].is_punct('(')
                && w[5].ident() == Some("unsafe_code")
        });
        if !has_forbid {
            findings.push(Finding {
                line: 1,
                lint: Lint::U1,
                item: None,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }
    for token in sig {
        if token.ident() != Some("unsafe") {
            continue;
        }
        if options.vendor {
            let justified = comments.iter().any(|(line, text)| {
                *line + 3 >= token.line && *line <= token.line && text.contains("SAFETY")
            });
            if !justified {
                findings.push(Finding {
                    line: token.line,
                    lint: Lint::U1,
                    item: None,
                    message: "vendor `unsafe` without a `// SAFETY:` comment on or just above \
                              this line"
                        .to_string(),
                });
            }
        } else {
            findings.push(Finding {
                line: token.line,
                lint: Lint::U1,
                item: None,
                message: "`unsafe` outside vendor code — the workspace forbids it".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str, lints: &[Lint]) -> Vec<(u32, Lint)> {
        let options = ScanOptions {
            lints: lints.to_vec(),
            test_lints: lints.to_vec(),
            ..ScanOptions::default()
        };
        scan_source(src, &options).into_iter().map(|f| (f.line, f.lint)).collect()
    }

    #[test]
    fn d1_flags_hash_map_iteration_through_wrappers_and_chains() {
        let src = "struct S { counters: Mutex<HashMap<K, u64>> }\n\
                   fn render(s: &S) {\n\
                   for (k, v) in s.counters.lock().iter() {}\n\
                   }\n";
        assert_eq!(scan(src, &[Lint::D1]), vec![(3, Lint::D1)]);
    }

    #[test]
    fn d1_ignores_btreemap_and_non_iteration() {
        let src = "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for x in m.iter() {} \
                   let h: HashMap<u32, u32> = HashMap::new(); h.get(&1); h.insert(1, 2); }";
        assert_eq!(scan(src, &[Lint::D1]), vec![]);
    }

    #[test]
    fn d1_flags_direct_for_loops_over_maps() {
        let src = "fn f(seen: &HashSet<u32>) {\nfor x in seen {}\n}";
        assert_eq!(scan(src, &[Lint::D1]), vec![(2, Lint::D1)]);
    }

    #[test]
    fn d1_allows_len_in_loop_bounds() {
        let src = "fn f(m: &HashMap<u32, u32>) { for i in 0..m.len() { let _ = i; } }";
        assert_eq!(scan(src, &[Lint::D1]), vec![]);
    }

    #[test]
    fn p1_distinguishes_unwrap_from_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(scan(src, &[Lint::P1]), vec![(2, Lint::P1)]);
    }

    #[test]
    fn p1_flags_indexing_but_not_full_range_or_types() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 { let _all = &xs[..]; xs[i] }\n\
                   fn g(x: [u8; 4]) -> u8 { x.len() as u8 }\n\
                   fn h(xs: &mut [u32]) { xs.sort() }\n";
        assert_eq!(scan(src, &[Lint::P1]), vec![(1, Lint::P1)]);
    }

    #[test]
    fn allows_suppress_and_must_be_used_and_reasoned() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // audit:allow(P1): checked non-empty two lines up\n\
                   x.unwrap()\n\
                   }\n\
                   // audit:allow(P1): nothing here\n\
                   fn g() {}\n\
                   fn h(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(P1)\n";
        let found = scan(src, &[Lint::P1]);
        // Line 3 suppressed; line 5 allow unused (A2); line 7 allow lacks a
        // reason (A1) so the unwrap stands too.
        assert_eq!(found, vec![(5, Lint::A2), (7, Lint::P1), (7, Lint::A1)]);
    }

    #[test]
    fn test_regions_toggle_lints() {
        let src = "fn live(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { Some(1).unwrap(); }\n\
                   }\n";
        let options = ScanOptions { lints: vec![Lint::P1], ..ScanOptions::default() };
        let found: Vec<(u32, Lint)> =
            scan_source(src, &options).into_iter().map(|f| (f.line, f.lint)).collect();
        assert_eq!(found, vec![(1, Lint::P1)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let options = ScanOptions { lints: vec![Lint::P1], ..ScanOptions::default() };
        assert_eq!(scan_source(src, &options).len(), 1);
    }

    #[test]
    fn u1_requires_forbid_and_flags_unsafe() {
        let src = "pub fn f() {}\n";
        let options =
            ScanOptions { lints: vec![Lint::U1], require_forbid: true, ..ScanOptions::default() };
        let found = scan_source(src, &options);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::U1);

        let vendor_src = "fn f() { unsafe { x() } }\n\
                          // SAFETY: pointer is valid for the call\n\
                          fn g() { unsafe { x() } }\n";
        let vendor = ScanOptions { lints: vec![Lint::U1], vendor: true, ..ScanOptions::default() };
        let found: Vec<(u32, Lint)> =
            scan_source(vendor_src, &vendor).into_iter().map(|f| (f.line, f.lint)).collect();
        assert_eq!(found, vec![(1, Lint::U1)]);
    }

    #[test]
    fn d2_and_d3_match_paths() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }";
        let found = scan(src, &[Lint::D2, Lint::D3]);
        assert_eq!(found, vec![(1, Lint::D2), (1, Lint::D3)]);
    }
}
