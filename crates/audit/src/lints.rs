//! The zone-aware contract lints and their token-level detectors.
//!
//! Each lint has a stable id used in findings and in `audit:allow(<id>)`
//! escape hatches. The checks are heuristic by design — a token-level view
//! has no type information — but every heuristic errs toward *reporting*,
//! and the reasoned allow is the pressure valve. R1 (liveness) is the
//! exception: it judges by name, so it errs toward silence where names
//! collide. See `docs/contracts.md` for the contract each lint enforces and
//! the historical bug it guards against.

use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeSet;

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
    /// A library item that is not live: no bin, example, benchmark or
    /// allowed item reaches it through the items that name each other.
    /// Code that nothing reaches is deleted.
    R1,
    /// Malformed `audit:allow` (unknown lint id or missing reason).
    A1,
    /// An `audit:allow` that suppresses nothing (stale escape hatch).
    A2,
    /// A scanned file matched by no zone rule: coverage must be explicit.
    Z0,
}

impl Lint {
    /// The stable id used in findings and allows.
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
}

/// How one file should be scanned (derived from its zone memberships).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanOptions {
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

/// The tokens lints look at: everything but comments.
fn significant(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| !matches!(t.kind, TokKind::Comment(_))).collect()
}

/// Scans one file's source under the given options and returns its
/// findings, sorted by line then lint id, with allows already applied and
/// allow-discipline findings (A1/A2) included. R1 needs the whole tree, so
/// its findings for this file come in as `r1` ([`unreached`]).
pub(crate) fn scan_source(src: &str, options: &ScanOptions, r1: Vec<Finding>) -> Vec<Finding> {
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
    raw.extend(r1);
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
    for allow in allows.iter().filter(|a| !a.used) {
        findings.push(Finding {
            line: allow.line,
            lint: Lint::A2,
            message: format!(
                "unused audit:allow({}) — it suppresses nothing on this or the next line; \
                 remove it",
                allow.lint.id()
            ),
        });
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
                message: "malformed audit:allow — expected `audit:allow(<lint-id>): <reason>`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = open.find(')') else {
            findings.push(Finding {
                line,
                lint: Lint::A1,
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
                message: format!("audit:allow names unknown or non-allowable lint `{id}`"),
            });
            continue;
        };
        let reason = rest.strip_prefix(':').map(str::trim_start).unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                line,
                lint: Lint::A1,
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

/// Parses an attribute starting at its `[`; returns (index of `]`, whether
/// it gates on test or doctest). `#[cfg(not(test))]` gates on *not* test
/// and is excluded.
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
            TokKind::Ident(name) if name == "test" || name == "doctest" => has_test = true,
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

/// What a file is to R1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// A bin, an example or the benchmark: every non-test token is a root.
    Root,
    /// A file of a zone where R1 is armed: its items are the graph's nodes,
    /// and its tokens outside every item are roots.
    Library,
    /// Tests and vendored shims: nothing they name keeps code alive.
    Ignored,
}

/// Whose item an item is, for the rule that makes it live ([`Graph::live`]).
#[derive(Debug, Clone, Copy)]
enum Owner<'t> {
    /// A module's: a free function, type, constant or macro.
    Module,
    /// An inherent `impl` block's, with its self type.
    Inherent(&'t str),
    /// A trait `impl` block's, with its self type; also the block's header.
    TraitImpl(&'t str),
    /// A trait declaration's, with the trait.
    Trait(&'t str),
}

/// A node of R1's name graph: an item, or an `impl` block's header.
struct Node<'t> {
    /// Index of the node's file.
    file: usize,
    /// The item's name; empty for an `impl` header, which is never reported.
    name: &'t str,
    /// Line of the item's name.
    line: u32,
    owner: Owner<'t>,
    /// Whether other items can take it as their self type or trait: a
    /// module's struct, enum, trait or type alias.
    is_type: bool,
    /// Every identifier among its tokens but the name it defines.
    names: Vec<&'t str>,
    /// Whether an `audit:allow(R1)` sits on its name's line or the one above.
    allowed: bool,
}

/// R1's name graph over a whole tree: the names its roots carry and the
/// nodes of its library files.
#[derive(Default)]
struct Graph<'t> {
    roots: Vec<&'t str>,
    nodes: Vec<Node<'t>>,
}

impl<'t> Graph<'t> {
    /// Which nodes are live when the nodes `seed` picks are live from the
    /// start. A module's item is live when a root or a live node names it;
    /// a trait's item or an inherent method also needs its trait or self
    /// type live; a trait impl's item, and every impl header, is live
    /// exactly when its self type is. A self type that the tree does not
    /// define (a generic parameter, a std type) counts as live.
    fn live(&self, seed: impl Fn(&Node<'t>) -> bool) -> Vec<bool> {
        let types: BTreeSet<&str> =
            self.nodes.iter().filter(|n| n.is_type).map(|n| n.name).collect();
        let mut named: BTreeSet<&str> = self.roots.iter().copied().collect();
        let mut live_types: BTreeSet<&str> = BTreeSet::new();
        let mut live = vec![false; self.nodes.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (node, live) in self.nodes.iter().zip(live.iter_mut()) {
                let type_live = |ty: &str| !types.contains(ty) || live_types.contains(ty);
                let reached = match node.owner {
                    Owner::Module => named.contains(node.name),
                    Owner::Inherent(ty) | Owner::Trait(ty) => {
                        named.contains(node.name) && type_live(ty)
                    }
                    Owner::TraitImpl(ty) => type_live(ty),
                };
                if *live || !(reached || seed(node)) {
                    continue;
                }
                *live = true;
                changed = true;
                named.extend(node.names.iter().copied());
                if node.is_type {
                    live_types.insert(node.name);
                }
            }
        }
        live
    }
}

/// R1 over a whole tree of `(role, source)` files: each file's findings,
/// one per item that is not live ([`Graph::live`]).
///
/// Roots are the non-test tokens of [`Role::Root`] files, the tokens of
/// library files that lie outside every item (plain `use`, module-level
/// macro calls), and every item under `audit:allow(R1)`. Such an item gets
/// its finding, for the allow to suppress, exactly when it would not be
/// live without the allows: an allow on an item that is live anyway is
/// stale (A2).
pub(crate) fn unreached(files: &[(Role, &str)]) -> Vec<Vec<Finding>> {
    let tokens: Vec<Vec<Token>> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut graph = Graph::default();
    for (file, ((role, _), tokens)) in files.iter().zip(&tokens).enumerate() {
        let sig = significant(tokens);
        let tests = test_regions(&sig);
        match role {
            Role::Root => graph.roots.extend(
                sig.iter().filter(|t| !in_regions(t.line, &tests)).filter_map(|t| t.ident()),
            ),
            Role::Library => {
                let mut allows = Vec::new();
                for token in tokens {
                    if let TokKind::Comment(text) = &token.kind {
                        parse_allows(token.line, text, &mut allows, &mut Vec::new());
                    }
                }
                let allowed: Vec<u32> =
                    allows.iter().filter(|a| a.lint == Lint::R1).map(|a| a.line).collect();
                let scope = Scope { sig: &sig, tests: &tests, allowed: &allowed, file };
                scope.items(0, sig.len(), Owner::Module, &mut graph);
            }
            Role::Ignored => {}
        }
    }
    let unaided = graph.live(|_| false);
    let live = graph.live(|node| node.allowed);
    let mut findings = vec![Vec::new(); files.len()];
    for (k, node) in graph.nodes.iter().enumerate() {
        let dead = if node.allowed { !unaided[k] } else { !live[k] };
        if !dead || node.name.is_empty() {
            continue;
        }
        let name = match node.owner {
            Owner::Module => node.name.to_string(),
            Owner::Inherent(ty) | Owner::TraitImpl(ty) | Owner::Trait(ty) => {
                format!("{ty}::{}", node.name)
            }
        };
        findings[node.file].push(Finding {
            line: node.line,
            lint: Lint::R1,
            message: format!(
                "`{name}` is not live: no bin, example, benchmark or allowed item reaches it, \
                 directly or through items that name it — delete it, or audit:allow(R1) it as \
                 deliberate public API"
            ),
        });
    }
    findings
}

/// One library file, split into R1's nodes.
struct Scope<'a, 't> {
    sig: &'a [&'t Token],
    tests: &'a [(u32, u32)],
    /// Lines of the file's `audit:allow(R1)` directives.
    allowed: &'a [u32],
    file: usize,
}

impl<'t> Scope<'_, 't> {
    fn ident(&self, k: usize) -> Option<&'t str> {
        self.sig.get(k).and_then(|t| t.ident())
    }

    fn punct(&self, k: usize, c: char) -> bool {
        self.sig.get(k).is_some_and(|t| t.is_punct(c))
    }

    /// Adds the items of `sig[lo..hi]` — a module's, impl's or trait's
    /// body — to the graph, and the names its tokens outside every item
    /// carry to the roots. Items in test regions and `pub use` re-exports
    /// add nothing.
    fn items(&self, lo: usize, hi: usize, owner: Owner<'t>, graph: &mut Graph<'t>) {
        let mut i = lo;
        while i < hi {
            let start = i;
            let mut k = i;
            while self.punct(k, '#') {
                let open = if self.punct(k + 1, '!') { k + 2 } else { k + 1 };
                if !self.punct(open, '[') {
                    break;
                }
                k = parse_attribute(self.sig, open).0 + 1;
            }
            let public = self.ident(k) == Some("pub");
            if public {
                k += 1;
                if self.punct(k, '(') {
                    while k < hi && !self.punct(k, ')') {
                        k += 1;
                    }
                    k += 1;
                }
            }
            // `const fn`, `async fn`, `unsafe impl` and their combinations.
            while matches!(self.ident(k), Some("const" | "async" | "unsafe"))
                && matches!(self.ident(k + 1), Some("fn" | "const" | "async" | "unsafe" | "impl"))
            {
                k += 1;
            }
            let keyword = self.ident(k);
            let semi_only = matches!(keyword, Some("const" | "static" | "type" | "use"));
            let end = item_end(self.sig, k, hi, semi_only);
            i = end + 1;
            if self.sig.get(k).is_some_and(|t| in_regions(t.line, self.tests)) {
                continue;
            }
            let is_type = matches!(owner, Owner::Module)
                && matches!(keyword, Some("struct" | "enum" | "trait" | "type"));
            let name_at = match keyword {
                Some("macro_rules") if self.punct(k + 1, '!') => k + 2,
                _ => k + 1,
            };
            match (keyword, self.ident(name_at)) {
                (Some("impl"), _) => {
                    let Some(open) = body_open(self.sig, k, end) else { continue };
                    let (self_type, of_trait) = impl_header(&self.sig[k..open]);
                    let header = Owner::TraitImpl(self_type);
                    self.push(graph, (start, open), usize::MAX, header, false);
                    let owner = if of_trait { header } else { Owner::Inherent(self_type) };
                    self.items(open + 1, end, owner, graph);
                }
                (Some("mod"), _) => {
                    if let Some(open) = body_open(self.sig, k, end) {
                        self.items(open + 1, end, Owner::Module, graph);
                    }
                }
                (Some("use"), _) if public => {}
                (Some("trait"), Some(name)) => {
                    let Some(open) = body_open(self.sig, k, end) else { continue };
                    self.push(graph, (start, open), name_at, owner, is_type);
                    self.items(open + 1, end, Owner::Trait(name), graph);
                }
                (
                    Some("fn" | "struct" | "enum" | "type" | "const" | "static" | "macro_rules"),
                    Some(_),
                ) => self.push(graph, (start, end), name_at, owner, is_type),
                _ => graph.roots.extend((start..=end).filter_map(|k| self.ident(k))),
            }
        }
    }

    /// Adds the node whose tokens are `sig[lo..=hi]` and whose name is the
    /// token at `name_at` (none for an impl header, `usize::MAX`).
    fn push(
        &self,
        graph: &mut Graph<'t>,
        (lo, hi): (usize, usize),
        name_at: usize,
        owner: Owner<'t>,
        is_type: bool,
    ) {
        let name = self.ident(name_at).unwrap_or("");
        let line = self.sig.get(name_at).map_or(0, |t| t.line);
        graph.nodes.push(Node {
            file: self.file,
            name,
            line,
            owner,
            is_type,
            names: (lo..=hi).filter(|&k| k != name_at).filter_map(|k| self.ident(k)).collect(),
            allowed: self.allowed.iter().any(|&a| a == line || a + 1 == line),
        });
    }
}

/// The index of the last token of the item whose keyword is at `from`,
/// within `sig[..hi]`: the `;` that ends it outside brackets, or the `}`
/// that closes its body. Constants, statics, type aliases and `use`
/// declarations end only at their `;`, since their values and use trees
/// hold braces.
fn item_end(sig: &[&Token], from: usize, hi: usize, semi_only: bool) -> usize {
    let mut depth = 0i32;
    for (k, token) in sig.iter().enumerate().take(hi).skip(from) {
        match token.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 && !semi_only {
                    return k;
                }
            }
            TokKind::Punct(';') if depth <= 0 => return k,
            _ => {}
        }
    }
    hi.saturating_sub(1).max(from)
}

/// The index of the `{` that opens the body of the item at `from`: the
/// first one outside parentheses and brackets, up to `end`.
fn body_open(sig: &[&Token], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, token) in sig.iter().enumerate().take(end + 1).skip(from) {
        match token.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// An impl header's self type — its last name outside generics, before
/// any `where` — and whether the block implements a trait (a `for` outside
/// generics).
fn impl_header<'t>(header: &[&'t Token]) -> (&'t str, bool) {
    let (mut angle, mut self_type, mut of_trait) = (0i32, "", false);
    for (k, token) in header.iter().enumerate() {
        match &token.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !(k > 0 && header[k - 1].is_punct('-')) => angle -= 1,
            TokKind::Ident(name) if angle == 0 && name == "where" => break,
            TokKind::Ident(name) if angle == 0 && name == "for" => of_trait = true,
            TokKind::Ident(name) if angle == 0 => self_type = name.as_str(),
            _ => {}
        }
    }
    (self_type, of_trait)
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
                    message: "vendor `unsafe` without a `// SAFETY:` comment on or just above \
                              this line"
                        .to_string(),
                });
            }
        } else {
            findings.push(Finding {
                line: token.line,
                lint: Lint::U1,
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
        scan_source(src, &options, Vec::new()).into_iter().map(|f| (f.line, f.lint)).collect()
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
            scan_source(src, &options, Vec::new()).into_iter().map(|f| (f.line, f.lint)).collect();
        assert_eq!(found, vec![(1, Lint::P1)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let options = ScanOptions { lints: vec![Lint::P1], ..ScanOptions::default() };
        assert_eq!(scan_source(src, &options, Vec::new()).len(), 1);
    }

    #[test]
    fn u1_requires_forbid_and_flags_unsafe() {
        let src = "pub fn f() {}\n";
        let options =
            ScanOptions { lints: vec![Lint::U1], require_forbid: true, ..ScanOptions::default() };
        let found = scan_source(src, &options, Vec::new());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::U1);

        let vendor_src = "fn f() { unsafe { x() } }\n\
                          // SAFETY: pointer is valid for the call\n\
                          fn g() { unsafe { x() } }\n";
        let vendor = ScanOptions { lints: vec![Lint::U1], vendor: true, ..ScanOptions::default() };
        let found: Vec<(u32, Lint)> = scan_source(vendor_src, &vendor, Vec::new())
            .into_iter()
            .map(|f| (f.line, f.lint))
            .collect();
        assert_eq!(found, vec![(1, Lint::U1)]);
    }

    #[test]
    fn d2_and_d3_match_paths() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }";
        let found = scan(src, &[Lint::D2, Lint::D3]);
        assert_eq!(found, vec![(1, Lint::D2), (1, Lint::D3)]);
    }
}
