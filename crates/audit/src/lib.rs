//! `geopriv-audit` — the workspace contract linter.
//!
//! Every PR in this repository leans on two hand-enforced contracts:
//! **bit-identical determinism** (the `derive_*_seed` streams, byte-diffed
//! `configure_geoi` output, the online/offline stream identity) and
//! **panic-freedom on hot paths** (typed `CoreError::Internal` on the sweep
//! pool, the hostile-client hardening of the serving layer). This crate
//! turns those conventions into a mechanical gate: a hand-rolled
//! token-level Rust lexer ([`lexer`]) feeding a zone-aware lint engine
//! ([`lints`], [`config`], [`engine`]).
//!
//! The lints (full contract text in `docs/contracts.md`):
//!
//! | id | contract |
//! |----|----------|
//! | D1 | no `HashMap`/`HashSet` iteration in deterministic or output-rendering zones |
//! | D2 | no `Instant::now` / `SystemTime::now` in deterministic zones |
//! | D3 | no entropy-seeded RNGs anywhere — seeds flow through `derive_*_seed` |
//! | P1 | no panic surfaces (`unwrap`/`expect`/`panic!`/`unreachable!`/bare indexing) on request/hot paths |
//! | U1 | `#![forbid(unsafe_code)]` on every non-vendor crate root; `// SAFETY:` on every vendor `unsafe` |
//! | R1 | every bare-`pub` library item is named by non-test code outside its own definition |
//! | A1/A2 | every `audit:allow` is well-formed, reasoned, and actually used |
//! | Z0 | every scanned file is covered by an explicit zone rule |
//!
//! Escape hatch: `// audit:allow(<lint-id>): <reason>` on the finding's
//! line or the line just above; the reason is mandatory. Grandfathered
//! findings live in the committed `audit-baseline.txt` under a ratchet
//! (counts may only decrease — see [`engine::Baseline`]).
//!
//! Entry point: `cargo run -p geopriv-audit -- --check`.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod lints;

pub use engine::{scan_file, scan_sources, scan_tree, AuditReport, Baseline, FileFinding};
pub use lints::{scan_source, Finding, Lint, ScanOptions};
