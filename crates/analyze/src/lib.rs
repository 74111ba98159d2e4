#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `ehsim-analyze` — the workspace determinism lint.
//!
//! Every headline result in this workspace rests on a determinism
//! contract: CSVs byte-identical across invocations and thread counts,
//! fleet runs bit-equal to sequential oracles, cache replays
//! bit-identical to fresh simulations. Until now that contract was
//! enforced only *after the fact*, by differential tests. This crate
//! enforces it *at the source*: a hand-rolled Rust lexer
//! ([`lexer`] — no `syn`, the build is offline) feeds a rule engine
//! ([`rules`]) that walks every non-vendored workspace source file and
//! flags the patterns that silently break bit-reproducibility:
//!
//! | rule | clause |
//! |------|--------|
//! | D1 | `HashMap`/`HashSet` in result-affecting library code |
//! | D2 | `Instant`/`SystemTime` outside bench/reporting code |
//! | D3 | entropy/environment reads in library code |
//! | D4 | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test library code |
//! | D5 | float→int `as` casts in solver/kernel hot paths |
//! | D6 | crate root missing `#![forbid(unsafe_code)]` |
//!
//! Suppression is explicit and auditable: an inline
//! `// lint:allow(D2): <reason>` annotation (the reason is mandatory,
//! and an annotation that stops matching anything fails the check).
//! Every other finding fails the check. D4 gets no annotations at all:
//! a panic in library code is fixed, never allowed.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p ehsim-analyze -- check
//! ```

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{check_tree, Finding, FindingStatus, Report, ScanProblem};
pub use rules::RuleId;
