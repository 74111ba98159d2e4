//! The determinism rule set and its application to one token stream.
//!
//! Each rule is a named, documented clause of the workspace's
//! bit-reproducibility contract (see `docs/ARCHITECTURE.md`, "Static
//! analysis & the determinism contract"). Rules fire on *code* tokens
//! only — comments, strings, and doc examples never trigger them — and
//! test code (`tests/`, `benches/`, `examples/`, `src/bin/`,
//! `#[cfg(test)]` items) is exempt from everything except what it
//! opts into.

use crate::lexer::{Token, TokenKind};

/// A determinism rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in result-affecting library code.
    D1,
    /// `std::time::Instant` / `SystemTime` outside bench/reporting code.
    D2,
    /// Entropy or environment reads in library code.
    D3,
    /// `unwrap`/`expect` and the panicking macros (`panic!`,
    /// `unreachable!`, `todo!`, `unimplemented!`) in non-test library
    /// code.
    D4,
    /// Float→int `as` casts in solver/kernel hot paths.
    D5,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    D6,
}

impl RuleId {
    /// All rules, in order.
    pub const ALL: [RuleId; 6] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
    ];

    /// The rule's short code (`"D1"`…).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
        }
    }

    /// Parses a short code.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "D6" => Some(RuleId::D6),
            _ => None,
        }
    }

    /// One-line statement of the contract clause the rule enforces.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "HashMap/HashSet in result-affecting library code: iteration order is \
                 seeded per-instance and varies across runs — use BTreeMap/BTreeSet \
                 or drain through a sorted Vec"
            }
            RuleId::D2 => {
                "wall-clock read (Instant/SystemTime) outside bench/reporting code: \
                 wall-clock values must never reach result bytes"
            }
            RuleId::D3 => {
                "entropy/environment read (from_entropy/thread_rng/env::var) in \
                 library code: all randomness must flow from an explicit seed"
            }
            RuleId::D4 => {
                "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test \
                 library code: fallible paths must surface typed errors, not abort"
            }
            RuleId::D5 => {
                "float->int `as` cast in a solver/kernel hot path: truncation hides \
                 rounding intent — justify the rounding mode explicitly"
            }
            RuleId::D6 => "crate root missing #![forbid(unsafe_code)]",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How a file participates in the scan, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Under a `tests/`, `benches/`, or `examples/` component.
    pub test: bool,
    /// Part of the `crates/bench` reporting crate.
    pub bench_crate: bool,
    /// A binary target (`src/bin/…` or `main.rs`).
    pub bin: bool,
    /// A crate root (`src/lib.rs`).
    pub crate_root: bool,
    /// Inside one of the solver/kernel hot-path crates (D5 scope).
    pub kernel: bool,
}

/// Solver/kernel hot paths: the crates whose numeric loops produce the
/// bits every differential test pins.
const KERNEL_PATHS: [&str; 4] = [
    "crates/numeric/src",
    "crates/circuit/src",
    "crates/power/src",
    "crates/node/src",
];

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let test = rel_path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let bin = rel_path.split('/').any(|c| c == "bin") || rel_path.ends_with("main.rs");
    FileClass {
        test,
        bench_crate: rel_path.starts_with("crates/bench/"),
        bin,
        crate_root: rel_path.ends_with("src/lib.rs"),
        kernel: KERNEL_PATHS.iter().any(|k| rel_path.starts_with(k)),
    }
}

impl FileClass {
    /// Whether `rule` applies to this file at all (test spans within
    /// the file are a further, token-level exemption).
    pub fn rule_applies(&self, rule: RuleId) -> bool {
        match rule {
            RuleId::D1 | RuleId::D2 | RuleId::D3 | RuleId::D4 => {
                !self.test && !self.bench_crate && !self.bin
            }
            RuleId::D5 => self.kernel && !self.test && !self.bin,
            RuleId::D6 => self.crate_root && !self.test,
        }
    }

    /// Whether any rule can fire here (files where nothing applies are
    /// skipped without lexing).
    pub fn any_rule_applies(&self) -> bool {
        RuleId::ALL.iter().any(|&r| self.rule_applies(r))
    }
}

/// One raw rule hit, before suppression resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// The rule that fired.
    pub rule: RuleId,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What fired, e.g. "`HashMap`" or "`.unwrap()`".
    pub what: String,
}

/// Marks every token inside a `#[cfg(test)]` item (attribute through
/// the item's closing `}` or `;`), so token-level rules can exempt
/// embedded unit-test modules.
pub fn test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    // Indices of code tokens (comments are transparent to matching).
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let is_punct = |ci: usize, c: char| -> bool {
        ci < code.len() && tok(ci).kind == TokenKind::Punct && tok(ci).text == c.to_string()
    };
    let is_ident = |ci: usize, s: &str| -> bool {
        ci < code.len() && tok(ci).kind == TokenKind::Ident && tok(ci).text == s
    };
    let mut ci = 0usize;
    while ci < code.len() {
        // Match `# [ cfg ( test ) ]` exactly.
        let is_cfg_test = is_punct(ci, '#')
            && is_punct(ci + 1, '[')
            && is_ident(ci + 2, "cfg")
            && is_punct(ci + 3, '(')
            && is_ident(ci + 4, "test")
            && is_punct(ci + 5, ')')
            && is_punct(ci + 6, ']');
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        let span_start = ci;
        let mut cj = ci + 7;
        // Skip any further attributes on the same item.
        while is_punct(cj, '#') && is_punct(cj + 1, '[') {
            let mut depth = 0usize;
            cj += 1;
            while cj < code.len() {
                if is_punct(cj, '[') {
                    depth += 1;
                } else if is_punct(cj, ']') {
                    depth -= 1;
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                cj += 1;
            }
        }
        // The item body ends at the first `;` (item without a body) or
        // at the matching `}` of its first brace.
        while cj < code.len() && !is_punct(cj, ';') && !is_punct(cj, '{') {
            cj += 1;
        }
        if cj < code.len() && is_punct(cj, '{') {
            let mut depth = 0usize;
            while cj < code.len() {
                if is_punct(cj, '{') {
                    depth += 1;
                } else if is_punct(cj, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                cj += 1;
            }
        }
        let span_end = cj.min(code.len().saturating_sub(1));
        let (lo, hi) = (code[span_start], code[span_end]);
        for flag in &mut flags[lo..=hi] {
            *flag = true;
        }
        ci = span_end + 1;
    }
    flags
}

const INT_TYPES: [&str; 12] = [
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// `f64` methods whose result is a float: a `)`-terminated call chain
/// ending in one of these, cast with `as <int>`, is a proven
/// float→int truncation.
const FLOAT_METHODS: [&str; 17] = [
    "floor", "ceil", "round", "trunc", "fract", "sqrt", "cbrt", "ln", "log2", "log10", "exp",
    "exp2", "powi", "powf", "hypot", "mul_add", "recip",
];

/// Runs every applicable token-level rule over one file's tokens.
///
/// `in_test[i]` exempts token `i` (from [`test_spans`]). D6 is also
/// checked here (presence of `#![forbid(unsafe_code)]` for crate
/// roots).
pub fn scan(tokens: &[Token], in_test: &[bool], class: &FileClass) -> Vec<RawFinding> {
    let mut out = Vec::new();
    // Code-token indices for context-sensitive lookarounds.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut forbids_unsafe = false;
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        // D6 detection runs over test spans too (the attribute sits at
        // the very top of a crate root anyway).
        if class.crate_root
            && t.kind == TokenKind::Punct
            && t.text == "#"
            && matches_seq(
                tokens,
                &code,
                ci,
                &["!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            )
        {
            forbids_unsafe = true;
        }
        if in_test[ti] || t.kind != TokenKind::Ident {
            continue;
        }
        let prev = |k: usize| -> Option<&Token> { ci.checked_sub(k).map(|cj| &tokens[code[cj]]) };
        let next = |k: usize| -> Option<&Token> { code.get(ci + k).map(|&tj| &tokens[tj]) };
        let mut push = |rule: RuleId, what: String| {
            if class.rule_applies(rule) {
                out.push(RawFinding {
                    rule,
                    line: t.line,
                    col: t.col,
                    what,
                });
            }
        };
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(RuleId::D1, format!("`{}`", t.text)),
            "Instant" | "SystemTime" => push(RuleId::D2, format!("`{}`", t.text)),
            "from_entropy" | "thread_rng" => push(RuleId::D3, format!("`{}`", t.text)),
            "var" => {
                // `env::var` / `std::env::var`.
                let colons = prev(1).is_some_and(|p| p.text == ":")
                    && prev(2).is_some_and(|p| p.text == ":");
                if colons && prev(3).is_some_and(|p| p.text == "env") {
                    push(RuleId::D3, "`env::var`".into());
                }
            }
            "unwrap" | "expect"
                if prev(1).is_some_and(|p| p.kind == TokenKind::Punct && p.text == ".") =>
            {
                push(RuleId::D4, format!("`.{}()`", t.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next(1).is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!") =>
            {
                push(RuleId::D4, format!("`{}!`", t.text));
            }
            "as" => {
                if let Some(n) = next(1) {
                    if n.kind == TokenKind::Ident && INT_TYPES.contains(&n.text.as_str()) {
                        if let Some(what) = float_cast_evidence(tokens, &code, ci) {
                            push(RuleId::D5, format!("`{} as {}`", what, n.text));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if class.rule_applies(RuleId::D6) && !forbids_unsafe {
        out.push(RawFinding {
            rule: RuleId::D6,
            line: 1,
            col: 1,
            what: "missing `#![forbid(unsafe_code)]`".into(),
        });
    }
    out
}

/// Checks that the code tokens after `code[ci]` spell out `expected`
/// (idents and single-char puncts, verbatim).
fn matches_seq(tokens: &[Token], code: &[usize], ci: usize, expected: &[&str]) -> bool {
    expected.iter().enumerate().all(|(k, want)| {
        code.get(ci + 1 + k)
            .is_some_and(|&tj| tokens[tj].text == *want)
    })
}

/// Lexical evidence that the expression cast with `as` (code index
/// `ci`) is a float: either a float literal, or a call chain whose
/// final method is a float-returning `f64` method. Bare identifiers
/// are invisible to a lexer and deliberately not guessed at — the rule
/// is conservative (documented in ARCHITECTURE).
fn float_cast_evidence(tokens: &[Token], code: &[usize], ci: usize) -> Option<String> {
    let prev_ci = ci.checked_sub(1)?;
    let prev = &tokens[code[prev_ci]];
    if prev.kind == TokenKind::FloatLit {
        return Some(prev.text.clone());
    }
    if prev.kind == TokenKind::Punct && prev.text == ")" {
        // Walk back to the matching '(' over code tokens.
        let mut depth = 0usize;
        let mut cj = prev_ci;
        loop {
            let t = &tokens[code[cj]];
            if t.kind == TokenKind::Punct && t.text == ")" {
                depth += 1;
            } else if t.kind == TokenKind::Punct && t.text == "(" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            cj = cj.checked_sub(1)?;
        }
        // `(` must follow `.method` with method in the float set.
        let m = cj.checked_sub(1).map(|k| &tokens[code[k]])?;
        let dot = cj.checked_sub(2).map(|k| &tokens[code[k]])?;
        if m.kind == TokenKind::Ident
            && dot.kind == TokenKind::Punct
            && dot.text == "."
            && FLOAT_METHODS.contains(&m.text.as_str())
        {
            return Some(format!("….{}()", m.text));
        }
    }
    None
}
