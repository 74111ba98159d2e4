//! The check engine: walk the tree, lex, scan, resolve suppressions,
//! and render the verdict.

use crate::lexer;
use crate::rules::{self, RuleId};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a finding was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingStatus {
    /// Not suppressed: fails the check.
    New,
    /// Suppressed by an inline `// lint:allow(rule): reason` annotation.
    Suppressed,
}

/// One resolved finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What fired (e.g. "`HashMap`").
    pub what: String,
    /// Resolution.
    pub status: FindingStatus,
}

/// An inline suppression annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule it allows.
    pub rule: RuleId,
    /// 1-based line of the comment.
    pub line: usize,
    /// The mandatory justification.
    pub reason: String,
}

/// A problem with the scan itself (unlexable file, malformed
/// annotation, unused annotation): always fails the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProblem {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for file-level problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

/// The full outcome of one `check` run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding, resolved, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Scan problems (malformed/unused annotations, lex failures).
    pub problems: Vec<ScanProblem>,
    /// Number of files scanned (rules applied).
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree passes: no new findings and no scan problems.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty() && self.findings.iter().all(|f| f.status != FindingStatus::New)
    }

    /// Counts by status: (new, suppressed).
    pub fn counts(&self) -> (usize, usize) {
        let new = self
            .findings
            .iter()
            .filter(|f| f.status == FindingStatus::New)
            .count();
        (new, self.findings.len() - new)
    }

    /// Renders the human-readable verdict (what the CLI prints).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        for p in &self.problems {
            let _ = writeln!(out, "{}:{}: scan problem: {}", p.file, p.line, p.message);
        }
        for f in &self.findings {
            let (tag, show) = match f.status {
                FindingStatus::New => ("NEW", true),
                FindingStatus::Suppressed => ("allowed", verbose),
            };
            if show {
                let _ = writeln!(
                    out,
                    "{}:{}:{} {} [{}] {} — {}",
                    f.file,
                    f.line,
                    f.col,
                    f.rule,
                    tag,
                    f.what,
                    f.rule.summary()
                );
            }
        }
        let (new, suppressed) = self.counts();
        let _ = writeln!(
            out,
            "ehsim-analyze: {} files scanned, {} findings ({} new, {} allowed), {} scan problems",
            self.files_scanned,
            self.findings.len(),
            new,
            suppressed,
            self.problems.len()
        );
        if self.is_clean() {
            let _ = writeln!(out, "determinism contract: CLEAN");
        } else {
            let _ = writeln!(
                out,
                "determinism contract: VIOLATED — fix the sites above, or (only with a \
                 written justification, and never for D4) add \
                 `// lint:allow(<rule>): <reason>`"
            );
        }
        out
    }
}

/// Parses every `lint:allow(<rule>): <reason>` annotation in a comment
/// token's text. Malformed annotations are reported as problems.
fn parse_suppressions(
    comment: &str,
    line: usize,
    file: &str,
    problems: &mut Vec<ScanProblem>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    let mut rest = comment;
    const MARKER: &str = "lint:allow(";
    while let Some(at) = rest.find(MARKER) {
        let after = &rest[at + MARKER.len()..];
        let Some(close) = after.find(')') else {
            problems.push(ScanProblem {
                file: file.to_string(),
                line,
                message: "malformed lint:allow annotation: missing `)`".into(),
            });
            return out;
        };
        let rule_str = after[..close].trim();
        let tail = &after[close + 1..];
        let (annotation_ok, reason) = match tail.strip_prefix(':') {
            Some(r) => {
                // The reason runs to the next annotation or end of comment.
                let end = r.find(MARKER).unwrap_or(r.len());
                (true, r[..end].trim().to_string())
            }
            None => (false, String::new()),
        };
        match RuleId::parse(rule_str) {
            Some(rule) if annotation_ok && !reason.is_empty() => {
                out.push(Suppression { rule, line, reason });
            }
            Some(_) => {
                problems.push(ScanProblem {
                    file: file.to_string(),
                    line,
                    message: format!(
                        "lint:allow({rule_str}) needs a non-empty reason: \
                         `// lint:allow({rule_str}): <why this is sound>`"
                    ),
                });
            }
            None => {
                problems.push(ScanProblem {
                    file: file.to_string(),
                    line,
                    message: format!("lint:allow names unknown rule `{rule_str}`"),
                });
            }
        }
        rest = tail;
    }
    out
}

/// Directories never scanned, wherever they appear.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Collects every scannable `.rs` file under `root`, sorted by
/// relative path (determinism: the report order never depends on
/// filesystem iteration order).
fn collect_sources(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((path, rel));
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

/// Checks the tree rooted at `root`.
///
/// # Errors
///
/// Only on I/O failure walking or reading the tree; everything found
/// *in* the sources is reported through the [`Report`].
pub fn check_tree(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for (path, rel) in collect_sources(root)? {
        let class = rules::classify(&rel);
        if !class.any_rule_applies() {
            continue;
        }
        report.files_scanned += 1;
        let src = fs::read_to_string(&path)?;
        let tokens = match lexer::lex(&src) {
            Ok(t) => t,
            Err(e) => {
                report.problems.push(ScanProblem {
                    file: rel.clone(),
                    line: e.line,
                    message: format!("cannot lex: {e}"),
                });
                continue;
            }
        };
        let in_test = rules::test_spans(&tokens);
        let raw = rules::scan(&tokens, &in_test, &class);
        // Gather suppressions from comments. Doc comments are exempt:
        // they *describe* annotations (`///` text, doc examples), they
        // never *are* one — a suppression must sit in a plain comment
        // at the site it covers.
        let is_doc = |text: &str| {
            text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!")
        };
        let mut suppressions: Vec<(Suppression, bool)> = Vec::new();
        for t in &tokens {
            if matches!(
                t.kind,
                crate::lexer::TokenKind::LineComment | crate::lexer::TokenKind::BlockComment
            ) && !is_doc(&t.text)
            {
                for s in parse_suppressions(&t.text, t.line, &rel, &mut report.problems) {
                    suppressions.push((s, false));
                }
            }
        }
        // Resolve each finding: suppressed if a matching annotation
        // sits on its line or the line directly above.
        for f in raw {
            let mut status = FindingStatus::New;
            // A same-line annotation wins over one on the line above, so
            // adjacent annotated sites each consume their own annotation.
            let matched = suppressions
                .iter()
                .position(|(s, _)| s.rule == f.rule && s.line == f.line)
                .or_else(|| {
                    suppressions
                        .iter()
                        .position(|(s, _)| s.rule == f.rule && s.line + 1 == f.line)
                });
            if let Some(i) = matched {
                suppressions[i].1 = true;
                status = FindingStatus::Suppressed;
            }
            report.findings.push(Finding {
                rule: f.rule,
                file: rel.clone(),
                line: f.line,
                col: f.col,
                what: f.what,
                status,
            });
        }
        for (s, used) in &suppressions {
            if !used {
                report.problems.push(ScanProblem {
                    file: rel.clone(),
                    line: s.line,
                    message: format!(
                        "unused lint:allow({}) — the finding it covered is gone; \
                         delete the annotation",
                        s.rule
                    ),
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}
