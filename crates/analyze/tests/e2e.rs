//! End-to-end checks over committed fixture trees: every rule fires,
//! both suppression forms work, and a clean tree passes.

use ehsim_analyze::{check_tree, FindingStatus, RuleId};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_rule_fires_on_the_violations_tree() {
    let report = check_tree(&fixture("violations")).expect("scan runs");
    assert!(!report.is_clean());
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    for rule in RuleId::ALL {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule {rule} never fired on the violations fixture"
        );
    }
    assert!(report
        .findings
        .iter()
        .all(|f| f.status == FindingStatus::New));
    // The D5 cast is pinned to the kernel-path file.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == RuleId::D5 && f.file == "crates/numeric/src/kernel.rs"));
    // D4 catches every panicking call form, macros included.
    let mut d4: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D4)
        .map(|f| f.what.as_str())
        .collect();
    d4.sort_unstable();
    assert_eq!(
        d4,
        [
            "`.unwrap()`",
            "`panic!`",
            "`todo!`",
            "`unimplemented!`",
            "`unreachable!`"
        ]
    );
}

#[test]
fn both_suppression_forms_silence_the_suppressed_tree() {
    let report = check_tree(&fixture("suppressed")).expect("scan runs");
    assert!(report.is_clean(), "{}", report.render(true));
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    // Everything the tree still contains is explicitly allowed...
    assert!(!report.findings.is_empty());
    assert!(report
        .findings
        .iter()
        .all(|f| f.status == FindingStatus::Suppressed));
    // ...and D6 is satisfied by the attribute, so it fires nowhere.
    assert!(report.findings.iter().all(|f| f.rule != RuleId::D6));
}

#[test]
fn clean_tree_has_zero_findings() {
    let report = check_tree(&fixture("clean")).expect("scan runs");
    assert!(report.is_clean());
    assert!(report.findings.is_empty(), "{}", report.render(true));
    assert!(report.problems.is_empty());
}

#[test]
fn malformed_and_unused_annotations_are_problems() {
    let dir = std::env::temp_dir().join(format!("ehsim-analyze-e2e-{}", std::process::id()));
    let src_dir = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\n\
         // lint:allow(D1)\n\
         pub fn nothing() {}\n\
         // lint:allow(D9): no such rule\n\
         // lint:allow(D2): nothing on the next line uses the clock\n\
         pub fn also_nothing() {}\n",
    )
    .expect("write fixture");
    let report = check_tree(&dir).expect("scan runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!report.is_clean());
    assert_eq!(report.problems.len(), 3, "{:?}", report.problems);
    let messages: Vec<&str> = report.problems.iter().map(|p| p.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("non-empty reason")));
    assert!(messages.iter().any(|m| m.contains("unknown rule")));
    assert!(messages.iter().any(|m| m.contains("unused lint:allow")));
}

#[test]
fn binary_exit_codes_match_the_verdict() {
    let bin = env!("CARGO_BIN_EXE_ehsim-analyze");
    let run = |tree: &str| {
        Command::new(bin)
            .args(["check", "--root"])
            .arg(fixture(tree))
            .output()
            .expect("binary runs")
    };

    let clean = run("clean");
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");

    let dirty = run("violations");
    assert_eq!(dirty.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");

    let suppressed = run("suppressed");
    assert_eq!(suppressed.status.code(), Some(0), "suppressed tree exits 0");
}

#[test]
fn binary_checks_the_real_workspace_cleanly() {
    // The workspace's own determinism contract is CLEAN at all times:
    // every finding is fixed or carries a justified annotation.
    let bin = env!("CARGO_BIN_EXE_ehsim-analyze");
    let out = Command::new(bin)
        .arg("check")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("CLEAN"), "{stdout}");
}
