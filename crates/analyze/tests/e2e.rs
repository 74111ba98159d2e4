//! End-to-end checks over committed fixture trees: every rule fires,
//! both suppression forms work, a clean tree passes, and the baseline
//! meters debt per (file, rule).

use ehsim_analyze::{check_tree, Baseline, FindingStatus, RuleId};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_rule_fires_on_the_violations_tree() {
    let report = check_tree(&fixture("violations"), &Baseline::empty()).expect("scan runs");
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
    let report = check_tree(&fixture("suppressed"), &Baseline::empty()).expect("scan runs");
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
    let report = check_tree(&fixture("clean"), &Baseline::empty()).expect("scan runs");
    assert!(report.is_clean());
    assert!(report.findings.is_empty(), "{}", report.render(true));
    assert!(report.problems.is_empty());
    assert!(report.stale_baseline.is_empty());
}

#[test]
fn baseline_grandfathers_exactly_the_allowed_count() {
    let root = fixture("violations");
    // A baseline generated from the tree's own debt makes it pass.
    let raw = check_tree(&root, &Baseline::empty()).expect("scan runs");
    let full = Baseline::from_counts(raw.unsuppressed_counts());
    let report = check_tree(&root, &full).expect("scan runs");
    assert!(report.is_clean(), "{}", report.render(true));
    assert!(report
        .findings
        .iter()
        .all(|f| f.status == FindingStatus::Baselined));
    assert!(report.stale_baseline.is_empty());

    // One allowance short on (demo lib, D1): exactly one finding stays new.
    let mut counts = raw.unsuppressed_counts();
    let d1 = counts
        .iter_mut()
        .find(|(f, r, _)| f == "crates/demo/src/lib.rs" && *r == RuleId::D1)
        .expect("demo lib has D1 debt");
    d1.2 -= 1;
    let short = Baseline::from_counts(counts);
    let report = check_tree(&root, &short).expect("scan runs");
    assert!(!report.is_clean());
    let new: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.status == FindingStatus::New)
        .collect();
    assert_eq!(new.len(), 1);
    assert_eq!(new[0].rule, RuleId::D1);
}

#[test]
fn shrunken_debt_is_reported_as_stale() {
    let root = fixture("violations");
    let raw = check_tree(&root, &Baseline::empty()).expect("scan runs");
    // Inflate one entry and add one for a file with no findings at all.
    let mut counts = raw.unsuppressed_counts();
    for c in counts.iter_mut() {
        if c.0 == "crates/numeric/src/kernel.rs" && c.1 == RuleId::D5 {
            c.2 += 3;
        }
    }
    counts.push(("crates/demo/src/gone.rs".into(), RuleId::D4, 2));
    let report = check_tree(&root, &Baseline::from_counts(counts)).expect("scan runs");
    // Both kinds of stale allowance are reported, and either fails the
    // check: leftover slack would let a new violation pass as baselined.
    // Nothing else is wrong with the tree.
    assert!(report.problems.is_empty());
    assert!(report
        .findings
        .iter()
        .all(|f| f.status != FindingStatus::New));
    assert!(!report.is_clean(), "{}", report.render(true));
    assert_eq!(
        report.stale_baseline.len(),
        2,
        "{:?}",
        report.stale_baseline
    );
    assert!(report
        .stale_baseline
        .iter()
        .any(|s| s.contains("kernel.rs")));
    assert!(report.stale_baseline.iter().any(|s| s.contains("gone.rs")));
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
    let report = check_tree(&dir, &Baseline::empty()).expect("scan runs");
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
            .args(["check", "--no-baseline", "--root"])
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
    // The committed baseline plus inline annotations must hold: the
    // workspace's own determinism contract is CLEAN at all times.
    let bin = env!("CARGO_BIN_EXE_ehsim-analyze");
    let out = Command::new(bin)
        .arg("check")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("CLEAN"), "{stdout}");
}
