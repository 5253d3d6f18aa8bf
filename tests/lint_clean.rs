//! Tier-1 gate: the workspace must be lint-clean against its baseline.
//!
//! This is the same check `cargo run --bin dr-lint` performs, wired into
//! `cargo test -q` so the determinism / panic-freedom / XID-taxonomy /
//! unit-hygiene invariants are enforced with no CI changes.

use dr_lint::{run, Config};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let cfg = Config {
        root: root.clone(),
        baseline: Some(root.join("dr-lint.baseline")),
    };
    let report = run(&cfg).expect("dr-lint runs");
    assert!(report.files > 50, "walked only {} files — wrong root?", report.files);
    assert!(
        report.is_clean(),
        "dr-lint found non-baselined violations:\n{}",
        report.render_human()
    );
}

#[test]
fn interprocedural_passes_run_and_prove_entry_points_panic_free() {
    // The symbol graph must actually cover the workspace (dozens of
    // files, hundreds of fns, thousands of name-approximated edges) and
    // the three graph-based passes must report zero active findings: the
    // `run_source` / `run_observed` closures are panic-free, no
    // nondeterminism taints `StudyResults`, and every cross-crate `use`
    // respects the declared layer DAG.
    let root = workspace_root();
    let cfg = Config {
        root: root.clone(),
        baseline: Some(root.join("dr-lint.baseline")),
    };
    let report = run(&cfg).expect("dr-lint runs");
    assert!(report.files > 50, "graph covers only {} files", report.files);
    assert!(
        report.symbols > 300,
        "call graph covers only {} symbols — parser regression?",
        report.symbols
    );
    assert!(
        report.call_edges > 1000,
        "call graph has only {} edges — resolution regression?",
        report.call_edges
    );
    for pass in ["panic-reachability", "determinism-taint", "layer-dag"] {
        let active: Vec<_> = report.active.iter().filter(|d| d.lint == pass).collect();
        assert!(active.is_empty(), "{pass} findings: {active:?}");
        let baselined: usize = report
            .groups
            .iter()
            .filter(|((lint, _), _)| lint == pass)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(
            baselined, 0,
            "{pass} must hold with zero baselined debt, found {baselined}"
        );
    }
}

#[test]
fn baseline_has_no_stale_surplus() {
    // The ledger must describe real debt: every baselined (lint, path)
    // group must still exist in the tree with a non-zero count, so paid
    // debt is actually ratcheted out instead of lingering as headroom.
    let root = workspace_root();
    let cfg = Config {
        root: root.clone(),
        baseline: Some(root.join("dr-lint.baseline")),
    };
    let report = run(&cfg).expect("dr-lint runs");
    let ledger = std::fs::read_to_string(root.join("dr-lint.baseline")).unwrap_or_default();
    for line in ledger.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(lint), Some(count), Some(path)) = (parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed baseline line: {line}");
        };
        let allowed: usize = count.parse().expect("baseline count parses");
        let actual = report
            .groups
            .get(&(lint.to_string(), path.trim().to_string()))
            .copied()
            .unwrap_or(0);
        assert!(
            actual > 0,
            "stale baseline entry `{line}`: no such violations remain — \
             run `cargo run --bin dr-lint -- --update-baseline`"
        );
        assert!(
            actual <= allowed,
            "baseline entry `{line}` is over budget ({actual} found)"
        );
    }
}
