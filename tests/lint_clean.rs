//! Tier-1 gate: the workspace must be lint-clean, every waiver an
//! in-source `// dr-lint: allow(<lint-id>): <reason>` comment.
//!
//! This is the same check `cargo run --bin dr-lint` performs, wired into
//! `cargo test -q` so the determinism / panic-reachability / XID-taxonomy /
//! unit-hygiene invariants are enforced with no CI changes.

use dr_lint::run;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = run(workspace_root()).expect("dr-lint runs");
    assert!(report.files > 50, "walked only {} files — wrong root?", report.files);
    assert!(
        report.is_clean(),
        "dr-lint found unwaived violations:\n{}",
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
    let report = run(workspace_root()).expect("dr-lint runs");
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
    }
}
