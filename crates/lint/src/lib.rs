//! `dr-lint` — zero-dependency static analysis for this workspace.
//!
//! The reproduction's value rests on invariants the code can only claim
//! in comments: bit-reproducible campaigns under any thread count, a
//! panic-free analysis pipeline, a faithful XID taxonomy handled
//! consistently across layers, and unit-suffixed time parameters. This
//! crate machine-checks all four, using a hand-rolled token lexer (no
//! `syn` — the build environment may be offline). The one way to waive a
//! finding is an in-source `// dr-lint: allow(<lint-id>): <reason>`
//! comment, applied in [`run_on`] to every pass's findings alike, so the
//! report counts each waiver it honours.
//!
//! Run it:
//!
//! ```text
//! cargo run --bin dr-lint                         # human output, exit 1 on findings
//! cargo run --bin dr-lint -- --json               # one JSON object per finding
//! ```
//!
//! The tier-1 gate is `tests/lint_clean.rs`, which runs the same checks
//! under `cargo test`.

pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod source;
pub mod walk;

pub use diag::{Diagnostic, Severity};
pub use graph::SymbolGraph;
pub use source::{SourceFile, Workspace};

use std::path::Path;

/// A lint pass. File passes implement `check_file`; cross-file passes
/// (taxonomy) implement `check_workspace`; interprocedural passes
/// (panic-reachability, determinism-taint, layer-dag) implement
/// `check_graph` against the symbol graph built once per run.
pub trait Pass {
    fn id(&self) -> &'static str;
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}
    fn check_workspace(&self, _ws: &Workspace, _out: &mut Vec<Diagnostic>) {}
    fn check_graph(&self, _ws: &Workspace, _graph: &SymbolGraph, _out: &mut Vec<Diagnostic>) {}
}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Findings no allow comment waives — the ones that fail the run.
    pub active: Vec<Diagnostic>,
    /// Findings waived by in-source allow comments.
    pub suppressed_allow: usize,
    /// Files scanned.
    pub files: usize,
    /// Function symbols in the workspace call graph.
    pub symbols: usize,
    /// Name-approximated call edges between them.
    pub call_edges: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.active.is_empty()
    }

    /// Render the human summary (findings plus counts).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.active {
            out.push_str(&d.human());
            out.push('\n');
        }
        out.push_str(&format!(
            "dr-lint: {} finding(s) across {} files ({} allowed in-source); call graph: {} \
             symbols, {} edges\n",
            self.active.len(),
            self.files,
            self.suppressed_allow,
            self.symbols,
            self.call_edges
        ));
        out
    }
}

/// Read and lex every lintable source under `root`.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let paths = walk::workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        files.push(SourceFile::new(walk::relative_path(root, p), text));
    }
    let mut scenarios = Vec::new();
    for p in &walk::scenario_sources(root)? {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        scenarios.push((walk::relative_path(root, p), text));
    }
    Ok(Workspace::from_files(files).with_scenarios(scenarios))
}

/// Lint the workspace at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    Ok(run_on(&load_workspace(root)?))
}

/// Lint an already-loaded workspace (also the unit-test entry point).
/// Every pass reports every finding; this is the one place an allow
/// comment drops one, so `suppressed_allow` counts each waiver honoured.
pub fn run_on(ws: &Workspace) -> Report {
    let graph = SymbolGraph::build(ws);
    let mut diags = Vec::new();
    for pass in passes::all() {
        for f in &ws.files {
            pass.check_file(f, &mut diags);
        }
        pass.check_workspace(ws, &mut diags);
        pass.check_graph(ws, &graph, &mut diags);
    }

    let before = diags.len();
    diags.retain(|d| {
        ws.file(&d.path)
            .is_none_or(|f| !f.is_allowed(d.lint, d.line))
    });
    let suppressed_allow = before - diags.len();
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    Report {
        active: diags,
        suppressed_allow,
        files: ws.files.len(),
        symbols: graph.symbols.len(),
        call_edges: graph.edge_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_ws() -> Workspace {
        Workspace::from_files(vec![
            SourceFile::new(
                "crates/demo/src/lib.rs",
                "use std::collections::HashMap;\n\
                 // dr-lint: allow(determinism): keyed lookup only, never iterated\n\
                 pub fn lookup(m: &HashMap<u32, u32>, k: u32) -> u32 {\n\
                     m.get(&k).copied().unwrap()\n\
                 }\n\
                 pub fn mtbe(observation: f64, elapsed_time: f64) -> f64 { observation + elapsed_time }\n\
                 pub struct PipelineBuilder;\n\
                 impl PipelineBuilder {\n\
                     pub fn run_source(&self, m: &HashMap<u32, u32>) -> u32 { lookup(m, 1) }\n\
                 }\n",
            ),
        ])
    }

    #[test]
    fn end_to_end_allow_and_active() {
        let report = run_on(&fixture_ws());
        // Line 1 HashMap import is NOT allowed (comment is on line 2 and
        // covers 2-3); line 3 HashMap is allowed; the unwrap (reachable
        // from the fixture entry point) and the unitless time param are
        // active.
        let lints: Vec<&str> = report.active.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"determinism"), "{lints:?}");
        assert!(lints.contains(&"panic-reachability"), "{lints:?}");
        assert!(lints.contains(&"unit-hygiene"), "{lints:?}");
        assert_eq!(report.suppressed_allow, 1);
        assert!(report.symbols >= 3, "fixture has lookup, mtbe, run_source");
        assert!(report.call_edges >= 1, "run_source → lookup");
    }

    #[test]
    fn an_allowed_reachable_unwrap_is_counted_as_allowed() {
        // The panic-reachability pass reports a waived site like any
        // other; the one filter in `run_on` drops it and counts it.
        let ws = Workspace::from_files(vec![SourceFile::new(
            "crates/demo/src/lib.rs",
            "pub struct PipelineBuilder;\n\
             impl PipelineBuilder {\n\
                 pub fn run_source(&self, v: &[u32]) -> u32 { head(v) }\n\
             }\n\
             fn head(v: &[u32]) -> u32 {\n\
                 // dr-lint: allow(panic-reachability): callers pass a non-empty slice\n\
                 v.first().copied().unwrap()\n\
             }\n",
        )]);
        let report = run_on(&ws);
        let reach: Vec<_> = report
            .active
            .iter()
            .filter(|d| d.lint == "panic-reachability")
            .collect();
        assert!(reach.is_empty(), "{reach:?}");
        assert_eq!(report.suppressed_allow, 1);
    }

    #[test]
    fn report_renders_counts() {
        let report = run_on(&fixture_ws());
        let text = report.render_human();
        assert!(text.contains("dr-lint:"));
        assert!(text.contains("allowed in-source"));
    }
}
