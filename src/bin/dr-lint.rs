//! `dr-lint` — run the workspace's static-analysis passes from the CLI.
//!
//! ```text
//! dr-lint [--root DIR] [--json] [--explain LINT-ID] [--graph-dot]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. The same
//! checks gate `cargo test` via `tests/lint_clean.rs`; this binary
//! exists for fast local iteration, for `--explain` (what a lint id
//! means and how to fix it or waive it with an in-source allow
//! comment), and for `--graph-dot` (the workspace call graph in
//! Graphviz form).

use dr_lint::{load_workspace, passes, run, SymbolGraph};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dr-lint [--root DIR] [--json] [--explain LINT-ID] [--graph-dot]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut graph_dot = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--json" => json = true,
            "--graph-dot" => graph_dot = true,
            "--explain" => match it.next() {
                Some(id) => {
                    return match passes::explain(id) {
                        Some(text) => {
                            println!("{id}\n\n{text}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            let known: Vec<&str> =
                                passes::all().iter().map(|p| p.id()).collect();
                            eprintln!(
                                "dr-lint: unknown lint id {id:?}; known ids: {}",
                                known.join(", ")
                            );
                            ExitCode::from(2)
                        }
                    };
                }
                None => return usage_error("--explain needs a lint id"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown option {other:?}")),
        }
    }

    if !root.is_dir() {
        eprintln!("dr-lint: root {:?} is not a directory", root.display());
        return ExitCode::from(2);
    }

    if graph_dot {
        return match load_workspace(&root) {
            Ok(ws) => {
                print!("{}", SymbolGraph::build(&ws).to_dot());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dr-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dr-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files == 0 {
        eprintln!(
            "dr-lint: no .rs files under {:?} (expected src/ or crates/*/src/)",
            root.display()
        );
        return ExitCode::from(2);
    }

    if json {
        for d in &report.active {
            println!("{}", d.json());
        }
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dr-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
