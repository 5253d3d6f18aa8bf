//! The observability-isolation pass: measured wall time must never flow
//! back into analysis results.
//!
//! The determinism pass grants dr-obs's clock module the workspace's one
//! wall-clock exemption. That is only safe if the flow stays one-way:
//! instrumented library code *writes* spans and counters into a
//! `MetricsSink` and never reads anything back. This pass closes the
//! read-back loophole by flagging, outside the observability layer
//! (`crates/obs/`) and the CLI binaries (`src/bin/`):
//!
//! * `export_json` — the metrics registry read-back; exporting belongs
//!   to the CLI layer, never to analysis code;
//! * `Stopwatch` — direct timing, which would let elapsed time steer
//!   results;
//! * `clock::now` — the raw clock read behind it.
//!
//! A legitimate boundary case can be waived with
//! `// dr-lint: allow(obs-isolation): <why time cannot reach results>`.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::Pass;

pub struct ObsIsolationPass;

pub const ID: &str = "obs-isolation";

/// Layers allowed to read the clock and export recorded metrics.
const ALLOWED_PREFIXES: [&str; 2] = ["crates/obs/", "src/bin/"];

impl Pass for ObsIsolationPass {
    fn id(&self) -> &'static str {
        ID
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if ALLOWED_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
            return;
        }
        let sig: Vec<usize> = (0..file.tokens.len())
            .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
            .collect();
        for (k, &i) in sig.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident || file.in_test_region(i) {
                continue;
            }
            let message = match file.tok_text(tok) {
                "export_json" => Some(
                    "metrics read-back in analysis code: `export_json` belongs to the \
                     CLI layer — instrumented code holds a write-only sink"
                        .to_string(),
                ),
                "Stopwatch" => Some(
                    "`Stopwatch` times code outside the observability and CLI layers; \
                     record a span via `MetricsSink::span` so wall time stays out of results"
                        .to_string(),
                ),
                "clock" if followed_by_now(file, &sig, k) => Some(
                    "raw wall-clock read via `clock::now` outside the observability layer; \
                     results must depend only on seeds and inputs"
                        .to_string(),
                ),
                _ => None,
            };
            if let Some(message) = message {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message,
                });
            }
        }
    }
}

/// True when the tokens after `sig[k]` spell `::now`.
fn followed_by_now(file: &SourceFile, sig: &[usize], k: usize) -> bool {
    let t = |j: usize| sig.get(j).map_or("", |&i| file.tok_text(&file.tokens[i]));
    t(k + 1) == ":" && t(k + 2) == ":" && t(k + 3) == "now"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check_at(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path, src);
        let mut out = Vec::new();
        ObsIsolationPass.check_file(&f, &mut out);
        out
    }

    #[test]
    fn fires_on_metric_read_back_in_library_code() {
        let d = check_at(
            "crates/core/src/pipeline.rs",
            "fn f(s: &MetricsSink) { let _ = s.export_json(); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, ID);
        assert!(d[0].message.contains("export_json"));
    }

    #[test]
    fn fires_on_stopwatch_and_clock_now_outside_obs() {
        let d = check_at(
            "crates/core/src/shard.rs",
            "fn f() { let w = dr_obs::clock::Stopwatch::start(); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Stopwatch"));
        let d = check_at(
            "crates/faults/src/campaign.rs",
            "fn f() { let t = dr_obs::clock::now(); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("clock::now"));
    }

    #[test]
    fn clock_ident_without_now_is_fine() {
        assert!(check_at(
            "crates/core/src/lib.rs",
            "fn f() { let clock = simulation_clock(); clock.advance(); }",
        )
        .is_empty());
    }

    #[test]
    fn allowed_layers_are_exempt() {
        let src = "fn f(s: &MetricsSink) { let _ = s.export_json(); let _w = Stopwatch::start(); }";
        assert!(check_at("crates/obs/src/sink.rs", src).is_empty());
        assert!(check_at("src/bin/gpures.rs", src).is_empty());
        // Every other crate is linted, `crates/bench/` included.
        assert_eq!(check_at("crates/bench/src/stage1.rs", src).len(), 2);
        // The facade itself is not exempt.
        assert_eq!(check_at("src/lib.rs", src).len(), 2);
    }

    #[test]
    fn test_code_and_comments_are_exempt() {
        assert!(check_at(
            "crates/core/src/pipeline.rs",
            "#[cfg(test)]\nmod tests { fn f(s: &MetricsSink) { s.export_json(); } }",
        )
        .is_empty());
        assert!(check_at(
            "crates/core/src/pipeline.rs",
            "// callers use export_json() and Stopwatch\nfn f() {}",
        )
        .is_empty());
    }

    #[test]
    fn incremental_analysis_files_are_inside_the_fence() {
        // The fold/tail/watch layer is long-running library code: a
        // wall-clock read or metric read-back there would break replay
        // determinism, so the fence must cover these files.
        let wall = "fn f() { let t = dr_obs::clock::now(); }";
        let read_back = "fn f(s: &MetricsSink) { let _ = s.export_json(); }";
        for path in [
            "crates/core/src/engine.rs",
            "crates/core/src/tail.rs",
            "crates/core/src/watch.rs",
            "crates/core/src/stream.rs",
        ] {
            assert_eq!(check_at(path, wall).len(), 1, "{path} must fence clock::now");
            assert_eq!(check_at(path, read_back).len(), 1, "{path} must fence export_json");
        }
        // gauge_set is a *write* and stays legal in library code.
        assert!(check_at(
            "crates/core/src/watch.rs",
            "fn f(s: &MetricsSink) { s.gauge_set(Stage::Stats, \"watch_window_errors\", 1.0); }",
        )
        .is_empty());
    }

    #[test]
    fn allow_comment_records_a_waiver_for_the_runner() {
        let f = SourceFile::new(
            "crates/core/src/pipeline.rs",
            "// dr-lint: allow(obs-isolation): boundary export for the CLI\nfn f(s: &MetricsSink) { s.export_json(); }\n",
        );
        let mut out = Vec::new();
        ObsIsolationPass.check_file(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert!(f.is_allowed(ID, out[0].line));
    }
}
