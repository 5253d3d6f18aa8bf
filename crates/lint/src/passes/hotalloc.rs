//! The hot-alloc pass: no per-call heap allocation inside marked hot
//! loops — the Stage I match loops and the episode indexing loop.
//!
//! The extraction engine's throughput rests on steady-state
//! allocation-freedom: thread lists, capture-slot pools, and scratch
//! buffers are reused across calls, so the inner loops run without
//! touching the allocator. The episode indexing loop likewise only appends
//! to vectors it already owns; a GPU's first sight, which does allocate
//! its lists, runs in a helper outside the region. That property is invisible to the type system
//! and trivially regressed by a drive-by `Vec::new()`. Hot code is
//! fenced with marker comments — `hot(begin)` opens a region and
//! `hot(end)` closes it, each written after the usual `dr-lint:` comment
//! prefix — and inside a region the allocating forms `Vec::new`,
//! `vec![...]`, and `Box::new` are flagged (reuse the scratch state
//! threaded through the call instead, e.g. `MatchScratch`).
//!
//! The workspace check ratchets the markers themselves: the required hot
//! files must keep at least one balanced region each, so deleting the
//! fences does not silently retire the invariant.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use crate::Pass;

pub struct HotAllocPass;

pub const ID: &str = "hot-alloc";

/// The marker spellings, assembled so this file's own comments never trip
/// the region scanner.
const PREFIX: &str = "dr-lint:";
const BEGIN: &str = "hot(begin)";
const END: &str = "hot(end)";

/// Files whose hot regions the workspace check requires: the Stage I
/// match loops and the episode indexing loop, which the benchmark's
/// `burst-tee` and `fold-dt1` workloads track.
const REQUIRED: &[&str] = &[
    "crates/logscan/src/regex.rs",
    "crates/logscan/src/syslog.rs",
    "crates/logscan/src/extract.rs",
    "crates/core/src/engine.rs",
];

/// Whether a comment token is a region marker.
fn marker(text: &str, kind: &str) -> bool {
    text.find(PREFIX)
        .map(|p| text[p + PREFIX.len()..].trim_start().starts_with(kind))
        .unwrap_or(false)
}

/// Per-token "inside a hot region" flags.
fn hot_flags(file: &SourceFile) -> Vec<bool> {
    let mut flags = Vec::with_capacity(file.tokens.len());
    let mut hot = false;
    for t in &file.tokens {
        if t.kind == TokenKind::Comment {
            let s = file.tok_text(t);
            if marker(s, BEGIN) {
                hot = true;
            } else if marker(s, END) {
                hot = false;
            }
        }
        flags.push(hot);
    }
    flags
}

impl Pass for HotAllocPass {
    fn id(&self) -> &'static str {
        ID
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let flags = hot_flags(file);
        let sig: Vec<usize> = (0..file.tokens.len())
            .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
            .collect();
        let t = |k: usize| -> &str {
            sig.get(k)
                .map_or("", |&i| file.tok_text(&file.tokens[i]))
        };
        for (k, &i) in sig.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident || !flags[i] || file.in_test_region(i) {
                continue;
            }
            let form = match file.tok_text(tok) {
                "vec" if t(k + 1) == "!" => Some("vec![...]"),
                name @ ("Vec" | "Box")
                    if t(k + 1) == ":" && t(k + 2) == ":" && t(k + 3) == "new" =>
                {
                    Some(if name == "Vec" { "Vec::new()" } else { "Box::new()" })
                }
                _ => None,
            };
            if let Some(form) = form {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{form}` allocates on every call inside a hot match loop; reuse \
                         pooled scratch state (see `MatchScratch`) or hoist the allocation \
                         out of the region"
                    ),
                });
            }
        }
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for path in REQUIRED {
            let Some(file) = ws.file(path) else {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: 1,
                    col: 1,
                    message: "required hot file is missing; update the hot-alloc pass's \
                              required-file list if it moved"
                        .to_string(),
                });
                continue;
            };
            let comments = file
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Comment)
                .map(|t| file.tok_text(t));
            let (mut begins, mut ends) = (0usize, 0usize);
            for c in comments {
                if marker(c, BEGIN) {
                    begins += 1;
                } else if marker(c, END) {
                    ends += 1;
                }
            }
            let message = if begins == 0 {
                Some(
                    "required hot file has no hot-region markers; the allocation-freedom \
                     ratchet requires at least one fenced match loop"
                        .to_string(),
                )
            } else if begins != ends {
                Some(format!(
                    "unbalanced hot-region markers ({begins} begin, {ends} end); every \
                     region must be closed"
                ))
            } else {
                None
            };
            if let Some(message) = message {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: 1,
                    col: 1,
                    message,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("fixture.rs", src);
        let mut out = Vec::new();
        HotAllocPass.check_file(&f, &mut out);
        out
    }

    const HOT: &str = "// dr-lint: hot(begin)\n";
    const COLD: &str = "// dr-lint: hot(end)\n";

    #[test]
    fn fires_on_allocation_inside_hot_region() {
        let src = format!(
            "{HOT}fn step() {{ let a: Vec<u32> = Vec::new(); let b = vec![0u8; 4]; \
             let c = Box::new(1); }}\n{COLD}"
        );
        let d = check(&src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].message.contains("Vec::new()"));
        assert!(d[1].message.contains("vec![...]"));
        assert!(d[2].message.contains("Box::new()"));
        assert!(d.iter().all(|d| d.lint == ID));
    }

    #[test]
    fn cold_code_and_closed_regions_are_exempt() {
        let src = format!(
            "fn before() {{ let v = Vec::new(); }}\n{HOT}fn hot() {{ step(); }}\n{COLD}\
             fn after() {{ let v = vec![1]; let b = Box::new(2); }}\n"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn vec_type_and_method_calls_are_fine_in_hot_code() {
        // Only the allocating constructors are flagged — `Vec` in types,
        // `with_capacity` on reused buffers, pushes, etc. all pass.
        let src = format!(
            "{HOT}fn hot(buf: &mut Vec<u32>) {{ buf.clear(); buf.push(1); }}\n{COLD}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn test_regions_inside_hot_fences_are_exempt() {
        let src = format!(
            "{HOT}#[cfg(test)]\nmod tests {{ fn f() {{ let v = Vec::new(); }} }}\n{COLD}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn allow_comment_waives_via_runner_contract() {
        let src = format!(
            "{HOT}// dr-lint: allow(hot-alloc): cold error path\nfn f() {{ let v = Vec::new(); }}\n{COLD}"
        );
        let f = SourceFile::new("fixture.rs", src);
        let mut out = Vec::new();
        HotAllocPass.check_file(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert!(f.is_allowed(ID, out[0].line));
    }

    #[test]
    fn workspace_check_requires_markers_in_stage1_files() {
        let ws = Workspace::from_files(vec![
            SourceFile::new(
                "crates/logscan/src/regex.rs",
                format!("{HOT}fn hot() {{}}\n{COLD}"),
            ),
            SourceFile::new("crates/logscan/src/syslog.rs", "fn no_markers() {}\n"),
            SourceFile::new(
                "crates/logscan/src/extract.rs",
                format!("{HOT}fn open_region() {{}}\n"),
            ),
            SourceFile::new(
                "crates/core/src/engine.rs",
                format!("{HOT}fn ingest() {{}}\n{COLD}"),
            ),
        ]);
        let mut out = Vec::new();
        HotAllocPass.check_workspace(&ws, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("no hot-region markers"));
        assert!(out[1].message.contains("unbalanced"));
    }

    #[test]
    fn workspace_check_requires_the_fold_ingest_fence() {
        let fenced = || format!("{HOT}fn hot() {{}}\n{COLD}");
        let mut files: Vec<SourceFile> = REQUIRED
            .iter()
            .filter(|p| !p.ends_with("engine.rs"))
            .map(|p| SourceFile::new(*p, fenced()))
            .collect();
        let ws = Workspace::from_files(files.clone());
        let mut out = Vec::new();
        HotAllocPass.check_workspace(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].path, "crates/core/src/engine.rs");
        assert!(out[0].message.contains("missing"));

        files.push(SourceFile::new("crates/core/src/engine.rs", "fn ingest() {}\n"));
        let mut out = Vec::new();
        HotAllocPass.check_workspace(&Workspace::from_files(files), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no hot-region markers"));
    }
}
