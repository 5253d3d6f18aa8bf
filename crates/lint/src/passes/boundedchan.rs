//! The bounded-channels pass: library crates must not create unbounded
//! channels.
//!
//! The pipeline's memory contract is O(workers × chunk_bytes) resident
//! text, end to end. An unbounded `mpsc::channel` between a producer and
//! a slower consumer silently repeals that bound: the queue absorbs the
//! entire corpus at whatever rate the disk delivers it. Every
//! cross-thread handoff in library code must therefore use a bounded
//! primitive — `mpsc::sync_channel(n)` (the [`Prefetcher`] pairs a
//! one-slot unit channel with a two-credit return channel) — whose `send`
//! exerts back-pressure.
//!
//! The pass flags the token sequence `mpsc :: channel`, which catches
//! both the call site (`mpsc::channel()`) and the import
//! (`use std::sync::mpsc::channel`). `sync_channel` is a distinct ident
//! token and never matches. Test regions and code outside `crates/*` are
//! exempt, as is the lint tool itself. A deliberate unbounded queue can
//! be waived with
//! `// dr-lint: allow(bounded-channels): <why the queue is bounded>`.
//!
//! [`Prefetcher`]: ../../../core/src/source.rs

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::Pass;

pub struct BoundedChannelsPass;

pub const ID: &str = "bounded-channels";

impl Pass for BoundedChannelsPass {
    fn id(&self) -> &'static str {
        ID
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !file.path.starts_with("crates/") || file.path.starts_with("crates/lint/") {
            return;
        }
        let sig: Vec<usize> = (0..file.tokens.len())
            .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
            .collect();
        let t = |j: usize| sig.get(j).map_or("", |&i| file.tok_text(&file.tokens[i]));
        for (k, &i) in sig.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident
                || file.tok_text(tok) != "channel"
                || file.in_test_region(i)
            {
                continue;
            }
            if k >= 3 && t(k - 3) == "mpsc" && t(k - 2) == ":" && t(k - 1) == ":" {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: "unbounded channel in a library crate: `mpsc::channel` \
                              queues without back-pressure and voids the bounded-memory \
                              contract — use `mpsc::sync_channel(n)` so `send` blocks"
                        .to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check_at(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path, src);
        let mut out = Vec::new();
        BoundedChannelsPass.check_file(&f, &mut out);
        out
    }

    #[test]
    fn fires_on_unbounded_channel_call() {
        let d = check_at(
            "crates/core/src/source.rs",
            "use std::sync::mpsc;\nfn f() { let (_tx, _rx) = mpsc::channel::<u64>(); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, ID);
        assert!(d[0].message.contains("sync_channel"));
    }

    #[test]
    fn fires_on_the_import_form() {
        let d = check_at(
            "crates/core/src/source.rs",
            "use std::sync::mpsc::channel;\n",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn sync_channel_is_clean() {
        let d = check_at(
            "crates/core/src/source.rs",
            "use std::sync::mpsc;\nfn f() { let (_tx, _rx) = mpsc::sync_channel::<u64>(0); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn test_regions_and_non_library_code_are_exempt() {
        let in_tests = check_at(
            "crates/core/src/source.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::sync::mpsc::channel::<u64>(); }\n}\n",
        );
        assert!(in_tests.is_empty());
        let in_bin = check_at(
            "src/main.rs",
            "fn f() { let _ = std::sync::mpsc::channel::<u64>(); }",
        );
        assert!(in_bin.is_empty());
    }

    #[test]
    fn allow_comment_waives_it() {
        let f = SourceFile::new(
            "crates/core/src/source.rs",
            "// dr-lint: allow(bounded-channels): drained before join, provably < 2 waves\n\
             fn f() { let _ = std::sync::mpsc::channel::<u64>(); }",
        );
        let mut out = Vec::new();
        BoundedChannelsPass.check_file(&f, &mut out);
        let d: Vec<_> = out
            .into_iter()
            .filter(|d| !f.is_allowed(d.lint, d.line))
            .collect();
        assert!(d.is_empty());
    }
}
