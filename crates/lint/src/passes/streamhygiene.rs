//! The stream-hygiene pass: library crates must not slurp whole files.
//!
//! The pipeline's memory contract is that Stage I pulls bounded,
//! line-aligned chunk waves through `resilience_core::source::LogSource`
//! — never a materialized corpus. A single `std::fs::read_to_string` on
//! a 202-GB-scale log directory silently voids that contract, so this
//! pass flags the bulk-materializing reads in library crates
//! (`crates/*`):
//!
//! * `read_to_string` — both the free function `fs::read_to_string` and
//!   the `Read::read_to_string` method materialize an unbounded buffer;
//! * `fs::read` — the byte-vector sibling;
//! * `read_to_end` — the `Read` method form, which would let a record
//!   store (or any binary artifact) be slurped whole instead of read
//!   block-by-block through its footer index.
//!
//! Incremental primitives (bounded `Read::read` calls, as the packed
//! log sources make, `BufReader::read_line`, `fs::read_dir`) remain
//! fine. The lint tool itself (`crates/lint/`) is exempt — its
//! job is reading sources, which are human-sized — as are test regions
//! and the CLI/benchmark layers outside `crates/`. A deliberate
//! boundary case can be waived with
//! `// dr-lint: allow(stream-hygiene): <why the read is bounded>`.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::Pass;

pub struct StreamHygienePass;

pub const ID: &str = "stream-hygiene";

impl Pass for StreamHygienePass {
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
        for (k, &i) in sig.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident || file.in_test_region(i) {
                continue;
            }
            let message = match file.tok_text(tok) {
                "read_to_string" => Some(
                    "whole-file read in a library crate: `read_to_string` materializes \
                     an unbounded buffer — stream line-aligned chunks through a \
                     `LogSource` instead"
                        .to_string(),
                ),
                "read" if is_fs_read_call(file, &sig, k) => Some(
                    "whole-file read in a library crate: `fs::read` materializes an \
                     unbounded buffer — stream line-aligned chunks through a \
                     `LogSource` instead"
                        .to_string(),
                ),
                "read_to_end" => Some(
                    "whole-file read in a library crate: `read_to_end` materializes \
                     an unbounded buffer — read bounded block ranges (a record \
                     store's footer index, or a `LogSource` chunk wave) instead"
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

/// True when the tokens around `sig[k]` spell `fs::read(` — the path
/// call, not a `read` method or a `read_dir`-style sibling (those are
/// separate ident tokens and never reach here).
fn is_fs_read_call(file: &SourceFile, sig: &[usize], k: usize) -> bool {
    let t = |j: usize| sig.get(j).map_or("", |&i| file.tok_text(&file.tokens[i]));
    k >= 3 && t(k - 3) == "fs" && t(k - 2) == ":" && t(k - 1) == ":" && t(k + 1) == "("
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check_at(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path, src);
        let mut out = Vec::new();
        StreamHygienePass.check_file(&f, &mut out);
        out
    }

    #[test]
    fn fires_on_read_to_string_in_library_code() {
        let d = check_at(
            "crates/report/src/files.rs",
            "fn f(p: &Path) { let _ = std::fs::read_to_string(p); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, ID);
        assert!(d[0].message.contains("read_to_string"));
    }

    #[test]
    fn fires_on_the_method_form_too() {
        let d = check_at(
            "crates/core/src/source.rs",
            "fn f(r: &mut impl std::io::Read) { let mut s = String::new(); r.read_to_string(&mut s).ok(); }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn fires_on_read_to_end_in_library_code() {
        let d = check_at(
            "crates/core/src/store.rs",
            "fn f(r: &mut impl std::io::Read) { let mut b = Vec::new(); r.read_to_end(&mut b).ok(); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("read_to_end"));
    }

    #[test]
    fn fires_on_fs_read() {
        let d = check_at(
            "crates/report/src/files.rs",
            "fn f(p: &Path) { let _ = std::fs::read(p); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fs::read"));
    }

    #[test]
    fn incremental_reads_and_read_dir_are_fine() {
        assert!(check_at(
            "crates/core/src/source.rs",
            "fn f(r: &mut BufReader<File>, buf: &mut String) { r.read_line(buf).ok(); \
             let _ = std::fs::read_dir(\"/tmp\"); }",
        )
        .is_empty());
        // A plain `read` method call is not `fs::read`.
        assert!(check_at(
            "crates/core/src/source.rs",
            "fn f(r: &mut impl std::io::Read, buf: &mut [u8]) { r.read(buf).ok(); }",
        )
        .is_empty());
        // `read_exact` into a block-sized buffer is the sanctioned way
        // to pull one indexed range out of a record store.
        assert!(check_at(
            "crates/core/src/store.rs",
            "fn f(r: &mut std::fs::File, buf: &mut [u8]) { r.read_exact(buf).ok(); }",
        )
        .is_empty());
    }

    #[test]
    fn lint_crate_cli_and_tests_are_exempt() {
        let src = "fn f(p: &Path) { let _ = std::fs::read_to_string(p); }";
        assert!(check_at("crates/lint/src/walk.rs", src).is_empty());
        assert!(check_at("src/bin/gpures.rs", src).is_empty());
        assert!(check_at("tests/cli.rs", src).is_empty());
        assert!(check_at(
            "crates/report/src/files.rs",
            "#[cfg(test)]\nmod tests { fn f(p: &Path) { let _ = std::fs::read_to_string(p); } }",
        )
        .is_empty());
    }

    #[test]
    fn allow_comment_records_a_waiver_for_the_runner() {
        let f = SourceFile::new(
            "crates/report/src/files.rs",
            "// dr-lint: allow(stream-hygiene): config files are tiny\nfn f(p: &Path) { let _ = std::fs::read_to_string(p); }\n",
        );
        let mut out = Vec::new();
        StreamHygienePass.check_file(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert!(f.is_allowed(ID, out[0].line));
    }
}
