//! The panic-reachability pass: prove the pipeline entry points'
//! transitive closures free of panicking constructs.
//!
//! This replaces the old file-local panic-freedom heuristic. Instead of
//! flagging every `.unwrap()` in the tree, it computes the call-graph
//! closure from the long-running entry points and flags only panic
//! sites a fleet-scale run can actually hit — plus indexing expressions
//! with no visible bounds discipline, which the file-local pass could
//! not see at all. Because the graph over-approximates calls, "not
//! reachable" is a sound verdict; "reachable" names a concrete call
//! path to audit.
//!
//! The pass reports every reachable site; a
//! `// dr-lint: allow(panic-reachability): <invariant>` comment waives
//! one in `run_on`, like any other pass's finding.

use crate::diag::{Diagnostic, Severity};
use crate::graph::SymbolGraph;
use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use crate::Pass;

pub struct ReachPass;

pub const ID: &str = "panic-reachability";

/// The long-running pipeline entry points whose closures must not
/// panic: stage-1 extraction, record-store replay, fault campaigns,
/// the Slurm scheduler, and the live watch poll loop (which must
/// survive indefinitely against growing, rotating log files).
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("PipelineBuilder", "run_source"),
    ("PipelineBuilder", "run_record_source"),
    ("Campaign", "run_observed"),
    ("Scheduler", "run"),
    ("WatchSession", "run_observed"),
];

/// Identifiers whose presence in a body signals bounds discipline; an
/// indexing expression in such a body is not flagged. Coarse, but the
/// alternative is flow analysis a token lexer cannot support.
const GUARD_IDENTS: &[&str] = &[
    "len",
    "is_empty",
    "get",
    "first",
    "last",
    "min",
    "max",
    "clamp",
    "partition_point",
    "binary_search",
    "saturating_sub",
    "checked_sub",
    "enumerate",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "resize",
    "push",
];

/// Keywords that may directly precede `[` without forming an indexing
/// expression (`let [a, b] = pair;`, `for x in [1, 2]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "ref", "mut", "return", "else", "match", "if", "box", "move", "static",
    "const", "break", "continue", "loop", "while", "for", "as", "use", "pub", "fn", "type",
    "struct", "enum", "union", "trait", "unsafe", "extern", "mod", "await", "async", "yield",
    "where", "dyn", "impl",
];

impl Pass for ReachPass {
    fn id(&self) -> &'static str {
        ID
    }

    fn check_graph(&self, ws: &Workspace, g: &SymbolGraph, out: &mut Vec<Diagnostic>) {
        let mut roots = Vec::new();
        for &(owner, name) in ENTRY_POINTS {
            roots.extend(g.find(Some(owner), name));
        }
        let parents = g.reachable_from(&roots);
        for (&i, _) in &parents {
            let sym = &g.symbols[i];
            let Some(file) = ws.file(&sym.path) else {
                continue;
            };
            let sites = panic_sites(file, sym.body);
            if sites.is_empty() {
                continue;
            }
            let via = g.path_to(&parents, i);
            for site in sites {
                out.push(Diagnostic {
                    lint: ID,
                    severity: Severity::Error,
                    path: sym.path.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "{} is reachable from a pipeline entry point (via {via}); return a \
                         `Result`, guard the access, or waive with \
                         `// dr-lint: allow({ID}): <invariant>`",
                        site.what
                    ),
                });
            }
        }
    }
}

struct Site {
    what: &'static str,
    line: u32,
    col: u32,
}

/// Scan one function body for panicking constructs.
fn panic_sites(file: &SourceFile, body: Option<(usize, usize)>) -> Vec<Site> {
    let Some((lo, hi)) = body else {
        return Vec::new();
    };
    let sig: Vec<usize> = (lo..=hi.min(file.tokens.len().saturating_sub(1)))
        .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
        .collect();
    let t = |k: usize| -> &str {
        sig.get(k).map_or("", |&i| file.tok_text(&file.tokens[i]))
    };
    let kind_at = |k: usize| -> Option<TokenKind> { sig.get(k).map(|&i| file.tokens[i].kind) };

    let guarded = sig.iter().any(|&i| {
        file.tokens[i].kind == TokenKind::Ident
            && GUARD_IDENTS.contains(&file.tok_text(&file.tokens[i]))
    });

    let mut sites = Vec::new();
    for k in 0..sig.len() {
        let tok = &file.tokens[sig[k]];
        let what = match (tok.kind, file.tok_text(tok)) {
            (TokenKind::Ident, "unwrap") if t(k + 1) == "(" && k > 0 && t(k - 1) == "." => {
                Some("`.unwrap()`")
            }
            (TokenKind::Ident, "expect") if t(k + 1) == "(" && k > 0 && t(k - 1) == "." => {
                Some("`.expect(…)`")
            }
            (TokenKind::Ident, "panic") if t(k + 1) == "!" => Some("`panic!`"),
            (TokenKind::Ident, "unreachable" | "todo" | "unimplemented") if t(k + 1) == "!" => {
                Some("an aborting macro")
            }
            (TokenKind::Punct, "[") if !guarded && k > 0 && is_index_position(kind_at(k - 1), t(k - 1)) => {
                Some("indexing without a visible bounds guard")
            }
            _ => None,
        };
        if let Some(what) = what {
            sites.push(Site {
                what,
                line: tok.line,
                col: tok.col,
            });
        }
    }
    sites
}

/// Whether a `[` preceded by this token is an indexing expression
/// rather than an array literal, slice type, or attribute.
fn is_index_position(kind: Option<TokenKind>, text: &str) -> bool {
    match kind {
        Some(TokenKind::Ident) => !NON_INDEX_KEYWORDS.contains(&text),
        Some(TokenKind::Punct) => matches!(text, ")" | "]" | "?"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SymbolGraph;
    use crate::source::{SourceFile, Workspace};

    fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_files(
            files
                .iter()
                .map(|(p, s)| SourceFile::new(*p, *s))
                .collect(),
        );
        let g = SymbolGraph::build(&ws);
        let mut out = Vec::new();
        ReachPass.check_graph(&ws, &g, &mut out);
        out
    }

    const ENTRY: &str = "struct PipelineBuilder;\nimpl PipelineBuilder {\n    pub fn run_source(&self) { step_one(); }\n}\n";

    #[test]
    fn reachable_unwrap_is_flagged_with_its_call_path() {
        let src = format!(
            "{ENTRY}fn step_one() {{ step_two(); }}\nfn step_two() {{ Some(1).unwrap(); }}\n"
        );
        let d = check(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, ID);
        assert!(d[0].message.contains("PipelineBuilder::run_source → step_one → step_two"));
    }

    #[test]
    fn unreachable_unwrap_is_not_flagged() {
        let src = format!("{ENTRY}fn step_one() {{}}\nfn orphan() {{ Some(1).unwrap(); }}\n");
        assert!(check(&[("crates/demo/src/lib.rs", &src)]).is_empty());
    }

    #[test]
    fn no_entry_points_means_no_findings() {
        assert!(check(&[(
            "crates/demo/src/lib.rs",
            "fn free() { Some(1).unwrap(); panic!(\"x\"); }\n"
        )])
        .is_empty());
    }

    #[test]
    fn unguarded_indexing_in_the_closure_is_flagged() {
        let src = format!("{ENTRY}fn step_one(v: &[u32]) -> u32 {{ v[3] }}\n");
        let d = check(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("bounds guard"));
    }

    #[test]
    fn guarded_indexing_is_not_flagged() {
        let src = format!(
            "{ENTRY}fn step_one(v: &[u32]) -> u32 {{ if v.len() > 3 {{ v[3] }} else {{ 0 }} }}\n"
        );
        assert!(check(&[("crates/demo/src/lib.rs", &src)]).is_empty());
    }

    #[test]
    fn array_literals_and_slice_patterns_are_not_indexing() {
        let src = format!(
            "{ENTRY}fn step_one() {{ let [a, b] = [1u32, 2]; for x in [a, b] {{ let _ = x; }} }}\n"
        );
        assert!(check(&[("crates/demo/src/lib.rs", &src)]).is_empty());
    }

    #[test]
    fn aborting_macros_in_the_closure_are_flagged() {
        let src = format!("{ENTRY}fn step_one() {{ todo!() }}\n");
        let d = check(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("aborting macro"));
    }

    #[test]
    fn every_entry_point_roots_the_closure() {
        let src = "struct Campaign;\nimpl Campaign { pub fn run_observed(&self) { helper(); } }\nstruct Scheduler;\nimpl Scheduler { pub fn run(&self) {} }\nfn helper() { Some(1).unwrap(); }\n";
        let d = check(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Campaign::run_observed → helper"));
    }

    #[test]
    fn record_replay_entry_point_roots_the_closure() {
        let src = "struct PipelineBuilder;\nimpl PipelineBuilder { pub fn run_record_source(&self) { replay(); } }\nfn replay() { Some(1).unwrap(); }\n";
        let d = check(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(d.len(), 1);
        assert!(d[0]
            .message
            .contains("PipelineBuilder::run_record_source → replay"));
    }

    #[test]
    fn watch_poll_entry_point_roots_the_closure() {
        // The live watch loop is an entry point: a panic anywhere in its
        // closure would kill a monitoring deployment mid-tail.
        let src = "struct WatchSession;\nimpl WatchSession { pub fn run_observed(&mut self) { fold(); } }\nfn fold() { Some(1).unwrap(); }\n";
        let d = check(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("WatchSession::run_observed → fold"));
    }
}
