//! The determinism-taint pass: no wall-clock or iteration-order
//! nondeterminism may flow into `StudyResults`.
//!
//! The file-local `determinism` pass forbids nondeterministic
//! *constructs*; this pass tracks nondeterministic *values* through the
//! call graph. Seeds are functions that read ambient nondeterminism
//! (wall clock, OS-seeded RNG, hash-iteration order, thread identity);
//! taint propagates from callee to caller along call edges; a finding
//! is any tainted function that touches `StudyResults` — the struct the
//! paper-comparison numbers are read from.
//!
//! One sanitizer boundary: dr-obs. Span instrumentation calls the wall
//! clock internally, but recording a timing is write-only — it cannot
//! influence results. Taint therefore does not cross from an obs-crate
//! callee to an outside caller except through the read-back surface
//! ([`OBS_READBACK`]), which hands recorded timings (or the clock
//! itself) back to the caller.

use crate::diag::{Diagnostic, Severity};
use crate::graph::{SymbolGraph, CRATES};
use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use crate::Pass;
use std::collections::BTreeMap;

pub struct TaintPass;

pub const ID: &str = "determinism-taint";

/// obs-crate functions whose *return values* carry nondeterminism back
/// to the caller. Everything else in dr-obs is a write-only sink.
pub const OBS_READBACK: &[&str] = &["export_json", "elapsed_s", "now", "start"];

/// Composition roots: CLI glue legitimately stamps wall-clock timings
/// next to results, so it is not a writer scope.
const WRITER_EXEMPT_PREFIXES: &[&str] = &["src/bin/"];

impl Pass for TaintPass {
    fn id(&self) -> &'static str {
        ID
    }

    fn check_graph(&self, ws: &Workspace, g: &SymbolGraph, out: &mut Vec<Diagnostic>) {
        // 1. Seed: functions whose bodies read ambient nondeterminism.
        let mut seed_reason: BTreeMap<usize, String> = BTreeMap::new();
        for (i, sym) in g.symbols.iter().enumerate() {
            let Some(file) = ws.file(&sym.path) else {
                continue;
            };
            if let Some(reason) = seed_in_item(file, sym.full) {
                seed_reason.insert(i, reason);
            }
        }

        // 2. Propagate callee → caller over reverse edges, respecting
        // the obs write-only boundary. `origin[i]` is the callee that
        // tainted `i` (seeds point at themselves).
        let obs_idx = CRATES.iter().position(|c| c.lib == "dr_obs");
        let mut origin: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = seed_reason.keys().copied().collect();
        for &s in &queue {
            origin.insert(s, s);
        }
        while let Some(callee) = queue.pop() {
            for &caller in &g.callers[callee] {
                if origin.contains_key(&caller) {
                    continue;
                }
                let callee_sym = &g.symbols[callee];
                let crosses_obs_boundary = callee_sym.krate == obs_idx
                    && g.symbols[caller].krate != obs_idx
                    && !OBS_READBACK.contains(&callee_sym.name.as_str());
                if crosses_obs_boundary {
                    continue;
                }
                origin.insert(caller, callee);
                queue.push(caller);
            }
        }

        // 3. Flag tainted functions that touch StudyResults.
        for (i, sym) in g.symbols.iter().enumerate() {
            if !origin.contains_key(&i) {
                continue;
            }
            if WRITER_EXEMPT_PREFIXES.iter().any(|p| sym.path.starts_with(p)) {
                continue;
            }
            let Some(file) = ws.file(&sym.path) else {
                continue;
            };
            if !mentions_study_results(file, sym.full) {
                continue;
            }
            if file.is_allowed(ID, sym.line) {
                continue;
            }
            let chain = taint_chain(g, &origin, i);
            let root = *chain.last().unwrap_or(&i);
            let why = seed_reason
                .get(&root)
                .cloned()
                .unwrap_or_else(|| "a nondeterminism source".to_string());
            let via = chain
                .iter()
                .map(|&k| g.symbols[k].qualified())
                .collect::<Vec<_>>()
                .join(" → ");
            out.push(Diagnostic {
                lint: ID,
                severity: Severity::Error,
                path: sym.path.clone(),
                line: sym.line,
                col: 1,
                message: format!(
                    "`{}` touches StudyResults but is tainted by {why} (via {via}); results \
                     must depend only on seeds and inputs",
                    sym.qualified()
                ),
            });
        }
    }
}

/// Walk `origin` links from a tainted symbol down to its seed.
fn taint_chain(g: &SymbolGraph, origin: &BTreeMap<usize, usize>, i: usize) -> Vec<usize> {
    let mut chain = vec![i];
    let mut cur = i;
    while let Some(&next) = origin.get(&cur) {
        if next == cur || chain.len() > g.symbols.len() {
            break;
        }
        chain.push(next);
        cur = next;
    }
    chain
}

/// Whether an item (signature or body) reads ambient nondeterminism,
/// and which kind. Signatures count: a fn taking a `HashMap` is assumed
/// to be able to iterate it.
fn seed_in_item(file: &SourceFile, (lo, hi): (usize, usize)) -> Option<String> {
    let sig: Vec<usize> = (lo..=hi.min(file.tokens.len().saturating_sub(1)))
        .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
        .collect();
    let t = |k: usize| -> &str {
        sig.get(k).map_or("", |&i| file.tok_text(&file.tokens[i]))
    };
    for k in 0..sig.len() {
        let i = sig[k];
        if file.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let line = file.tokens[i].line;
        match file.tok_text(&file.tokens[i]) {
            "thread_rng" => return Some("OS-seeded `thread_rng()`".to_string()),
            name @ ("SystemTime" | "Instant")
                if t(k + 1) == ":" && t(k + 2) == ":" && t(k + 3) == "now" =>
            {
                return Some(format!("the wall clock (`{name}::now()`)"));
            }
            "thread" if t(k + 1) == ":" && t(k + 2) == ":" && t(k + 3) == "current" => {
                return Some("thread identity (`thread::current()`)".to_string());
            }
            // Hash-collection mention over-approximates iteration; the
            // same allow(determinism) audit comments that waive the
            // file-local pass waive the seed.
            name @ ("HashMap" | "HashSet")
                if !file.is_allowed(super::determinism::ID, line)
                    && !file.is_allowed(ID, line) =>
            {
                return Some(format!("`{name}` iteration order"));
            }
            _ => {}
        }
    }
    None
}

/// Whether an item (signature or body) mentions `StudyResults` outside
/// comments/strings.
fn mentions_study_results(file: &SourceFile, (lo, hi): (usize, usize)) -> bool {
    (lo..=hi.min(file.tokens.len().saturating_sub(1))).any(|i| {
        file.tokens[i].kind == TokenKind::Ident
            && file.tok_text(&file.tokens[i]) == "StudyResults"
    })
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
        TaintPass.check_graph(&ws, &g, &mut out);
        out
    }

    #[test]
    fn tainted_writer_is_flagged_with_its_chain() {
        let src = "fn stamp() -> f64 { let t = Instant::now(); 0.0 }\nfn assemble(r: &mut StudyResults) { r.wall = stamp(); }\n";
        let d = check(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, ID);
        assert!(d[0].message.contains("wall clock"));
        assert!(d[0].message.contains("assemble → stamp"));
    }

    #[test]
    fn untainted_writer_is_fine() {
        let src = "fn assemble(r: &mut StudyResults, x: f64) { r.mtbe = x; }\n";
        assert!(check(&[("crates/core/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn tainted_non_writer_is_not_flagged() {
        let src = "fn stamp() -> f64 { let t = SystemTime::now(); 0.0 }\nfn log_it() { let _ = stamp(); }\n";
        assert!(check(&[("crates/core/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn hash_iteration_seeds_taint_unless_allowed() {
        let tainted = "fn tally(m: &HashMap<u32, u32>) -> f64 { 0.0 }\nfn assemble(r: &mut StudyResults) { r.x = tally(&r.m); }\n";
        assert_eq!(check(&[("crates/core/src/lib.rs", tainted)]).len(), 1);

        let waived = "// dr-lint: allow(determinism): keyed lookup only, never iterated\nfn tally(m: &HashMap<u32, u32>) -> f64 { 0.0 }\nfn assemble(r: &mut StudyResults) { r.x = tally(&r.m); }\n";
        assert!(check(&[("crates/core/src/lib.rs", waived)]).is_empty());
    }

    #[test]
    fn obs_span_instrumentation_does_not_taint_callers() {
        // span() reads the clock internally but is write-only; pipeline
        // code instrumented with it stays clean.
        let obs = "pub fn now() -> f64 { let t = Instant::now(); 0.0 }\npub fn span(name: &str) { let t = now(); }\n";
        let core = "fn assemble(r: &mut StudyResults) { span(\"assemble\"); r.x = 1.0; }\n";
        assert!(check(&[
            ("crates/obs/src/clock.rs", obs),
            ("crates/core/src/lib.rs", core),
        ])
        .is_empty());
    }

    #[test]
    fn obs_readback_surface_does_propagate_taint() {
        let obs = "pub fn now() -> f64 { let t = Instant::now(); 0.0 }\npub fn elapsed_s() -> f64 { now() }\n";
        let core = "fn assemble(r: &mut StudyResults) { r.wall = elapsed_s(); }\n";
        let d = check(&[
            ("crates/obs/src/clock.rs", obs),
            ("crates/core/src/lib.rs", core),
        ]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("elapsed_s"));
    }

    #[test]
    fn composition_roots_may_stamp_timings() {
        let src = "fn main_inner(r: &mut StudyResults) { r.wall = stamp(); }\nfn stamp() -> f64 { let t = Instant::now(); 0.0 }\n";
        assert!(check(&[("src/bin/gpures.rs", src)]).is_empty());
    }

    #[test]
    fn thread_identity_seeds_taint() {
        let src = "fn worker_id() -> u64 { let id = thread::current().id(); 0 }\nfn assemble(r: &mut StudyResults) { r.worker = worker_id(); }\n";
        assert_eq!(check(&[("crates/core/src/lib.rs", src)]).len(), 1);
    }
}
