//! Workspace symbol table and conservative call-approximation graph.
//!
//! Edges are name-based: any identifier inside a function body that
//! matches a known function name becomes a call edge. That deliberately
//! over-approximates through method calls (`engine.step()` edges to
//! every in-scope `step`) and function pointers (`map(parse_line)`
//! edges to `parse_line`) — for panic-reachability, over-approximation
//! is the sound direction. Two restrictions keep the fan-out honest:
//!
//! * a `Qualifier::name` call only edges to symbols whose owner matches
//!   the qualifier (when any such symbol exists), and
//! * edges may only point into the calling crate or its transitive
//!   Cargo dependencies — `dr-stats` cannot call into `dr-report`, so
//!   a shared method name there is not an edge.
//!
//! The crate table below is the declared layer DAG; the `layer-dag`
//! pass enforces that real `use` edges stay inside it.

use crate::items::{self, UseItem};
use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// One workspace crate: lib name, source prefix, and declared direct
/// dependencies (indices into [`CRATES`]). This mirrors the Cargo
/// manifests; `manifest_dag_matches` in `tests/graph.rs` keeps it honest.
pub struct CrateInfo {
    /// The `use`-path name (`dr_stats`).
    pub lib: &'static str,
    /// Workspace-relative source prefix (`crates/stats/`).
    pub prefix: &'static str,
    /// Direct dependencies, as indices into [`CRATES`].
    pub deps: &'static [usize],
}

/// The declared crate layer DAG, leaves first. Index order matters:
/// `deps` entries refer to earlier rows.
pub const CRATES: &[CrateInfo] = &[
    /* 0 */ CrateInfo { lib: "dr_xid", prefix: "crates/xid/", deps: &[] },
    /* 1 */ CrateInfo { lib: "dr_par", prefix: "crates/par/", deps: &[] },
    /* 2 */ CrateInfo { lib: "dr_lint", prefix: "crates/lint/", deps: &[] },
    /* 3 */ CrateInfo { lib: "dr_des", prefix: "crates/des/", deps: &[] },
    /* 4 */ CrateInfo { lib: "dr_stats", prefix: "crates/stats/", deps: &[] },
    /* 5 */ CrateInfo { lib: "dr_obs", prefix: "crates/obs/", deps: &[4] },
    /* 6 */ CrateInfo { lib: "dr_logscan", prefix: "crates/logscan/", deps: &[0, 5] },
    /* 7 */ CrateInfo { lib: "dr_gpu", prefix: "crates/gpu/", deps: &[0, 3, 4] },
    /* 8 */ CrateInfo { lib: "dr_cluster", prefix: "crates/cluster/", deps: &[0, 7] },
    /* 9 */ CrateInfo { lib: "dr_faults", prefix: "crates/faults/", deps: &[0, 3, 4, 7, 8, 5] },
    /* 10 */
    CrateInfo { lib: "dr_scenario", prefix: "crates/scenario/", deps: &[0, 7, 8, 9] },
    /* 11 */
    CrateInfo { lib: "dr_slurm", prefix: "crates/slurm/", deps: &[0, 8, 4, 3, 7, 9, 5] },
    /* 12 */
    CrateInfo {
        lib: "resilience_core",
        prefix: "crates/core/",
        deps: &[0, 6, 4, 5, 1, 8, 11, 9],
    },
    /* 13 */ CrateInfo { lib: "dr_availsim", prefix: "crates/availsim/", deps: &[4] },
    /* 14 */ CrateInfo { lib: "dr_predict", prefix: "crates/predict/", deps: &[0, 4, 12] },
    /* 15 */
    CrateInfo {
        lib: "dr_report",
        prefix: "crates/report/",
        deps: &[0, 4, 12, 11, 9, 10, 1, 5, 7],
    },
    /* 16 */
    CrateInfo {
        lib: "gpu_resilience",
        prefix: "src/",
        deps: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    },
];

/// The crate a workspace-relative path belongs to, as an index into
/// [`CRATES`]; `None` for paths outside any declared crate.
pub fn crate_of(path: &str) -> Option<usize> {
    CRATES.iter().position(|c| path.starts_with(c.prefix))
}

/// Transitive dependency closure of a crate (excluding itself).
pub fn transitive_deps(idx: usize) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut work = vec![idx];
    while let Some(c) = work.pop() {
        for &d in CRATES[c].deps {
            if seen.insert(d) {
                work.push(d);
            }
        }
    }
    seen
}

/// One function symbol in the workspace graph.
#[derive(Clone, Debug)]
pub struct Symbol {
    pub name: String,
    /// `impl` target or `trait` name, when any.
    pub owner: Option<String>,
    /// Workspace-relative file path.
    pub path: String,
    pub line: u32,
    /// Index into [`CRATES`]; `None` for unclassified paths.
    pub krate: Option<usize>,
    /// Body token range within the file's full token stream, inclusive.
    pub body: Option<(usize, usize)>,
    /// Whole-item token range (signature and body), inclusive.
    pub full: (usize, usize),
    /// Whether the first parameter is `self` (see [`items::FnItem`]).
    pub has_self: bool,
}

impl Symbol {
    /// `Owner::name` or bare `name` — the display form diagnostics use.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace symbol graph: symbols, name index, and call edges.
pub struct SymbolGraph {
    pub symbols: Vec<Symbol>,
    /// Symbol indices by bare function name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Forward call edges (caller → callees), deduplicated and sorted.
    pub calls: Vec<Vec<usize>>,
    /// Reverse edges (callee → callers), for taint propagation.
    pub callers: Vec<Vec<usize>>,
    /// Non-test `use` declarations per file: (path, item).
    pub uses: Vec<(String, UseItem)>,
    /// Total number of call edges.
    pub edge_count: usize,
}

impl SymbolGraph {
    /// Build the graph for a workspace. Test-region functions are not
    /// symbols: their bodies may panic freely and edges into them are
    /// never pipeline-reachable.
    pub fn build(ws: &Workspace) -> SymbolGraph {
        let mut symbols = Vec::new();
        let mut uses = Vec::new();
        for file in &ws.files {
            let parsed = items::parse(file);
            let krate = crate_of(&file.path);
            for f in parsed.fns {
                if f.is_test {
                    continue;
                }
                symbols.push(Symbol {
                    name: f.name,
                    owner: f.owner,
                    path: file.path.clone(),
                    line: f.line,
                    krate,
                    body: f.body,
                    full: f.full,
                    has_self: f.has_self,
                });
            }
            for u in parsed.uses {
                if !u.is_test {
                    uses.push((file.path.clone(), u));
                }
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, s) in symbols.iter().enumerate() {
            by_name.entry(s.name.clone()).or_default().push(i);
        }

        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
        let mut edge_count = 0;
        for (i, s) in symbols.iter().enumerate() {
            let Some(file) = ws.file(&s.path) else {
                continue;
            };
            let mut out = BTreeSet::new();
            body_callees(file, s, &symbols, &by_name, &mut out);
            out.remove(&i); // self-recursion adds nothing to reachability
            edge_count += out.len();
            calls[i] = out.into_iter().collect();
        }

        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
        for (i, outs) in calls.iter().enumerate() {
            for &j in outs {
                callers[j].push(i);
            }
        }

        SymbolGraph {
            symbols,
            by_name,
            calls,
            callers,
            uses,
            edge_count,
        }
    }

    /// Symbols matching `owner::name` (owner `None` matches any).
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| match owner {
                        Some(o) => self.symbols[i].owner.as_deref() == Some(o),
                        None => true,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Forward BFS from `roots`. Returns each reachable symbol mapped to
    /// its BFS parent (roots map to themselves) — the parent chain is
    /// the call path diagnostics print.
    pub fn reachable_from(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.calls[i] {
                // Insert only on first discovery — overwriting an
                // assigned parent can knot the parent chains into a
                // cycle and hang `path_to`.
                if !parent.contains_key(&j) {
                    parent.insert(j, i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// The call path from a BFS root to `i`, rendered
    /// `Root::a → b → Leaf::c`.
    pub fn path_to(&self, parents: &BTreeMap<usize, usize>, i: usize) -> String {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&k| self.symbols[k].qualified())
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Graphviz dump for `dr-lint --graph-dot`.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph calls {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, s) in self.symbols.iter().enumerate() {
            out.push_str(&format!(
                "  n{} [label=\"{}\\n{}:{}\"];\n",
                i,
                s.qualified().replace('"', "'"),
                s.path,
                s.line
            ));
        }
        for (i, outs) in self.calls.iter().enumerate() {
            for &j in outs {
                out.push_str(&format!("  n{i} -> n{j};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Collect the call edges out of one symbol's body into `out`.
fn body_callees(
    file: &SourceFile,
    sym: &Symbol,
    symbols: &[Symbol],
    by_name: &BTreeMap<String, Vec<usize>>,
    out: &mut BTreeSet<usize>,
) {
    let Some((lo, hi)) = sym.body else {
        return;
    };
    // Comment-free view of the body, mapped back to full indices.
    let sig: Vec<usize> = (lo..=hi.min(file.tokens.len().saturating_sub(1)))
        .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
        .collect();
    let text = |k: usize| -> &str {
        sig.get(k).map_or("", |&i| file.tokens[i].text(&file.text))
    };
    let dep_ok = |callee: &Symbol| -> bool {
        match (sym.krate, callee.krate) {
            (Some(a), Some(b)) => a == b || transitive_deps(a).contains(&b),
            // Unclassified paths (fixtures in tests) edge freely.
            _ => true,
        }
    };

    // Names bound locally in this item — parameters (`name:` in the
    // signature) and `let`/`mut`/`for` bindings — shadow fn items in
    // the value namespace, so they never resolve to workspace symbols.
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    {
        let (flo, fhi) = sym.full;
        let fsig: Vec<usize> = (flo..=fhi.min(file.tokens.len().saturating_sub(1)))
            .filter(|&i| file.tokens[i].kind != TokenKind::Comment)
            .collect();
        let ft = |k: usize| -> &str {
            fsig.get(k).map_or("", |&i| file.tokens[i].text(&file.text))
        };
        let body_start = sym.body.map(|(blo, _)| blo).unwrap_or(usize::MAX);
        let mut k = 0;
        while k < fsig.len() {
            // `let <pattern> =` binds every identifier in the pattern,
            // including tuple/enum forms (`let (start, end) = m.span()`,
            // `if let Some(now) = self.now`). The stop `=` must be a
            // standalone assignment, not `==`/`..=`/`<=`/`>=`/`!=`.
            if ft(k) == "let" {
                let mut j = k + 1;
                while j < fsig.len() {
                    let t = ft(j);
                    if t == ";" || t == "{" {
                        break;
                    }
                    if t == "="
                        && ft(j + 1) != "="
                        && !matches!(ft(j.wrapping_sub(1)), "." | "<" | ">" | "!" | "=")
                    {
                        break;
                    }
                    if file.tokens[fsig[j]].kind == TokenKind::Ident {
                        bound.insert(file.tokens[fsig[j]].text(&file.text));
                    }
                    j += 1;
                }
                k = j;
                continue;
            }
            if file.tokens[fsig[k]].kind == TokenKind::Ident {
                let prev = if k > 0 { ft(k - 1) } else { "" };
                let next = ft(k + 1);
                // `name:` marks a binding only in the signature
                // (parameter lists) — in the body it is usually a
                // struct-literal field.
                let in_signature = fsig[k] < body_start;
                let binds = matches!(prev, "mut" | "for")
                    || (in_signature && next == ":" && ft(k + 2) != ":");
                if binds {
                    bound.insert(file.tokens[fsig[k]].text(&file.text));
                }
            }
            k += 1;
        }
    }

    for k in 0..sig.len() {
        let i = sig[k];
        let tok = &file.tokens[i];
        if !matches!(tok.kind, TokenKind::Ident | TokenKind::RawIdent) {
            continue;
        }
        let name = file.tokens[i].text(&file.text).trim_start_matches("r#");
        let Some(cands) = by_name.get(name) else {
            continue;
        };
        // `name!` is a macro invocation, not a call to fn `name`.
        if text(k + 1) == "!" {
            continue;
        }
        // `fn name` is this or a nested declaration, not a call.
        if k > 0 && text(k - 1) == "fn" {
            continue;
        }
        // `value.name` without `(` is a field access, and `name:` (one
        // colon, not `::`) is a struct-literal field, pattern binding,
        // or type ascription — common field names like `start` would
        // otherwise edge to every same-named method in scope.
        let is_method_call = k > 0 && text(k - 1) == ".";
        if is_method_call && text(k + 1) != "(" {
            continue;
        }
        if text(k + 1) == ":" && text(k + 2) != ":" {
            continue;
        }
        // A locally bound `name` shadows any fn `name` in the value
        // namespace; only method calls (their own namespace) and
        // path-qualified references escape the shadow.
        let is_path_qualified = k >= 2 && text(k - 1) == ":" && text(k - 2) == ":";
        if !is_method_call && !is_path_qualified && bound.contains(name) {
            continue;
        }
        // `Qualifier::name` — when candidates exist whose owner is the
        // qualifier, restrict to them. `Self::` resolves to the
        // enclosing owner; `module::name` (no owner match) keeps all.
        let qualifier: Option<String> =
            if k >= 3 && text(k - 1) == ":" && text(k - 2) == ":" {
                let q = text(k - 3);
                if q == "Self" {
                    sym.owner.clone()
                } else {
                    Some(q.to_string())
                }
            } else {
                None
            };
        // `recv.name(…)` can only resolve to fns whose first parameter
        // is `self`; an associated constructor like `Stopwatch::start()`
        // is unreachable through method syntax.
        let cands: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| dep_ok(&symbols[c]) && (!is_method_call || symbols[c].has_self))
            .collect();
        let restricted: Vec<usize> = match &qualifier {
            Some(q) => {
                let owned: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| symbols[c].owner.as_deref() == Some(q.as_str()))
                    .collect();
                if owned.is_empty() { cands } else { owned }
            }
            None => cands,
        };
        out.extend(restricted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_files(
            files
                .iter()
                .map(|(p, s)| SourceFile::new(*p, *s))
                .collect(),
        )
    }

    #[test]
    fn direct_call_edges() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]));
        assert_eq!(g.symbols.len(), 3);
        assert_eq!(g.edge_count, 2);
        let a = g.find(None, "a")[0];
        let reach = g.reachable_from(&[a]);
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "struct E;\nimpl E { fn step(&self) {} }\nfn drive(e: &E) { e.step(); }\n",
        )]));
        let drive = g.find(None, "drive")[0];
        let step = g.find(Some("E"), "step")[0];
        assert!(g.calls[drive].contains(&step));
    }

    #[test]
    fn function_pointers_create_edges() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "fn parse(x: u32) -> u32 { x }\nfn drive(v: Vec<u32>) { v.iter().map(|&x| parse(x)).count(); let f = parse; }\n",
        )]));
        let drive = g.find(None, "drive")[0];
        let parse = g.find(None, "parse")[0];
        assert!(g.calls[drive].contains(&parse));
    }

    #[test]
    fn qualifier_restricts_to_matching_owner() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "struct A;\nstruct B;\nimpl A { fn make() {} }\nimpl B { fn make() {} }\nfn drive() { A::make(); }\n",
        )]));
        let drive = g.find(None, "drive")[0];
        let a_make = g.find(Some("A"), "make")[0];
        let b_make = g.find(Some("B"), "make")[0];
        assert!(g.calls[drive].contains(&a_make));
        assert!(!g.calls[drive].contains(&b_make));
    }

    #[test]
    fn self_qualifier_resolves_to_the_enclosing_owner() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "struct A;\nstruct B;\nimpl A { fn make() {} fn run() { Self::make(); } }\nimpl B { fn make() {} }\n",
        )]));
        let run = g.find(Some("A"), "run")[0];
        let a_make = g.find(Some("A"), "make")[0];
        let b_make = g.find(Some("B"), "make")[0];
        assert!(g.calls[run].contains(&a_make));
        assert!(!g.calls[run].contains(&b_make));
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "fn write() {}\nfn drive(buf: &mut String) { write!(buf, \"x\").ok(); }\n",
        )]));
        let drive = g.find(None, "drive")[0];
        assert!(g.calls[drive].is_empty());
    }

    #[test]
    fn edges_respect_the_crate_dag() {
        // dr-stats cannot depend on dr-report, so a shared name there is
        // not an edge; the reverse direction is.
        let g = SymbolGraph::build(&ws(&[
            ("crates/stats/src/lib.rs", "pub fn summarize() { helper(); }\npub fn helper() {}\n"),
            ("crates/report/src/lib.rs", "pub fn render() { summarize(); }\npub fn helper() {}\n"),
        ]));
        let stats_sum = g.find(None, "summarize")[0];
        let render = g.find(None, "render")[0];
        let helpers = g.find(None, "helper");
        let stats_helper = *helpers
            .iter()
            .find(|&&i| g.symbols[i].path.starts_with("crates/stats/"))
            .expect("stats helper");
        let report_helper = *helpers
            .iter()
            .find(|&&i| g.symbols[i].path.starts_with("crates/report/"))
            .expect("report helper");
        // stats → stats only.
        assert!(g.calls[stats_sum].contains(&stats_helper));
        assert!(!g.calls[stats_sum].contains(&report_helper));
        // report may edge down into stats.
        assert!(g.calls[render].contains(&stats_sum));
    }

    #[test]
    fn test_fns_are_not_symbols() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn probe() { live(); }\n}\n",
        )]));
        assert_eq!(g.symbols.len(), 1);
        assert_eq!(g.symbols[0].name, "live");
    }

    #[test]
    fn bfs_parents_render_a_call_path() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "struct P;\nimpl P { fn run(&self) { middle(); } }\nfn middle() { leaf(); }\nfn leaf() {}\n",
        )]));
        let run = g.find(Some("P"), "run")[0];
        let reach = g.reachable_from(&[run]);
        let leaf = g.find(None, "leaf")[0];
        assert_eq!(g.path_to(&reach, leaf), "P::run → middle → leaf");
    }

    #[test]
    fn dot_dump_names_every_symbol() {
        let g = SymbolGraph::build(&ws(&[(
            "crates/demo/src/lib.rs",
            "fn a() { b(); }\nfn b() {}\n",
        )]));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph calls {"));
        assert!(dot.contains("n0 -> n1;"));
    }

    #[test]
    fn crate_table_is_a_dag_with_valid_indices() {
        for (i, c) in CRATES.iter().enumerate() {
            for &d in c.deps {
                assert!(d < CRATES.len(), "{} has out-of-range dep", c.lib);
                assert!(d != i, "{} depends on itself", c.lib);
            }
        }
        // Leaves-first ordering makes cycles impossible if every dep
        // points at an earlier row.
        for (i, c) in CRATES.iter().enumerate() {
            for &d in c.deps {
                assert!(d < i, "{} dep {} breaks leaves-first order", c.lib, CRATES[d].lib);
            }
        }
    }

    #[test]
    fn transitive_closure_includes_indirect_deps() {
        let core = CRATES.iter().position(|c| c.lib == "resilience_core").expect("core");
        let xid = CRATES.iter().position(|c| c.lib == "dr_xid").expect("xid");
        let des = CRATES.iter().position(|c| c.lib == "dr_des").expect("des");
        let deps = transitive_deps(core);
        assert!(deps.contains(&xid));
        // core does not depend on des directly — only via faults/slurm.
        assert!(!CRATES[core].deps.contains(&des));
        assert!(deps.contains(&des));
    }
}
