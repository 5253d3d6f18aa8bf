//! Integration fixtures for the workspace symbol graph: item parsing
//! and call-edge construction on the Rust shapes that historically
//! desync token-level analyzers — generics, where clauses, trait impls,
//! nested modules, and closures.

use dr_lint::{SourceFile, SymbolGraph, Workspace};

fn graph_of(files: &[(&str, &str)]) -> (Workspace, SymbolGraph) {
    let ws = Workspace::from_files(
        files
            .iter()
            .map(|(p, s)| SourceFile::new(*p, *s))
            .collect(),
    );
    let g = SymbolGraph::build(&ws);
    (ws, g)
}

fn names(g: &SymbolGraph) -> Vec<String> {
    g.symbols.iter().map(|s| s.qualified()).collect()
}

fn has_edge(g: &SymbolGraph, from: &str, to: &str) -> bool {
    let fs = g.find(None, from);
    let ts = g.find(None, to);
    fs.iter()
        .any(|&f| g.calls[f].iter().any(|c| ts.contains(c)))
}

#[test]
fn generic_fns_and_where_clauses_parse_with_bodies() {
    let src = "pub fn pick<T: Clone, F>(items: &[T], f: F) -> Option<T>\n\
               where\n\
               \x20   F: Fn(&T) -> bool,\n\
               {\n\
               \x20   items.iter().find(|x| f(x)).cloned()\n\
               }\n\
               fn caller(v: &[u32]) { let _ = pick(v, |x| *x > 1); }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    assert_eq!(names(&g), vec!["pick", "caller"]);
    assert!(has_edge(&g, "caller", "pick"));
}

#[test]
fn trait_impl_methods_are_owned_by_the_implementing_type() {
    let src = "pub struct Reader;\n\
               impl Iterator for Reader {\n\
               \x20   type Item = u32;\n\
               \x20   fn next(&mut self) -> Option<u32> { helper() }\n\
               }\n\
               impl Reader {\n\
               \x20   pub fn fresh() -> Reader { Reader }\n\
               }\n\
               fn helper() -> Option<u32> { None }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    let qualified = names(&g);
    assert!(qualified.contains(&"Reader::next".to_string()), "{qualified:?}");
    assert!(qualified.contains(&"Reader::fresh".to_string()), "{qualified:?}");
    assert!(has_edge(&g, "next", "helper"));
}

#[test]
fn nested_modules_scope_symbols_without_leaking() {
    let src = "mod outer {\n\
               \x20   pub mod inner {\n\
               \x20       pub fn deep() {}\n\
               \x20   }\n\
               \x20   pub fn mid() { inner::deep(); }\n\
               }\n\
               pub fn top() { outer::mid(); }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    assert_eq!(g.symbols.len(), 3, "{:?}", names(&g));
    assert!(has_edge(&g, "mid", "deep"));
    assert!(has_edge(&g, "top", "mid"));
    // Module braces must not desync ownership: none of these are methods.
    assert!(g.symbols.iter().all(|s| s.owner.is_none()));
}

#[test]
fn closures_stay_inside_their_enclosing_fn() {
    // The closure body belongs to `map_all`; its calls are attributed to
    // the enclosing fn, and no phantom symbol is created for it.
    let src = "fn map_all(v: &[u32]) -> Vec<u32> {\n\
               \x20   v.iter().map(|x| transform(*x)).collect()\n\
               }\n\
               fn transform(x: u32) -> u32 { x }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    assert_eq!(g.symbols.len(), 2);
    assert!(has_edge(&g, "map_all", "transform"));
}

#[test]
fn local_bindings_shadow_fn_items_in_the_value_namespace() {
    // `let start = …; start + 1` must NOT edge to the fn `start`.
    let src = "fn start() -> u32 { 7 }\n\
               fn caller() -> u32 { let start = 1; start + 1 }\n\
               fn qualified_caller() -> u32 { self::start() }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    assert!(!has_edge(&g, "caller", "start"));
    assert!(has_edge(&g, "qualified_caller", "start"));
}

#[test]
fn test_region_fns_are_not_symbols() {
    let src = "pub fn real() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn fake() { super::real(); }\n\
               }\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    assert_eq!(names(&g), vec!["real"]);
}

#[test]
fn dot_export_names_every_symbol() {
    let src = "pub struct Engine;\n\
               impl Engine { pub fn run(&self) { step(); } }\n\
               fn step() {}\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph calls {"));
    assert!(dot.contains("Engine::run"));
    assert!(dot.contains("step"));
    assert!(dot.trim_end().ends_with('}'));
}

#[test]
fn reachability_renders_full_call_paths() {
    let src = "pub struct PipelineBuilder;\n\
               impl PipelineBuilder { pub fn run_source(&self) { a(); } }\n\
               fn a() { b(); }\n\
               fn b() {}\n";
    let (_, g) = graph_of(&[("crates/demo/src/lib.rs", src)]);
    let roots = g.find(Some("PipelineBuilder"), "run_source");
    assert_eq!(roots.len(), 1);
    let parents = g.reachable_from(&roots);
    let b = g.find(None, "b");
    assert_eq!(b.len(), 1);
    let b0 = b.first().copied().unwrap_or_default();
    assert!(parents.contains_key(&b0));
    assert_eq!(
        g.path_to(&parents, b0),
        "PipelineBuilder::run_source → a → b"
    );
}

#[test]
fn cross_crate_edges_respect_declared_dependencies() {
    // dr-obs does not depend on dr-slurm, so a same-named fn there
    // must not absorb the call; dr-stats is a declared dependency.
    let stats = "pub fn shared() {}\n";
    let slurm = "pub fn shared() {}\n";
    let obs = "pub fn compute() { shared(); }\n";
    let (_, g) = graph_of(&[
        ("crates/stats/src/lib.rs", stats),
        ("crates/slurm/src/lib.rs", slurm),
        ("crates/obs/src/lib.rs", obs),
    ]);
    let compute = g.find(None, "compute");
    assert_eq!(compute.len(), 1);
    let c0 = compute.first().copied().unwrap_or_default();
    let callees: Vec<&str> = g.calls[c0]
        .iter()
        .map(|&i| g.symbols[i].path.as_str())
        .collect();
    assert_eq!(callees, vec!["crates/stats/src/lib.rs"]);
}

/// `(package name, workspace-crate dependencies)` of one manifest: the
/// `name` under `[package]` and every key under `[dependencies]`, of
/// which the caller keeps the workspace crates.
fn manifest(text: &str) -> (String, Vec<String>) {
    let (mut name, mut deps, mut section) = (String::new(), Vec::new(), "");
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = value.trim().trim_matches('"').to_string(),
            "[dependencies]" => {
                deps.push(key.split('.').next().unwrap_or(key).to_string());
            }
            _ => {}
        }
    }
    (name, deps)
}

#[test]
fn manifest_dag_matches() {
    use dr_lint::graph::CRATES;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Source prefix → manifest path, for the root package and every
    // `crates/*` member.
    let mut manifests = vec![("src/".to_string(), root.join("Cargo.toml"))];
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let dir = entry.expect("crates/ entry").path();
        let file = dir.file_name().and_then(|n| n.to_str()).expect("crate dir name");
        manifests.push((format!("crates/{file}/"), dir.join("Cargo.toml")));
    }
    let parsed: BTreeMap<String, (String, Vec<String>)> = manifests
        .iter()
        .map(|(prefix, path)| {
            let text = std::fs::read_to_string(path).expect("read manifest");
            (prefix.clone(), manifest(&text))
        })
        .collect();
    // Workspace crates by `use`-path name (`dr-xid` → `dr_xid`).
    let workspace: BTreeSet<String> =
        parsed.values().map(|(name, _)| name.replace('-', "_")).collect();

    let rows: BTreeSet<&str> = CRATES.iter().map(|c| c.prefix).collect();
    let found: BTreeSet<&str> = parsed.keys().map(String::as_str).collect();
    assert_eq!(rows, found, "CRATES rows vs workspace manifests");

    for c in CRATES {
        let (name, deps) = &parsed[c.prefix];
        assert_eq!(name.replace('-', "_"), c.lib, "{} names another crate", c.prefix);
        let declared: BTreeSet<&str> = c.deps.iter().map(|&d| CRATES[d].lib).collect();
        let manifest_deps: BTreeSet<String> = deps
            .iter()
            .map(|d| d.replace('-', "_"))
            .filter(|d| workspace.contains(d))
            .collect();
        let manifest_deps: BTreeSet<&str> = manifest_deps.iter().map(String::as_str).collect();
        assert_eq!(declared, manifest_deps, "{}: CRATES deps vs [dependencies]", c.lib);
    }
}
