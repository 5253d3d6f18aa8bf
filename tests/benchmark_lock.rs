//! The benchmark crate (`gpures-benchmark/`) is a workspace of its own
//! with a committed lock file, and the benchmark builds it with
//! `--offline --locked`. A new dependency edge between workspace crates
//! changes the graph that lock file records, so the benchmark build
//! would fail long after the change that caused it. This test resolves
//! the benchmark's graph the same way and fails here first.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_lock_file_matches_the_workspace_manifests() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("gpures-benchmark/Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["metadata", "--format-version", "1", "--offline", "--locked", "--manifest-path"])
        .arg(&manifest)
        .output()
        .expect("run cargo metadata");
    assert!(
        out.status.success(),
        "`cargo metadata --offline --locked --manifest-path {}` failed (exit {:?}): a crate \
         the benchmark builds gained or lost a dependency, so `gpures-benchmark/Cargo.lock` \
         no longer matches and the benchmark's `--locked` build would fail. Keep the \
         dependency graph unchanged, or change the benchmark together with its lock file.\n{}",
        manifest.display(),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}
