//! End-to-end checks of the benchmark binary on smoke-sized inputs: all
//! five workloads prepare, run and pass their correctness gate; the
//! printed metric names and units are exactly those in `BENCHMARK.json`;
//! a corrupted input fails every pass or is refused; and `compare` of a
//! result file with itself finds no change.

use dr_obs::json::Json;
use gpures_benchmark::inputs::{self, Corpus, Manifest};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_gpures-benchmark");

fn data_dir(test: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("benchmark-suite-{test}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The one-line result objects a run printed, in workload order.
fn results(out: &Output) -> Vec<Json> {
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

/// `(name, unit)` of every metric a result printed, in order.
fn printed(doc: &Json) -> Vec<(String, String)> {
    match doc.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("result without metrics"),
    }
}

/// `(name, unit)` of one `BENCHMARK.json` metric list, in file order.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn counts(doc: &Json) -> (u64, u64) {
    let n = |k: &str| doc.get(k).and_then(Json::as_u64).expect("count");
    (n("attempted"), n("failed"))
}

#[test]
fn all_five_workloads_run_correctly_and_print_the_declared_metrics() {
    let data = data_dir("smoke");
    let data_s = data.to_str().expect("utf-8 path");
    let out_file = data.join("runs.jsonl");
    std::fs::create_dir_all(&data).expect("data dir");
    let out_s = out_file.to_str().expect("utf-8 path");

    let untraced = results(&bench(&[
        "run",
        "--seed",
        "3",
        "--smoke",
        "--seconds",
        "0.3",
        "--data",
        data_s,
        "--out",
        out_s,
    ]));
    assert_eq!(untraced.len(), 5, "one result per workload");
    for doc in &untraced {
        assert_eq!(
            doc.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            doc.render()
        );
        let (attempted, failed) = counts(doc);
        assert!(attempted >= 1);
        assert_eq!(failed, 0);
        assert_eq!(printed(doc), declared("end_to_end"));
        if let Some(Json::Obj(m)) = doc.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64).expect("value");
                assert!(value > 0.0, "{name} reads {value}");
            }
        }
    }

    let traced = results(&bench(&[
        "run",
        "--seed",
        "3",
        "--smoke",
        "--seconds",
        "0.3",
        "--trace",
        "1",
        "--data",
        data_s,
    ]));
    assert_eq!(traced.len(), 5);
    for doc in &traced {
        assert_eq!(
            doc.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            doc.render()
        );
        assert_eq!(printed(doc), declared("per_layer"));
    }

    let bench_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let cmp = bench(&[
        "compare",
        out_s,
        out_s,
        "--bench",
        bench_json.to_str().expect("utf-8 path"),
    ]);
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stderr)
    );
    let text = String::from_utf8_lossy(&cmp.stdout);
    let verdicts: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    assert_eq!(verdicts.len(), 5 * declared("end_to_end").len(), "{text}");
    assert!(verdicts.iter().all(|v| *v == "same"), "{text}");
}

/// Break the first XID line of a `scan-noisy` log so it no longer
/// matches, and return the log's path relative to the input directory.
fn corrupt_scan_noisy(dir: &Path) -> String {
    let logs = dir.join(inputs::LOGS);
    let mut names: Vec<_> = std::fs::read_dir(&logs)
        .expect("logs")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    names.sort();
    for name in names {
        let path = logs.join(&name);
        let mut bytes = std::fs::read(&path).expect("log");
        let needle = b"NVRM: Xid";
        if let Some(at) = bytes.windows(needle.len()).position(|w| w == needle) {
            bytes[at + 7] = b'j';
            std::fs::write(&path, bytes).expect("rewrite log");
            return format!("{}/{name}", inputs::LOGS);
        }
    }
    panic!("no XID line in the scan-noisy corpus");
}

#[test]
fn a_flipped_byte_in_a_scan_noisy_log_fails_every_pass() {
    let data = data_dir("flip");
    let data_s = data.to_str().expect("utf-8 path");
    let prep = bench(&[
        "prepare",
        "--seed",
        "4",
        "--smoke",
        "--workload",
        "scan-noisy",
        "--data",
        data_s,
    ]);
    assert!(
        prep.status.success(),
        "{}",
        String::from_utf8_lossy(&prep.stderr)
    );
    let dir = inputs::input_dir(&data, Corpus::ScanNoisy, 4, true);
    let rel = corrupt_scan_noisy(&dir);

    // Re-stamp the manifest so the checksum gate passes and the
    // correctness gate is what sees the change.
    let mut m = Manifest::load(&dir).expect("manifest");
    let sum = inputs::checksum(&dir, &rel).expect("checksum");
    for f in &mut m.files {
        if f.path == rel {
            *f = sum.clone();
        }
    }
    m.save(&dir).expect("save manifest");

    let out = results(&bench(&[
        "--workload",
        "scan-noisy",
        "--seed",
        "4",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--smoke",
        "--data",
        data_s,
    ]));
    let doc = out.last().expect("a result");
    let (attempted, failed) = counts(doc);
    assert!(attempted >= 1);
    assert_eq!(failed, attempted, "fail_ratio must be 1: {}", doc.render());
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn inputs_that_do_not_match_their_checksums_are_refused() {
    let data = data_dir("refuse");
    let data_s = data.to_str().expect("utf-8 path");
    let prep = bench(&[
        "prepare",
        "--seed",
        "5",
        "--smoke",
        "--workload",
        "scan-noisy",
        "--data",
        data_s,
    ]);
    assert!(
        prep.status.success(),
        "{}",
        String::from_utf8_lossy(&prep.stderr)
    );
    corrupt_scan_noisy(&inputs::input_dir(&data, Corpus::ScanNoisy, 5, true));

    let out = bench(&[
        "--workload",
        "scan-noisy",
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--smoke",
        "--data",
        data_s,
    ]);
    assert!(!out.status.success(), "a corrupted input must not be timed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not match its manifest"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
