//! End-to-end tests of the `gpures` binary: campaign-to-disk, file-based
//! analysis, record-store replay, sweeps, incidents, the projection
//! command, and the typed usage errors of every subcommand.

use gpu_resilience::obs::json::Json;
use gpu_resilience::xid::{syslog, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};
use std::path::PathBuf;
use std::process::Command;

fn gpures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpures"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpures-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn read_metrics(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let doc = Json::parse(&text).expect("metrics parse");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpures-metrics/v1")
    );
    doc
}

fn stage_names(doc: &Json) -> Vec<String> {
    doc.get("stages")
        .and_then(Json::as_arr)
        .map(|stages| {
            stages
                .iter()
                .filter_map(|s| s.get("stage").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn campaign_analyze_round_trip() {
    let dir = temp_dir("roundtrip");

    let out = gpures()
        .args(["campaign", "--out"])
        .arg(&dir)
        .args(["--shape", "tiny", "--seed", "5", "--days", "10", "--metrics"])
        .arg(dir.join("campaign-metrics.json"))
        .output()
        .expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("jobs.csv").exists());
    assert!(dir.join("downtime.csv").exists());
    assert!(dir.join("logs").read_dir().unwrap().count() >= 4);
    let metrics = read_metrics(&dir.join("campaign-metrics.json"));
    assert!(stage_names(&metrics).contains(&"campaign".to_string()));
    assert!(stage_names(&metrics).contains(&"schedule".to_string()));

    let dot_dir = dir.join("dot");
    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(dir.join("logs"))
        .arg("--jobs")
        .arg(dir.join("jobs.csv"))
        .arg("--downtime")
        .arg(dir.join("downtime.csv"))
        .args(["--nodes", "6", "--hours", "240", "--dot"])
        .arg(&dot_dir)
        .arg("--metrics")
        .arg(dir.join("analyze-metrics.json"))
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "missing Table 1:\n{stdout}");
    assert!(stdout.contains("Table 2"));
    assert!(stdout.contains("Study summary"));
    assert!(dot_dir.join("fig5.dot").exists());
    let metrics = read_metrics(&dir.join("analyze-metrics.json"));
    for want in ["extract", "coalesce", "stats", "job_impact"] {
        assert!(
            stage_names(&metrics).contains(&want.to_string()),
            "stage {want} missing from analyze metrics"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incidents_and_project_commands() {
    let out = gpures().arg("incidents").output().expect("run incidents");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 1"));
    assert!(stdout.contains("17-day"));

    let out = gpures()
        .args(["project", "--gpus", "800", "--recovery-min", "40", "--runs", "10"])
        .output()
        .expect("run project");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overprovision"), "{stdout}");
}

#[test]
fn degenerate_stream_flags_are_usage_errors() {
    let dir = temp_dir("degenerate");
    // `--chunk-bytes 0` once silently disabled chunking; it must now
    // fail fast with a usage hint, before any log I/O happens.
    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(&dir)
        .args(["--chunk-bytes", "0"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--chunk-bytes") && stderr.contains("positive"),
        "expected a usage hint naming the flag, got:\n{stderr}"
    );

    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(&dir)
        .args(["--workers", "0"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers") && stderr.contains("positive"),
        "expected a usage hint naming the flag, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Numeric flags that must be positive reject zero, negatives, NaN and
/// infinities with a usage error naming the flag (exit 1), instead of
/// panicking in a constructor (exit 101) or printing NaN.
#[test]
fn non_positive_numeric_flags_are_usage_errors() {
    let dir = temp_dir("positive");
    // A valid one-line corpus and its record store, so every invocation
    // would otherwise run to the analysis.
    let logs = dir.join("logs");
    std::fs::create_dir_all(&logs).expect("mkdir logs");
    let line = syslog::format_line(
        &ErrorRecord::new(
            Timestamp::from_secs(86_400),
            GpuId::at_slot(NodeId(1), 0),
            Xid::MmuError,
            ErrorDetail::new(1, 2),
        ),
        77,
    );
    std::fs::write(logs.join("gpub001.log"), format!("{line}\n")).expect("write log");
    let store = dir.join("records.grcs");
    let out = gpures()
        .args(["analyze", "--hours", "24", "--logs"])
        .arg(&logs)
        .arg("--records")
        .arg(&store)
        .output()
        .expect("write store");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let logs = logs.to_str().expect("utf-8 path");
    let store = store.to_str().expect("utf-8 path");
    let campaign_out = dir.join("campaign");
    let campaign_out = campaign_out.to_str().expect("utf-8 path");
    let cases: &[(&str, &[&str])] = &[
        ("hours", &["analyze", "--logs", logs, "--hours", "0"]),
        ("hours", &["analyze", "--logs", logs, "--hours", "-5"]),
        ("hours", &["analyze", "--logs", logs, "--hours", "nan"]),
        ("hours", &["analyze", "--logs", logs, "--hours", "inf"]),
        ("hours", &["analyze", "--from-records", store, "--hours", "-1"]),
        ("hours", &["watch", "--follow", "off", "--logs", logs, "--hours", "-5"]),
        ("window-hours", &["watch", "--follow", "off", "--logs", logs, "--window-hours", "-1"]),
        ("window-hours", &["watch", "--follow", "off", "--logs", logs, "--window-hours", "nan"]),
        ("days", &["campaign", "--out", campaign_out, "--days", "0"]),
        ("days", &["campaign", "--out", campaign_out, "--days", "-1"]),
        ("days", &["campaign", "--out", campaign_out, "--days", "nan"]),
        ("runs", &["project", "--runs", "0"]),
        ("gpus", &["project", "--gpus", "0"]),
    ];
    for (flag, args) in cases {
        let out = gpures().args(*args).output().expect("run gpures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("--{flag}")),
            "{args:?}: the usage error must name --{flag}, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_utf8_in_jobs_or_downtime_names_the_file_and_offset() {
    let dir = temp_dir("utf8");
    let logs = dir.join("logs");
    std::fs::create_dir_all(&logs).expect("mkdir logs");
    std::fs::write(logs.join("gpub001.log"), "").expect("write log");
    // A valid header, then a row whose first byte is not UTF-8.
    let jobs_header = b"id,start_us,end_us,state,exit_code,ml,gpus\n";
    let mut jobs = jobs_header.to_vec();
    jobs.extend_from_slice(b"\xff1,0,5,COMPLETED,0,0,1/0000:07:00\n");
    std::fs::write(dir.join("jobs.csv"), &jobs).expect("write jobs");
    // A bare continuation byte three bytes in.
    std::fs::write(dir.join("downtime.csv"), b"nod\x80e\n").expect("write downtime");

    for (flag, file, offset) in [
        ("--jobs", "jobs.csv", jobs_header.len()),
        ("--downtime", "downtime.csv", 3),
    ] {
        let path = dir.join(file);
        let out = gpures()
            .args(["analyze", "--nodes", "1", "--hours", "24", "--logs"])
            .arg(&logs)
            .arg(flag)
            .arg(&path)
            .output()
            .expect("run analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{}: invalid UTF-8 at byte offset {offset}",
                path.display()
            )),
            "{flag}: the error must name the file and the offset, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_store_write_and_replay_round_trip() {
    let dir = temp_dir("records");
    let out = gpures()
        .args(["campaign", "--out"])
        .arg(&dir)
        .args(["--shape", "tiny", "--seed", "9", "--days", "6", "--records"])
        .arg(dir.join("campaign.grcs"))
        .output()
        .expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("campaign.grcs").exists());

    // Text analysis with the store tee.
    let store = dir.join("records.grcs");
    let text = gpures()
        .args(["analyze", "--logs"])
        .arg(dir.join("logs"))
        .args(["--nodes", "6", "--hours", "144", "--records"])
        .arg(&store)
        .output()
        .expect("run analyze with tee");
    assert!(text.status.success(), "{}", String::from_utf8_lossy(&text.stderr));
    assert!(String::from_utf8_lossy(&text.stderr).contains("record store written"));

    // Replay must print byte-identical tables from the store alone.
    let replay = gpures()
        .args(["analyze", "--from-records"])
        .arg(&store)
        .args(["--nodes", "6", "--hours", "144"])
        .output()
        .expect("run replay");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(String::from_utf8_lossy(&replay.stderr).contains("replaying"));
    assert_eq!(
        String::from_utf8_lossy(&text.stdout),
        String::from_utf8_lossy(&replay.stdout),
        "replayed tables must match the text-path tables byte for byte"
    );

    // Mixing replay with text-path flags is a usage error.
    let out = gpures()
        .args(["analyze", "--from-records"])
        .arg(&store)
        .arg("--logs")
        .arg(dir.join("logs"))
        .output()
        .expect("run bad mix");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--from-records"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_runs_a_user_battery_and_reports_scn_errors_with_positions() {
    let dir = temp_dir("sweep");
    let scn = dir.join("smoke.scn");
    std::fs::write(
        &scn,
        "scenario \"smoke\"\nfleet tiny\nduration_days = 12\nseeds = [3]\nrates ampere_delta\n",
    )
    .expect("write scn");
    let out = gpures()
        .arg("sweep")
        .arg(&scn)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run sweep");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("smoke"), "row summary missing:\n{stdout}");
    let doc = Json::parse(&std::fs::read_to_string(dir.join("sweep.json")).expect("artifact"))
        .expect("artifact parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpures-sweep/v1")
    );
    assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(1));

    // A malformed battery file fails naming the file and the position.
    let bad = dir.join("bad.scn");
    std::fs::write(&bad, "scenario \"bad\"\nfleet tiny\nbogus = 3\n").expect("write scn");
    let out = gpures()
        .arg("sweep")
        .arg(&bad)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run bad sweep");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad.scn") && stderr.contains("3:1"),
        "expected file + line:col in the error, got:\n{stderr}"
    );

    // Unknown flags print the generated per-subcommand usage.
    let out = gpures()
        .args(["sweep", "tiny", "--nope", "x", "--out"])
        .arg(&dir)
        .output()
        .expect("run unknown flag");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option") && stderr.contains("gpures sweep BATTERY..."),
        "expected the sweep usage block, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = gpures().output().expect("run bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = gpures().arg("frobnicate").output().expect("run unknown");
    assert!(!out.status.success());

    // The retired `monitor` command is an unknown command like any other.
    let out = gpures().arg("monitor").output().expect("run monitor");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown command \"monitor\"") && stderr.contains("gpures watch"),
        "{stderr}"
    );

    // So is the retired `bench` command: `gpures-benchmark/` measures.
    let out = gpures().args(["bench", "--smoke", "true"]).output().expect("run bench");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command \"bench\""), "{stderr}");

    // So is the retired `--prefetch` switch: the worker pool decides.
    let out = gpures().args(["analyze", "--prefetch", "on"]).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--prefetch: unknown option"), "{stderr}");

    let out = gpures()
        .args(["analyze", "--logs", "/nonexistent-dir-xyz"])
        .output()
        .expect("run bad analyze");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for arg in ["--help", "-h", "help"] {
        let out = gpures().arg(arg).output().expect("run help");
        assert_eq!(out.status.code(), Some(0), "gpures {arg}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage:") && stdout.contains("gpures watch"),
            "gpures {arg}:\n{stdout}"
        );
        assert!(!stdout.contains("gpures bench"), "{stdout}");
        assert!(out.stderr.is_empty(), "gpures {arg} wrote to stderr");
    }

    // A subcommand's help is its per-flag block, wherever a flag may stand.
    let asks: [&[&str]; 3] = [
        &["analyze", "--help"],
        &["analyze", "-h"],
        &["analyze", "--nodes", "6", "--help"],
    ];
    for args in asks {
        let out = gpures().args(args).output().expect("run subcommand help");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("gpures analyze") && stdout.contains("--from-records FILE  replay"),
            "{args:?}:\n{stdout}"
        );
    }
    // A required flag or positional does not stand in the way of help.
    let out = gpures().args(["sweep", "-h"]).output().expect("run sweep help");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("gpures sweep BATTERY..."));
}
