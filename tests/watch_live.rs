//! Tier-1 coverage of the live path: `TailSource` following growing
//! files, checkpoint resume, event-time alert determinism, and the
//! headline acceptance property — `gpures watch` drained over a
//! completed corpus prints byte-for-byte what `gpures analyze` prints
//! on the same logs.

use gpu_resilience::core::{
    GeneratorSource, PipelineBuilder, StudyConfig, TailSource, WatchConfig, WatchSession,
};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::xid::{
    syslog, Duration, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpures-watch-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// One driver-shaped syslog line for an error at `secs` on `node`.
fn line(secs: u64, node: u32, slot: usize, xid: Xid) -> String {
    syslog::format_line(
        &ErrorRecord::new(
            Timestamp::from_secs(secs),
            GpuId::at_slot(NodeId(node), slot),
            xid,
            ErrorDetail::new(1, 2),
        ),
        77,
    )
}

fn append(path: &Path, lines: &[String]) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open log for append");
    for l in lines {
        writeln!(f, "{l}").expect("append line");
    }
}

const DAY: u64 = 86_400;

/// The shared two-node corpus: a coalescing burst, a second GPU on the
/// same node (propagation), and enough per-GPU repeats to cross the
/// offender threshold used by the alert tests. Node 1's file ends
/// (`DAY + 25 200`) after node 2's begins (`DAY + 1 800`), so the files
/// read one after the other go back in event time across nodes: the
/// order the watermark must restore before the coalescer sees it.
fn corpus() -> (Vec<String>, Vec<String>) {
    let node1: Vec<String> = (0..6)
        .map(|k| line(DAY + 3_600 * k, 1, 0, Xid::MmuError))
        .chain([
            line(DAY + 3_600 * 5 + 2, 1, 0, Xid::MmuError), // coalesces
            line(DAY + 3_600 * 7, 1, 1, Xid::NvlinkError),
        ])
        .collect();
    let node2 = vec![
        line(DAY + 1_800, 2, 0, Xid::FallenOffBus),
        line(DAY + 40_000, 2, 0, Xid::UncontainedEcc),
        line(DAY + 41_000, 2, 1, Xid::UncontainedEcc),
        line(DAY + 42_000, 2, 2, Xid::UncontainedEcc),
    ];
    (node1, node2)
}

fn watch_config() -> WatchConfig {
    WatchConfig {
        study: StudyConfig::ampere_study().with_window(72.0, 2),
        offender_threshold: 4,
        storm_threshold: 3,
        ..WatchConfig::default()
    }
}

#[test]
fn tail_session_follows_appends_and_converges_to_batch() {
    let dir = tmp_dir("follow");
    let (node1, node2) = corpus();

    // First halves on disk, then the session catches up, then the files
    // grow — exactly the live deployment shape.
    append(&dir.join("gpub001.log"), &node1[..4]);
    append(&dir.join("gpub002.log"), &node2[..2]);

    let mut source = TailSource::open(&dir).expect("open tail");
    let sink = MetricsSink::disabled();
    let mut session = WatchSession::new(watch_config());
    let d1 = session.run_observed(&mut source, &sink).expect("poll 1");
    assert_eq!(d1.lines, 6);
    assert_eq!(d1.records, 6);

    append(&dir.join("gpub001.log"), &node1[4..]);
    append(&dir.join("gpub002.log"), &node2[2..]);
    let d2 = session.run_observed(&mut source, &sink).expect("poll 2");
    assert_eq!(d2.lines, 6);
    assert_eq!(session.stats().records, 12);
    assert_eq!(session.stats().late_dropped, 0);

    let live = session.finish_observed(&sink);

    let logs = vec![(NodeId(1), node1), (NodeId(2), node2)];
    let (batch, _) = PipelineBuilder::new(watch_config().study).run_text(&logs);
    assert_eq!(
        format!("{live:?}"),
        format!("{batch:?}"),
        "a grown-then-drained tail must match the batch pipeline bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A session draining a generated campaign — each node's text in turn,
/// through `GeneratorSource` — must drop nothing at the default lateness
/// and end with exactly the batch pipeline's episodes.
#[test]
fn generated_campaign_drains_without_late_drops_and_matches_batch() {
    let mut cfg = CampaignConfig {
        duration_days: 120.0,
        ..CampaignConfig::tiny(11)
    };
    cfg.text.noise_per_node_hour = 4.0;
    let out = Campaign::run(cfg);
    let study = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);

    let sink = MetricsSink::disabled();
    let mut session = WatchSession::new(WatchConfig {
        study,
        ..WatchConfig::default()
    });
    session
        .run_observed(&mut GeneratorSource::from_campaign(&out), &sink)
        .expect("drain the generated campaign");
    assert!(session.stats().records > 0);
    assert_eq!(session.stats().late_dropped, 0);
    let live = session.finish_observed(&sink);

    let (batch, _) = PipelineBuilder::new(study)
        .run_source(&mut GeneratorSource::from_campaign(&out))
        .expect("batch run");
    assert!(!batch.coalesced.is_empty());
    assert_eq!(live.coalesced, batch.coalesced);
}

#[test]
fn checkpoint_resume_skips_already_consumed_lines() {
    let dir = tmp_dir("ckpt");
    let ckpt = dir.join("tail.ckpt");
    let (node1, _) = corpus();
    append(&dir.join("gpub001.log"), &node1);

    let sink = MetricsSink::disabled();
    {
        let mut source = TailSource::open(&dir).expect("open tail");
        let mut session = WatchSession::new(watch_config());
        let d = session.run_observed(&mut source, &sink).expect("drain");
        assert_eq!(d.lines, node1.len() as u64);
        source.save_checkpoint(&ckpt).expect("save checkpoint");
    }

    // A fresh process resuming from the checkpoint sees nothing new...
    let mut source = TailSource::open_with_checkpoint(&dir, &ckpt).expect("resume");
    let mut session = WatchSession::new(watch_config());
    let d = session.run_observed(&mut source, &sink).expect("poll");
    assert_eq!(d.lines, 0, "checkpoint must skip consumed bytes");

    // ... until the file actually grows.
    append(&dir.join("gpub001.log"), &[line(2 * DAY, 1, 3, Xid::MmuError)]);
    let d = session.run_observed(&mut source, &sink).expect("poll 2");
    assert_eq!(d.lines, 1);
    assert_eq!(d.records, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alerts_are_identical_across_poll_cadences_and_chunk_sizes() {
    let dir = tmp_dir("alerts");
    let (node1, mut node2) = corpus();
    // One NVLink episode re-logged every 4 s for 604 s: past the
    // long-persister limit (600 s) and inside the 5 s merge window.
    node2.extend((0..=151).map(|k| line(DAY + 50_000 + 4 * k, 2, 3, Xid::NvlinkError)));
    append(&dir.join("gpub001.log"), &node1);
    append(&dir.join("gpub002.log"), &node2);

    let sink = MetricsSink::disabled();
    let run = |chunk_bytes: u64| {
        let mut cfg = watch_config();
        cfg.chunk_bytes = chunk_bytes;
        let mut source = TailSource::open(&dir).expect("open tail");
        let mut session = WatchSession::new(cfg);
        // Poll repeatedly: later polls are no-ops on a static corpus,
        // which must not perturb event-time state.
        for _ in 0..3 {
            session.run_observed(&mut source, &sink).expect("poll");
        }
        session.drain();
        let alerts: Vec<String> = session.alerts().iter().map(|a| a.to_string()).collect();
        (alerts, session.finish_observed(&sink))
    };

    let (alerts_big, results_big) = run(1 << 20);
    let (alerts_small, results_small) = run(96); // a few lines per chunk
    assert_eq!(
        alerts_big, alerts_small,
        "alerts are event-time keyed: chunking must not change them"
    );
    assert_eq!(format!("{results_big:?}"), format!("{results_small:?}"));

    // The corpus is built to cross both thresholds and the persistence
    // limit exactly once each.
    assert!(
        alerts_big.iter().any(|a| a.contains("emerging offender")),
        "alerts: {alerts_big:?}"
    );
    assert!(
        alerts_big.iter().any(|a| a.contains("XID-95 storm onset")),
        "alerts: {alerts_big:?}"
    );
    let long: Vec<&String> = alerts_big
        .iter()
        .filter(|a| a.contains("long-persisting"))
        .collect();
    assert_eq!(long.len(), 1, "alerts: {alerts_big:?}");
    assert!(
        long[0].starts_with(&format!("[t+{}s]", DAY + 50_000))
            && long[0].contains("604s, 152 lines; reset recommended"),
        "alert: {}",
        long[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watermark_holds_back_recent_lines_until_flush() {
    let dir = tmp_dir("watermark");
    // Two records 10 s apart with a 2-minute lateness: after one poll
    // both sit inside the watermark, pending release.
    append(
        &dir.join("gpub001.log"),
        &[
            line(DAY, 1, 0, Xid::MmuError),
            line(DAY + 10, 1, 1, Xid::NvlinkError),
        ],
    );
    let mut cfg = watch_config();
    cfg.lateness = Duration::from_secs(120);
    let sink = MetricsSink::disabled();
    let mut source = TailSource::open(&dir).expect("open tail");
    let mut session = WatchSession::new(cfg);
    let d = session.run_observed(&mut source, &sink).expect("poll");
    assert_eq!(d.records, 2);
    assert_eq!(d.released, 0, "records newer than the watermark stay pending");
    assert_eq!(session.snapshot().pending, 2);

    // finish_observed flushes the buffer; nothing is lost.
    let results = session.finish_observed(&sink);
    assert_eq!(results.coalesced.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance property, end to end through the binary: over a
/// completed campaign corpus, `gpures watch --follow off` must print
/// byte-for-byte what `gpures analyze` prints, and the checkpoint +
/// snapshot + alert plumbing must produce their artifacts.
#[test]
fn watch_cli_drain_matches_analyze_stdout() {
    let dir = tmp_dir("cli");
    let corpus_dir = dir.join("campaign");
    let gpures = env!("CARGO_BIN_EXE_gpures");

    let out = Command::new(gpures)
        .args(["campaign", "--shape", "tiny", "--days", "10", "--seed", "3", "--out"])
        .arg(&corpus_dir)
        .output()
        .expect("run gpures campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let logs = corpus_dir.join("logs");

    let analyze = Command::new(gpures)
        .args(["analyze", "--logs"])
        .arg(&logs)
        .output()
        .expect("run gpures analyze");
    assert!(
        analyze.status.success(),
        "{}",
        String::from_utf8_lossy(&analyze.stderr)
    );

    let ckpt = dir.join("tail.ckpt");
    let snaps = dir.join("snaps");
    let alerts = dir.join("alerts.log");
    let watch = Command::new(gpures)
        .args(["watch", "--follow", "off", "--logs"])
        .arg(&logs)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--snapshots")
        .arg(&snaps)
        .arg("--alerts")
        .arg(&alerts)
        .output()
        .expect("run gpures watch");
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );

    assert_eq!(
        String::from_utf8_lossy(&analyze.stdout),
        String::from_utf8_lossy(&watch.stdout),
        "watch --follow off must print exactly the analyze report"
    );
    let stderr = String::from_utf8_lossy(&watch.stderr);
    assert!(stderr.contains("0 late-dropped"), "stderr: {stderr}");

    assert!(ckpt.is_file(), "checkpoint written");
    assert!(
        snaps.join("snapshot_000001.json").is_file(),
        "snapshot written"
    );
    // A second drain from the checkpoint consumes nothing new.
    let resume = Command::new(gpures)
        .args(["watch", "--follow", "off", "--logs"])
        .arg(&logs)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("re-run gpures watch");
    assert!(resume.status.success());
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(
        stderr.contains("0 lines, 0 records"),
        "resumed drain must be empty: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a sweep battery argument that matches nothing
/// must exit nonzero with a typed usage error naming the path.
#[test]
fn sweep_rejects_empty_battery_dirs_with_a_usage_error() {
    let dir = tmp_dir("sweep-usage");
    let empty = dir.join("empty_battery");
    std::fs::create_dir_all(&empty).expect("mkdir");

    let gpures = env!("CARGO_BIN_EXE_gpures");
    let out = Command::new(gpures)
        .args(["sweep", "--out"])
        .arg(dir.join("out"))
        .arg(&empty)
        .output()
        .expect("run gpures sweep");
    assert!(!out.status.success(), "empty battery dir must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value") && stderr.contains("no .scn files"),
        "stderr must carry the typed usage error: {stderr}"
    );
    assert!(
        stderr.contains(&empty.display().to_string()),
        "stderr must name the offending path: {stderr}"
    );

    let out = Command::new(gpures)
        .args(["sweep", "--out"])
        .arg(dir.join("out"))
        .arg(dir.join("missing/*.scn"))
        .output()
        .expect("run gpures sweep");
    assert!(!out.status.success(), "unmatched glob must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("matches no .scn file") && stderr.contains("missing/*.scn"),
        "stderr must name the unmatched pattern: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
