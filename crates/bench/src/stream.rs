//! The tracked streaming-ingestion benchmark behind `gpures bench`.
//!
//! Produces `BENCH_stream.json` at the repo root: the sharded
//! extract-and-coalesce front half fed from a fully materialized
//! in-memory corpus vs. streamed from disk through
//! [`resilience_core::source::DirSource`] at a fixed 64 KiB chunk
//! target — the disk path measured both synchronously and with the
//! wave-prefetch I/O thread (the A/B that shows how much of the
//! dir-vs-memory throughput gap the overlap recovers). For each path
//! the artifact records throughput and the `peak_resident_bytes`
//! high-water gauge the wave driver reports — the number that proves
//! the streaming path is bounded-memory (peak resident text ≪ corpus
//! size; ≤ 2 waves with prefetch) instead of merely claiming it.
//!
//! Workload generation reuses [`crate::stage1::noisy_workload`]
//! (arithmetic, not random), and the corpus written to disk round-trips
//! through the same `dr_report::files` writer the CLI uses. Coalesced
//! output is cross-checked identical between the two paths, so a
//! correctness regression cannot hide behind a fast number.

use crate::json::Json;
use crate::stage1::{front_half, measure, noisy_workload, Workload};
use dr_obs::MetricsSink;
use resilience_core::source::{DirSource, InMemorySource};
use std::path::{Path, PathBuf};

/// Chunk pull target for the streamed path: small enough that peak
/// resident text is a tiny fraction of the corpus, large enough to keep
/// per-chunk overhead negligible.
pub const STREAM_CHUNK_BYTES: u64 = 64 * 1024;

/// Read the Stage I `peak_resident_bytes` gauge out of a recording
/// sink's export. `None` when the sink recorded no extract stage.
fn peak_resident_bytes(sink: &MetricsSink) -> Option<f64> {
    let doc = sink.export_json()?;
    let stages = doc.get("stages").and_then(Json::as_arr)?;
    stages
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("extract"))
        .and_then(|s| s.get("gauges"))
        .and_then(|g| g.get("peak_resident_bytes"))
        .and_then(Json::as_f64)
}

/// One benchmark path. `pass` opens a fresh source, runs the pipeline
/// front half against the given sink, and returns the coalesced count.
/// The first pass records (for the gauge); timed passes run disabled.
fn run_path(
    name: &str,
    w: &Workload,
    min_wall_s: f64,
    chunk_bytes: Option<u64>,
    mut pass: impl FnMut(&MetricsSink) -> Result<usize, String>,
) -> Result<(usize, f64, Json), String> {
    let sink = MetricsSink::recording();
    let count = pass(&sink)?;
    let peak = peak_resident_bytes(&sink)
        .ok_or_else(|| format!("{name}: no peak_resident_bytes gauge recorded"))?;

    let disabled = MetricsSink::disabled();
    let mut pass_err = None;
    let m = measure(w, min_wall_s, || match pass(&disabled) {
        Ok(c) => c as u64,
        Err(e) => {
            pass_err = Some(e);
            0
        }
    });
    if let Some(e) = pass_err {
        return Err(format!("{name}: timed pass failed: {e}"));
    }

    let json = Json::obj(vec![
        ("path", Json::Str(name.to_string())),
        (
            "chunk_bytes",
            match chunk_bytes {
                Some(t) => Json::Num(t as f64),
                None => Json::Null,
            },
        ),
        ("coalesced", Json::Num(count as f64)),
        ("peak_resident_bytes", Json::Num(peak)),
        ("measurement", m.to_json()),
    ]);
    Ok((count, peak, json))
}

/// Scratch directory for the on-disk corpus; cleaned up on drop so a
/// failed benchmark cannot leak gigabytes into the temp dir.
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    pub(crate) fn create(tag: &str) -> Result<ScratchDir, String> {
        let dir = std::env::temp_dir().join(format!("gpures-bench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The `BENCH_stream.json` document (schema v2): in-memory vs.
/// `DirSource` streaming on the noisy workload — the streamed path run
/// twice, prefetch off (synchronous pulls) and prefetch on (the
/// [`resilience_core::source::Prefetcher`] I/O thread overlapping wave
/// *N+1* with extraction of wave *N*). Coalesced output is checked
/// identical across all three paths; the streamed paths' peak resident
/// bytes are checked *bounded* (≤ 1 wave synchronous, ≤ 2 waves
/// prefetched, never a fraction of the corpus) before any number is
/// reported. `prefetch_speedup` (dir-prefetch over dir-sync) and
/// `gap_close_pct` (how much of the dir-vs-memory throughput gap the
/// prefetch recovers) are the headline derived numbers. `smoke` shrinks
/// the corpus and timing floor for the tier-1 test.
pub fn stream_report(smoke: bool) -> Result<Json, String> {
    let (nodes, lines_per_node, min_wall_s) = if smoke {
        (3, 400, 0.0)
    } else {
        (8, 120_000, 0.4)
    };
    let w = noisy_workload(nodes, lines_per_node);

    let scratch = ScratchDir::create("stream")?;
    dr_report::files::write_node_logs(scratch.path(), &w.logs).map_err(|e| e.to_string())?;

    let (mem_count, mem_peak, mem_json) = run_path("in-memory", &w, min_wall_s, None, |sink| {
        let mut src = InMemorySource::new(&w.logs);
        front_half(&mut src, None, false, sink).map(|(c, _)| c)
    })?;
    let (dir_count, dir_peak, dir_json) = run_path(
        "dir-stream",
        &w,
        min_wall_s,
        Some(STREAM_CHUNK_BYTES),
        |sink| {
            let mut src = DirSource::open(scratch.path()).map_err(|e| e.to_string())?;
            front_half(&mut src, Some(STREAM_CHUNK_BYTES), false, sink).map(|(c, _)| c)
        },
    )?;
    let (pf_count, pf_peak, pf_json) = run_path(
        "dir-stream-prefetch",
        &w,
        min_wall_s,
        Some(STREAM_CHUNK_BYTES),
        |sink| {
            let mut src = DirSource::open(scratch.path()).map_err(|e| e.to_string())?;
            front_half(&mut src, Some(STREAM_CHUNK_BYTES), true, sink).map(|(c, _)| c)
        },
    )?;

    if mem_count != dir_count || mem_count != pf_count {
        return Err(format!(
            "path divergence: in-memory coalesced {mem_count} errors, \
             dir-stream {dir_count}, dir-stream-prefetch {pf_count}"
        ));
    }
    // The bounded-memory claim, enforced: one wave of 64 KiB chunks
    // across the worker pool (two waves with prefetch), not the whole
    // corpus. (Skipped for smoke corpora small enough to fit in a
    // single wave.) The per-side slack covers chunk overshoot: a wave
    // closes on the first chunk that reaches the budget, and a chunk on
    // the first line that reaches the target.
    let wave = STREAM_CHUNK_BYTES * dr_par::max_workers() as u64;
    if w.bytes > 4 * wave {
        if dir_peak >= w.bytes as f64 / 2.0 {
            return Err(format!(
                "dir-stream peak resident bytes {dir_peak} is not bounded \
                 (corpus is {} bytes)",
                w.bytes
            ));
        }
        let slack = 2 * (STREAM_CHUNK_BYTES + 4096);
        if pf_peak > (2 * wave + slack) as f64 {
            return Err(format!(
                "dir-stream-prefetch peak resident bytes {pf_peak} exceeds the \
                 double-buffer bound of 2 waves ({} bytes + {slack} slack)",
                2 * wave
            ));
        }
    }

    let mem_mbps = mem_json
        .get("measurement")
        .and_then(|m| m.get("mb_per_s"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let dir_mbps = dir_json
        .get("measurement")
        .and_then(|m| m.get("mb_per_s"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let pf_mbps = pf_json
        .get("measurement")
        .and_then(|m| m.get("mb_per_s"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let prefetch_speedup = pf_mbps / dir_mbps.max(1e-12);
    // Of the throughput the synchronous dir path gives up vs. in-memory,
    // how much does prefetch win back? 100 = gap fully closed (or no gap).
    let gap = (mem_mbps - dir_mbps).max(0.0);
    let gap_close_pct = if gap <= 1e-12 {
        100.0
    } else {
        ((pf_mbps - dir_mbps) / gap * 100.0).clamp(0.0, 100.0)
    };

    let reduction = mem_peak / dir_peak.max(1.0);
    Ok(Json::obj(vec![
        ("schema", Json::Str("gpures-bench-stream/v2".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("workload", Json::Str(w.name.to_string())),
        ("nodes", Json::Num(w.logs.len() as f64)),
        ("lines", Json::Num(w.lines as f64)),
        ("bytes", Json::Num(w.bytes as f64)),
        ("chunk_bytes", Json::Num(STREAM_CHUNK_BYTES as f64)),
        ("worker_pool", Json::Num(dr_par::max_workers() as f64)),
        ("paths", Json::Arr(vec![mem_json, dir_json, pf_json])),
        (
            "peak_reduction",
            Json::Num((reduction * 100.0).round() / 100.0),
        ),
        (
            "prefetch_speedup",
            Json::Num((prefetch_speedup * 100.0).round() / 100.0),
        ),
        (
            "gap_close_pct",
            Json::Num((gap_close_pct * 10.0).round() / 10.0),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_cross_checks_and_round_trips() {
        let doc = stream_report(true).expect("stream smoke succeeds");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gpures-bench-stream/v2")
        );
        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths.len(), 3);
        for p in paths {
            let peak = p
                .get("peak_resident_bytes")
                .and_then(Json::as_f64)
                .expect("peak gauge present");
            assert!(peak > 0.0, "gauge must record a positive high-water mark");
        }
        assert_eq!(Json::parse(&doc.render()).expect("parses"), doc);
    }
}
