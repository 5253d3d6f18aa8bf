//! The tracked Stage I throughput benchmark behind `gpures bench`.
//!
//! Two artifacts are produced at the repo root:
//!
//! * `BENCH_stage1.json` — single-thread extraction throughput of the
//!   optimized engine ([`dr_logscan::XidExtractor`]: prefiltered,
//!   allocation-free regex execution plus the byte-level header fast
//!   path) against the pre-optimization engine kept verbatim as
//!   [`dr_logscan::BaselineExtractor`], on a dense XID-heavy workload
//!   and a noisy realistic mix. The dense speedup is the ratcheted
//!   headline number (target ≥3×).
//! * `BENCH_pipeline.json` — end-to-end Stage I+II front half
//!   ([`front_half`]: byte-balanced shards, replayed scanner state,
//!   per-node streaming coalesce) at one worker vs. the
//!   full `dr-par` pool.
//!
//! Workload generation is **arithmetic, not random**: the build runs in
//! environments where the `rand` crate may be stubbed, and the artifact's
//! workload section must not depend on which one is linked. Timings go
//! through `dr_obs::clock` — the workspace's one sanctioned wall-clock
//! module (that *is* the measurement). Every measured run cross-checks
//! record counts between engines and across worker counts, so a
//! correctness regression cannot hide behind a fast number.

use crate::json::Json;
use dr_logscan::{BaselineExtractor, ExtractStats, XidExtractor};
use dr_obs::clock::Stopwatch;
use dr_obs::MetricsSink;
use dr_xid::syslog::{format_line, format_noise_line};
use dr_xid::{Duration, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};
use resilience_core::{
    extract_source_observed, extract_source_prefetch_observed, merge_and_coalesce_observed,
    CoalesceConfig, InMemorySource, LogSource,
};

/// A generated multi-node syslog corpus with its exact size.
pub struct Workload {
    pub name: &'static str,
    pub logs: Vec<(NodeId, Vec<String>)>,
    pub lines: u64,
    pub bytes: u64,
}

impl Workload {
    fn from_logs(name: &'static str, logs: Vec<(NodeId, Vec<String>)>) -> Workload {
        let lines = logs.iter().map(|(_, l)| l.len() as u64).sum();
        let bytes = logs
            .iter()
            .flat_map(|(_, l)| l.iter())
            .map(|l| l.len() as u64 + 1)
            .sum();
        Workload {
            name,
            logs,
            lines,
            bytes,
        }
    }
}

/// Push one node's deterministic line mix. `xid_period` controls density:
/// every `xid_period`-th slot is an NVRM XID line, the rest alternate
/// syslog noise and header-less garbage. The timestamp stride forces
/// periodic year rollovers so the scanner's serial state is exercised.
fn fill_node(lines: &mut Vec<String>, node: NodeId, slots: u64, xid_period: u64, seed: u64) {
    let mut t = Timestamp::EPOCH + Duration::from_hours(seed % 240);
    for k in 0..slots {
        let mix = k.wrapping_mul(0x9e37_79b9).wrapping_add(seed);
        if k % xid_period == 0 {
            let xid = Xid::ALL[(mix % Xid::ALL.len() as u64) as usize];
            let rec = ErrorRecord::new(
                t,
                GpuId::at_slot(node, (mix % 8) as usize),
                xid,
                ErrorDetail::new((mix % 5) as u16, (mix % 11) as u32),
            );
            lines.push(format_line(&rec, (mix % 40_000) as u32));
        } else if k % 13 == 5 {
            lines.push("stray line without a syslog header".to_string());
        } else {
            lines.push(format_noise_line(t, node, (mix % 5) as u8));
        }
        // ~100 days every 61st slot: several rollovers per node.
        t = t + Duration::from_hours(if k % 61 == 0 { 2_400 } else { 1 });
    }
}

/// XID-heavy corpus: every line carries the `NVRM: Xid` needle, so the
/// regex engines — not the prefilter — dominate. This is the workload the
/// ≥3× single-thread ratchet is measured on.
pub fn dense_workload(nodes: u32, lines_per_node: u64) -> Workload {
    let logs = (0..nodes)
        .map(|n| {
            let mut lines = Vec::with_capacity(lines_per_node as usize);
            fill_node(&mut lines, NodeId(n), lines_per_node, 1, n as u64 * 7 + 1);
            (NodeId(n), lines)
        })
        .collect();
    Workload::from_logs("dense-xid", logs)
}

/// Realistic mix: one XID line in sixteen, the rest syslog noise and
/// garbage — the 202-GB-scale shape where the literal prefilter and the
/// byte header parser carry the load.
pub fn noisy_workload(nodes: u32, lines_per_node: u64) -> Workload {
    let logs = (0..nodes)
        .map(|n| {
            let mut lines = Vec::with_capacity(lines_per_node as usize);
            fill_node(&mut lines, NodeId(n), lines_per_node, 16, n as u64 * 11 + 3);
            (NodeId(n), lines)
        })
        .collect();
    Workload::from_logs("noisy-mix", logs)
}

/// One timed configuration: wall time plus derived throughput.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    pub wall_s: f64,
    pub reps: u32,
    pub records: u64,
    pub lines_per_s: f64,
    pub mb_per_s: f64,
}

impl Measurement {
    pub(crate) fn to_json(self) -> Json {
        Json::obj(vec![
            ("wall_s", Json::Num(self.wall_s)),
            ("reps", Json::Num(self.reps as f64)),
            ("records", Json::Num(self.records as f64)),
            ("lines_per_s", Json::Num(self.lines_per_s.round())),
            ("mb_per_s", Json::Num((self.mb_per_s * 100.0).round() / 100.0)),
        ])
    }
}

/// Repeat `f` until at least `min_wall_s` of cumulative wall time (always
/// at least once), then derive per-rep throughput. `f` returns the record
/// count of one full pass over the workload.
pub(crate) fn measure(w: &Workload, min_wall_s: f64, mut f: impl FnMut() -> u64) -> Measurement {
    let mut total = 0.0f64;
    let mut reps = 0u32;
    let mut records = 0u64;
    while total < min_wall_s || reps == 0 {
        let watch = Stopwatch::start();
        records = f();
        total += watch.elapsed_s();
        reps += 1;
    }
    let per_rep = total / reps as f64;
    Measurement {
        wall_s: per_rep,
        reps,
        records,
        lines_per_s: w.lines as f64 / per_rep.max(1e-12),
        mb_per_s: w.bytes as f64 / (1024.0 * 1024.0) / per_rep.max(1e-12),
    }
}

/// Single-thread Stage I: optimized engine vs. the pre-optimization
/// baseline on one workload. Record streams are cross-checked; a
/// divergence fails the benchmark rather than reporting a wrong speedup.
pub fn compare_engines(w: &Workload, min_wall_s: f64) -> Result<Json, String> {
    let run_baseline = || -> u64 {
        let mut n = 0u64;
        for (_, lines) in &w.logs {
            let mut ex = BaselineExtractor::new();
            n += ex.extract_all(lines.iter().map(|s| s.as_str())).len() as u64;
        }
        n
    };
    let run_optimized = || -> u64 {
        let mut n = 0u64;
        for (_, lines) in &w.logs {
            let mut ex = XidExtractor::new();
            n += ex.extract_all(lines.iter().map(|s| s.as_str())).len() as u64;
        }
        n
    };

    // Correctness gate before any timing: identical record streams.
    let reference: Vec<Vec<ErrorRecord>> = w
        .logs
        .iter()
        .map(|(_, lines)| {
            let mut ex = BaselineExtractor::new();
            ex.extract_all(lines.iter().map(|s| s.as_str()))
        })
        .collect();
    for ((_, lines), expect) in w.logs.iter().zip(&reference) {
        let mut ex = XidExtractor::new();
        let got = ex.extract_all(lines.iter().map(|s| s.as_str()));
        if got != *expect {
            return Err(format!(
                "engine divergence on workload `{}`: optimized produced {} records, \
                 baseline {}",
                w.name,
                got.len(),
                expect.len()
            ));
        }
    }

    let baseline = measure(w, min_wall_s, run_baseline);
    let optimized = measure(w, min_wall_s, run_optimized);
    if baseline.records != optimized.records {
        return Err(format!(
            "record count drifted between timed passes on `{}`",
            w.name
        ));
    }
    let speedup = optimized.lines_per_s / baseline.lines_per_s.max(1e-12);
    Ok(Json::obj(vec![
        ("name", Json::Str(w.name.to_string())),
        ("nodes", Json::Num(w.logs.len() as f64)),
        ("lines", Json::Num(w.lines as f64)),
        ("bytes", Json::Num(w.bytes as f64)),
        ("records", Json::Num(baseline.records as f64)),
        ("baseline", baseline.to_json()),
        ("optimized", optimized.to_json()),
        ("speedup", Json::Num((speedup * 100.0).round() / 100.0)),
    ]))
}

/// The `BENCH_stage1.json` document: both workloads, single thread.
/// `smoke` shrinks the corpus and the timing floor so the tier-1 test can
/// exercise the full path in well under a second.
pub fn stage1_report(smoke: bool) -> Result<Json, String> {
    let (nodes, lines_per_node, min_wall_s) = if smoke {
        (2, 400, 0.0)
    } else {
        (4, 40_000, 0.4)
    };
    let workloads = [
        dense_workload(nodes, lines_per_node),
        noisy_workload(nodes, lines_per_node),
    ];
    let mut rows = Vec::new();
    for w in &workloads {
        rows.push(compare_engines(w, min_wall_s)?);
    }
    Ok(Json::obj(vec![
        ("schema", Json::Str("gpures-bench-stage1/v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("threads", Json::Num(1.0)),
        ("workloads", Json::Arr(rows)),
    ]))
}

/// The worker matrix every `BENCH_pipeline.json` run sweeps. Fixed —
/// not machine-derived — so artifacts from different hosts are
/// comparable row for row.
pub const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Scaling efficiency of a run: measured speedup over the 1-worker row,
/// normalized by the parallelism that was actually available —
/// `min(requested workers, machine pool)` — so a 4-worker row on a
/// 2-core host is judged against 2×, not 4×.
fn scaling_efficiency(lps: f64, lps_one: f64, requested: usize, pool: usize) -> f64 {
    let effective = requested.min(pool).max(1);
    (lps / lps_one.max(1e-12)) / effective as f64
}

/// The sharded Stage I + streaming Stage II front half the pipeline, obs
/// and stream reports time: wave extraction on the synchronous or the
/// prefetching driver, then the per-node streaming coalesce
/// ([`merge_and_coalesce_observed`]). Returns the coalesced episode
/// count and the extraction stats.
pub fn front_half(
    source: &mut (dyn LogSource<'_> + Send),
    target_bytes: Option<u64>,
    prefetch: bool,
    sink: &MetricsSink,
) -> Result<(usize, ExtractStats), String> {
    let (per_node, stats) = if prefetch {
        extract_source_prefetch_observed(source, target_bytes, sink)
    } else {
        extract_source_observed(source, target_bytes, sink)
    }
    .map_err(|e| e.to_string())?;
    let coalesced = merge_and_coalesce_observed(per_node, CoalesceConfig::default(), sink);
    Ok((coalesced.len(), stats))
}

/// The `BENCH_pipeline.json` document (schema v2): sharded
/// extract-and-coalesce on the noisy workload swept across the
/// [`WORKER_MATRIX`], with coalesced output checked identical at every
/// worker count. Each run carries its `scaling_efficiency` (speedup over
/// the 1-worker row per *effective* worker); the top-level `scaling` and
/// `scaling_efficiency` are derived from the matrix endpoints. A
/// non-smoke report with fewer than two runs is an error — the scaling
/// number would be vacuous. The artifact records the host's
/// `available_parallelism` alongside the `dr-par` pool size so scaling
/// rows from different machines can be judged fairly.
pub fn pipeline_report(smoke: bool) -> Result<Json, String> {
    let (nodes, lines_per_node, min_wall_s) = if smoke {
        (3, 400, 0.0)
    } else {
        (6, 60_000, 0.4)
    };
    let w = noisy_workload(nodes, lines_per_node);
    // Machine parallelism, snapshotted before any override is in force.
    let pool = dr_par::max_workers();

    let mut runs = Vec::new();
    let mut reference: Option<(usize, u64)> = None;
    let mut lines_per_s: Vec<f64> = Vec::new();
    for &n in &WORKER_MATRIX {
        dr_par::set_worker_override(Some(n));
        let run = || {
            let mut source = InMemorySource::new(&w.logs);
            front_half(&mut source, None, false, &MetricsSink::disabled())
        };
        let (count, stats) = run()?;
        let m = measure(&w, min_wall_s, || run().map_or(0, |(c, _)| c as u64));
        dr_par::set_worker_override(None);
        match reference {
            None => reference = Some((count, stats.xid_lines)),
            Some(expect) if expect != (count, stats.xid_lines) => {
                return Err(format!(
                    "worker-count divergence: {n} workers coalesced {count} errors, \
                     1 worker coalesced {}",
                    expect.0
                ));
            }
            Some(_) => {}
        }
        let lps_one = *lines_per_s.first().unwrap_or(&m.lines_per_s);
        let eff = scaling_efficiency(m.lines_per_s, lps_one, n, pool);
        lines_per_s.push(m.lines_per_s);
        runs.push(Json::obj(vec![
            ("workers", Json::Num(n as f64)),
            ("effective_workers", Json::Num(n.min(pool).max(1) as f64)),
            ("coalesced", Json::Num(count as f64)),
            (
                "scaling_efficiency",
                Json::Num((eff * 1000.0).round() / 1000.0),
            ),
            ("measurement", m.to_json()),
        ]));
    }
    if !smoke && runs.len() < 2 {
        return Err(format!(
            "pipeline report needs a worker matrix (got {} run(s)); \
             the scaling number would be vacuous",
            runs.len()
        ));
    }
    let (scaling, efficiency) = match (lines_per_s.first(), lines_per_s.last()) {
        (Some(&one), Some(&full)) => {
            let top = *WORKER_MATRIX.last().unwrap_or(&1);
            (
                full / one.max(1e-12),
                scaling_efficiency(full, one, top, pool),
            )
        }
        _ => (1.0, 1.0),
    };
    Ok(Json::obj(vec![
        ("schema", Json::Str("gpures-bench-pipeline/v2".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("workload", Json::Str(w.name.to_string())),
        ("nodes", Json::Num(w.logs.len() as f64)),
        ("lines", Json::Num(w.lines as f64)),
        ("bytes", Json::Num(w.bytes as f64)),
        ("worker_pool", Json::Num(pool as f64)),
        (
            "available_parallelism",
            Json::Num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as f64,
            ),
        ),
        (
            "worker_matrix",
            Json::Arr(WORKER_MATRIX.iter().map(|&n| Json::Num(n as f64)).collect()),
        ),
        ("runs", Json::Arr(runs)),
        ("scaling", Json::Num((scaling * 100.0).round() / 100.0)),
        (
            "scaling_efficiency",
            Json::Num((efficiency * 1000.0).round() / 1000.0),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_sized() {
        let a = dense_workload(2, 100);
        let b = dense_workload(2, 100);
        assert_eq!(a.logs, b.logs, "generation must be reproducible");
        assert_eq!(a.lines, 200);
        assert!(a.bytes > 0);
        // Dense means every line carries the needle.
        assert!(a
            .logs
            .iter()
            .flat_map(|(_, l)| l.iter())
            .all(|l| l.contains("NVRM: Xid")));
        let n = noisy_workload(2, 160);
        let xid = n
            .logs
            .iter()
            .flat_map(|(_, l)| l.iter())
            .filter(|l| l.contains("NVRM: Xid"))
            .count();
        assert_eq!(xid, 20, "1 in 16 lines is an XID line");
    }

    #[test]
    fn smoke_reports_pass_their_cross_checks() {
        let s1 = stage1_report(true).expect("stage1 smoke succeeds");
        let rows = s1.get("workloads").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        for row in rows {
            let speedup = row.get("speedup").and_then(Json::as_f64).expect("speedup");
            assert!(speedup > 0.0);
            let records = row.get("records").and_then(Json::as_u64).expect("records");
            assert!(records > 0, "workload produced no records");
        }
        let pipe = pipeline_report(true).expect("pipeline smoke succeeds");
        assert_eq!(
            pipe.get("schema").and_then(Json::as_str),
            Some("gpures-bench-pipeline/v2")
        );
        let runs = pipe.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), WORKER_MATRIX.len(), "one run per matrix entry");
        for run in runs {
            let eff = run
                .get("scaling_efficiency")
                .and_then(Json::as_f64)
                .expect("per-run efficiency");
            assert!(eff > 0.0);
        }
        // Round-trip: the artifact the CLI writes must re-parse.
        assert_eq!(Json::parse(&pipe.render()).expect("parses"), pipe);
    }
}
