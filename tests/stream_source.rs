//! Tier-1 streaming contract: every `LogSource` path — in-memory,
//! campaign generator, and a campaign→disk→`DirSource` round trip —
//! must produce bit-identical `StudyResults` at every chunk size and
//! worker count, and the disk path must do it in bounded memory.

use gpu_resilience::core::{
    DirSource, GeneratorSource, InMemorySource, LogChunk, LogSource, PipelineBuilder,
    StudyConfig, StudyResults, WatchConfig, WatchSession,
};
use gpu_resilience::faults::{Campaign, CampaignConfig, CampaignOutput};
use gpu_resilience::obs::json::Json;
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::report::files;
use gpu_resilience::xid::{DataError, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Mutex;

/// `dr_par::set_worker_override` is process-global; tests that set it
/// must not interleave within this binary.
static WORKER_LOCK: Mutex<()> = Mutex::new(());

fn campaign() -> CampaignOutput {
    // Three days of the tiny fleet: a ~3 MB corpus — big enough to span
    // many chunk waves at every tested chunk size, small enough that the
    // 25-run identity matrix below stays fast.
    let cfg = CampaignConfig {
        duration_days: 3.0,
        ..CampaignConfig::tiny(97)
    };
    Campaign::run(cfg)
}

fn study_config(out: &CampaignOutput) -> StudyConfig {
    StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gpures-stream-{tag}-{}", std::process::id()))
}

/// Render `StudyResults` + stats for exact comparison: the full Debug
/// output prints floats with round-trip precision, so a single bit of
/// drift anywhere in the bundle fails the assertion.
fn fingerprint(r: &(StudyResults, gpu_resilience::logscan::ExtractStats)) -> String {
    format!("{:?} | {:?}", r.0, r.1)
}

#[test]
fn every_source_is_bit_identical_across_chunk_sizes_and_workers() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    assert!(
        !out.text_logs.is_empty(),
        "tiny campaign must materialize text logs for the reference path"
    );
    let cfg = study_config(&out);

    // The reference: the materialized in-memory path at default chunking.
    let reference = fingerprint(&PipelineBuilder::new(cfg).run_text(&out.text_logs));

    // Campaign → disk round trip through the streaming writer.
    let dir = scratch_dir("roundtrip");
    let written = {
        let mut gen = GeneratorSource::from_campaign(&out);
        files::write_node_logs_source(&dir, &mut gen).expect("streamed write")
    };
    assert_eq!(
        written.lines,
        out.text_logs.iter().map(|(_, l)| l.len() as u64).sum::<u64>(),
        "generator must emit exactly the materialized corpus"
    );

    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        for chunk in [None, Some(512u64), Some(4096), Some(1 << 20)] {
            let mut builder = PipelineBuilder::new(cfg);
            if let Some(c) = chunk {
                builder = builder.chunk_bytes(c);
            }

            let mut mem = InMemorySource::new(&out.text_logs);
            let r_mem = builder.run_source(&mut mem).expect("in-memory");

            let mut gen = GeneratorSource::from_campaign(&out);
            let r_gen = builder.run_source(&mut gen).expect("generator");

            let mut disk = DirSource::open(&dir).expect("reopen log dir");
            let r_disk = builder.run_source(&mut disk).expect("dir source");

            let tag = format!("workers={workers} chunk={chunk:?}");
            assert_eq!(fingerprint(&r_mem), reference, "in-memory diverged ({tag})");
            assert_eq!(fingerprint(&r_gen), reference, "generator diverged ({tag})");
            assert_eq!(fingerprint(&r_disk), reference, "dir source diverged ({tag})");
        }
    }
    gpu_resilience::par::set_worker_override(None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetch_is_bit_identical_across_workers_and_sources() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    let cfg = study_config(&out);

    // Reference: synchronous path, default chunking, default workers.
    let reference = fingerprint(&PipelineBuilder::new(cfg).run_text(&out.text_logs));

    let dir = scratch_dir("prefetch-identity");
    let mut gen = GeneratorSource::from_campaign(&out);
    files::write_node_logs_source(&dir, &mut gen).expect("streamed write");

    // workers=1 with prefetch on is the degenerate-pool edge case: the
    // I/O thread still runs, the extract pool is a single worker.
    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        for prefetch in [false, true] {
            for chunk in [None, Some(2048u64)] {
                let mut builder = PipelineBuilder::new(cfg).prefetch(prefetch);
                if let Some(c) = chunk {
                    builder = builder.chunk_bytes(c);
                }
                let tag = format!("workers={workers} prefetch={prefetch} chunk={chunk:?}");

                let mut mem = InMemorySource::new(&out.text_logs);
                let r_mem = builder.run_source(&mut mem).expect("in-memory");
                assert_eq!(fingerprint(&r_mem), reference, "in-memory diverged ({tag})");

                let mut disk = DirSource::open(&dir).expect("reopen log dir");
                let r_disk = builder.run_source(&mut disk).expect("dir source");
                assert_eq!(fingerprint(&r_disk), reference, "dir source diverged ({tag})");
            }
        }
    }
    gpu_resilience::par::set_worker_override(None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetch_peak_resident_stays_within_two_wave_budgets() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    let cfg = study_config(&out);
    let dir = scratch_dir("prefetch-bounded");
    let mut gen = GeneratorSource::from_campaign(&out);
    let written = files::write_node_logs_source(&dir, &mut gen).expect("streamed write");

    const CHUNK: u64 = 2048;
    const WORKERS: usize = 8;
    gpu_resilience::par::set_worker_override(Some(WORKERS));
    let sink = MetricsSink::recording();
    let mut disk = DirSource::open(&dir).expect("open log dir");
    let _ = PipelineBuilder::new(cfg)
        .chunk_bytes(CHUNK)
        .prefetch(true)
        .metrics(sink.clone())
        .run_source(&mut disk)
        .expect("prefetched streamed analysis");
    gpu_resilience::par::set_worker_override(None);
    std::fs::remove_dir_all(&dir).ok();

    let doc = sink.export_json().expect("recording sink exports");
    let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
    let peak = stages
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("extract"))
        .and_then(|s| s.get("gauges"))
        .and_then(|g| g.get("peak_resident_bytes"))
        .and_then(Json::as_f64)
        .expect("peak_resident_bytes gauge");

    // The double-buffer bound: consumer-held wave + producer-staged wave,
    // each at most `workers × chunk` of target plus one chunk-and-a-line
    // of overshoot. The corpus must dwarf the bound, or it proves nothing.
    let wave_budget = (WORKERS as u64 * CHUNK) as f64;
    let bound = 2.0 * (wave_budget + CHUNK as f64 + 4096.0);
    assert!(
        written.bytes as f64 > 2.0 * bound,
        "corpus ({} bytes) too small to demonstrate the 2-wave bound",
        written.bytes
    );
    assert!(
        peak > 0.0 && peak <= bound,
        "prefetch peak resident bytes {peak} exceeds the 2-wave bound {bound}"
    );
}

#[test]
fn dir_source_streams_in_bounded_memory() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    let cfg = study_config(&out);
    let dir = scratch_dir("bounded");
    let mut gen = GeneratorSource::from_campaign(&out);
    let written = files::write_node_logs_source(&dir, &mut gen).expect("streamed write");

    const CHUNK: u64 = 2048;
    const WORKERS: usize = 8;
    gpu_resilience::par::set_worker_override(Some(WORKERS));
    let sink = MetricsSink::recording();
    let mut disk = DirSource::open(&dir).expect("open log dir");
    let _ = PipelineBuilder::new(cfg)
        .chunk_bytes(CHUNK)
        .metrics(sink.clone())
        .run_source(&mut disk)
        .expect("streamed analysis");
    gpu_resilience::par::set_worker_override(None);
    std::fs::remove_dir_all(&dir).ok();

    let doc = sink.export_json().expect("recording sink exports");
    let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
    let peak = stages
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("extract"))
        .and_then(|s| s.get("gauges"))
        .and_then(|g| g.get("peak_resident_bytes"))
        .and_then(Json::as_f64)
        .expect("peak_resident_bytes gauge");

    // One wave is at most `workers × chunk` bytes of *target*; chunks
    // overshoot by at most one line, so grant one extra chunk per worker
    // plus a line of slack. The corpus itself must be much larger, or
    // the bound proves nothing.
    let wave_bound = (2 * WORKERS) as f64 * CHUNK as f64 + 4096.0;
    assert!(
        written.bytes as f64 > 2.0 * wave_bound,
        "corpus ({} bytes) too small to demonstrate bounding",
        written.bytes
    );
    assert!(
        peak > 0.0 && peak <= wave_bound,
        "peak resident bytes {peak} exceeds the wave bound {wave_bound}"
    );
}

#[test]
fn dir_source_surfaces_io_errors_with_path_context() {
    let missing = scratch_dir("missing");
    let msg = match DirSource::open(&missing) {
        Ok(_) => panic!("missing directory must fail"),
        Err(e) => e.to_string(),
    };
    assert!(
        msg.contains("gpures-stream-missing"),
        "error must name the offending path, got: {msg}"
    );
}

#[test]
fn deferred_campaign_text_streams_without_materializing() {
    let mut cfg = CampaignConfig {
        duration_days: 3.0,
        ..CampaignConfig::tiny(97)
    };
    cfg.text.defer = true;
    let deferred = Campaign::run(cfg);
    assert!(
        deferred.text_logs.is_empty(),
        "defer_text must skip materialization"
    );

    let materialized = campaign();
    let mut gen = GeneratorSource::from_campaign(&deferred);
    let streamed = gpu_resilience::core::collect_source(&mut gen).expect("infallible");
    assert_eq!(
        streamed, materialized.text_logs,
        "deferred campaign must stream the exact corpus the eager one materializes"
    );
}

/// A `LogSource` that breaks the trait contract: it declares one node,
/// then yields one XID line in a chunk naming node index 1.
struct OutOfRangeSource {
    nodes: Vec<NodeId>,
    sent: bool,
}

impl OutOfRangeSource {
    fn new() -> Self {
        OutOfRangeSource {
            nodes: vec![NodeId(1)],
            sent: false,
        }
    }
}

impl<'a> LogSource<'a> for OutOfRangeSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, _target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError> {
        if std::mem::replace(&mut self.sent, true) {
            return Ok(None);
        }
        let rec = ErrorRecord::new(
            Timestamp::from_secs(3_600),
            GpuId::at_slot(NodeId(1), 0),
            Xid::MmuError,
            ErrorDetail::NONE,
        );
        let line = gpu_resilience::xid::syslog::format_line(&rec, 0);
        Ok(Some(LogChunk {
            node: self.nodes.len(),
            bytes: line.len() as u64 + 1,
            lines: Cow::Owned(vec![line]),
        }))
    }
}

#[test]
fn out_of_range_chunk_node_is_a_typed_error_on_batch_and_live_paths() {
    let cfg = StudyConfig::ampere_study().with_window(1_000.0, 1);
    let names_the_index = |err: &DataError| {
        let msg = err.to_string();
        assert!(
            msg.contains("node index 1") && msg.contains("declares 1 nodes"),
            "error must name the index and the node count, got: {msg}"
        );
    };
    for prefetch in [false, true] {
        let err = PipelineBuilder::new(cfg)
            .prefetch(prefetch)
            .run_source(&mut OutOfRangeSource::new())
            .expect_err("an out-of-range chunk must fail the batch pipeline");
        names_the_index(&err);
    }
    let mut session = WatchSession::new(WatchConfig {
        study: cfg,
        ..WatchConfig::default()
    });
    let err = session
        .run_observed(&mut OutOfRangeSource::new(), &MetricsSink::disabled())
        .expect_err("an out-of-range chunk must fail the watch poll");
    names_the_index(&err);
}
