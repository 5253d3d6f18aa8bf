//! Tier-1 record-store contract: the columnar `ErrorRecord` store
//! written during the extract pass must replay into `StudyResults`
//! bit-identical to the text path — at every chunk size and worker
//! count, and at every coalescing and propagation window — and a damaged
//! store must surface as a typed `DataError`, never a panic.

use gpu_resilience::core::{
    extract_to_store, write_store, CoalesceConfig, GeneratorSource, InMemoryRecordSource,
    InMemorySource, PipelineBuilder, RecordBatch, RecordSource, RecordStore, StudyConfig,
};
use gpu_resilience::faults::{Campaign, CampaignConfig, CampaignOutput};
use gpu_resilience::logscan::BaselineExtractor;
use gpu_resilience::obs::json::Json;
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::xid::{
    DataError, Duration, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `dr_par::set_worker_override` is process-global; tests that set it
/// must not interleave within this binary.
static WORKER_LOCK: Mutex<()> = Mutex::new(());

fn campaign() -> CampaignOutput {
    // Three days of the tiny fleet — the same corpus the streaming
    // identity matrix uses, so text-path and record-path coverage agree.
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
    let dir = std::env::temp_dir().join(format!("gpures-records-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Write the campaign's record store via the standalone extract pass.
fn build_store(out: &CampaignOutput, path: &Path) {
    let mut gen = GeneratorSource::from_campaign(out);
    let (summary, _) = extract_to_store(&mut gen, None, path).expect("extract to store");
    assert!(summary.records > 0, "campaign extracted no records");
}

/// Drain a `RecordSource` into `(node index, record)` pairs.
fn drain(source: &mut dyn RecordSource) -> Vec<(usize, ErrorRecord)> {
    let mut got = Vec::new();
    while let Some(batch) = source.next_batch().expect("batch decodes") {
        got.extend(batch.records.into_iter().map(|r| (batch.node, r)));
    }
    got
}

#[test]
fn record_replay_is_bit_identical_across_chunk_sizes_and_workers() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    let cfg = study_config(&out);
    // The reference: the materialized text path at default chunking.
    // `run_record_source` returns no ExtractStats (nothing was parsed),
    // so the fingerprint is the StudyResults bundle alone.
    let reference = format!("{:?}", PipelineBuilder::new(cfg).run_text(&out.text_logs).0);

    let dir = scratch_dir("matrix");
    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        for chunk in [512u64, 1 << 20] {
            let tag = format!("workers={workers} chunk={chunk}");
            let store_path = dir.join(format!("w{workers}-c{chunk}.grcs"));

            // Text run with the store tee: results must be unchanged.
            let builder = PipelineBuilder::new(cfg)
                .chunk_bytes(chunk)
                .record_store(&store_path);
            let mut mem = InMemorySource::new(&out.text_logs);
            let (teed, _) = builder.run_source(&mut mem).expect("text path with tee");
            assert_eq!(
                format!("{teed:?}"),
                reference,
                "record-store tee changed the text path ({tag})"
            );

            // Replay: same StudyResults, bit for bit, from the store.
            let store = RecordStore::open(&store_path).expect("store opens");
            assert!(store.record_count() > 0, "store is empty ({tag})");
            let mut reader = store.reader(&store_path).expect("reader");
            let replayed = PipelineBuilder::new(cfg)
                .run_record_source(&mut reader)
                .expect("record replay");
            assert_eq!(
                format!("{replayed:?}"),
                reference,
                "record replay diverged from the text path ({tag})"
            );
        }
    }
    gpu_resilience::par::set_worker_override(None);
    std::fs::remove_dir_all(&dir).ok();
}

/// The sensitivity sweep a store exists for: re-coalescing at
/// Δt ∈ {1, 5, 60} s, then the propagation window at 30 s and 120 s
/// (DESIGN.md's A1 and A3 ablations), all replayed from one store written
/// once. Each point must give the text path's study, table for table.
#[test]
fn record_replay_matches_text_across_coalesce_and_propagation_windows() {
    let out = campaign();
    let dir = scratch_dir("windows");
    let store_path = dir.join("records.grcs");
    build_store(&out, &store_path);
    let store = RecordStore::open(&store_path).expect("store opens");

    // The store holds exactly the record stream the reference extractor
    // finds in the same text.
    let extracted: usize = out
        .text_logs
        .iter()
        .map(|(_, lines)| {
            let mut ex = BaselineExtractor::new();
            ex.extract_all(lines.iter().map(String::as_str)).len()
        })
        .sum();
    assert_eq!(store.record_count(), extracted as u64);

    for (dt_s, window_s) in [(1, 60), (5, 60), (60, 60), (5, 30), (5, 120)] {
        let mut cfg = study_config(&out);
        cfg.coalesce = CoalesceConfig {
            window: Duration::from_secs(dt_s),
            ..CoalesceConfig::default()
        };
        cfg.propagation_window = Duration::from_secs(window_s);
        let (text, _) = PipelineBuilder::new(cfg).run_text(&out.text_logs);
        assert!(!text.coalesced.is_empty());
        let mut reader = store.reader(&store_path).expect("reader");
        let replayed = PipelineBuilder::new(cfg)
            .run_record_source(&mut reader)
            .expect("record replay");
        assert_eq!(
            format!("{replayed:?}"),
            format!("{text:?}"),
            "record replay diverged from the text path at Δt {dt_s} s, window {window_s} s"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_replay_records_peak_gauge_without_changing_results() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let out = campaign();
    let cfg = study_config(&out);
    let dir = scratch_dir("metrics");
    let store_path = dir.join("records.grcs");
    build_store(&out, &store_path);
    let store = RecordStore::open(&store_path).expect("store opens");

    let mut silent = store.reader(&store_path).expect("reader");
    let baseline = PipelineBuilder::new(cfg)
        .run_record_source(&mut silent)
        .expect("silent replay");

    let sink = MetricsSink::recording();
    let mut observed = store.reader(&store_path).expect("reader");
    let metered = PipelineBuilder::new(cfg)
        .metrics(sink.clone())
        .run_record_source(&mut observed)
        .expect("observed replay");
    assert_eq!(
        format!("{metered:?}"),
        format!("{baseline:?}"),
        "attaching a metrics sink must never change replay results"
    );

    let doc = sink.export_json().expect("recording sink exports");
    let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
    let stage = |name: &str| {
        stages
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} stage"))
    };
    let peak = stage("extract")
        .get("gauges")
        .and_then(|g| g.get("peak_resident_bytes"))
        .and_then(Json::as_f64)
        .expect("peak_resident_bytes gauge");
    // Coalescing runs interleaved with the block reads and is booked
    // under its own stage, with the totals of the whole replay.
    let coalesce = stage("coalesce")
        .get("counters")
        .expect("coalesce counters");
    assert_eq!(
        coalesce.get("records").and_then(Json::as_u64),
        Some(store.record_count())
    );
    assert_eq!(
        coalesce.get("episodes").and_then(Json::as_u64),
        Some(metered.coalesced.len() as u64)
    );
    // Resident memory is at most two decoded blocks' payloads, not the
    // store: the prefetch thread decodes one block ahead while the caller
    // pushes the current one into its node's coalescer and drops it
    // before taking the next.
    let mut lens: Vec<u64> = store.blocks().iter().map(|b| b.len).collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let two_largest: u64 = lens.iter().take(2).sum();
    assert!(
        peak > 0.0 && peak <= two_largest as f64,
        "replay peak resident bytes {peak} exceeds the two largest blocks ({two_largest} bytes)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_stores_fail_typed_not_panicking() {
    let out = campaign();
    let dir = scratch_dir("damage");
    let store_path = dir.join("records.grcs");
    build_store(&out, &store_path);
    let healthy = std::fs::read(&store_path).expect("read store back");

    // Truncation at half length: open() must fail with a Store error
    // that names the file.
    let half = dir.join("truncated.grcs");
    std::fs::write(&half, &healthy[..healthy.len() / 2]).expect("write truncated");
    let msg = RecordStore::open(&half).expect_err("truncated store").to_string();
    assert!(
        msg.contains("record store") && msg.contains("truncated.grcs"),
        "error must be typed and name the path, got: {msg}"
    );

    // Empty file: typed error, not a slice panic.
    let empty = dir.join("empty.grcs");
    std::fs::write(&empty, b"").expect("write empty");
    let msg = RecordStore::open(&empty).expect_err("empty store").to_string();
    assert!(msg.contains("record store"), "got: {msg}");

    // A bit flip in a block payload passes open() (the footer is intact)
    // but must be caught by the block checksum during replay.
    let mut flipped = healthy.clone();
    flipped[64] ^= 0x40;
    let bad = dir.join("bitflip.grcs");
    std::fs::write(&bad, &flipped).expect("write corrupted");
    let store = RecordStore::open(&bad).expect("footer is intact");
    let mut reader = store.reader(&bad).expect("reader");
    let mut err = None;
    loop {
        match reader.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => break,
            Err(e) => {
                err = Some(e.to_string());
                break;
            }
        }
    }
    let msg = err.expect("bit flip must not decode cleanly");
    assert!(
        msg.contains("checksum"),
        "corruption must be reported as a checksum mismatch, got: {msg}"
    );

    // The replay decodes ahead on its prefetch thread: a flip in the
    // first block and one in the last must both come back from
    // `run_record_source` as the same typed checksum error, at one and
    // at two workers.
    let cfg = study_config(&out);
    let blocks = RecordStore::open(&store_path).expect("store opens").blocks().to_vec();
    assert!(blocks.len() > 1, "the store must span several blocks");
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    for (which, meta) in [("first", blocks[0]), ("last", blocks[blocks.len() - 1])] {
        let mut flipped = healthy.clone();
        flipped[(meta.offset + meta.len / 2) as usize] ^= 0x40;
        let bad = dir.join(format!("bitflip-{which}.grcs"));
        std::fs::write(&bad, &flipped).expect("write corrupted");
        let store = RecordStore::open(&bad).expect("footer is intact");
        for workers in [1usize, 2] {
            gpu_resilience::par::set_worker_override(Some(workers));
            let mut reader = store.reader(&bad).expect("reader");
            let err = PipelineBuilder::new(cfg).run_record_source(&mut reader);
            gpu_resilience::par::set_worker_override(None);
            match err {
                Err(DataError::Store { message, .. }) => assert!(
                    message.contains("checksum"),
                    "{which} block at {workers} workers: got {message}"
                ),
                other => panic!("{which} block at {workers} workers: expected a store error, got {other:?}"),
            }
        }
    }

    // A source failing on its k-th batch: the replay returns its error,
    // whichever thread pulled the batch.
    let store = RecordStore::open(&store_path).expect("store opens");
    let nodes = store.nodes().to_vec();
    let mut per_node = vec![Vec::new(); nodes.len()];
    let mut reader = store.reader(&store_path).expect("reader");
    for (node, rec) in drain(&mut reader) {
        per_node[node].push(rec);
    }
    let batches = per_node.iter().filter(|r| !r.is_empty()).count();
    assert!(batches > 2, "need several batches, got {batches}");
    for k in [0, 1, batches - 1] {
        for workers in [1usize, 2] {
            gpu_resilience::par::set_worker_override(Some(workers));
            let source = InMemoryRecordSource::new(&nodes, &per_node);
            let mut failing = CountingSource::new(source, Some(k));
            let err = PipelineBuilder::new(cfg).run_record_source(&mut failing);
            gpu_resilience::par::set_worker_override(None);
            match err {
                Err(DataError::Io { message, .. }) => {
                    assert_eq!(message, format!("batch {k} unreadable"))
                }
                other => panic!("batch {k} at {workers} workers: got {other:?}"),
            }
            assert_eq!(failing.pulls, k + 1, "no batch is pulled after the failure");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `RecordSource` wrapper that counts its pulls, records the pull
/// count at each rewind, and fails with an I/O error on pull `fail_at`
/// (counting from 0), if set.
struct CountingSource<S> {
    inner: S,
    pulls: usize,
    rewinds: Vec<usize>,
    fail_at: Option<usize>,
}

impl<S> CountingSource<S> {
    fn new(inner: S, fail_at: Option<usize>) -> Self {
        let rewinds = Vec::new();
        CountingSource { inner, pulls: 0, rewinds, fail_at }
    }
}

impl<S: RecordSource> RecordSource for CountingSource<S> {
    fn nodes(&self) -> &[NodeId] {
        self.inner.nodes()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
        let k = self.pulls;
        self.pulls += 1;
        if Some(k) == self.fail_at {
            return Err(DataError::Io {
                path: "<failing source>".to_string(),
                message: format!("batch {k} unreadable"),
            });
        }
        self.inner.next_batch()
    }

    fn rewind(&mut self) -> Result<(), DataError> {
        self.rewinds.push(self.pulls);
        self.inner.rewind()
    }
}

/// Replay `source` through a rewind counter into `sink`: the results and
/// the pull count at each rewind.
fn replay_counting(
    cfg: StudyConfig,
    source: impl RecordSource,
    sink: &MetricsSink,
) -> (gpu_resilience::core::StudyResults, Vec<usize>) {
    let mut counting = CountingSource::new(source, None);
    let results = PipelineBuilder::new(cfg)
        .metrics(sink.clone())
        .run_record_source(&mut counting)
        .expect("record replay");
    (results, counting.rewinds)
}

/// Stores whose streams are not per-node take the batch route: the
/// replay rewinds its source exactly once and still equals `run_records`
/// over the sorted concatenation, from a store file and from memory, and
/// books every record once. A clean store never rewinds. When the first
/// block fails the per-node check, the replay stops pulling there: one
/// worker pulls that block alone before the rewind, two workers at most
/// one more (staged by the reader thread).
#[test]
fn replay_of_streams_that_are_not_per_node_rewinds_once_and_matches_batch() {
    let _workers = WORKER_LOCK.lock().expect("worker lock");
    let rec = |secs: u64, node: u32, slot: usize, xid: Xid| {
        ErrorRecord::new(
            Timestamp::from_secs(secs),
            GpuId::at_slot(NodeId(node), slot),
            xid,
            ErrorDetail::new(1, 2),
        )
    };
    let day = 86_400;
    // Ten nodes of one block each, each a time-ordered stream of its own
    // GPUs.
    let mut clean = vec![(0..40)
        .map(|k| rec(day + k * 3, 1, (k % 2) as usize, Xid::MmuError))
        .collect::<Vec<_>>()];
    let quiet = |n| (0..30).map(|k| rec(day + k * 7, n, 0, Xid::NvlinkError)).collect();
    clean.extend((2..=10).map(quiet));
    let nodes: Vec<NodeId> = (1..=10).map(NodeId).collect();

    // A day regression inside node 1's block.
    let mut regressed = clean.clone();
    regressed[0][20].at = Timestamp::from_secs(10);
    // Node 1's block carries a record of node 2's GPU.
    let mut foreign = clean.clone();
    foreign[0][10].gpu = GpuId::at_slot(NodeId(2), 3);
    // Both node-table entries hold node 1's GPUs.
    let mut shared = clean.clone();
    for r in &mut shared[1] {
        r.gpu = GpuId::at_slot(NodeId(1), 5);
    }

    let cfg = StudyConfig::ampere_study().with_window(24.0 * 3.0, 10);
    let dir = scratch_dir("fallback");
    // Per case, the pulls before the rewind at one worker: the first
    // block, or (shared) every block and the end of the stream.
    for (tag, streams, pulls) in [
        ("clean", &clean, None),
        ("day regression", &regressed, Some(1)),
        ("foreign gpu", &foreign, Some(1)),
        ("shared node", &shared, Some(11)),
    ] {
        let mut all: Vec<ErrorRecord> = streams.iter().flatten().copied().collect();
        gpu_resilience::xid::record::sort_records(&mut all);
        let expected = format!("{:?}", PipelineBuilder::new(cfg).run_records(&all));

        let path = dir.join(format!("{}.grcs", tag.replace(' ', "-")));
        write_store(&path, &nodes, streams).expect("write store");
        let store = RecordStore::open(&path).expect("store opens");
        for workers in [1, 2] {
            gpu_resilience::par::set_worker_override(Some(workers));
            let sink = MetricsSink::recording();
            let from_store = replay_counting(cfg, store.reader(&path).expect("reader"), &sink);
            let memory = InMemoryRecordSource::new(&nodes, streams);
            let from_memory = replay_counting(cfg, memory, &MetricsSink::disabled());
            gpu_resilience::par::set_worker_override(None);
            for (source, (results, rewinds)) in [("store", from_store), ("memory", from_memory)] {
                let at = format!("{tag} from {source} at {workers} workers");
                assert_eq!(format!("{results:?}"), expected, "{at}");
                let stopped = match (pulls, &rewinds[..]) {
                    (None, []) => true,
                    (Some(first), &[pulled]) => (first..first + workers).contains(&pulled),
                    _ => false,
                };
                assert!(stopped, "{at}: pulls at each rewind {rewinds:?}");
            }

            let doc = sink.export_json().expect("recording sink exports");
            let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
            let booked: Vec<(&str, Option<u64>)> = stages
                .iter()
                .filter_map(|s| {
                    let records = s.get("counters")?.get("records")?.as_u64();
                    Some((s.get("stage")?.as_str()?, records))
                })
                .collect();
            let n = Some(store.record_count());
            assert_eq!(booked, [("extract", n), ("coalesce", n)], "{tag} at {workers} workers");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
