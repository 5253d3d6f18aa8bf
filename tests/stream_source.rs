//! Tier-1 streaming contract: every `LogSource` path — in-memory,
//! campaign generator, and a campaign→disk→`DirSource` round trip —
//! must produce bit-identical `StudyResults` at every chunk size and
//! worker count, and the disk path must do it in bounded memory. The
//! packed file readers (`DirSource`, `TailSource`) are also checked
//! against a line-at-a-time reference reader on generated corpora with
//! awkward line endings, and must reject invalid UTF-8 with its position.

use gpu_resilience::core::{
    DirSource, GeneratorSource, InMemorySource, LogChunk, LogSource, PipelineBuilder, StudyConfig,
    StudyResults, TailSource, WatchConfig, WatchSession,
};
use gpu_resilience::faults::{Campaign, CampaignConfig, CampaignOutput};
use gpu_resilience::logscan::BaselineExtractor;
use gpu_resilience::obs::json::Json;
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::report::files;
use gpu_resilience::xid::record::sort_records;
use gpu_resilience::xid::syslog::{format_line, format_noise_line};
use gpu_resilience::xid::{
    DataError, Duration, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid,
};
use proptest::prelude::*;
use proptest::Gen;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
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
fn every_ingestion_path_coalesces_like_the_serial_baseline_route() {
    // In-memory, streamed from disk, and streamed with prefetch must each
    // give the episodes of the batch route, which shares none of their
    // Stage I code: serial baseline extraction per node, one global sort,
    // one fold over the records.
    let out = campaign();
    let cfg = study_config(&out);
    let mut records = Vec::new();
    for (_, lines) in &out.text_logs {
        let mut ex = BaselineExtractor::new();
        records.append(&mut ex.extract_all(lines.iter().map(|s| s.as_str())));
    }
    sort_records(&mut records);
    let reference = PipelineBuilder::new(cfg).run_records(&records);
    assert!(!reference.coalesced.is_empty(), "corpus must hold XID episodes");

    let dir = scratch_dir("baseline-route");
    let mut gen = GeneratorSource::from_campaign(&out);
    files::write_node_logs_source(&dir, &mut gen).expect("streamed write");
    let builder = PipelineBuilder::new(cfg);
    let mut mem = InMemorySource::new(&out.text_logs);
    let (r_mem, _) = builder.run_source(&mut mem).expect("in-memory");
    assert_eq!(r_mem.coalesced, reference.coalesced, "in-memory diverged");
    for prefetch in [false, true] {
        let mut disk = DirSource::open(&dir).expect("reopen log dir");
        let (r_disk, _) = builder
            .clone()
            .prefetch(prefetch)
            .run_source(&mut disk)
            .expect("dir source");
        assert_eq!(
            r_disk.coalesced, reference.coalesced,
            "dir source diverged (prefetch={prefetch})"
        );
    }
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
    let mut streamed: Vec<(NodeId, Vec<String>)> =
        gen.nodes().iter().map(|&n| (n, Vec::new())).collect();
    while let Some(chunk) = gen.next_chunk(u64::MAX).expect("infallible") {
        streamed[chunk.node].1.extend(chunk.lines.iter().map(str::to_owned));
    }
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
            lines: [line].into_iter().collect(),
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

/// A log directory holding one invalid byte, in the second line of
/// `gpub001.log` at file offset 8.
fn bad_utf8_dir(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("gpub001.log"), b"alpha\nbr\xffvo\ncharlie\n").expect("write log");
    dir
}

#[test]
fn invalid_utf8_is_a_typed_error_naming_the_file_and_offset() {
    let cfg = StudyConfig::ampere_study().with_window(1_000.0, 1);
    let dir = bad_utf8_dir("bad-utf8");
    let names_the_byte = |err: &DataError, tail: bool| {
        let typed = match err {
            DataError::Io { path, .. } => !tail && path.ends_with("gpub001.log"),
            DataError::Tail { path, .. } => tail && path.ends_with("gpub001.log"),
            _ => false,
        };
        assert!(typed, "wrong error variant or path: {err:?}");
        assert!(
            err.to_string().contains("invalid UTF-8 at byte offset 8"),
            "error must give the offset of the first invalid byte, got: {err}"
        );
    };
    for prefetch in [false, true] {
        for chunk in [1u64, 1 << 20] {
            let builder = PipelineBuilder::new(cfg)
                .prefetch(prefetch)
                .chunk_bytes(chunk);
            let mut disk = DirSource::open(&dir).expect("open log dir");
            let err = builder
                .run_source(&mut disk)
                .expect_err("dir source must fail");
            names_the_byte(&err, false);
            let mut tail = TailSource::open(&dir).expect("open log dir");
            let err = builder
                .run_source(&mut tail)
                .expect_err("tail source must fail");
            names_the_byte(&err, true);
        }
    }

    // The tail consumes `alpha`, then stops in front of the bad line on
    // every poll: nothing past it is skipped.
    let mut tail = TailSource::open(&dir).expect("open log dir");
    let first = tail
        .next_chunk(1)
        .expect("first line is valid")
        .expect("a chunk");
    assert_eq!(first.lines.iter().collect::<Vec<_>>(), ["alpha"]);
    for _ in 0..2 {
        names_the_byte(&tail.next_chunk(1).expect_err("bad line"), true);
        assert!(tail
            .checkpoint()
            .starts_with(&format!("{} 6 ", inode(&dir))));
    }
    // Repair the byte in place: the tail resumes at the repaired line.
    let path = dir.join("gpub001.log");
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen");
    f.seek(SeekFrom::Start(8))
        .and_then(|_| f.write_all(b"a"))
        .expect("repair");
    drop(f);
    let rest = tail
        .next_chunk(u64::MAX)
        .expect("repaired")
        .expect("a chunk");
    assert_eq!(rest.lines.iter().collect::<Vec<_>>(), ["bravo", "charlie"]);

    // The live path surfaces the same error.
    let dir = bad_utf8_dir("bad-utf8-watch");
    let mut session = WatchSession::new(WatchConfig {
        study: cfg,
        ..WatchConfig::default()
    });
    let mut tail = TailSource::open(&dir).expect("open log dir");
    let err = session
        .run_observed(&mut tail, &MetricsSink::disabled())
        .expect_err("the watch poll must fail");
    names_the_byte(&err, true);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(scratch_dir("bad-utf8")).ok();
}

/// The inode a checkpoint line records for `gpub001.log` (0 off Unix).
fn inode(dir: &Path) -> u64 {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(dir.join("gpub001.log")).map_or(0, |m| m.ino())
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        0
    }
}

// ---------------------------------------------------------------------------
// Packed readers against a line-at-a-time reference
// ---------------------------------------------------------------------------

/// Chunk targets the differential checks run: one line per chunk, a few
/// lines, a typical `--chunk-bytes`, and whole files.
const TARGETS: [u64; 4] = [1, 7, 64 << 10, u64::MAX];

/// One reference chunk: its lines and its `bytes`.
type RefChunk = (Vec<String>, u64);

/// The batch file reader before chunks were packed: `read_line` into one
/// `String` per line, one `\r` stripped before a `\n`, a chunk closing on
/// the first line whose stripped length + 1 reaches the target.
fn reference_dir_chunks(path: &Path, target: u64) -> Vec<RefChunk> {
    let mut reader = BufReader::new(File::open(path).expect("open"));
    let mut out = Vec::new();
    loop {
        let (mut lines, mut acc, mut eof) = (Vec::new(), 0u64, false);
        while acc < target.max(1) {
            let mut buf = String::new();
            if reader.read_line(&mut buf).expect("read") == 0 {
                eof = true;
                break;
            }
            if buf.ends_with('\n') {
                buf.pop();
                if buf.ends_with('\r') {
                    buf.pop();
                }
            }
            acc += buf.len() as u64 + 1;
            lines.push(buf);
        }
        if !lines.is_empty() {
            out.push((lines, acc));
        }
        if eof {
            return out;
        }
    }
}

/// The tail reader before chunks were packed: each poll seeks to the
/// cursor and reads whole `\n`-terminated lines until their raw length
/// reaches the target; an unterminated last line stays unread.
fn reference_tail_chunks(path: &Path, target: u64) -> Vec<RefChunk> {
    let mut offset = 0u64;
    let mut out = Vec::new();
    loop {
        let mut reader = BufReader::new(File::open(path).expect("open"));
        reader.seek(SeekFrom::Start(offset)).expect("seek");
        let (mut lines, mut consumed, mut emitted) = (Vec::new(), 0u64, 0u64);
        while consumed < target.max(1) {
            let mut buf = String::new();
            let n = reader.read_line(&mut buf).expect("read");
            if n == 0 || !buf.ends_with('\n') {
                break;
            }
            consumed += n as u64;
            buf.pop();
            if buf.ends_with('\r') {
                buf.pop();
            }
            emitted += buf.len() as u64 + 1;
            lines.push(buf);
        }
        if lines.is_empty() {
            return out;
        }
        offset += consumed;
        out.push((lines, emitted));
    }
}

/// Every chunk of `source` at `target` with its node, in source order.
fn source_chunks(source: &mut dyn LogSource<'_>, target: u64) -> Vec<(usize, RefChunk)> {
    let mut out = Vec::new();
    while let Some(c) = source.next_chunk(target).expect("valid corpus") {
        out.push((
            c.node,
            (c.lines.iter().map(str::to_owned).collect(), c.bytes),
        ));
    }
    out
}

/// A reference reader's chunks of every file, node-major.
fn node_major(paths: &[PathBuf], read: impl Fn(&Path) -> Vec<RefChunk>) -> Vec<(usize, RefChunk)> {
    let per_file = paths.iter().map(|p| read(p));
    per_file
        .enumerate()
        .flat_map(|(node, chunks)| chunks.into_iter().map(move |c| (node, c)))
        .collect()
}

/// A generated log directory: one file per node, its bytes verbatim.
struct Corpus {
    files: Vec<String>,
}

impl Corpus {
    fn write(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch dir");
        for (i, text) in self.files.iter().enumerate() {
            let path = dir.join(format!("{}.log", NodeId(i as u32 + 1).hostname()));
            std::fs::write(path, text).expect("write log");
        }
    }
}

/// Generates corpora full of what the packed readers must get right:
/// CRLF and LF endings, a bare `\r` mid-line, empty lines, empty files,
/// a file that is only `\n`, a last line without `\n` (with or without a
/// `\r`), lines longer than a read block, and runs of 2-, 3- and 4-byte
/// characters long enough that reads split some of them. XID and noise
/// lines with rising timestamps give the pipeline records to agree on.
struct CorpusStrategy;

impl CorpusStrategy {
    fn file(gen: &mut Gen, node: u32) -> String {
        match gen.below(12) {
            0 => return String::new(),
            1 => return "\n".to_string(),
            _ => {}
        }
        // Long lines pass the smallest read (8 KiB); in one file of six
        // they are long enough that 64 KiB chunks close mid-file.
        let long = if gen.below(6) == 0 { 16 << 10 } else { 8 << 10 };
        let mut at = Timestamp::EPOCH + Duration::from_hours(24 * (1 + gen.below(300)));
        let n_lines = 1 + gen.below(32);
        let mut text = String::new();
        for i in 0..n_lines {
            match gen.below(12) {
                // Short lines, often empty: runs of them are where the
                // small targets close chunks on a line's weight.
                0..=2 => {
                    for _ in 0..gen.below(7) {
                        text.push(char::from(b'a' + gen.below(26) as u8));
                    }
                }
                3 => text.push_str("kernel: bare\rreturn inside a line"),
                4 => {
                    let len = long + gen.below(4 * long as u64) as usize;
                    let chars = ['a', 'é', '€', '😀'];
                    let from = text.len();
                    while text.len() - from < len {
                        text.push(chars[gen.below(4) as usize]);
                    }
                }
                5 => text.push_str(&format_noise_line(at, NodeId(node), i as u8)),
                _ => {
                    let rec = ErrorRecord::new(
                        at,
                        GpuId::at_slot(NodeId(node), gen.below(4) as usize),
                        Xid::ALL[gen.below(Xid::ALL.len() as u64) as usize],
                        ErrorDetail::new(gen.below(3) as u16, gen.below(5) as u32),
                    );
                    text.push_str(&format_line(&rec, gen.below(3) as u32));
                }
            }
            at += Duration::from_secs(gen.below(7_200));
            let last = i + 1 == n_lines;
            text.push_str(match (last, gen.below(6)) {
                (true, 0) => "",
                (true, 1) => "\r",
                (_, 2 | 3) => "\r\n",
                _ => "\n",
            });
        }
        text
    }
}

impl Strategy for CorpusStrategy {
    type Value = Corpus;

    fn sample_value(&self, gen: &mut Gen) -> Corpus {
        let nodes = 1 + gen.below(3) as u32;
        Corpus {
            files: (1..=nodes).map(|n| Self::file(gen, n)).collect(),
        }
    }
}

/// Check `DirSource` and `TailSource` over the corpus in `dir` against
/// the reference readers: the same lines per node, the same
/// `(node, lines, bytes)` chunk sequence at every target, and the same
/// `StudyResults` through `run_source` with prefetch off and on.
fn packed_readers_match_reference(dir: &Path) -> Result<(), String> {
    let paths: Vec<PathBuf> = {
        let mut p: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").path())
            .collect();
        p.sort();
        p
    };
    let nodes = paths.len() as u32;
    let all_lines = |chunks: &[RefChunk]| -> Vec<String> {
        chunks.iter().flat_map(|(l, _)| l.iter().cloned()).collect()
    };
    let reference_logs: Vec<(NodeId, Vec<String>)> = paths
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                NodeId(i as u32 + 1),
                all_lines(&reference_dir_chunks(p, u64::MAX)),
            )
        })
        .collect();
    let cfg = StudyConfig::ampere_study().with_window(24.0 * 400.0, nodes);
    let reference = fingerprint(
        &PipelineBuilder::new(cfg)
            .run_source(&mut InMemorySource::new(&reference_logs))
            .expect("in-memory"),
    );

    let shape = |c: &[(usize, RefChunk)]| -> Vec<(usize, usize, u64)> {
        c.iter().map(|(n, (l, b))| (*n, l.len(), *b)).collect()
    };
    let lines = |c: &[(usize, RefChunk)]| -> Vec<(usize, String)> {
        c.iter()
            .flat_map(|(n, (l, _))| l.iter().map(move |line| (*n, line.clone())))
            .collect()
    };
    for target in TARGETS {
        let want_dir = node_major(&paths, |p| reference_dir_chunks(p, target));
        let want_tail = node_major(&paths, |p| reference_tail_chunks(p, target));
        let got_dir = source_chunks(&mut DirSource::open(dir).expect("open"), target);
        let mut got_tail = source_chunks(&mut TailSource::open(dir).expect("open"), target);
        // The tail visits files round-robin; only each file's order counts.
        got_tail.sort_by_key(|(node, _)| *node);
        for (name, got, want) in [("dir", got_dir, want_dir), ("tail", got_tail, want_tail)] {
            prop_assert_eq!(
                lines(&got),
                lines(&want),
                "{name}: lines differ at target {target}"
            );
            prop_assert_eq!(
                shape(&got),
                shape(&want),
                "{name}: chunk sequence differs at target {target}"
            );
        }
        for prefetch in [false, true] {
            let builder = PipelineBuilder::new(cfg)
                .prefetch(prefetch)
                .chunk_bytes(target);
            let mut disk = DirSource::open(dir).expect("open");
            let r_disk = fingerprint(&builder.run_source(&mut disk).expect("dir source"));
            let mut tail = TailSource::open(dir).expect("open");
            let r_tail = fingerprint(&builder.run_source(&mut tail).expect("tail source"));
            prop_assert!(
                r_disk == reference,
                "dir source results diverged at target {target}, prefetch {prefetch}"
            );
            // The tail leaves an unterminated last line unread, so it
            // agrees with the reference only when every file ends in `\n`.
            let terminated = paths.iter().all(|p| {
                let text = std::fs::read(p).expect("read back");
                text.is_empty() || text.ends_with(b"\n")
            });
            prop_assert!(
                !terminated || r_tail == reference,
                "tail source results diverged at target {target}, prefetch {prefetch}"
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn packed_readers_match_the_line_at_a_time_reference(corpus in CorpusStrategy) {
        // One worker keeps one-line chunks cheap; worker-count invariance
        // is checked above.
        let _workers = WORKER_LOCK.lock().expect("worker lock");
        gpu_resilience::par::set_worker_override(Some(1));
        let dir = scratch_dir("differential");
        corpus.write(&dir);
        let outcome = packed_readers_match_reference(&dir);
        std::fs::remove_dir_all(&dir).ok();
        gpu_resilience::par::set_worker_override(None);
        outcome?;
    }
}

#[test]
fn packed_readers_match_the_reference_on_split_characters() {
    // A 3-byte character straddles file offset 8 192 (where the first
    // read of a small-target chunk ends) and 65 536 (where a 64 KiB
    // chunk's first read ends), then comes a line longer than the
    // largest read (1 MiB) ending in `\r` without `\n`; then a lone
    // `\n`, then an empty file.
    let mut first = format!("{}€€€\r\n", "a".repeat((8 << 10) - 1));
    first.push_str(&"a".repeat((64 << 10) - 1 - first.len()));
    first.push_str("€€€\n");
    first.push_str(&"€😀".repeat((1 << 20) / 7 + 1));
    first.push('\r');
    let corpus = Corpus {
        files: vec![first, "\n".to_string(), String::new()],
    };
    let dir = scratch_dir("split-chars");
    corpus.write(&dir);
    let outcome = packed_readers_match_reference(&dir);
    std::fs::remove_dir_all(&dir).ok();
    if let Err(e) = outcome {
        panic!("{e}");
    }
}
