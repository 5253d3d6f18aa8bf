//! Workload inputs: generation from a `.scn` scenario and `--seed`, the
//! manifest that describes and checksums them, and the reference digest
//! every timed pass is checked against.
//!
//! A seed's inputs for one corpus live in `<data>/seed-<S>/<corpus>/`:
//! per-node `logs/` plus an `oracle.grcs` store of the records the
//! baseline extractor finds in them (text corpora), or a `records.grcs`
//! store with `jobs.csv` / `downtime.csv` (replay corpora), and
//! `manifest.json`. The program under test only ever reads these files.

use crate::at;
use crate::harness::Fnv64;
use crate::oracle;
use dr_faults::{Campaign, CampaignOutput};
use dr_logscan::SyslogScanner;
use dr_logscan::{BaselineExtractor, ExtractStats};
use dr_obs::json::Json;
use dr_report::files;
use dr_scenario::Scenario;
use dr_slurm::{apply_errors, DrainWindows, JobLoadConfig, MaskingModel, Scheduler};
use dr_xid::{Duration, ErrorRecord, NodeId, Timestamp};
use rand::prelude::*;
use resilience_core::{write_store, GeneratorSource, LogSource};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// Bump when generation changes what an input directory holds, so stale
/// inputs are regenerated instead of reused.
const GENERATOR_VERSION: u64 = 1;

/// Seeds whose inputs are kept per corpus; older ones are deleted after a
/// prepare, which bounds disk use when every run takes a new seed.
const KEEP_SEEDS: usize = 3;

/// One input set. The `watch-live` workload streams the `burst-tee`
/// corpus, so there are four corpora for five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corpus {
    ScanNoisy,
    BurstTee,
    StudyReplay,
    FoldDt1,
}

/// How a corpus is analyzed: the `analyze` flags its passes use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// `--dt`: the coalescing window in seconds.
    pub dt: u64,
    /// `--jobs jobs.csv`.
    pub jobs: bool,
    /// `--downtime downtime.csv`.
    pub downtime: bool,
}

impl Corpus {
    pub fn name(self) -> &'static str {
        match self {
            Corpus::ScanNoisy => "scan-noisy",
            Corpus::BurstTee => "burst-tee",
            Corpus::StudyReplay => "study-replay",
            Corpus::FoldDt1 => "fold-dt1",
        }
    }

    fn scenario_source(self) -> &'static str {
        match self {
            Corpus::ScanNoisy => include_str!("../workloads/scan_noisy.scn"),
            Corpus::BurstTee => include_str!("../workloads/burst_tee.scn"),
            Corpus::StudyReplay => include_str!("../workloads/study_replay.scn"),
            Corpus::FoldDt1 => include_str!("../workloads/fold_dt1.scn"),
        }
    }

    /// Campaign length under `--smoke`: big enough that every layer does
    /// some work, small enough that all five workloads prepare and run in
    /// seconds.
    fn smoke_days(self) -> f64 {
        match self {
            Corpus::ScanNoisy => 20.0,
            Corpus::BurstTee => 0.5,
            Corpus::StudyReplay => 4.0,
            Corpus::FoldDt1 => 60.0,
        }
    }

    /// The fixed amount of work every seed's inputs are cut to, in time
    /// order: text lines for text corpora, records for replays. Seeds
    /// differ in how errors cluster, so campaigns of one length differ in
    /// size by tens of percent; a fixed size keeps pass times comparable
    /// across seeds. Each is below what the scenario's campaign yields
    /// for typical seeds; a seed that falls short gets a longer campaign.
    fn size(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Corpus::ScanNoisy, false) => 950_000,
            (Corpus::BurstTee, false) => 60_000,
            (Corpus::StudyReplay, false) => 3_000_000,
            (Corpus::FoldDt1, false) => 400_000,
            (Corpus::ScanNoisy, true) => 20_000,
            (Corpus::BurstTee, true) => 5_000,
            (Corpus::StudyReplay, true) => 40_000,
            (Corpus::FoldDt1, true) => 20_000,
        }
    }

    /// Text corpora are analyzed from `logs/`; the others replay a store.
    pub fn is_text(self) -> bool {
        matches!(self, Corpus::ScanNoisy | Corpus::BurstTee)
    }

    pub fn analysis(self) -> Analysis {
        match self {
            Corpus::ScanNoisy | Corpus::BurstTee => Analysis {
                dt: 5,
                jobs: false,
                downtime: false,
            },
            Corpus::StudyReplay => Analysis {
                dt: 5,
                jobs: true,
                downtime: true,
            },
            Corpus::FoldDt1 => Analysis {
                dt: 1,
                jobs: false,
                downtime: true,
            },
        }
    }
}

/// Size and FNV-1a 64 checksum of one input file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSum {
    /// Path relative to the input directory, `/`-separated.
    pub path: String,
    pub bytes: u64,
    pub fnv: u64,
}

/// What an input directory holds and how it was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub corpus: String,
    pub seed: u64,
    pub smoke: bool,
    pub version: u64,
    /// Checksum of the `.scn` source the inputs were generated from.
    pub scenario_fnv: u64,
    /// `--nodes`: log files for text corpora, the fleet for replays.
    pub nodes: u32,
    /// `--hours`: the campaign's observation window.
    pub hours: f64,
    /// Text lines (text corpora).
    pub lines: u64,
    /// Lines the oracle extractor recognized as XID reports.
    pub xid_lines: u64,
    /// Oracle records (text) or stored records (replays).
    pub records: u64,
    pub jobs: u64,
    pub files: Vec<FileSum>,
    /// Digest of the reference `StudyResults` plus report.
    pub reference: u64,
}

pub const MANIFEST: &str = "manifest.json";

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn unhex(j: Option<&Json>, key: &str) -> Result<u64, String> {
    j.and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("manifest: bad `{key}`"))
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("manifest: bad `{key}`"))
}

impl Manifest {
    fn to_json(&self) -> Json {
        let files = self
            .files
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("path", Json::Str(f.path.clone())),
                    ("bytes", Json::Num(f.bytes as f64)),
                    ("fnv", hex(f.fnv)),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "schema",
                Json::Str("gpures-benchmark-inputs/v1".to_string()),
            ),
            ("corpus", Json::Str(self.corpus.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("smoke", Json::Bool(self.smoke)),
            ("version", Json::Num(self.version as f64)),
            ("scenario_fnv", hex(self.scenario_fnv)),
            ("nodes", Json::Num(self.nodes as f64)),
            ("hours", Json::Num(self.hours)),
            ("lines", Json::Num(self.lines as f64)),
            ("xid_lines", Json::Num(self.xid_lines as f64)),
            ("records", Json::Num(self.records as f64)),
            ("jobs", Json::Num(self.jobs as f64)),
            ("files", Json::Arr(files)),
            ("reference", hex(self.reference)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Manifest, String> {
        let files = doc
            .get("files")
            .and_then(Json::as_arr)
            .ok_or("manifest: no `files`")?
            .iter()
            .map(|f| {
                Ok(FileSum {
                    path: f
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or("manifest: file without `path`")?
                        .to_string(),
                    bytes: num(f, "bytes")? as u64,
                    fnv: unhex(f.get("fnv"), "fnv")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            corpus: doc
                .get("corpus")
                .and_then(Json::as_str)
                .ok_or("manifest: no `corpus`")?
                .to_string(),
            seed: num(doc, "seed")? as u64,
            smoke: matches!(doc.get("smoke"), Some(Json::Bool(true))),
            version: num(doc, "version")? as u64,
            scenario_fnv: unhex(doc.get("scenario_fnv"), "scenario_fnv")?,
            nodes: num(doc, "nodes")? as u32,
            hours: num(doc, "hours")?,
            lines: num(doc, "lines")? as u64,
            xid_lines: num(doc, "xid_lines")? as u64,
            records: num(doc, "records")? as u64,
            jobs: num(doc, "jobs")? as u64,
            files,
            reference: unhex(doc.get("reference"), "reference")?,
        })
    }

    /// Read `manifest.json` from an input directory.
    pub fn load(dir: &Path) -> Result<Manifest, String> {
        let path = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&path).map_err(at(&path))?;
        let doc = Json::parse(&text).map_err(at(&path))?;
        Manifest::from_json(&doc)
    }

    /// Write `manifest.json` last and atomically, so a directory whose
    /// generation was interrupted never looks complete.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let tmp = dir.join("manifest.json.tmp");
        std::fs::write(&tmp, self.to_json().render()).map_err(at(&tmp))?;
        std::fs::rename(&tmp, dir.join(MANIFEST)).map_err(at(dir))
    }

    /// Whether the manifest was written for these generation parameters
    /// by this generator.
    fn describes(&self, corpus: Corpus, seed: u64, smoke: bool) -> bool {
        self.corpus == corpus.name()
            && self.seed == seed
            && self.smoke == smoke
            && self.version == GENERATOR_VERSION
            && self.scenario_fnv == fnv_bytes(corpus.scenario_source().as_bytes())
    }

    /// Check every listed file's size and checksum.
    pub fn verify(&self, dir: &Path) -> Result<(), String> {
        for f in &self.files {
            let got = checksum(dir, &f.path)?;
            if got != *f {
                return Err(format!(
                    "input {} does not match its manifest ({} bytes, fnv {:016x}; expected {} bytes, fnv {:016x}); run `prepare` again",
                    dir.join(&f.path).display(),
                    got.bytes,
                    got.fnv,
                    f.bytes,
                    f.fnv
                ));
            }
        }
        Ok(())
    }

    /// Bytes a pass reads: the text logs, or the store plus CSVs.
    pub fn pass_input_bytes(&self) -> u64 {
        self.files
            .iter()
            .filter(|f| f.path != ORACLE_STORE)
            .map(|f| f.bytes)
            .sum()
    }
}

pub const LOGS: &str = "logs";
pub const ORACLE_STORE: &str = "oracle.grcs";
pub const RECORD_STORE: &str = "records.grcs";
pub const JOBS_CSV: &str = "jobs.csv";
pub const DOWNTIME_CSV: &str = "downtime.csv";

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Size and checksum of the file at `rel` under `dir`.
pub fn checksum(dir: &Path, rel: &str) -> Result<FileSum, String> {
    let path = dir.join(rel);
    let mut file = std::fs::File::open(&path).map_err(at(&path))?;
    let mut h = Fnv64::default();
    let mut buf = vec![0u8; 1 << 20];
    let mut bytes = 0u64;
    loop {
        let n = file.read(&mut buf).map_err(at(&path))?;
        if n == 0 {
            break;
        }
        h.write(&buf[..n]);
        bytes += n as u64;
    }
    Ok(FileSum {
        path: rel.to_string(),
        bytes,
        fnv: h.finish(),
    })
}

/// `<data>/seed-<S>[-smoke]/<corpus>`.
pub fn input_dir(data: &Path, corpus: Corpus, seed: u64, smoke: bool) -> PathBuf {
    let seed_dir = if smoke {
        format!("seed-{seed}-smoke")
    } else {
        format!("seed-{seed}")
    };
    data.join(seed_dir).join(corpus.name())
}

/// The manifest of an input directory that already holds this corpus
/// and seed, if one does (checksums are not verified here).
pub fn prepared(data: &Path, corpus: Corpus, seed: u64, smoke: bool) -> Option<Manifest> {
    Manifest::load(&input_dir(data, corpus, seed, smoke))
        .ok()
        .filter(|m| m.describes(corpus, seed, smoke))
}

/// Generate a corpus's inputs for `seed`, or reuse the directory when its
/// manifest describes the same generation and every checksum matches.
pub fn prepare(data: &Path, corpus: Corpus, seed: u64, smoke: bool) -> Result<Manifest, String> {
    let dir = input_dir(data, corpus, seed, smoke);
    if let Some(m) = prepared(data, corpus, seed, smoke) {
        if m.verify(&dir).is_ok() {
            return Ok(m);
        }
    }
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(at(&dir))?;
    }
    std::fs::create_dir_all(&dir).map_err(at(&dir))?;
    let m = generate(&dir, corpus, seed, smoke)?;
    m.save(&dir)?;
    prune(data, corpus, &dir);
    // Write the inputs back to disk now: the kernel would otherwise do it
    // some thirty seconds later, on the benchmark's CPUs, in the middle of
    // a later measurement.
    for rel in m.files.iter().map(|f| f.path.as_str()).chain([MANIFEST]) {
        let path = dir.join(rel);
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(at(&path))?;
    }
    Ok(m)
}

/// Delete this corpus's inputs for all but the [`KEEP_SEEDS`] most
/// recently prepared seeds. Best effort: a directory that cannot be
/// removed is left for the next prepare.
fn prune(data: &Path, corpus: Corpus, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(data) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| e.path().join(corpus.name()))
        .filter(|d| d.as_path() != keep)
        .filter_map(|d| {
            let modified = std::fs::metadata(d.join(MANIFEST)).and_then(|m| m.modified());
            modified.ok().map(|t| (t, d))
        })
        .collect();
    dirs.sort_by_key(|d| Reverse(d.0));
    for (_, d) in dirs.into_iter().skip(KEEP_SEEDS.saturating_sub(1)) {
        let _ = std::fs::remove_dir_all(&d);
        // The seed directory goes too once its last corpus has.
        if let Some(seed_dir) = d.parent() {
            let _ = std::fs::remove_dir(seed_dir);
        }
    }
}

/// Campaign doublings tried before a seed that cannot reach its corpus
/// size is an error.
const MAX_DOUBLINGS: i32 = 4;

fn generate(dir: &Path, corpus: Corpus, seed: u64, smoke: bool) -> Result<Manifest, String> {
    let scenario = Scenario::parse(corpus.scenario_source())
        .map_err(|e| format!("{} scenario: {e}", corpus.name()))?;
    let base = scenario.compile_seed(seed);
    let days = if smoke {
        corpus.smoke_days()
    } else {
        base.duration_days
    };
    let size = corpus.size(smoke);
    let mut m = Manifest {
        corpus: corpus.name().to_string(),
        seed,
        smoke,
        version: GENERATOR_VERSION,
        scenario_fnv: fnv_bytes(corpus.scenario_source().as_bytes()),
        nodes: base.shape.node_count(),
        hours: days * 24.0,
        lines: 0,
        xid_lines: 0,
        records: 0,
        jobs: 0,
        files: Vec::new(),
        reference: 0,
    };
    let mut cut = false;
    for doubling in 0..MAX_DOUBLINGS {
        let mut cfg = base.clone();
        cfg.duration_days = days * f64::from(1 << doubling);
        // Stream the text to disk; the corpus is never resident.
        cfg.text.defer = true;
        let out = Campaign::run(cfg);
        cut = if corpus.is_text() {
            write_text(dir, &out, size, &mut m)?
        } else {
            write_records(dir, &scenario, &out, size, days, &mut m)?
        };
        if cut {
            break;
        }
    }
    if !cut {
        return Err(format!(
            "{} seed {seed}: the campaign stays below {size} after {MAX_DOUBLINGS} doublings",
            corpus.name()
        ));
    }
    m.files = list_files(dir)?
        .iter()
        .map(|rel| checksum(dir, rel))
        .collect::<Result<_, _>>()?;
    m.reference = reference(dir, corpus, &m)?;
    Ok(m)
}

/// Write a campaign's text, cut to the first `lines` lines in time order,
/// plus the oracle store. `false` when the campaign has fewer lines.
fn write_text(
    dir: &Path,
    out: &CampaignOutput,
    lines: u64,
    m: &mut Manifest,
) -> Result<bool, String> {
    let logs = dir.join(LOGS);
    let _ = std::fs::remove_dir_all(&logs);
    let mut text = GeneratorSource::from_campaign(out);
    let nodes = text.nodes().to_vec();
    files::write_node_logs_source(&logs, &mut text).map_err(|e| e.to_string())?;
    let names: Vec<String> = nodes
        .iter()
        .map(|n| format!("{}.log", n.hostname()))
        .collect();
    let scans = names
        .iter()
        .map(|n| scan_lines(&logs.join(n)))
        .collect::<Result<Vec<_>, _>>()?;
    let total: u64 = scans.iter().map(|s| s.times.len() as u64).sum();
    if total < lines {
        return Ok(false);
    }
    let times: Vec<&[Timestamp]> = scans.iter().map(|s| s.times.as_slice()).collect();
    let mut keep = vec![0usize; names.len()];
    for &n in merge_order(&times)?.iter().take(lines as usize) {
        keep[n as usize] += 1;
    }
    for ((name, scan), &k) in names.iter().zip(&scans).zip(&keep) {
        let path = logs.join(name);
        let len = k.checked_sub(1).map_or(0, |last| scan.ends[last]);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(at(&path))?;
        file.set_len(len).map_err(at(&path))?;
    }
    m.nodes = nodes.len() as u32;
    m.lines = lines;
    let (per_node, stats) = baseline_extract(&logs, &names)?;
    m.xid_lines = stats.xid_lines;
    m.records = per_node.iter().map(|r| r.len() as u64).sum();
    write_store(&dir.join(ORACLE_STORE), &nodes, &per_node).map_err(|e| e.to_string())?;
    Ok(true)
}

/// Write a campaign's first `records` records (in time order) as a store,
/// its repair intervals, and the job table for the scenario's nominal
/// `days`. `false` when the campaign has fewer records.
fn write_records(
    dir: &Path,
    scenario: &Scenario,
    out: &CampaignOutput,
    records: u64,
    days: f64,
    m: &mut Manifest,
) -> Result<bool, String> {
    if (out.records.len() as u64) < records {
        return Ok(false);
    }
    let mut sorted = out.records.clone();
    dr_xid::record::sort_records(&mut sorted);
    sorted.truncate(records as usize);
    let mut per_node: BTreeMap<NodeId, Vec<ErrorRecord>> = BTreeMap::new();
    for r in sorted {
        per_node.entry(r.gpu.node).or_default().push(r);
    }
    let nodes: Vec<NodeId> = per_node.keys().copied().collect();
    let streams: Vec<Vec<ErrorRecord>> = per_node.into_values().collect();
    m.records = records;
    write_store(&dir.join(RECORD_STORE), &nodes, &streams).map_err(|e| e.to_string())?;
    let downtime = dir.join(DOWNTIME_CSV);
    std::fs::write(&downtime, files::downtime_to_csv(&out.downtime)).map_err(at(&downtime))?;
    if let Some(spec) = scenario.jobs {
        // The `gpures campaign` workload recipe, with the scheduler and
        // masking streams derived from the benchmark seed.
        let drains = DrainWindows::from_events(
            out.events.iter().map(|e| (e.gpu.node, e.at)),
            Duration::from_hours(24),
        );
        let load = JobLoadConfig {
            total_jobs: spec.job_count(m.nodes, days),
            duration_days: days,
            ..JobLoadConfig::delta_study(spec.seed.wrapping_add(m.seed))
        };
        let mut schedule = Scheduler::new(load).run(&out.fleet, &drains);
        let mut rng = StdRng::seed_from_u64(spec.mask_seed.wrapping_add(m.seed));
        apply_errors(
            &mut schedule.jobs,
            &out.events,
            &MaskingModel::default(),
            &mut rng,
        );
        m.jobs = schedule.jobs.len() as u64;
        let jobs = dir.join(JOBS_CSV);
        std::fs::write(&jobs, dr_slurm::csv::to_csv(&schedule.jobs)).map_err(at(&jobs))?;
    }
    Ok(true)
}

/// One log file's lines: each line's syslog time (year inferred as the
/// extractor does; a line without a valid header takes its
/// predecessor's time, so the file's own order stands) and the byte
/// offset just past it.
pub struct LineScan {
    pub times: Vec<Timestamp>,
    pub ends: Vec<u64>,
}

pub fn scan_lines(path: &Path) -> Result<LineScan, String> {
    let file = std::fs::File::open(path).map_err(at(path))?;
    let mut reader = BufReader::new(file);
    let mut scanner = SyslogScanner::new();
    let mut scan = LineScan {
        times: Vec::new(),
        ends: Vec::new(),
    };
    let (mut last, mut offset) = (Timestamp::EPOCH, 0u64);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(at(path))?;
        if n == 0 {
            return Ok(scan);
        }
        offset += n as u64;
        if let Some(parsed) = scanner.parse(line.trim_end_matches(['\n', '\r'])) {
            last = last.max(parsed.at);
        }
        scan.times.push(last);
        scan.ends.push(offset);
    }
}

/// The order in which to interleave per-node logs so the lines appear in
/// time order: node index per line, ties to the lower node.
pub fn merge_order(times: &[&[Timestamp]]) -> Result<Vec<u16>, String> {
    let mut cursors = vec![0usize; times.len()];
    let mut heap: BinaryHeap<Reverse<(Timestamp, usize)>> = times
        .iter()
        .enumerate()
        .filter_map(|(n, t)| t.first().map(|&at| Reverse((at, n))))
        .collect();
    let mut order = Vec::with_capacity(times.iter().map(|t| t.len()).sum());
    while let Some(Reverse((_, n))) = heap.pop() {
        order.push(u16::try_from(n).map_err(|_| "too many log files to interleave")?);
        cursors[n] += 1;
        if let Some(&at) = times[n].get(cursors[n]) {
            heap.push(Reverse((at, n)));
        }
    }
    Ok(order)
}

/// Input files under `dir`, relative and sorted (the manifest excluded).
fn list_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![(dir.to_path_buf(), String::new())];
    while let Some((d, prefix)) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(at(&d))? {
            let entry = entry.map_err(at(&d))?;
            let name = entry.file_name().to_string_lossy().to_string();
            let rel = format!("{prefix}{name}");
            if entry.path().is_dir() {
                stack.push((entry.path(), format!("{rel}/")));
            } else if !name.starts_with(MANIFEST) {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The oracle record streams of a text corpus: every node's log read back
/// from disk through the baseline extractor (the pre-optimization Stage
/// I engine), one node per worker.
fn baseline_extract(
    logs: &Path,
    names: &[String],
) -> Result<(Vec<Vec<ErrorRecord>>, ExtractStats), String> {
    let paths: Vec<PathBuf> = names.iter().map(|n| logs.join(n)).collect();
    let per_node = dr_par::par_map(&paths, |path| -> Result<_, String> {
        let file = std::fs::File::open(path).map_err(at(path))?;
        let mut ex = BaselineExtractor::new();
        let mut records = Vec::new();
        for line in BufReader::new(file).lines() {
            records.extend(ex.extract_line(&line.map_err(at(path))?));
        }
        Ok((records, ex.stats()))
    });
    let mut stats = ExtractStats::default();
    let mut out = Vec::with_capacity(per_node.len());
    for r in per_node {
        let (records, s) = r?;
        stats.merge(&s);
        out.push(records);
    }
    Ok((out, stats))
}

impl Analysis {
    /// `--jobs`: the job table, when the corpus's passes join one.
    pub fn load_jobs(self, dir: &Path) -> Result<Option<Vec<dr_slurm::JobRecord>>, String> {
        if !self.jobs {
            return Ok(None);
        }
        let path = dir.join(JOBS_CSV);
        let text = std::fs::read_to_string(&path).map_err(at(&path))?;
        dr_slurm::csv::from_csv(&text).map(Some).map_err(at(&path))
    }

    /// `--downtime`: the repair intervals, when the corpus's passes read
    /// them.
    pub fn load_downtime(
        self,
        dir: &Path,
    ) -> Result<Option<Vec<dr_faults::DowntimeInterval>>, String> {
        if !self.downtime {
            return Ok(None);
        }
        let path = dir.join(DOWNTIME_CSV);
        let text = std::fs::read_to_string(&path).map_err(at(&path))?;
        files::downtime_from_csv(&text).map(Some).map_err(at(&path))
    }
}

/// The reference digest, computed from the files on disk.
fn reference(dir: &Path, corpus: Corpus, m: &Manifest) -> Result<u64, String> {
    let analysis = corpus.analysis();
    let jobs = analysis.load_jobs(dir)?;
    let downtime = analysis.load_downtime(dir)?;
    let store = if corpus.is_text() {
        ORACLE_STORE
    } else {
        RECORD_STORE
    };
    oracle::reference_digest(
        &dir.join(store),
        oracle::study_config(analysis.dt, m.hours, m.nodes),
        jobs.as_deref(),
        downtime.as_deref(),
    )
}
