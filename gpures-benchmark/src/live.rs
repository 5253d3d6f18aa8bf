//! The `watch-live` workload: `gpures watch` under arrival pressure.
//!
//! Open loop. A generator thread replays the `burst-tee` corpus from disk
//! into a fresh directory in syslog-timestamp order (a k-way merge on
//! the header, with per-node year inference) at a fixed rate of lines
//! per second; line `i` is due at `i / rate` seconds. One watcher thread
//! runs `TailSource` + `WatchSession::run_observed` back to back and
//! yields its CPU after an empty poll. It does not sleep: with a 1 ms
//! sleep the lag measured how late the host's timer woke the watcher
//! (1.4 ms, and 1.8 ms beside a competing process) where a yielding
//! watcher read 0.33 ms either way. A line's latency is the end of the
//! poll that ingested it minus its due time, so a stall is charged to
//! every line queued behind it. Throughput comes from catch-up passes:
//! `gpures watch --follow off` over the complete corpus.

use crate::at;
use crate::harness;
use crate::inputs::{self, Manifest};
use crate::metrics::Readings;
use crate::oracle;
use dr_obs::MetricsSink;
use dr_xid::{DataError, NodeId, Timestamp};
use resilience_core::{LogChunk, LogSource, StudyResults, TailSource, WatchConfig, WatchSession};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The arrival rate of the measured rung, in lines per second.
pub const RATE: f64 = 50_000.0;

/// A line the generator wrote more than this behind schedule was late.
/// A rung with more than one late line in a hundred is invalid: its
/// latencies would measure the generator, not the watcher.
const MAX_GEN_LATE_S: f64 = 0.005;

/// Rungs tried for one valid rung before a process settles for the
/// least late one.
const MAX_RUNGS: usize = 6;

/// Shortest generator sleep: lines that fall due during it are written
/// together.
const GEN_TICK: Duration = Duration::from_micros(250);

/// A rung that makes no progress for this long has failed.
const STALL: Duration = Duration::from_secs(20);

/// `watch-live` bound to the prepared `burst-tee` inputs.
pub struct Live<'a> {
    manifest: &'a Manifest,
    logs: PathBuf,
    scratch: PathBuf,
    file_names: Vec<String>,
    /// Node (index into the corpus's files) of every line, in write order.
    order: Vec<u16>,
    /// Per node: the write-order position of each of its lines.
    position: Vec<Vec<u32>>,
    cfg: WatchConfig,
}

/// What one rung observed.
#[derive(Debug, Default)]
struct Rung {
    lags_s: Vec<f64>,
    /// Worst generator lateness (s) and lines written over
    /// [`MAX_GEN_LATE_S`] late.
    gen_late_s: f64,
    gen_late_lines: u64,
    ok: bool,
    // Traced only.
    polls: u64,
    poll_s: Vec<f64>,
    lines_per_poll: Vec<f64>,
    snapshot_s: Vec<f64>,
    pending_max: u64,
    open_max: u64,
    backlog_max: u64,
    read_s: f64,
    finish_s: f64,
    episodes: u64,
    alerts: u64,
    late_dropped: u64,
}

impl<'a> Live<'a> {
    pub fn new(dir: &Path, manifest: &'a Manifest, scratch: &Path) -> Result<Self, String> {
        let logs = dir.join(inputs::LOGS);
        let source = TailSource::open(&logs).map_err(|e| e.to_string())?;
        let file_names: Vec<String> = source
            .nodes()
            .iter()
            .map(|n| format!("{}.log", n.hostname()))
            .collect();
        let scans = file_names
            .iter()
            .map(|n| inputs::scan_lines(&logs.join(n)))
            .collect::<Result<Vec<_>, _>>()?;
        let times: Vec<&[Timestamp]> = scans.iter().map(|s| s.times.as_slice()).collect();
        let order = inputs::merge_order(&times)?;
        let mut position = vec![Vec::new(); file_names.len()];
        for (i, &n) in order.iter().enumerate() {
            position[n as usize].push(i as u32);
        }
        let cfg = WatchConfig {
            study: oracle::study_config(5, manifest.hours, manifest.nodes),
            ..WatchConfig::default()
        };
        Ok(Live {
            manifest,
            logs,
            scratch: scratch.to_path_buf(),
            file_names,
            order,
            position,
            cfg,
        })
    }

    fn check(&self, results: &StudyResults, report: &str) -> bool {
        oracle::digest(results, report) == self.manifest.reference
    }

    /// `gpures watch --follow off`: one poll drains the corpus, then the
    /// session is finished and the report rendered.
    fn catch_up(&self) -> Result<(StudyResults, String, u64), String> {
        let sink = MetricsSink::disabled();
        let mut source = TailSource::open(&self.logs).map_err(|e| e.to_string())?;
        let mut session = WatchSession::new(self.cfg);
        session
            .run_observed(&mut source, &sink)
            .map_err(|e| e.to_string())?;
        session.drain();
        let late = session.stats().late_dropped;
        let results = session.finish_observed(&sink);
        let report = oracle::render(&results);
        Ok((results, report, late))
    }

    fn setup(&self) -> Result<(), String> {
        let source = TailSource::open(&self.logs).map_err(|e| e.to_string())?;
        std::hint::black_box(source.nodes().len());
        std::hint::black_box(WatchSession::new(self.cfg));
        Ok(())
    }

    /// Whether a rung's latencies describe the watcher.
    fn valid(&self, rung: &Rung) -> bool {
        rung.ok && rung.gen_late_lines * 100 <= self.order.len() as u64
    }

    /// The untraced run: rungs at [`RATE`] for half the time (and until
    /// one is valid), then catch-up passes for the other half. The latency
    /// is the median lag of every line of the valid rungs, each rung's
    /// lags taken to the host's nominal speed by the probe run after it.
    /// Peak memory is read after the first rung, so it is the live path's:
    /// a catch-up pass buffers the whole corpus behind the watermark, and
    /// how much that takes hinges on how the seed spread the lines over
    /// the nodes.
    pub fn measure(&self, seconds: f64) -> Result<Readings, String> {
        let mut r = Readings::default();
        let mut valid_lags = Vec::new();
        // The correct rung whose generator ran late least, in case none is
        // valid: on a busy host the generator thread can miss its schedule
        // rung after rung. Its lags include the generator's lateness.
        let mut least_late: Option<Rung> = None;
        let mut live_rss_mb = None;
        let start = Instant::now();
        let mut rungs = 0;
        while (valid_lags.is_empty() && rungs < MAX_RUNGS)
            || start.elapsed().as_secs_f64() < seconds / 2.0
        {
            let mut rung = self.rung(rungs, false)?;
            if live_rss_mb.is_none() {
                live_rss_mb = Some(harness::peak_rss_mb()?);
            }
            // Lags to the host's nominal speed, paired with a probe run
            // right after the rung as passes are.
            let scale = harness::PROBE_NOMINAL_S / harness::probe();
            rung.lags_s.iter_mut().for_each(|lag| *lag *= scale);
            rungs += 1;
            r.attempted += 1;
            if !rung.ok {
                r.failed += 1;
            } else if self.valid(&rung) {
                valid_lags.extend(rung.lags_s);
            } else {
                eprintln!(
                    "watch-live: rung {rungs} invalid: {} lines written over {} ms late",
                    rung.gen_late_lines,
                    MAX_GEN_LATE_S * 1e3
                );
                if least_late
                    .as_ref()
                    .is_none_or(|l| rung.gen_late_lines < l.gen_late_lines)
                {
                    least_late = Some(rung);
                }
            }
        }
        match least_late {
            Some(rung) if valid_lags.is_empty() => r.set_median("latency_ms", &rung.lags_s, 1e3),
            _ => r.set_median("latency_ms", &valid_lags, 1e3),
        }

        let passes = harness::run_passes(
            seconds / 2.0,
            || self.setup(),
            || self.catch_up(),
            |(results, report, late)| *late == 0 && self.check(results, report),
        )?;
        r.add_passes(&passes, self.manifest.pass_input_bytes());
        if let Some(mb) = live_rss_mb {
            r.set("peak_rss_mb", mb);
        }
        Ok(r)
    }

    /// The traced run: rungs with per-poll readings until `seconds` have
    /// elapsed; values come from the last valid rung.
    pub fn measure_traced(&self, seconds: f64) -> Result<Readings, String> {
        let mut r = Readings::default();
        let start = Instant::now();
        let mut rungs = 0;
        let mut best: Option<Rung> = None;
        while rungs == 0 || start.elapsed().as_secs_f64() < seconds {
            let rung = self.rung(rungs, true)?;
            rungs += 1;
            r.attempted += 1;
            if !rung.ok {
                r.failed += 1;
            }
            if self.valid(&rung) || best.is_none() {
                best = Some(rung);
            }
        }
        let Some(g) = best else {
            return Err("watch-live: no rung ran".into());
        };
        r.set("tail.read_s", g.read_s);
        r.set_median("watch.poll_s_p50", &g.poll_s, 1.0);
        let mut poll = g.poll_s.clone();
        poll.sort_by(f64::total_cmp);
        if !poll.is_empty() {
            r.set("watch.poll_s_p99", harness::percentile(&poll, 99.0));
        }
        r.set("watch.polls", g.polls as f64);
        r.set_median("watch.lines_per_poll_p50", &g.lines_per_poll, 1.0);
        r.set("watch.pending_max", g.pending_max as f64);
        r.set("watch.open_episodes_max", g.open_max as f64);
        r.set("watch.backlog_lines_max", g.backlog_max as f64);
        r.set_median("watch.snapshot_us", &g.snapshot_s, 1e6);
        r.set("watch.finish_s", g.finish_s);
        r.set("watch.episodes", g.episodes as f64);
        r.set("watch.alerts", g.alerts as f64);
        r.set("watch.late_dropped", g.late_dropped as f64);
        r.set("gen.late_ms_max", g.gen_late_s * 1e3);
        let mut lags = g.lags_s;
        lags.sort_by(f64::total_cmp);
        if !lags.is_empty() {
            r.set("watch.lag_p90_ms", harness::percentile(&lags, 90.0) * 1e3);
            r.set("watch.lag_p99_ms", harness::percentile(&lags, 99.0) * 1e3);
        }
        Ok(r)
    }

    /// One rung: replay the corpus at [`RATE`] into a fresh directory while
    /// the watcher follows it, then finish the session and check it.
    fn rung(&self, k: usize, traced: bool) -> Result<Rung, String> {
        let dir = self.scratch.join(format!("rung-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(at(&dir))?;
        for name in &self.file_names {
            let path = dir.join(name);
            File::create(&path).map_err(at(&path))?;
        }
        let tail = TailSource::open(&dir).map_err(|e| e.to_string())?;
        let mut source = Counted::new(tail, traced);
        let mut session = WatchSession::new(self.cfg);
        let sink = MetricsSink::disabled();
        let total = self.order.len() as u64;
        let written = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let mut rung = Rung::default();
        // Per poll: its end (s after t0) and the per-node lines ingested.
        let mut ends: Vec<(f64, Vec<u64>)> = Vec::new();

        let t0 = Instant::now();
        let (watched, generated) = std::thread::scope(|scope| {
            let gen = scope.spawn(|| self.generate(&dir, t0, &written, &stop));
            let watched = (|| -> Result<(), String> {
                let mut last_progress = Instant::now();
                loop {
                    let p0 = Instant::now();
                    let delta = session
                        .run_observed(&mut source, &sink)
                        .map_err(|e| e.to_string())?;
                    let end = t0.elapsed().as_secs_f64();
                    let ingested: u64 = source.per_node.iter().sum();
                    if delta.lines > 0 {
                        rung.polls += 1;
                        ends.push((end, source.per_node.clone()));
                        last_progress = Instant::now();
                        if traced {
                            rung.poll_s.push(end - (p0 - t0).as_secs_f64());
                            rung.lines_per_poll.push(delta.lines as f64);
                            let s0 = Instant::now();
                            let snap = session.snapshot();
                            rung.snapshot_s.push(s0.elapsed().as_secs_f64());
                            rung.pending_max = rung.pending_max.max(snap.pending);
                            rung.open_max = rung.open_max.max(snap.open_episodes);
                            let backlog = written.load(Ordering::SeqCst).saturating_sub(ingested);
                            rung.backlog_max = rung.backlog_max.max(backlog);
                        }
                    }
                    if ingested >= total {
                        return Ok(());
                    }
                    if last_progress.elapsed() > STALL {
                        return Err(format!(
                            "watch-live: no progress for {STALL:?} at {ingested}/{total} lines"
                        ));
                    }
                    if delta.lines == 0 {
                        std::thread::yield_now();
                    }
                }
            })();
            stop.store(true, Ordering::SeqCst);
            let generated = gen
                .join()
                .map_err(|_| "generator thread panicked".to_string());
            (watched, generated)
        });
        (rung.gen_late_s, rung.gen_late_lines) = generated??;
        watched?;
        rung.read_s = source.read_s;

        let mut prev = vec![0u64; self.file_names.len()];
        for (end, counts) in &ends {
            for (node, (&from, &to)) in prev.iter().zip(counts).enumerate() {
                for k in from..to {
                    let due = self.position[node][k as usize] as f64 / RATE;
                    rung.lags_s.push(end - due);
                }
            }
            prev.clone_from(counts);
        }

        let t = Instant::now();
        session.drain();
        let stats = session.stats();
        rung.alerts = session.alerts().len() as u64;
        let results = session.finish_observed(&sink);
        let report = oracle::render(&results);
        rung.finish_s = t.elapsed().as_secs_f64();
        rung.episodes = results.coalesced.len() as u64;
        rung.late_dropped = stats.late_dropped;
        let ingested: u64 = source.per_node.iter().sum();
        rung.ok = stats.late_dropped == 0
            && ingested == total
            && stats.lines == total
            && self.check(&results, &report);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(rung)
    }

    /// The generator: write line `i` of the merged corpus no earlier than
    /// `i / RATE` s after `t0`, in batches at least [`GEN_TICK`] apart
    /// while on schedule and back to back while behind.
    /// Returns how late, at worst, a line reached the disk, and how many
    /// lines did so more than [`MAX_GEN_LATE_S`] late.
    fn generate(
        &self,
        dir: &Path,
        t0: Instant,
        written: &AtomicU64,
        stop: &AtomicBool,
    ) -> Result<(f64, u64), String> {
        let mut readers = Vec::with_capacity(self.file_names.len());
        let mut writers = Vec::with_capacity(self.file_names.len());
        for name in &self.file_names {
            let (src, dst) = (self.logs.join(name), dir.join(name));
            let reader = BufReader::new(File::open(&src).map_err(at(&src))?);
            readers.push((src, reader));
            let f = std::fs::OpenOptions::new()
                .append(true)
                .open(&dst)
                .map_err(at(&dst))?;
            writers.push((dst, BufWriter::new(f), false));
        }
        let total = self.order.len();
        let mut line = String::new();
        let mut i = 0usize;
        let (mut late_max, mut late_lines) = (0.0f64, 0u64);
        while i < total && !stop.load(Ordering::SeqCst) {
            let now = t0.elapsed().as_secs_f64();
            let due = ((now * RATE).floor() as usize + 1).min(total);
            if due > i {
                for &node in &self.order[i..due] {
                    let n = node as usize;
                    line.clear();
                    let (src, reader) = &mut readers[n];
                    reader.read_line(&mut line).map_err(at(src))?;
                    let (path, w, touched) = &mut writers[n];
                    w.write_all(line.as_bytes()).map_err(at(path))?;
                    *touched = true;
                }
                for (path, w, touched) in &mut writers {
                    if *touched {
                        w.flush().map_err(at(path))?;
                        *touched = false;
                    }
                }
                // Line j of the batch was due at j / RATE and reached the
                // disk now: lines due before `now - MAX_GEN_LATE_S` are late.
                let now = t0.elapsed().as_secs_f64();
                late_max = late_max.max(now - i as f64 / RATE);
                let overdue = ((now - MAX_GEN_LATE_S) * RATE).ceil().max(0.0) as usize;
                late_lines += (overdue.clamp(i, due) - i) as u64;
                i = due;
                written.store(i as u64, Ordering::SeqCst);
            }
            let wait = i as f64 / RATE - t0.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait).max(GEN_TICK));
            }
        }
        Ok((late_max, late_lines))
    }
}

/// A [`TailSource`] that counts the lines it hands out per node — how the
/// benchmark learns which poll ingested which line — and, when traced,
/// the time spent reading.
struct Counted {
    inner: TailSource,
    per_node: Vec<u64>,
    timed: bool,
    read_s: f64,
}

impl Counted {
    fn new(inner: TailSource, timed: bool) -> Self {
        let n = inner.nodes().len();
        Counted {
            inner,
            per_node: vec![0; n],
            timed,
            read_s: 0.0,
        }
    }
}

impl LogSource<'static> for Counted {
    fn nodes(&self) -> &[NodeId] {
        self.inner.nodes()
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let t = self.timed.then(Instant::now);
        let chunk = self.inner.next_chunk(target_bytes)?;
        if let Some(t) = t {
            self.read_s += t.elapsed().as_secs_f64();
        }
        if let Some(c) = &chunk {
            if let Some(count) = self.per_node.get_mut(c.node) {
                *count += c.lines.len() as u64;
            }
        }
        Ok(chunk)
    }
}
