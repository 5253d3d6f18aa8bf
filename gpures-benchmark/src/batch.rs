//! The four batch workloads. An untimed-path pass makes exactly the calls
//! `gpures analyze` makes for the workload's flags; a traced pass makes
//! the same calls one layer at a time through the layers' public
//! functions, timing each from here, so the program itself carries no
//! extra instrumentation.

use crate::harness::{self, MIN_PASSES};
use crate::inputs::{self, Analysis, Corpus, Manifest};
use crate::metrics::Readings;
use crate::oracle;
use dr_obs::json::Json;
use dr_obs::MetricsSink;
use dr_xid::ErrorRecord;
use resilience_core::{
    extract_source_prefetch_observed, merge_and_coalesce_observed, pull_wave, write_store,
    DirSource, LogSource, PipelineBuilder, RecordSource, RecordStore, StudyConfig, StudyResults,
    WaveConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One batch workload bound to its prepared inputs.
pub struct Batch<'a> {
    corpus: Corpus,
    dir: &'a Path,
    manifest: &'a Manifest,
    analysis: Analysis,
    study: StudyConfig,
    /// `--records` target of `burst-tee` (a scratch file).
    tee: Option<PathBuf>,
}

/// A pass's output: the results plus the rendered report.
pub type Output = (StudyResults, String);

impl<'a> Batch<'a> {
    pub fn new(corpus: Corpus, dir: &'a Path, manifest: &'a Manifest, scratch: &Path) -> Self {
        let analysis = corpus.analysis();
        Batch {
            corpus,
            dir,
            manifest,
            analysis,
            study: oracle::study_config(analysis.dt, manifest.hours, manifest.nodes),
            tee: (corpus == Corpus::BurstTee).then(|| scratch.join("tee.grcs")),
        }
    }

    fn logs(&self) -> PathBuf {
        self.dir.join(inputs::LOGS)
    }

    fn store(&self) -> PathBuf {
        self.dir.join(inputs::RECORD_STORE)
    }

    /// Whether a pass reproduced the reference result.
    pub fn check(&self, out: &Output) -> bool {
        oracle::digest(&out.0, &out.1) == self.manifest.reference
    }

    /// `gpures analyze` with this workload's flags, from reading the
    /// inputs to the rendered report.
    pub fn pass(&self) -> Result<Output, String> {
        self.analyze(MetricsSink::disabled())
    }

    /// The pass with `sink` attached, as `gpures analyze --metrics` runs.
    fn analyze(&self, sink: MetricsSink) -> Result<Output, String> {
        let s = |e: dr_xid::DataError| e.to_string();
        let results = if self.corpus.is_text() {
            let mut source = DirSource::open(&self.logs()).map_err(s)?;
            let mut builder = PipelineBuilder::new(self.study)
                .prefetch(true)
                .metrics(sink);
            if let Some(tee) = &self.tee {
                builder = builder.record_store(tee.clone());
            }
            builder.run_source(&mut source).map_err(s)?.0
        } else {
            let jobs = self.analysis.load_jobs(self.dir)?;
            let downtime = self.analysis.load_downtime(self.dir)?;
            let path = self.store();
            let store = RecordStore::open(&path).map_err(s)?;
            let mut reader = store.reader(&path).map_err(s)?;
            PipelineBuilder::new(self.study)
                .maybe_jobs(jobs.as_deref())
                .maybe_downtime(downtime.as_deref())
                .metrics(sink)
                .run_record_source(&mut reader)
                .map_err(s)?
        };
        let report = oracle::render(&results);
        Ok((results, report))
    }

    /// The one-time open/construct calls of a pass, for `setup_s`.
    pub fn setup(&self) -> Result<(), String> {
        if self.corpus.is_text() {
            let source = DirSource::open(&self.logs()).map_err(|e| e.to_string())?;
            std::hint::black_box(source.nodes().len());
            std::hint::black_box(dr_logscan::XidExtractor::new());
        } else {
            let store = RecordStore::open(&self.store()).map_err(|e| e.to_string())?;
            std::hint::black_box(store.record_count());
        }
        Ok(())
    }

    /// The pass through a recording sink: what the program books per
    /// stage, with the pass's wall time.
    fn metered_pass(&self) -> Result<(Output, f64, Json), String> {
        let sink = MetricsSink::recording();
        let t0 = Instant::now();
        let out = self.analyze(sink.clone())?;
        let wall = t0.elapsed().as_secs_f64();
        let doc = sink
            .export_json()
            .ok_or("recording sink exported nothing")?;
        Ok((out, wall, doc))
    }

    /// One traced pass: each layer called on its own and timed from here.
    /// Calls made only to split a layer's time (a bare source drain, the
    /// fold without jobs) run outside the pass's wall clock.
    fn traced_pass(&self) -> Result<(Output, Layers), String> {
        let s = |e: dr_xid::DataError| e.to_string();
        let mut l = Layers::default();
        if self.corpus.is_text() {
            // Source alone: drain the directory in the extractor's waves.
            let t = Instant::now();
            let mut source = DirSource::open(&self.logs()).map_err(s)?;
            let cfg = WaveConfig::for_source(&source, None);
            while let Some(wave) =
                pull_wave(&mut source, cfg.target_bytes, cfg.wave_budget).map_err(s)?
            {
                l.source_bytes += wave.bytes;
                l.source_peak = l.source_peak.max(wave.bytes);
            }
            l.source_read_s = t.elapsed().as_secs_f64();
        }

        let pass_t0 = Instant::now();
        let mut aux_s = 0.0;
        let mut jobs = None;
        let mut downtime = None;
        let per_node: Vec<Vec<ErrorRecord>> = if self.corpus.is_text() {
            let t = Instant::now();
            let mut source = DirSource::open(&self.logs()).map_err(s)?;
            let nodes = source.nodes().to_vec();
            let (per_node, stats) =
                extract_source_prefetch_observed(&mut source, None, &MetricsSink::disabled())
                    .map_err(s)?;
            l.extract_s = t.elapsed().as_secs_f64();
            l.lines = stats.lines;
            l.xid_lines = stats.xid_lines;
            l.prefilter_hits = stats.prefilter_hits;
            l.extracted = per_node.iter().map(|r| r.len() as u64).sum();
            if let Some(tee) = &self.tee {
                let t = Instant::now();
                let summary = write_store(tee, &nodes, &per_node).map_err(s)?;
                l.store_write_s = t.elapsed().as_secs_f64();
                l.store_bytes = summary.bytes;
            }
            per_node
        } else {
            if self.analysis.jobs {
                let t = Instant::now();
                jobs = self.analysis.load_jobs(self.dir)?;
                l.jobs_load_s = t.elapsed().as_secs_f64();
                l.jobs = jobs.as_ref().map_or(0, |j| j.len() as u64);
            }
            if self.analysis.downtime {
                let t = Instant::now();
                downtime = self.analysis.load_downtime(self.dir)?;
                l.downtime_load_s = t.elapsed().as_secs_f64();
            }

            let path = self.store();
            let t = Instant::now();
            let store = RecordStore::open(&path).map_err(s)?;
            l.store_open_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut reader = store.reader(&path).map_err(s)?;
            let mut per_node: Vec<Vec<ErrorRecord>> = vec![Vec::new(); store.nodes().len()];
            while let Some(batch) = reader.next_batch().map_err(s)? {
                l.store_bytes += batch.bytes;
                let slot = per_node
                    .get_mut(batch.node)
                    .ok_or("store batch names a node beyond its node table")?;
                slot.extend(batch.records);
            }
            l.store_read_s = t.elapsed().as_secs_f64();
            l.store_records = store.record_count();
            per_node
        };

        l.records_in = per_node.iter().map(|r| r.len() as u64).sum();
        let t = Instant::now();
        let coalesced =
            merge_and_coalesce_observed(per_node, self.study.coalesce, &MetricsSink::disabled());
        l.merge_coalesce_s = t.elapsed().as_secs_f64();
        l.episodes = coalesced.len() as u64;

        let builder = PipelineBuilder::new(self.study)
            .maybe_jobs(jobs.as_deref())
            .maybe_downtime(downtime.as_deref());
        if jobs.is_some() {
            // The fold alone, to split the job join off the analysis time.
            let t = Instant::now();
            let copy = coalesced.clone();
            let t_fold = Instant::now();
            let without = builder.clone().maybe_jobs(None).run_coalesced(copy);
            l.fold_s = t_fold.elapsed().as_secs_f64();
            drop(without);
            aux_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let results = builder.run_coalesced(coalesced);
        let analysis_s = t.elapsed().as_secs_f64();
        if jobs.is_some() {
            l.join_s = (analysis_s - l.fold_s).max(0.0);
        } else {
            l.fold_s = analysis_s;
        }
        let t = Instant::now();
        let report = oracle::render(&results);
        l.render_s = t.elapsed().as_secs_f64();
        l.pass_s = pass_t0.elapsed().as_secs_f64() - aux_s;
        Ok(((results, report), l))
    }

    /// The untraced run: the harness loop over passes, with the set-up
    /// calls timed after each.
    pub fn measure(&self, seconds: f64) -> Result<Readings, String> {
        let mut r = Readings::default();
        let passes =
            harness::run_passes(seconds, || self.setup(), || self.pass(), |o| self.check(o))?;
        r.add_passes(&passes, self.manifest.pass_input_bytes());
        r.set_median("latency_ms", &passes.wall, 1e3);
        Ok(r)
    }

    /// The traced run: cycles of an untraced pass, a traced pass, a
    /// metered pass and a one-worker pass until `seconds` have elapsed
    /// (at least [`MIN_PASSES`] cycles). Per-layer values are medians
    /// over the cycles.
    pub fn measure_traced(&self, seconds: f64) -> Result<Readings, String> {
        let mut r = Readings::default();
        let mut untraced = Vec::new();
        let mut one_worker = Vec::new();
        let mut layers: Vec<Layers> = Vec::new();
        let mut metered: Vec<(f64, Json)> = Vec::new();
        let count = |r: &mut Readings, ok: bool| {
            r.attempted += 1;
            if !ok {
                r.failed += 1;
            }
        };
        // Warm-up.
        let ok = self.pass().map(|o| self.check(&o)).unwrap_or(false);
        count(&mut r, ok);
        let start = Instant::now();
        while layers.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let (out, wall, _) = harness::time_once(|| self.pass())?;
            count(&mut r, self.check(&out));
            untraced.push(wall);

            let (out, l) = self.traced_pass()?;
            count(&mut r, self.check(&out));
            layers.push(l);

            let (out, wall, doc) = self.metered_pass()?;
            count(&mut r, self.check(&out));
            metered.push((wall, doc));

            dr_par::set_worker_override(Some(1));
            let one = harness::time_once(|| self.pass());
            dr_par::set_worker_override(None);
            let (out, wall, _) = one?;
            count(&mut r, self.check(&out));
            one_worker.push(wall);
        }
        Layers::report(&layers, &mut r);
        r.set_median("trace.untraced_pass_s", &untraced, 1.0);
        let untraced_s = r.get("trace.untraced_pass_s");
        if untraced_s > 0.0 {
            r.set(
                "trace.overhead_pct",
                100.0 * (r.get("trace.pass_s") / untraced_s - 1.0),
            );
        }
        r.set_median("par.pass_s_1w", &one_worker, 1.0);
        if untraced_s > 0.0 {
            r.set("par.speedup", r.get("par.pass_s_1w") / untraced_s);
        }
        obs_gaps(&metered, &mut r, self.corpus.is_text());
        Ok(r)
    }
}

/// Per-layer times and counts of one traced pass.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    source_read_s: f64,
    source_bytes: u64,
    source_peak: u64,
    extract_s: f64,
    lines: u64,
    xid_lines: u64,
    prefilter_hits: u64,
    extracted: u64,
    store_write_s: f64,
    store_bytes: u64,
    store_open_s: f64,
    store_read_s: f64,
    store_records: u64,
    records_in: u64,
    merge_coalesce_s: f64,
    episodes: u64,
    fold_s: f64,
    jobs_load_s: f64,
    jobs: u64,
    join_s: f64,
    downtime_load_s: f64,
    render_s: f64,
    pass_s: f64,
}

impl Layers {
    /// Sum of the layer times that make up the pass.
    fn covered_s(&self) -> f64 {
        self.jobs_load_s
            + self.downtime_load_s
            + self.store_open_s
            + self.store_read_s
            + self.extract_s
            + self.store_write_s
            + self.merge_coalesce_s
            + self.fold_s
            + self.join_s
            + self.render_s
    }

    fn report(all: &[Layers], r: &mut Readings) {
        let Some(last) = all.last() else {
            return;
        };
        // A layer the workload never calls keeps no timing at all.
        let mut timing = |name: &str, f: fn(&Layers) -> f64| {
            let samples: Vec<f64> = all.iter().map(f).collect();
            if samples.iter().any(|&v| v > 0.0) {
                r.set_median(name, &samples, 1.0);
            }
        };
        timing("source.read_s", |l| l.source_read_s);
        timing("shard.extract_s", |l| l.extract_s);
        timing("logscan.self_s", |l| {
            if l.extract_s > 0.0 {
                l.extract_s - l.source_read_s
            } else {
                0.0
            }
        });
        timing("store.write_s", |l| l.store_write_s);
        timing("store.open_s", |l| l.store_open_s);
        timing("store.read_s", |l| l.store_read_s);
        timing("shard.merge_coalesce_s", |l| l.merge_coalesce_s);
        timing("engine.fold_s", |l| l.fold_s);
        timing("slurm.jobs_load_s", |l| l.jobs_load_s);
        timing("job_impact.join_s", |l| l.join_s);
        timing("report.downtime_load_s", |l| l.downtime_load_s);
        timing("report.render_s", |l| l.render_s);
        timing("trace.pass_s", |l| l.pass_s);
        timing("trace.coverage", |l| l.covered_s() / l.pass_s);
        r.set("source.bytes", last.source_bytes as f64);
        r.set("source.peak_resident_bytes", last.source_peak as f64);
        r.set("logscan.lines", last.lines as f64);
        r.set("logscan.xid_lines", last.xid_lines as f64);
        r.set("logscan.prefilter_hits", last.prefilter_hits as f64);
        r.set("logscan.records", last.extracted as f64);
        if last.prefilter_hits > 0 {
            r.set(
                "logscan.prefilter_precision",
                last.xid_lines as f64 / last.prefilter_hits as f64,
            );
        }
        r.set("store.bytes", last.store_bytes as f64);
        if last.store_bytes > 0 && last.source_bytes > 0 {
            r.set(
                "store.compression",
                last.source_bytes as f64 / last.store_bytes as f64,
            );
        }
        r.set("store.records", last.store_records as f64);
        r.set("coalesce.records_in", last.records_in as f64);
        r.set("coalesce.episodes", last.episodes as f64);
        if last.episodes > 0 {
            r.set(
                "coalesce.records_per_episode",
                last.records_in as f64 / last.episodes as f64,
            );
        }
        r.set("engine.episodes", last.episodes as f64);
        r.set("slurm.jobs", last.jobs as f64);
    }
}

/// Wall time a `gpures-metrics/v1` export books under one stage.
fn stage_wall(doc: &Json, stage: &str) -> f64 {
    doc.get("stages")
        .and_then(Json::as_arr)
        .and_then(|stages| {
            stages
                .iter()
                .find(|s| s.get("stage").and_then(Json::as_str) == Some(stage))
        })
        .and_then(|s| s.get("wall_s"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Compare what the program's own `--metrics` export books per stage
/// with the outside layer timers: the signed gap as a percentage of the
/// outside time, plus the share of the pass booked under no stage.
fn obs_gaps(metered: &[(f64, Json)], r: &mut Readings, text: bool) {
    let gap = |booked: &[f64], outside: f64| {
        let booked = crate::harness::Summary::of(booked).map_or(0.0, |s| s.median);
        if outside > 0.0 {
            100.0 * (booked - outside) / outside
        } else {
            0.0
        }
    };
    let walls = |stages: &[&str]| -> Vec<f64> {
        metered
            .iter()
            .map(|(_, doc)| stages.iter().map(|s| stage_wall(doc, s)).sum())
            .collect()
    };
    let read = if text {
        r.get("source.read_s")
    } else {
        r.get("store.read_s")
    };
    r.set("obs.gap.shard_pct", gap(&walls(&["shard"]), read));
    r.set(
        "obs.gap.extract_pct",
        gap(&walls(&["extract"]), r.get("logscan.self_s")),
    );
    r.set(
        "obs.gap.coalesce_pct",
        gap(&walls(&["coalesce"]), r.get("shard.merge_coalesce_s")),
    );
    r.set(
        "obs.gap.analysis_pct",
        gap(
            &walls(&["stats", "propagation", "job_impact"]),
            r.get("engine.fold_s") + r.get("job_impact.join_s"),
        ),
    );
    let all = [
        "shard",
        "extract",
        "coalesce",
        "stats",
        "propagation",
        "job_impact",
    ];
    let unbooked: Vec<f64> = metered
        .iter()
        .map(|(wall, doc)| {
            let booked: f64 = all.iter().map(|s| stage_wall(doc, s)).sum();
            100.0 * (1.0 - booked / wall)
        })
        .collect();
    r.set_median("obs.unbooked_pct", &unbooked, 1.0);
}
