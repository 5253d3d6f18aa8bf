//! `gpures` — the command-line front end.
//!
//! Run `gpures --help` for the generated usage and `gpures CMD --help`
//! for one subcommand's flags; every subcommand's flag surface is
//! declared as a [`cli::FlagSet`] table and the usage text is generated
//! from the same tables the parser reads.
//!
//! `campaign` materializes a synthetic study on disk: per-node syslog
//! files, the job accounting table, and the repair intervals. The syslog
//! text is *streamed* to disk straight from the campaign's generator —
//! the corpus is never resident. `analyze` runs the full pipeline over
//! *any* directory of per-node syslog files — synthetic or real — which
//! is the adoption path for this library: point it at your cluster's
//! logs. Ingestion streams through a `DirSource` in bounded chunk waves
//! (`--chunk-bytes` pins the chunk size), so peak memory is independent
//! of corpus size. `sweep` runs a battery of declarative `.scn`
//! scenarios (see `scenarios/` and `DESIGN.md`) through the campaign →
//! analysis pipeline in parallel and writes one deterministic
//! cross-scenario comparison artifact. `--metrics` attaches the
//! write-only observability sink and exports per-stage spans, counters,
//! gauges, and throughput histograms as `gpures-metrics/v1` JSON
//! (results are bit-identical with or without it).

use gpu_resilience::cli::{self, Flag, FlagSet, CHUNK_BYTES, DT, HOURS, METRICS, NODES, RECORDS, WORKERS};
use gpu_resilience::core::{
    extract_to_store, CoalesceConfig, DirSource, GeneratorSource, LogSource, PipelineBuilder,
    Alert, RecordStore, StudyConfig, StudyResults, TailSource, WatchConfig, WatchSession,
};
use gpu_resilience::faults::{all_scenarios, Campaign, CampaignConfig};
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::report::{self, files, render_summary};
use gpu_resilience::slurm::{
    apply_errors, csv as jobs_csv, DrainWindows, JobLoadConfig, MaskingModel, Scheduler,
};
use gpu_resilience::xid::{DataError, Duration};
use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CAMPAIGN: FlagSet = FlagSet {
    cmd: "campaign",
    summary: "materialize a synthetic study on disk",
    flags: &[
        Flag::required("out", "DIR", "output directory (logs/, jobs.csv, downtime.csv)"),
        Flag::optional("shape", "NAME", "fleet preset: tiny|ampere|h100 (default tiny)"),
        Flag::optional("days", "N", "campaign duration in days (default: the preset's)"),
        Flag::optional("seed", "S", "campaign seed (default 42)"),
        Flag::optional("text-nodes", "N", "how many nodes get full syslog text"),
        RECORDS,
        METRICS,
    ],
    positional: None,
    positional_required: false,
};

const ANALYZE: FlagSet = FlagSet {
    cmd: "analyze",
    summary: "full pipeline over per-node syslog files or a record store",
    flags: &[
        Flag::optional("logs", "DIR", "directory of per-node .log files (streamed)"),
        Flag::optional("from-records", "FILE", "replay a previous extraction (no text re-parse)"),
        Flag::optional("jobs", "FILE", "Slurm accounting CSV (enables Tables 2/3)"),
        Flag::optional("downtime", "FILE", "repair intervals CSV (enables MTTR/availability)"),
        NODES,
        HOURS,
        DT,
        CHUNK_BYTES,
        WORKERS,
        Flag::optional("prefetch", "on|off", "I/O-overlapped wave prefetch (default on)"),
        RECORDS,
        Flag::optional("dot", "DIR", "write Figure 5/6/7 propagation graphs as DOT"),
        METRICS,
    ],
    positional: None,
    positional_required: false,
};

const SWEEP: FlagSet = FlagSet {
    cmd: "sweep",
    summary: "run a .scn scenario battery, write one deterministic artifact",
    flags: &[
        Flag::required("out", "DIR", "directory for the sweep.json artifact"),
        WORKERS,
        Flag::optional("records", "DIR", "tee each run's ground-truth records into DIR"),
        Flag::optional("metrics", "DIR", "export each run's pipeline metrics into DIR"),
    ],
    positional: Some("BATTERY..."),
    positional_required: true,
};

const INCIDENTS: FlagSet = FlagSet {
    cmd: "incidents",
    summary: "replay the paper's scripted incident timelines",
    flags: &[],
    positional: None,
    positional_required: false,
};

const PROJECT: FlagSet = FlagSet {
    cmd: "project",
    summary: "availability projection for large jobs",
    flags: &[
        Flag::optional("gpus", "N", "job size in GPUs"),
        Flag::optional("recovery-min", "M", "recovery time per failure (default 40)"),
        Flag::optional("runs", "R", "simulation runs to average (default 40)"),
        Flag::optional("seed", "S", "simulation seed (default 1)"),
    ],
    positional: None,
    positional_required: false,
};

const WATCH: FlagSet = FlagSet {
    cmd: "watch",
    summary: "live-tail per-node syslogs: rolling-window analytics + alerts",
    flags: &[
        Flag::required("logs", "DIR", "directory of per-node .log files to follow"),
        NODES,
        HOURS,
        DT,
        Flag::optional("follow", "on|off", "keep polling for growth (off: drain once, analyze)"),
        Flag::optional("checkpoint", "FILE", "tail position file (resumes if present, saved each poll)"),
        Flag::optional("lateness-secs", "S", "event-time watermark for out-of-order lines (default 120)"),
        Flag::optional("window-hours", "H", "rolling window for live metrics and alerts (default 24)"),
        Flag::optional("offender-threshold", "K", "windowed episodes marking an emerging offender (default 5)"),
        Flag::optional("storm-threshold", "K", "windowed XID-95 episodes marking storm onset (default 3)"),
        Flag::optional("snapshots", "DIR", "write a gpures-metrics/v1 snapshot here every poll"),
        Flag::optional("alerts", "FILE", "append alerts here as they fire"),
        Flag::optional("interval-secs", "S", "sleep between polls while following (default 2)"),
        Flag::optional("max-polls", "N", "stop following after N polls (default: unbounded)"),
        CHUNK_BYTES,
        METRICS,
    ],
    positional: None,
    positional_required: false,
};

/// A subcommand's entry point, called with its parsed flags.
type Handler = fn(&cli::Opts) -> Result<(), String>;

/// Every subcommand: its flag table and its handler. The usage text and
/// the dispatch in `main` both read this one list.
const ALL_SETS: [(&FlagSet, Handler); 6] = [
    (&CAMPAIGN, cmd_campaign),
    (&ANALYZE, cmd_analyze),
    (&SWEEP, cmd_sweep),
    (&INCIDENTS, cmd_incidents),
    (&PROJECT, cmd_project),
    (&WATCH, cmd_watch),
];

fn usage() -> String {
    let mut s = String::from("usage:\n");
    for (set, _) in ALL_SETS {
        s.push_str("  ");
        s.push_str(&set.usage_line());
        s.push('\n');
    }
    s.push_str(
        "\nrun `gpures CMD --help` for a subcommand's per-flag help;\n\
         sweep BATTERY entries are .scn files, directories of them, or bundled names\n\
         (ampere_study, h100_study, tiny, gh200_heavy, mixed_generation, delta_10x)",
    );
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(set, run)) = ALL_SETS.iter().find(|(s, _)| s.cmd == cmd.as_str()) else {
        eprintln!("error: unknown command {cmd:?}\n{}", usage());
        return ExitCode::FAILURE;
    };
    if set.asks_for_help(rest) {
        println!("{}", set.usage());
        return ExitCode::SUCCESS;
    }
    let opts = match set.parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", set.usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Adapter from the typed option errors to the CLI's `String` error
/// plumbing (orphan rules forbid `From<DataError> for String`).
trait OrString<T> {
    fn s(self) -> Result<T, String>;
}

impl<T> OrString<T> for Result<T, DataError> {
    fn s(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

/// Wrap a filesystem error with the offending path, via the shared
/// [`DataError`] currency (so CLI messages read `path: reason` like
/// every other ingest error).
fn io_err(path: &Path, e: std::io::Error) -> String {
    DataError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
    .to_string()
}

/// Read a small text artifact (CSV tables, .scn files), error carrying
/// the path (and, for bytes that are not UTF-8, the offset of the
/// first bad byte, as log sources report it).
fn read_file(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    String::from_utf8(bytes).map_err(|e| {
        DataError::Io {
            path: path.display().to_string(),
            message: format!(
                "invalid UTF-8 at byte offset {}",
                e.utf8_error().valid_up_to()
            ),
        }
        .to_string()
    })
}

/// Write a text artifact, error carrying the path.
fn write_file(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| io_err(path, e))
}

fn cmd_campaign(opts: &cli::Opts) -> Result<(), String> {
    let out_dir = opts.required_path("out").s()?;
    let seed: u64 = opts.num("seed", 42).s()?;
    let shape = opts.str("shape").unwrap_or("tiny");
    let mut cfg = match shape {
        "tiny" => CampaignConfig::tiny(seed),
        "ampere" => CampaignConfig::ampere_study(seed),
        "h100" => CampaignConfig::h100_study(seed),
        other => return Err(format!("unknown --shape {other:?}")),
    };
    cfg.duration_days = opts
        .positive("days", "must be a positive number of days")
        .s()?
        .unwrap_or(cfg.duration_days);
    cfg.text.nodes = opts.num("text-nodes", cfg.text.nodes.max(4)).s()?;
    // The CLI streams text straight to disk; never materialize it.
    cfg.text.defer = true;

    let metrics_path = opts.path("metrics");
    let sink = if metrics_path.is_some() {
        MetricsSink::recording()
    } else {
        MetricsSink::disabled()
    };

    eprintln!(
        "running {shape} campaign: {} nodes, {:.0} days, text for {} nodes ...",
        cfg.shape.node_count(),
        cfg.duration_days,
        cfg.text.nodes
    );
    let out = Campaign::run_observed(cfg, &sink);

    // Workload + impact, so the accounting table reflects the errors.
    let drains = DrainWindows::from_events(
        out.events.iter().map(|e| (e.gpu.node, e.at)),
        Duration::from_hours(24),
    );
    let jobs_per_node_day = 25.0;
    let load = JobLoadConfig {
        total_jobs: (out.fleet.node_count() as f64
            * out.duration.as_hours_f64() / 24.0
            * jobs_per_node_day) as u64,
        duration_days: out.duration.as_hours_f64() / 24.0,
        ..JobLoadConfig::delta_study(seed ^ 0x10b5)
    };
    let mut schedule = Scheduler::new(load).run_observed(&out.fleet, &drains, &sink);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1133);
    apply_errors(&mut schedule.jobs, &out.events, &MaskingModel::default(), &mut rng);

    let log_dir = out_dir.join("logs");
    let written = {
        let mut text = GeneratorSource::from_campaign(&out);
        files::write_node_logs_source(&log_dir, &mut text).map_err(|e| e.to_string())?
    };
    write_file(&out_dir.join("jobs.csv"), &jobs_csv::to_csv(&schedule.jobs))?;
    write_file(
        &out_dir.join("downtime.csv"),
        &files::downtime_to_csv(&out.downtime),
    )?;

    println!(
        "wrote {} node logs ({} lines, {} bytes, streamed), {} jobs, {} downtime intervals to {}",
        written.files,
        written.lines,
        written.bytes,
        schedule.jobs.len(),
        out.downtime.len(),
        out_dir.display()
    );
    // Tee the corpus into a columnar record store: a real extract pass
    // over a fresh generator stream, so the store holds exactly what
    // Stage I produces (not the campaign's ground-truth records).
    if let Some(rec_path) = opts.path("records") {
        let (summary, _stats) = {
            let mut text = GeneratorSource::from_campaign(&out);
            extract_to_store(&mut text, None, &rec_path).map_err(|e| e.to_string())?
        };
        println!(
            "wrote record store {} ({} records, {} blocks, {} bytes)",
            rec_path.display(),
            summary.records,
            summary.blocks,
            summary.bytes
        );
    }

    println!(
        "analyze with:\n  gpures analyze --logs {} --jobs {} --downtime {} --nodes {} --hours {:.0}",
        log_dir.display(),
        out_dir.join("jobs.csv").display(),
        out_dir.join("downtime.csv").display(),
        out.fleet.node_count(),
        out.observation_hours()
    );
    write_metrics(metrics_path.as_deref(), &sink)?;
    Ok(())
}

/// Export the sink's `gpures-metrics/v1` document to `path`, if both a
/// path was given and the sink is recording.
fn write_metrics(path: Option<&Path>, sink: &MetricsSink) -> Result<(), String> {
    let (Some(path), Some(doc)) = (path, sink.export_json()) else {
        return Ok(());
    };
    std::fs::write(path, doc.render()).map_err(|e| e.to_string())?;
    eprintln!("metrics written to {}", path.display());
    Ok(())
}

fn cmd_analyze(opts: &cli::Opts) -> Result<(), String> {
    let jobs = match opts.path("jobs") {
        None => None,
        Some(p) => {
            let text = read_file(&p)?;
            Some(jobs_csv::from_csv(&text).map_err(|e| e.to_string())?)
        }
    };
    let downtime = match opts.path("downtime") {
        None => None,
        Some(p) => {
            let text = read_file(&p)?;
            Some(files::downtime_from_csv(&text).map_err(|e| e.to_string())?)
        }
    };

    let hours = observation_hours(opts)?;
    let dt: u64 = opts.num("dt", 5).s()?;
    let chunk_bytes = opts
        .positive::<u64>(
            "chunk-bytes",
            "must be a positive byte count (omit the flag to size chunks to the worker pool)",
        )
        .s()?;
    let workers = opts
        .positive::<usize>(
            "workers",
            "must be a positive worker count (omit the flag to use all cores)",
        )
        .s()?;
    if let Some(w) = workers {
        gpu_resilience::par::set_worker_override(Some(w));
    }
    let prefetch = opts.on_off("prefetch", true).s()?;

    let study = |nodes: u32| {
        StudyConfig {
            coalesce: CoalesceConfig::with_window_secs(dt),
            ..StudyConfig::ampere_study()
        }
        .with_window(hours, nodes)
    };

    let metrics_path = opts.path("metrics");
    let sink = if metrics_path.is_some() {
        MetricsSink::recording()
    } else {
        MetricsSink::disabled()
    };

    let results = if let Some(store_path) = opts.path("from-records") {
        // Replay path: the corpus was already extracted once; re-run
        // the analyses straight from the columnar store.
        if opts.str("logs").is_some() || opts.str("records").is_some() {
            return Err(DataError::Usage {
                option: "--from-records".to_string(),
                message: "replay reads the store alone; drop --logs / --records".to_string(),
            }
            .to_string());
        }
        let store = RecordStore::open(&store_path).map_err(|e| e.to_string())?;
        let nodes: u32 = opts.num("nodes", store.nodes().len() as u32).s()?;
        eprintln!(
            "replaying {} records from {} ({} nodes, {} blocks) ...",
            store.record_count(),
            store_path.display(),
            store.nodes().len(),
            store.blocks().len()
        );
        let mut reader = store.reader(&store_path).map_err(|e| e.to_string())?;
        PipelineBuilder::new(study(nodes))
            .maybe_jobs(jobs.as_deref())
            .maybe_downtime(downtime.as_deref())
            .metrics(sink.clone())
            .run_record_source(&mut reader)
            .map_err(|e| e.to_string())?
    } else {
        let log_dir = opts.required_path("logs").s()?;
        // Streaming ingestion: the corpus is read incrementally in
        // chunk waves, never materialized whole.
        let mut source = DirSource::open(&log_dir).map_err(|e| e.to_string())?;
        if source.nodes().is_empty() {
            return Err(format!("no .log files in {}", log_dir.display()));
        }
        let nodes: u32 = opts.num("nodes", source.nodes().len() as u32).s()?;

        eprintln!(
            "analyzing {} node logs ({} bytes, streamed, {} workers, prefetch {}) ...",
            source.nodes().len(),
            source.total_bytes_hint().unwrap_or(0),
            gpu_resilience::par::max_workers(),
            if prefetch { "on" } else { "off" },
        );
        let records_path = opts.path("records");
        let mut builder = PipelineBuilder::new(study(nodes))
            .maybe_jobs(jobs.as_deref())
            .maybe_downtime(downtime.as_deref())
            .prefetch(prefetch)
            .metrics(sink.clone());
        if let Some(c) = chunk_bytes {
            builder = builder.chunk_bytes(c);
        }
        if let Some(p) = &records_path {
            builder = builder.record_store(p.clone());
        }
        let (results, stats) = builder.run_source(&mut source).map_err(|e| e.to_string())?;
        eprintln!(
            "extraction: {} lines, {} XID lines, {} unknown, {} malformed",
            stats.lines, stats.xid_lines, stats.unknown_xid, stats.malformed
        );
        if let Some(p) = &records_path {
            eprintln!("record store written to {}", p.display());
        }
        results
    };

    print_results(&results);

    if let Some(dot_dir) = opts.path("dot") {
        std::fs::create_dir_all(&dot_dir).map_err(|e| e.to_string())?;
        let figs: [(&str, String); 3] = [
            ("fig5.dot", report::render_fig5(&results.propagation)),
            ("fig6.dot", report::render_fig6(&results.propagation)),
            ("fig7.dot", report::render_fig7(&results.propagation)),
        ];
        for (name, body) in figs {
            std::fs::write(dot_dir.join(name), body).map_err(|e| e.to_string())?;
        }
        println!("propagation graphs written to {}", dot_dir.display());
    }
    write_metrics(metrics_path.as_deref(), &sink)?;
    Ok(())
}

/// `--hours` (shared by `analyze` and `watch`): the observation window
/// MTBE is normalized over, 855 days when absent.
fn observation_hours(opts: &cli::Opts) -> Result<f64, String> {
    Ok(opts
        .positive("hours", "must be a positive number of hours")
        .s()?
        .unwrap_or(855.0 * 24.0))
}

/// Print a study's stdout report: Table 1, Tables 2/3 when jobs were
/// joined, then the summary block. Shared by `analyze` and the `watch`
/// drain path so a drained watch prints byte-for-byte what `analyze`
/// prints on the same corpus.
fn print_results(results: &StudyResults) {
    println!("{}", report::render_table1(results).render());
    if let Some(ji) = &results.job_impact {
        println!("{}", report::render_table2(ji).render());
    }
    if let Some(t3) = &results.table3 {
        println!("{}", report::render_table3(t3).render());
    }
    println!("{}", render_summary(results));
}

/// Resolve one `sweep` battery argument into `(label, source)` pairs:
/// a `.scn` file, a directory of them (sorted by name), or a bundled
/// scenario name.
fn battery_sources(arg: &str) -> Result<Vec<(String, String)>, String> {
    let p = Path::new(arg);
    if p.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(p)
            .map_err(|e| io_err(p, e))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|q| q.extension().map(|x| x == "scn").unwrap_or(false))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(DataError::Usage {
                option: p.display().to_string(),
                message: "directory contains no .scn files".to_string(),
            }
            .to_string());
        }
        files
            .into_iter()
            .map(|f| Ok((f.display().to_string(), read_file(&f)?)))
            .collect()
    } else if p.is_file() {
        Ok(vec![(p.display().to_string(), read_file(p)?)])
    } else if let Some(src) = gpu_resilience::scenario::preset_source(arg) {
        Ok(vec![(format!("bundled `{arg}`"), src.to_string())])
    } else {
        Err(DataError::Usage {
            option: arg.to_string(),
            message: "matches no .scn file, directory of them, or bundled scenario name"
                .to_string(),
        }
        .to_string())
    }
}

/// `gpures sweep`: parse the battery (all file I/O happens here — the
/// driver library never reads disk), run every `(scenario, seed)` pair
/// in parallel, write the deterministic `sweep.json` artifact, and print
/// a per-run summary from the artifact itself so stdout and the JSON
/// cannot disagree. Exits nonzero if any reference-checked scenario
/// misses its paper tolerances.
fn cmd_sweep(opts: &cli::Opts) -> Result<(), String> {
    use gpu_resilience::obs::json::Json;
    use gpu_resilience::report::sweep::{run_battery, SweepOptions};
    use gpu_resilience::scenario::Scenario;

    let out_dir = opts.required_path("out").s()?;
    if let Some(w) = opts
        .positive::<usize>(
            "workers",
            "must be a positive worker count (omit the flag to use all cores)",
        )
        .s()?
    {
        gpu_resilience::par::set_worker_override(Some(w));
    }

    let mut battery: Vec<Scenario> = Vec::new();
    for arg in opts.positionals() {
        for (label, src) in battery_sources(arg)? {
            battery.push(Scenario::parse(&src).map_err(|e| format!("{label}: {e}"))?);
        }
    }
    let runs: usize = battery.iter().map(|s| s.seeds.len()).sum();
    eprintln!(
        "sweeping {} scenarios ({} runs, {} workers) ...",
        battery.len(),
        runs,
        gpu_resilience::par::max_workers()
    );

    let sweep_opts = SweepOptions {
        records_dir: opts.path("records"),
        metrics_dir: opts.path("metrics"),
    };
    let doc = run_battery(&battery, &sweep_opts).map_err(|e| e.to_string())?;

    std::fs::create_dir_all(&out_dir).map_err(|e| io_err(&out_dir, e))?;
    let artifact = out_dir.join("sweep.json");
    write_file(&artifact, &doc.render())?;

    let f = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        for row in rows {
            let name = row.get("scenario").and_then(Json::as_str).unwrap_or("?");
            let verdict = match row.get("expect").and_then(|e| e.get("pass")) {
                Some(Json::Bool(true)) => "pass",
                Some(Json::Bool(false)) => "FAIL",
                _ => "-",
            };
            println!(
                "{name:<18} seed {:<6} {:>5} nodes {:>6} GPUs {:>8} events  MTBE/node {:>10}  {verdict}",
                f(row, "seed"),
                f(row, "nodes"),
                f(row, "gpus"),
                f(row, "events"),
                row.get("mtbe_node_h")
                    .and_then(Json::as_f64)
                    .map(|h| format!("{h:.1} h"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    let summary = doc.get("summary");
    let checked = summary.and_then(|s| s.get("checked")).and_then(Json::as_f64).unwrap_or(0.0);
    let passed = summary.and_then(|s| s.get("passed")).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{} runs, {checked:.0} reference-checked, {passed:.0} passed; artifact {}",
        doc.get("runs").and_then(Json::as_f64).unwrap_or(0.0),
        artifact.display()
    );
    if passed < checked {
        let failed = summary
            .and_then(|s| s.get("failed"))
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        return Err(format!("paper-tolerance check failed for: {failed}"));
    }
    Ok(())
}

fn cmd_incidents(_opts: &cli::Opts) -> Result<(), String> {
    for s in all_scenarios() {
        println!("{}\n", s.render());
    }
    Ok(())
}

fn cmd_project(opts: &cli::Opts) -> Result<(), String> {
    use gpu_resilience::availsim::{simulate_mean, ProjectionConfig};
    let mut cfg = ProjectionConfig::paper_scenario(opts.num("seed", 1).s()?);
    cfg.job_gpus = opts
        .positive("gpus", "must be a positive GPU count")
        .s()?
        .unwrap_or(cfg.job_gpus);
    let recovery: f64 = opts.num("recovery-min", 40.0).s()?;
    let runs = opts
        .positive("runs", "must be a positive run count")
        .s()?
        .unwrap_or(40);
    let r = simulate_mean(&cfg.with_recovery_minutes(recovery), runs);
    println!(
        "{} GPUs, {:.0}-minute recovery: overprovision {:.1}% (~{:.0} extra GPUs), \
         efficiency {:.1}%, {} restarts/month",
        cfg.job_gpus,
        recovery,
        r.required_overprovision * 100.0,
        r.required_overprovision * cfg.job_gpus as f64,
        r.efficiency * 100.0,
        r.restarts / runs as u64,
    );
    Ok(())
}

/// Echo alerts to stderr and, when `--alerts FILE` was given, append
/// them there — one rendered alert per line, in firing order.
fn emit_alerts(alerts: &[Alert], path: Option<&Path>) -> Result<(), String> {
    for a in alerts {
        eprintln!("ALERT {a}");
    }
    let Some(p) = path else {
        return Ok(());
    };
    if alerts.is_empty() {
        return Ok(());
    }
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(p)
        .map_err(|e| io_err(p, e))?;
    for a in alerts {
        writeln!(f, "{a}").map_err(|e| io_err(p, e))?;
    }
    Ok(())
}

/// Publish the session's rolling-window view as last-value gauges on the
/// sink, so every exported `gpures-metrics/v1` document carries the live
/// state alongside the per-stage counters. Gauges are event-time
/// quantities: re-exporting without new input re-publishes identical
/// values.
fn publish_watch_gauges(session: &WatchSession, sink: &MetricsSink) {
    use gpu_resilience::obs::Stage;
    let s = session.snapshot();
    sink.gauge_set(Stage::Stats, "watch_window_errors", s.windowed_mtbe.count as f64);
    sink.gauge_set(
        Stage::Stats,
        "watch_window_mtbe_node_h",
        s.windowed_mtbe.mtbe_per_node_h.unwrap_or(f64::INFINITY),
    );
    sink.gauge_set(Stage::Stats, "watch_active_offenders", s.offenders.len() as f64);
    sink.gauge_set(
        Stage::Stats,
        "watch_top_offender_count",
        s.offenders.first().map(|o| o.count as f64).unwrap_or(0.0),
    );
    sink.gauge_set(
        Stage::Propagation,
        "watch_multi_gpu_nodes",
        s.propagation.multi_gpu_nodes as f64,
    );
    sink.gauge_set(Stage::Coalesce, "watch_open_episodes", s.open_episodes as f64);
    sink.gauge_set(Stage::Coalesce, "watch_pending_records", s.pending as f64);
    sink.gauge_set(Stage::Coalesce, "watch_late_dropped", s.stats.late_dropped as f64);
    sink.gauge_set(Stage::Stats, "watch_alerts_total", s.alerts_total as f64);
}

/// Live mode: follow growing/rotating per-node syslogs through the
/// incremental pipeline — tail → extract → event-time watermark →
/// streaming coalesce → rolling-window accumulators — and raise
/// deterministic threshold alerts. With `--follow off` the corpus is
/// drained once and the final report printed exactly like `analyze`;
/// everything downstream of ingestion is keyed on event time, so a
/// drained watch and a batch analyze agree bit-for-bit.
fn cmd_watch(opts: &cli::Opts) -> Result<(), String> {
    let log_dir = opts.required_path("logs").s()?;
    let follow = opts.on_off("follow", true).s()?;
    let hours = observation_hours(opts)?;
    let dt: u64 = opts.num("dt", 5).s()?;
    let lateness: u64 = opts.num("lateness-secs", 120).s()?;
    let window_hours = opts
        .positive("window-hours", "must be a positive number of hours")
        .s()?
        .unwrap_or(24.0);
    let offender_threshold: u64 = opts.num("offender-threshold", 5).s()?;
    let storm_threshold: u64 = opts.num("storm-threshold", 3).s()?;
    let interval: u64 = opts.num("interval-secs", 2).s()?;
    let max_polls: u64 = opts.num("max-polls", 0).s()?;
    let chunk_bytes = opts
        .positive::<u64>(
            "chunk-bytes",
            "must be a positive byte count (omit the flag for the default)",
        )
        .s()?;
    let ckpt = opts.path("checkpoint");
    let snapshots_dir = opts.path("snapshots");
    let alerts_path = opts.path("alerts");
    let metrics_path = opts.path("metrics");

    let mut source = match &ckpt {
        Some(c) => TailSource::open_with_checkpoint(&log_dir, c).map_err(|e| e.to_string())?,
        None => TailSource::open(&log_dir).map_err(|e| e.to_string())?,
    };
    if source.nodes().is_empty() {
        return Err(format!("no .log files in {}", log_dir.display()));
    }
    let nodes: u32 = opts.num("nodes", source.nodes().len() as u32).s()?;

    let study = StudyConfig {
        coalesce: CoalesceConfig::with_window_secs(dt),
        ..StudyConfig::ampere_study()
    }
    .with_window(hours, nodes);
    let mut cfg = WatchConfig {
        study,
        lateness: Duration::from_secs(lateness),
        window: Duration::from_secs_f64(window_hours * 3600.0),
        offender_threshold,
        storm_threshold,
        ..WatchConfig::default()
    };
    if let Some(c) = chunk_bytes {
        cfg.chunk_bytes = c;
    }

    let recording = metrics_path.is_some() || snapshots_dir.is_some();
    let sink = if recording {
        MetricsSink::recording()
    } else {
        MetricsSink::disabled()
    };
    if let Some(d) = &snapshots_dir {
        std::fs::create_dir_all(d).map_err(|e| io_err(d, e))?;
    }
    eprintln!(
        "watching {} node logs in {} ({}, lateness {lateness}s, window {window_hours}h) ...",
        source.nodes().len(),
        log_dir.display(),
        if follow { "following" } else { "drain once" },
    );

    let mut session = WatchSession::new(cfg);
    let mut polls: u64 = 0;
    loop {
        let delta = session.run_observed(&mut source, &sink).map_err(|e| e.to_string())?;
        polls += 1;

        emit_alerts(&session.take_new_alerts(), alerts_path.as_deref())?;
        if let Some(c) = &ckpt {
            source.save_checkpoint(c).map_err(|e| e.to_string())?;
        }
        if recording {
            publish_watch_gauges(&session, &sink);
        }
        if let Some(d) = &snapshots_dir {
            if let Some(doc) = sink.export_json() {
                let path = d.join(format!("snapshot_{polls:06}.json"));
                std::fs::write(&path, doc.render()).map_err(|e| io_err(&path, e))?;
            }
        }
        if delta.records > 0 || delta.episodes > 0 {
            let s = session.stats();
            eprintln!(
                "poll {polls}: +{} lines, +{} records, +{} episodes (total {} episodes, {} pending, {} late-dropped)",
                delta.lines,
                delta.records,
                delta.episodes,
                s.episodes,
                session.snapshot().pending,
                s.late_dropped
            );
        }

        if !follow || (max_polls > 0 && polls >= max_polls) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }

    // Close the remaining open episodes so end-of-stream threshold
    // crossings surface before the final report.
    session.drain();
    emit_alerts(&session.take_new_alerts(), alerts_path.as_deref())?;
    let stats = session.stats();
    let results = session.finish_observed(&sink);
    print_results(&results);
    eprintln!(
        "watched {} polls: {} lines, {} records, {} released, {} late-dropped",
        stats.polls, stats.lines, stats.records, stats.released, stats.late_dropped
    );
    if stats.late_dropped > 0 {
        eprintln!(
            "warning: {} records arrived beyond --lateness-secs {lateness} and were dropped; \
             the report differs from a batch analyze",
            stats.late_dropped
        );
    }
    write_metrics(metrics_path.as_deref(), &sink)?;
    Ok(())
}
