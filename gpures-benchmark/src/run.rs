//! `run`: per workload, make sure its inputs exist and match their
//! checksums, measure it in fresh child processes, then print each metric
//! by name with its unit and, as the last line, the result object.

use crate::at;
use crate::batch::Batch;
use crate::inputs::{self, Manifest};
use crate::live::Live;
use crate::metrics::{self, Readings};
use crate::Workload;
use dr_obs::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Settings shared by the parent and its children.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Root of the generated inputs.
    pub data: PathBuf,
    pub seed: u64,
    /// Length of each workload's measurement.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Fresh measuring processes per untraced workload run, each measuring
/// an equal share of `--seconds`; each metric is the median process's
/// (see [`Readings::median_of`]). Resampling sixty 3-second processes
/// per workload, the median of five spread about a quarter less across
/// seeds than the median of three (a third less on `study-replay`).
const PROCESSES: usize = 5;

impl RunOpts {
    fn processes(&self) -> usize {
        if self.trace {
            1
        } else {
            PROCESSES
        }
    }

    fn child_args(&self, cmd: &str, w: Workload) -> Vec<String> {
        let mut args = vec![
            cmd.to_string(),
            "--workload".to_string(),
            w.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--data".to_string(),
            self.data.display().to_string(),
            "--seconds".to_string(),
            (self.seconds / self.processes() as f64).to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        args
    }
}

/// One workload's result, as the parent prints and records it.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub readings: Readings,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.readings.attempted > 0 && self.readings.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric of the run's catalogue as `{value, unit}`.
    pub fn result_json(&self, trace: bool) -> Json {
        let metrics = metrics::catalogue(trace)
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(self.readings.get(m.name))),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.readings.attempted as f64)),
            ("failed", Json::Num(self.readings.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The `--out` record: the result object plus what identifies the run.
    fn record_json(&self, opts: &RunOpts) -> Json {
        let mut fields = vec![
            (
                "workload".to_string(),
                Json::Str(self.workload.name().to_string()),
            ),
            ("seed".to_string(), Json::Num(opts.seed as f64)),
            ("trace".to_string(), Json::Bool(opts.trace)),
            ("smoke".to_string(), Json::Bool(opts.smoke)),
        ];
        if let Json::Obj(result) = self.result_json(opts.trace) {
            fields.extend(result);
        }
        Json::Obj(fields)
    }

    /// Human-readable lines: one per metric, with the sample summary for
    /// timings.
    fn print_table(&self, opts: &RunOpts) {
        let r = &self.readings;
        println!(
            "{} (seed {}, {} s, {}): {} attempted, {} failed, fail_ratio {:.3}",
            self.workload.name(),
            opts.seed,
            opts.seconds,
            if opts.trace { "traced" } else { "untraced" },
            r.attempted,
            r.failed,
            if r.attempted > 0 {
                r.failed as f64 / r.attempted as f64
            } else {
                1.0
            }
        );
        if let Some(scale) = r.values.get(metrics::HOST_SCALE) {
            println!(
                "  median of {} processes; pass and set-up times below are scaled by about {:.4} to the host's nominal speed",
                opts.processes(),
                scale.value
            );
        }
        for m in metrics::catalogue(opts.trace) {
            let reading = r.values.get(m.name);
            let value = reading.map_or(0.0, |x| x.value);
            match reading.and_then(|x| x.summary) {
                Some(s) => println!(
                    "  {:<30} {:>14.6} {:<6} median {:.6}  q1 {:.6}  q3 {:.6}  {} {:.6}  n {}",
                    m.name,
                    value,
                    m.unit,
                    s.median,
                    s.p25,
                    s.p75,
                    tail_label(s.tail_pct),
                    s.tail,
                    s.n
                ),
                None => println!("  {:<30} {:>14.6} {}", m.name, value, m.unit),
            }
        }
    }
}

/// `p99`, or `max` when too few samples support any tail percentile.
fn tail_label(pct: f64) -> String {
    if pct > 0.0 {
        format!("p{pct}")
    } else {
        "max".to_string()
    }
}

fn spawn(exe: &Path, args: &[String], capture: bool) -> Result<Vec<u8>, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(if capture {
            Stdio::piped()
        } else {
            Stdio::inherit()
        })
        .stderr(Stdio::inherit())
        .output()
        .map_err(at(exe))?;
    if !out.status.success() {
        return Err(format!(
            "`{} {}` failed: {}",
            exe.display(),
            args.join(" "),
            out.status
        ));
    }
    Ok(out.stdout)
}

/// Run one workload: prepare its inputs in a child if needed, refuse
/// inputs whose checksums do not match, measure it in fresh children.
pub fn run_workload(exe: &Path, w: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let corpus = w.corpus();
    if inputs::prepared(&opts.data, corpus, opts.seed, opts.smoke).is_none() {
        spawn(exe, &opts.child_args("prepare", w), false)?;
    }
    let dir = inputs::input_dir(&opts.data, corpus, opts.seed, opts.smoke);
    let manifest = Manifest::load(&dir)?;
    manifest.verify(&dir)?;
    let mut children = Vec::new();
    for _ in 0..opts.processes() {
        let stdout = spawn(exe, &opts.child_args("measure", w), true)?;
        let text = String::from_utf8_lossy(&stdout);
        let last = text
            .lines()
            .last()
            .ok_or("measuring child printed nothing")?;
        let doc = Json::parse(last).map_err(|e| format!("measuring child output: {e}"))?;
        children.push(Readings::from_json(&doc)?);
    }
    Ok(Outcome {
        workload: w,
        readings: Readings::median_of(&children, metrics::catalogue(opts.trace)),
    })
}

/// `run`: every requested workload in turn. Each result is printed as a
/// table and a one-line result object, and appended to `out` (one JSON
/// object per line) when given.
pub fn run(
    exe: &Path,
    workloads: &[Workload],
    opts: &RunOpts,
    out: Option<&Path>,
) -> Result<(), String> {
    for &w in workloads {
        let outcome = run_workload(exe, w, opts)?;
        outcome.print_table(opts);
        if let Some(path) = out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(at(path))?;
            writeln!(f, "{}", metrics::one_line(&outcome.record_json(opts))).map_err(at(path))?;
        }
        println!("{}", metrics::one_line(&outcome.result_json(opts.trace)));
    }
    Ok(())
}

/// The measuring child: one workload in this process, readings as one
/// JSON line on stdout.
pub fn measure(w: Workload, opts: &RunOpts) -> Result<Readings, String> {
    let dir = inputs::input_dir(&opts.data, w.corpus(), opts.seed, opts.smoke);
    let manifest = Manifest::load(&dir)?;
    let scratch = dir.join("scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(at(&scratch))?;
    let readings = if w == Workload::WatchLive {
        let live = Live::new(&dir, &manifest, &scratch)?;
        if opts.trace {
            live.measure_traced(opts.seconds)
        } else {
            live.measure(opts.seconds)
        }
    } else {
        let batch = Batch::new(w.corpus(), &dir, &manifest, &scratch);
        if opts.trace {
            batch.measure_traced(opts.seconds)
        } else {
            batch.measure(opts.seconds)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    readings
}
