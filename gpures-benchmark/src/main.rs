//! `gpures-benchmark` — the repository benchmark's command line.
//!
//! ```text
//! gpures-benchmark [run] --seed S [--workload W] [--seconds T] [--trace 0|1]
//!                        [--out FILE] [--smoke] [--data DIR]
//! gpures-benchmark prepare --seed S [--workload W] [--smoke] [--data DIR]
//! gpures-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `run` (the default) measures each workload in fresh child processes
//! and prints every metric with its unit, then the one-line result
//! object. `prepare` generates the inputs of a seed; `run` does it
//! itself when they are missing. `compare` gives a verdict per
//! (workload, end-to-end metric) pair of two `run --out` files.

use gpures_benchmark::compare;
use gpures_benchmark::inputs;
use gpures_benchmark::metrics;
use gpures_benchmark::run::{self, RunOpts};
use gpures_benchmark::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gpures-benchmark [run] --seed S [--workload W] [--seconds T] [--trace 0|1] [--out FILE] [--smoke] [--data DIR]
  gpures-benchmark prepare --seed S [--workload W] [--smoke] [--data DIR]
  gpures-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
workloads: scan-noisy, burst-tee, study-replay, fold-dt1, watch-live (default: all)";

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["smoke"];

struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut it = raw.into_iter().peekable();
        let cmd = match it.peek() {
            Some(first) if !first.starts_with("--") => it.next().unwrap_or_default(),
            _ => "run".to_string(),
        };
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg);
                continue;
            };
            let value = if SWITCHES.contains(&name) {
                "1".to_string()
            } else {
                it.next().ok_or_else(|| format!("--{name} needs a value"))?
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Args {
            cmd,
            flags,
            positional,
        })
    }

    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("`{}` takes no --{k}", self.cmd)),
            None => Ok(()),
        }
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.flags.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::from_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        let seconds: f64 = self.num("seconds", Some(15.0))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        let trace = match self.flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
        };
        Ok(RunOpts {
            data: self
                .flags
                .get("data")
                .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from),
            seed: self.num("seed", None)?,
            seconds,
            trace,
            smoke: self.flags.contains_key("smoke"),
        })
    }
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1).collect()).and_then(|args| dispatch(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const RUN_FLAGS: [&str; 7] = [
    "seed", "workload", "seconds", "trace", "out", "smoke", "data",
];

fn dispatch(args: &Args) -> Result<(), String> {
    match args.cmd.as_str() {
        "run" => {
            args.allow(&RUN_FLAGS)?;
            let opts = args.run_opts()?;
            let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
            let out = args.flags.get("out").map(PathBuf::from);
            run::run(&exe, &args.workloads()?, &opts, out.as_deref())
        }
        "prepare" => {
            args.allow(&RUN_FLAGS)?;
            let opts = args.run_opts()?;
            let mut corpora = Vec::new();
            for w in args.workloads()? {
                if !corpora.contains(&w.corpus()) {
                    corpora.push(w.corpus());
                }
            }
            for corpus in corpora {
                let t0 = std::time::Instant::now();
                let m = inputs::prepare(&opts.data, corpus, opts.seed, opts.smoke)?;
                eprintln!(
                    "prepared {} seed {} in {:.1} s: {} nodes, {:.0} h, {} lines, {} records, {} jobs, {} input bytes",
                    corpus.name(),
                    opts.seed,
                    t0.elapsed().as_secs_f64(),
                    m.nodes,
                    m.hours,
                    m.lines,
                    m.records,
                    m.jobs,
                    m.pass_input_bytes()
                );
            }
            Ok(())
        }
        "measure" => {
            args.allow(&RUN_FLAGS)?;
            let opts = args.run_opts()?;
            let [w] = args.workloads()?[..] else {
                return Err("measure takes exactly one --workload".to_string());
            };
            let readings = run::measure(w, &opts)?;
            println!("{}", metrics::one_line(&readings.to_json()));
            Ok(())
        }
        "compare" => {
            args.allow(&["bench"])?;
            let [a, b] = &args.positional[..] else {
                return Err("compare takes two result files".to_string());
            };
            let bench = args
                .flags
                .get("bench")
                .map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from);
            let bounds = compare::load_bounds(&bench)?;
            let (ra, rb) = (
                compare::load_runs(a.as_ref())?,
                compare::load_runs(b.as_ref())?,
            );
            let rows = compare::compare(&ra, &rb, &bounds);
            println!(
                "{:<13} {:<16} {:>14} {:>14} {:<5} {:>8} {:>5}  verdict",
                "workload", "metric", "A median", "B median", "unit", "change", "pairs"
            );
            for r in &rows {
                let change = 100.0 * (r.b_median / r.a_median - 1.0);
                println!(
                    "{:<13} {:<16} {:>14.6} {:>14.6} {:<5} {:>+7.2}% {:>5}  {}",
                    r.workload,
                    r.metric,
                    r.a_median,
                    r.b_median,
                    r.unit,
                    change,
                    r.pairs,
                    r.verdict
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
