//! The metric catalogue — every name the benchmark prints, with its unit,
//! in the order `BENCHMARK.json` lists them — and the per-run readings a
//! measurement fills in.

use crate::harness::{Passes, Summary};
use dr_obs::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, on every workload. For a batch
/// workload a result appears when the pass ends, so its latency is the
/// pass time; for `watch-live` it is each line's lag from its scheduled
/// write to the end of the poll that ingested it. Every value is a
/// median. Tail latencies are per-layer readings: the 90th percentile of
/// a run's few dozen passes moved by 17–33 % between runs.
pub const END_TO_END: [MetricDef; 5] = [
    m("latency_ms", "ms"),
    m("mb_per_s", "MB/s"),
    m("cpu_s", "s"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Single-layer metrics from the traced run. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: [MetricDef; 54] = [
    m("source.read_s", "s"),
    m("source.bytes", "bytes"),
    m("source.peak_resident_bytes", "bytes"),
    m("shard.extract_s", "s"),
    m("logscan.self_s", "s"),
    m("logscan.lines", "count"),
    m("logscan.xid_lines", "count"),
    m("logscan.prefilter_hits", "count"),
    m("logscan.records", "count"),
    m("logscan.prefilter_precision", "ratio"),
    m("par.pass_s_1w", "s"),
    m("par.speedup", "ratio"),
    m("store.write_s", "s"),
    m("store.bytes", "bytes"),
    m("store.compression", "ratio"),
    m("store.open_s", "s"),
    m("store.read_s", "s"),
    m("store.records", "count"),
    m("shard.merge_coalesce_s", "s"),
    m("coalesce.records_in", "count"),
    m("coalesce.episodes", "count"),
    m("coalesce.records_per_episode", "ratio"),
    m("engine.fold_s", "s"),
    m("engine.episodes", "count"),
    m("slurm.jobs_load_s", "s"),
    m("slurm.jobs", "count"),
    m("job_impact.join_s", "s"),
    m("report.downtime_load_s", "s"),
    m("report.render_s", "s"),
    m("tail.read_s", "s"),
    m("watch.poll_s_p50", "s"),
    m("watch.poll_s_p99", "s"),
    m("watch.polls", "count"),
    m("watch.lines_per_poll_p50", "count"),
    m("watch.pending_max", "count"),
    m("watch.open_episodes_max", "count"),
    m("watch.backlog_lines_max", "count"),
    m("watch.snapshot_us", "us"),
    m("watch.finish_s", "s"),
    m("watch.episodes", "count"),
    m("watch.alerts", "count"),
    m("watch.late_dropped", "count"),
    m("watch.lag_p90_ms", "ms"),
    m("watch.lag_p99_ms", "ms"),
    m("gen.late_ms_max", "ms"),
    m("trace.pass_s", "s"),
    m("trace.untraced_pass_s", "s"),
    m("trace.coverage", "ratio"),
    m("trace.overhead_pct", "%"),
    m("obs.gap.shard_pct", "%"),
    m("obs.gap.extract_pct", "%"),
    m("obs.gap.coalesce_pct", "%"),
    m("obs.gap.analysis_pct", "%"),
    m("obs.unbooked_pct", "%"),
];

/// Reading (outside both catalogues) of the factor that took a run's
/// times to the host's nominal speed.
pub const HOST_SCALE: &str = "host.scale";

/// The catalogue a run prints: end-to-end untraced, per-layer traced.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One metric's value, with the sample summary it came from when it is
/// a timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub summary: Option<Summary>,
}

/// What one measuring process reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Readings {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, Reading>,
}

impl Readings {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            Reading {
                value,
                summary: None,
            },
        );
    }

    /// Record the median of `samples` (times `scale`) with its summary.
    pub fn set_median(&mut self, name: &str, samples: &[f64], scale: f64) {
        if let Some(s) = Summary::of(samples) {
            let scaled = Summary {
                median: s.median * scale,
                p25: s.p25 * scale,
                p75: s.p75 * scale,
                tail: s.tail * scale,
                ..s
            };
            self.values.insert(
                name.to_string(),
                Reading {
                    value: scaled.median,
                    summary: Some(scaled),
                },
            );
        }
    }

    /// The end-to-end readings of a harness loop over `input_bytes` of
    /// input: throughput and CPU of the median pass, the median set-up
    /// time, the first pass's peak RSS, plus the pass counts.
    pub fn add_passes(&mut self, passes: &Passes, input_bytes: u64) {
        self.attempted += passes.attempted;
        self.failed += passes.failed;
        if let Some(s) = Summary::of(&passes.wall) {
            self.set("mb_per_s", input_bytes as f64 / 1e6 / s.median);
        }
        self.set_median("cpu_s", &passes.cpu, 1.0);
        self.set_median("setup_s", &passes.setup, 1.0);
        self.set("peak_rss_mb", passes.first_pass_rss_mb);
        self.set(HOST_SCALE, passes.host_scale());
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |r| r.value)
    }

    /// Merge the readings of several measuring processes of one workload:
    /// the counts add up, and each metric of `catalogue` (and the host
    /// scale) takes the median process's reading. A process keeps its
    /// allocator layout and thread placement, and so its speed and peak
    /// memory, for its whole life; the median keeps an unlucky process
    /// from setting the result.
    pub fn median_of(runs: &[Readings], catalogue: &[MetricDef]) -> Readings {
        let mut out = Readings {
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            values: BTreeMap::new(),
        };
        for name in catalogue.iter().map(|m| m.name).chain([HOST_SCALE]) {
            let mut found: Vec<Reading> = runs
                .iter()
                .filter_map(|r| r.values.get(name).copied())
                .collect();
            found.sort_by(|a, b| a.value.total_cmp(&b.value));
            if let Some(&r) = found.get(found.len() / 2) {
                out.values.insert(name.to_string(), r);
            }
        }
        out
    }

    /// The child-to-parent document: counts plus every reading with its
    /// summary.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .values
            .iter()
            .map(|(k, r)| {
                let mut fields = vec![("value".to_string(), Json::Num(r.value))];
                if let Some(s) = r.summary {
                    for (key, v) in [
                        ("n", s.n as f64),
                        ("median", s.median),
                        ("p25", s.p25),
                        ("p75", s.p75),
                        ("tail_pct", s.tail_pct),
                        ("tail", s.tail),
                    ] {
                        fields.push((key.to_string(), Json::Num(v)));
                    }
                }
                (k.clone(), Json::Obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Readings, String> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("measurement: bad `{key}`"))
        };
        let mut out = Readings {
            attempted: count("attempted")?,
            failed: count("failed")?,
            values: BTreeMap::new(),
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("measurement: no `metrics`".to_string());
        };
        for (name, m) in metrics {
            let f = |key: &str| m.get(key).and_then(Json::as_f64);
            let value = f("value").ok_or_else(|| format!("measurement: `{name}` has no value"))?;
            let summary = match (
                f("n"),
                f("median"),
                f("p25"),
                f("p75"),
                f("tail_pct"),
                f("tail"),
            ) {
                (Some(n), Some(median), Some(p25), Some(p75), Some(tail_pct), Some(tail)) => {
                    Some(Summary {
                        n: n as usize,
                        median,
                        p25,
                        p75,
                        tail_pct,
                        tail,
                    })
                }
                _ => None,
            };
            out.values.insert(name.clone(), Reading { value, summary });
        }
        Ok(out)
    }
}

/// Render a JSON value on one line (a run's result is the last line of
/// its stdout). Strings never hold raw newlines, so dropping the
/// renderer's line structure is lossless.
pub fn one_line(doc: &Json) -> String {
    doc.render()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_takes_each_metrics_median_process_and_adds_the_counts() {
        let run = |latency: f64, mb: f64, setup: f64, failed: u64| {
            let mut r = Readings {
                attempted: 10,
                failed,
                values: BTreeMap::new(),
            };
            r.set("latency_ms", latency);
            r.set("mb_per_s", mb);
            r.set("setup_s", setup);
            r
        };
        let runs = [
            run(3.0, 10.0, 1.0, 0),
            run(1.0, 30.0, 3.0, 1),
            run(2.0, 20.0, 2.5, 0),
        ];
        let mid = Readings::median_of(&runs, &END_TO_END);
        assert_eq!((mid.attempted, mid.failed), (30, 1));
        assert_eq!(mid.get("latency_ms"), 2.0);
        assert_eq!(mid.get("mb_per_s"), 20.0);
        assert_eq!(mid.get("setup_s"), 2.5);
        assert!(!mid.values.contains_key("cpu_s"));
    }
}
