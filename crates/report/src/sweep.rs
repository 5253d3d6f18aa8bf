//! The `gpures sweep` battery driver: run a set of parsed
//! [`Scenario`]s — every declared seed of each — through the full
//! campaign → (optional jobs) → analysis pipeline in parallel, and fold
//! the results into one deterministic cross-scenario comparison artifact
//! (`gpures-sweep/v1` JSON).
//!
//! Design rules:
//!
//! - **No file parsing here.** The CLI reads `.scn` sources and battery
//!   directories; this module takes parsed scenarios. (It *writes*
//!   per-run tee artifacts when asked — records stores and metrics
//!   exports — because those are produced mid-run, inside the worker.)
//! - **No wall-clock in the artifact.** `sweep.json` must be
//!   byte-identical across `--workers 1` and `--workers 8`; timing lives
//!   in the per-run `--metrics` exports, never here. For the same reason
//!   the artifact does not record the worker count.
//! - **Paper recipes, not new ones.** The jobs path is exactly the
//!   Section 5 recipe from `tests/paper_numbers.rs` (drain windows from
//!   ground-truth events, scheduler, masking), and the `expect`
//!   verdicts reuse the [`crate::paper`] tolerance tables.

use crate::expect::Verdict;
use crate::paper::{ampere_comparison, h100_comparison};
use dr_faults::Campaign;
use dr_gpu::device::Consequence;
use dr_obs::json::Json;
use dr_obs::MetricsSink;
use dr_scenario::{ExpectRef, Scenario};
use dr_slurm::{apply_errors, DrainWindows, JobLoadConfig, MaskingModel, Scheduler};
use dr_xid::{DataError, Duration, Xid};
use rand::prelude::*;
use resilience_core::{write_store, PipelineBuilder, StudyConfig, StudyResults};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Per-run tee destinations. Both are optional; when set, each
/// `(scenario, seed)` run writes `<dir>/<scenario>_<seed>.<ext>` from
/// inside its worker.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Tee each run's ground-truth `ErrorRecord`s into a columnar store
    /// (`.records`), replayable via `gpures analyze --from-records`.
    pub records_dir: Option<PathBuf>,
    /// Export each run's pipeline metrics (`gpures-metrics/v1`) to
    /// `.json`. These files contain wall-clock spans and are *not* part
    /// of the deterministic artifact.
    pub metrics_dir: Option<PathBuf>,
}

/// Run every `(scenario, seed)` pair of the battery in parallel (via
/// `dr-par`, so `--workers` / `DR_PAR_THREADS` apply) and return the
/// `gpures-sweep/v1` artifact. Rows are sorted by (scenario, seed), so
/// the artifact is independent of battery-file discovery order and of
/// the worker count.
pub fn run_battery(scenarios: &[Scenario], opts: &SweepOptions) -> Result<Json, DataError> {
    if scenarios.is_empty() {
        return Err(DataError::Usage {
            option: "sweep".to_string(),
            message: "the battery is empty; pass at least one .scn scenario".to_string(),
        });
    }
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(DataError::Usage {
            option: "sweep".to_string(),
            message: format!("battery contains scenario `{}` twice", w[0]),
        });
    }
    for dir in [&opts.records_dir, &opts.metrics_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).map_err(|e| DataError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
    }

    let mut units: Vec<(&Scenario, u64)> = Vec::new();
    for sc in scenarios {
        if sc.seeds.is_empty() {
            // Surface the missing-seeds defect before burning CPU on the
            // rest of the battery.
            sc.compile()?;
        }
        for &seed in &sc.seeds {
            units.push((sc, seed));
        }
    }
    units.sort_by(|a, b| (a.0.name.as_str(), a.1).cmp(&(b.0.name.as_str(), b.1)));

    let results = dr_par::par_map(&units, |&(sc, seed)| run_one(sc, seed, opts));
    let mut rows = Vec::with_capacity(results.len());
    for r in results {
        rows.push(r?);
    }

    let mut checked = 0u64;
    let mut passed = 0u64;
    let mut failed: Vec<Json> = Vec::new();
    for row in &rows {
        match row.get("expect").and_then(|e| e.get("pass")) {
            Some(&Json::Bool(ok)) => {
                checked += 1;
                if ok {
                    passed += 1;
                } else {
                    let name = row.get("scenario").and_then(Json::as_str).unwrap_or("?");
                    let seed = row.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    failed.push(Json::Str(format!("{name}@{seed}")));
                }
            }
            _ => {}
        }
    }

    Ok(Json::obj(vec![
        ("schema", Json::Str("gpures-sweep/v1".to_string())),
        ("scenarios", Json::Num(scenarios.len() as f64)),
        ("runs", Json::Num(rows.len() as f64)),
        (
            "summary",
            Json::obj(vec![
                ("checked", Json::Num(checked as f64)),
                ("passed", Json::Num(passed as f64)),
                ("failed", Json::Arr(failed)),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]))
}

/// One battery unit: campaign, optional workload, analysis, tees, row.
fn run_one(sc: &Scenario, seed: u64, opts: &SweepOptions) -> Result<Json, DataError> {
    let cfg = sc.compile_seed(seed);
    let nodes = cfg.shape.node_count();
    let gpus = cfg.shape.gpu_count();
    let duration_days = cfg.duration_days;
    let out = Campaign::run(cfg);

    // The Section 5 workload recipe: drain windows from ground-truth
    // fatal events, placement, then masked error attribution.
    let jobs = sc.jobs.map(|spec| {
        let drains = DrainWindows::from_events(
            out.events
                .iter()
                .filter(|e| {
                    matches!(e.consequence, Consequence::GpuErrorState | Consequence::GpuLost)
                        && e.xid != Xid::UncontainedEcc
                })
                .map(|e| (e.gpu.node, e.at)),
            Duration::from_hours(24),
        );
        let load = JobLoadConfig {
            total_jobs: spec.job_count(nodes, duration_days),
            duration_days,
            ..JobLoadConfig::delta_study(spec.seed)
        };
        let mut schedule = Scheduler::new(load).run(&out.fleet, &drains);
        let mut rng = StdRng::seed_from_u64(spec.mask_seed);
        apply_errors(&mut schedule.jobs, &out.events, &MaskingModel::default(), &mut rng);
        schedule.jobs
    });

    // The Ampere reference keeps the paper's fixed 855-day/206-node
    // window (its tolerances assume it); everything else is normalized to
    // its own campaign window.
    let study = if sc.expect == ExpectRef::Ampere {
        StudyConfig::ampere_study()
    } else {
        StudyConfig::ampere_study().with_window(out.observation_hours(), nodes)
    };

    let sink = if opts.metrics_dir.is_some() {
        MetricsSink::recording()
    } else {
        MetricsSink::disabled()
    };
    let results = PipelineBuilder::new(study)
        .maybe_jobs(jobs.as_deref())
        .downtime(&out.downtime)
        .metrics(sink.clone())
        .run_records(&out.records);

    if let Some(dir) = &opts.records_dir {
        write_records_tee(&tee_path(dir, sc, seed, "records"), &out.records)?;
    }
    if let Some(dir) = &opts.metrics_dir {
        // dr-lint: allow(obs-isolation): the export goes straight to the per-run tee file, never into the sweep artifact or any analysis number
        if let Some(doc) = sink.export_json() {
            let path = tee_path(dir, sc, seed, "json");
            std::fs::write(&path, doc.render()).map_err(|e| DataError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
    }

    Ok(row(sc, seed, nodes, gpus, duration_days, &out, &results))
}

fn tee_path(dir: &Path, sc: &Scenario, seed: u64, ext: &str) -> PathBuf {
    dir.join(format!("{}_{}.{}", sc.name, seed, ext))
}

/// Group ground-truth records per node and write the columnar store.
fn write_records_tee(
    path: &Path,
    records: &[dr_xid::ErrorRecord],
) -> Result<(), DataError> {
    let mut per_node: BTreeMap<dr_xid::NodeId, Vec<dr_xid::ErrorRecord>> = BTreeMap::new();
    for r in records {
        per_node.entry(r.gpu.node).or_default().push(*r);
    }
    let nodes: Vec<dr_xid::NodeId> = per_node.keys().copied().collect();
    let streams: Vec<Vec<dr_xid::ErrorRecord>> = per_node.into_values().collect();
    write_store(path, &nodes, &streams).map(|_| ())
}

/// One artifact row: identity, scale, per-XID MTBE, propagation shape,
/// offender concentration, job impact, and the reference verdict.
fn row(
    sc: &Scenario,
    seed: u64,
    nodes: u32,
    gpus: u32,
    duration_days: f64,
    out: &dr_faults::CampaignOutput,
    r: &StudyResults,
) -> Json {
    let mtbe: Vec<Json> = r
        .table1
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("xid", Json::Num(t.xid.code() as f64)),
                ("count", Json::Num(t.count as f64)),
                (
                    "mtbe_node_h",
                    t.mtbe_per_node_h.map(Json::Num).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();

    let prop = &r.propagation;
    let propagation = Json::obj(vec![
        (
            "dbe_to_remap",
            Json::Num(prop.intra_probability(Xid::DoubleBitEcc, Xid::RowRemapEvent)),
        ),
        (
            "pmu_to_mmu",
            Json::Num(prop.intra_probability(Xid::PmuSpiError, Xid::MmuError)),
        ),
        ("nvlink_single_gpu", Json::Num(prop.nvlink.single_gpu)),
        ("nvlink_multi_gpu", Json::Num(prop.nvlink.multi_gpu)),
    ]);

    // Offender concentration over ground-truth episodes: what share of
    // the campaign's events the single worst GPU (and the worst five)
    // account for — Section 4.2 (iii)'s defective-part skew.
    let mut per_gpu: BTreeMap<dr_xid::GpuId, u64> = BTreeMap::new();
    for e in &out.events {
        *per_gpu.entry(e.gpu).or_insert(0) += 1;
    }
    let mut counts: Vec<u64> = per_gpu.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let share = |k: usize| -> f64 {
        if total == 0 {
            return 0.0;
        }
        counts.iter().take(k).sum::<u64>() as f64 / total as f64
    };
    let offenders = Json::obj(vec![
        ("gpus_with_events", Json::Num(counts.len() as f64)),
        ("top1_share", Json::Num(share(1))),
        ("top5_share", Json::Num(share(5))),
    ]);

    let jobs = match &r.job_impact {
        Some(ji) => Json::obj(vec![
            ("completed", Json::Num(ji.completed as f64)),
            ("failed_any", Json::Num(ji.failed_any as f64)),
            ("gpu_failed", Json::Num(ji.gpu_failed_total as f64)),
            ("success_rate", Json::Num(ji.success_rate)),
            ("lost_gpu_hours", Json::Num(ji.lost_gpu_hours)),
        ]),
        None => Json::Null,
    };

    let expect = match sc.expect {
        ExpectRef::None => Json::obj(vec![("reference", Json::Str("none".to_string()))]),
        reference => {
            let cmp = match reference {
                ExpectRef::H100 => h100_comparison(r),
                _ => ampere_comparison(r),
            };
            let mismatches: Vec<Json> = cmp
                .items
                .iter()
                .filter(|e| e.verdict() == Verdict::Mismatch)
                .map(|e| Json::Str(format!("{} {}", e.experiment, e.metric)))
                .collect();
            Json::obj(vec![
                ("reference", Json::Str(reference.label().to_string())),
                ("checks", Json::Num(cmp.items.len() as f64)),
                ("matches", Json::Num(cmp.matches() as f64)),
                ("pass", Json::Bool(mismatches.is_empty())),
                ("mismatched", Json::Arr(mismatches)),
            ])
        }
    };

    Json::obj(vec![
        ("scenario", Json::Str(sc.name.clone())),
        ("seed", Json::Num(seed as f64)),
        ("nodes", Json::Num(nodes as f64)),
        ("gpus", Json::Num(gpus as f64)),
        ("duration_days", Json::Num(duration_days)),
        ("events", Json::Num(out.events.len() as f64)),
        ("records", Json::Num(out.records.len() as f64)),
        (
            "mtbe_node_h",
            r.overall_mtbe_h.1.map(Json::Num).unwrap_or(Json::Null),
        ),
        (
            "availability",
            r.availability.map(Json::Num).unwrap_or(Json::Null),
        ),
        ("mtbe", Json::Arr(mtbe)),
        ("propagation", propagation),
        ("offenders", offenders),
        ("jobs", jobs),
        ("expect", expect),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_battery() -> Vec<Scenario> {
        // Derived from the bundled tiny preset but shortened: the sweep
        // unit tests must stay fast.
        let a = Scenario::parse(
            "scenario \"smoke_a\"\nfleet tiny\nduration_days = 10\nseeds = [7, 8]\nrates ampere_delta\nrates.* *= 0.3\n",
        )
        .expect("smoke_a parses");
        let b = Scenario::parse(
            "scenario \"smoke_b\"\nfleet tiny\nduration_days = 10\nseeds = [9]\nrates ampere_delta\nrates.* *= 0.3\njobs {\n  per_node_day = 10\n}\n",
        )
        .expect("smoke_b parses");
        vec![a, b]
    }

    #[test]
    fn artifact_shape_and_row_order() {
        let battery = tiny_battery();
        let doc = run_battery(&battery, &SweepOptions::default()).expect("sweep runs");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gpures-sweep/v1")
        );
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        let keys: Vec<(String, f64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get("scenario")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    r.get("seed").and_then(Json::as_f64).expect("seed"),
                )
            })
            .collect();
        assert_eq!(
            keys,
            vec![
                ("smoke_a".to_string(), 7.0),
                ("smoke_a".to_string(), 8.0),
                ("smoke_b".to_string(), 9.0)
            ],
            "rows must be sorted by (scenario, seed)"
        );
        // The jobs scenario has job columns; the plain one has null.
        assert_eq!(rows[0].get("jobs"), Some(&Json::Null));
        assert!(rows[2].get("jobs").and_then(|j| j.get("completed")).is_some());
        // No reference → no pass verdict, and the summary counts that.
        assert_eq!(
            doc.get("summary").and_then(|s| s.get("checked")),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let mut battery = tiny_battery();
        battery[1].name = battery[0].name.clone();
        let e = run_battery(&battery, &SweepOptions::default()).expect_err("dup");
        assert!(e.to_string().contains("twice"), "{e}");
    }

    #[test]
    fn empty_battery_is_rejected() {
        let e = run_battery(&[], &SweepOptions::default()).expect_err("empty");
        assert!(e.to_string().contains("at least one"), "{e}");
    }
}
