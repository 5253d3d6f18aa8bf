//! Observability contract: attaching a metrics sink must not perturb
//! results by a single bit, the exported document must follow the
//! `gpures-metrics/v1` schema, and every `PipelineBuilder` entry point
//! (`run_text`, `run_source` over each engine and chunking) must agree.

use gpu_resilience::core::{PipelineBuilder, StudyConfig};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::logscan::BaselineExtractor;
use gpu_resilience::obs::json::Json;
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::xid::record::sort_records;

fn workload() -> (Vec<(gpu_resilience::xid::NodeId, Vec<String>)>, StudyConfig) {
    let out = Campaign::run(CampaignConfig::tiny(321));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    (out.text_logs, cfg)
}

#[test]
fn results_are_bit_identical_with_metrics_on_and_off() {
    let (logs, cfg) = workload();
    let builder = PipelineBuilder::new(cfg);
    let (r_off, s_off) = builder.run_text(&logs);
    let sink = MetricsSink::recording();
    let (r_on, s_on) = builder.clone().metrics(sink.clone()).run_text(&logs);

    assert_eq!(s_off, s_on, "extraction stats must not change");
    assert_eq!(r_off.coalesced, r_on.coalesced, "episodes must not change");
    assert_eq!(r_off.overall_mtbe_h, r_on.overall_mtbe_h);
    // Field-by-field bit identity via the full Debug rendering: floats
    // print with enough precision that any drift shows up.
    assert_eq!(
        format!("{r_off:?}"),
        format!("{r_on:?}"),
        "StudyResults must be bit-identical with metrics on"
    );
    // And the sink did actually record something.
    assert!(sink.export_json().is_some());
}

#[test]
fn recording_sink_run_matches_the_serial_baseline_route_and_counts_every_line() {
    // With a recording sink attached, the episodes must still be those of
    // the batch route (serial baseline extraction, one global sort, one
    // fold), and the sink's extract counters must account for the corpus
    // exactly: every input line once, every XID line once.
    let (logs, cfg) = workload();
    let mut records = Vec::new();
    let mut lines_in = 0u64;
    let mut xid_lines = 0u64;
    for (_, lines) in &logs {
        let mut ex = BaselineExtractor::new();
        records.append(&mut ex.extract_all(lines.iter().map(|s| s.as_str())));
        lines_in += ex.stats().lines;
        xid_lines += ex.stats().xid_lines;
    }
    sort_records(&mut records);
    let reference = PipelineBuilder::new(cfg).run_records(&records);
    assert!(!reference.coalesced.is_empty(), "corpus must hold XID episodes");

    let sink = MetricsSink::recording();
    let (r, stats) = PipelineBuilder::new(cfg).metrics(sink.clone()).run_text(&logs);
    assert_eq!(r.coalesced, reference.coalesced, "episodes drift with metrics on");
    assert_eq!((stats.lines, stats.xid_lines), (lines_in, xid_lines));

    let doc = sink.export_json().expect("recording sink exports");
    let counters = doc
        .get("stages")
        .and_then(Json::as_arr)
        .and_then(|stages| {
            stages
                .iter()
                .find(|s| s.get("stage").and_then(Json::as_str) == Some("extract"))
        })
        .and_then(|s| s.get("counters"))
        .expect("extract counters");
    assert_eq!(counters.get("lines").and_then(Json::as_u64), Some(lines_in));
}

#[test]
fn exported_metrics_follow_the_v1_schema() {
    let (logs, cfg) = workload();
    let sink = MetricsSink::recording();
    let _ = PipelineBuilder::new(cfg)
        .metrics(sink.clone())
        .run_text(&logs);
    let doc = sink.export_json().expect("recording sink exports");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpures-metrics/v1")
    );
    let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
    let names: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("stage").and_then(Json::as_str))
        .collect();
    for want in ["shard", "extract", "coalesce", "stats", "propagation"] {
        assert!(names.contains(&want), "missing stage {want:?} in {names:?}");
    }
    for stage in stages {
        assert!(
            stage.get("wall_s").and_then(Json::as_f64).expect("wall_s") >= 0.0
        );
    }
    let extract = stages
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("extract"))
        .expect("extract stage");
    let counters = extract.get("counters").expect("extract counters");
    assert!(counters.get("lines").and_then(Json::as_u64).expect("lines") > 0);
    assert!(counters.get("bytes").and_then(Json::as_u64).expect("bytes") > 0);
    let rates = extract.get("rates").expect("extract rates");
    assert!(rates.get("lines_per_s").and_then(Json::as_f64).expect("rate") > 0.0);
    let spans = extract.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("total")));
    // Per-chunk throughput histogram from `SpanGuard::rate`.
    let hists = extract.get("histograms").and_then(Json::as_arr).expect("hists");
    assert!(hists
        .iter()
        .any(|h| h.get("name").and_then(Json::as_str) == Some("chunk_mb_per_s")));
    // The document round-trips through the writer/parser pair.
    assert_eq!(Json::parse(&doc.render()).expect("parses"), doc);
}

#[test]
fn run_source_agrees_with_run_text_across_engines_and_chunkings() {
    use gpu_resilience::core::InMemorySource;

    let out = Campaign::run(CampaignConfig::tiny(654));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let jobs = gpu_resilience::slurm::Scheduler::new(gpu_resilience::slurm::JobLoadConfig::tiny(3))
        .run(&out.fleet, &gpu_resilience::slurm::DrainWindows::default())
        .jobs;

    let builders = [
        (
            "default",
            PipelineBuilder::new(cfg).jobs(&jobs).downtime(&out.downtime),
        ),
        ("chunked-4k", PipelineBuilder::new(cfg).chunk_bytes(4096)),
        ("prefetch", PipelineBuilder::new(cfg).prefetch(true)),
    ];
    for (name, builder) in builders {
        let (r_text, s_text) = builder.run_text(&out.text_logs);
        let mut source = InMemorySource::new(&out.text_logs);
        let (r_src, s_src) = builder
            .run_source(&mut source)
            .expect("in-memory source is infallible");
        assert_eq!(s_text, s_src, "{name}: stats diverge");
        assert_eq!(r_text.coalesced, r_src.coalesced, "{name}: episodes diverge");
        assert_eq!(
            format!("{r_text:?}"),
            format!("{r_src:?}"),
            "{name}: results diverge"
        );
    }
}
