//! The tracked observability-overhead benchmark behind `gpures bench`
//! (`BENCH_obs.json`).
//!
//! The dr-obs contract is that instrumentation is cheap enough to leave
//! on: counters are relaxed atomics, spans are recorded at chunk
//! granularity, and the per-line hot loop is untouched. This benchmark
//! enforces the "steady-state overhead below 5 %" budget the design
//! documents: it runs the sharded Stage I+II front half
//! ([`crate::stage1::front_half`]) on the noisy workload twice — once
//! with a disabled sink (the legacy path) and once with a recording
//! sink — cross-checks that the coalesced output is identical (the
//! write-only invariant), and reports the throughput delta as
//! `overhead_pct`.

use crate::json::Json;
use crate::stage1::{front_half, measure, noisy_workload};
use dr_obs::MetricsSink;
use resilience_core::InMemorySource;

/// The `BENCH_obs.json` document. `smoke` shrinks the corpus and drops
/// the timing floor so the tier-1 test exercises the full path quickly;
/// smoke numbers are meaningless but the schema and the output
/// cross-check are real.
pub fn obs_report(smoke: bool) -> Result<Json, String> {
    let (nodes, lines_per_node, min_wall_s) = if smoke {
        (3, 400, 0.0)
    } else {
        (6, 60_000, 0.6)
    };
    let w = noisy_workload(nodes, lines_per_node);

    let run = |sink: &MetricsSink| {
        let mut source = InMemorySource::new(&w.logs);
        front_half(&mut source, None, false, sink).map(|(c, s)| (c as u64, s.xid_lines))
    };

    // Correctness gate before any timing: attaching a recording sink must
    // not change the output at all.
    let off_out = run(&MetricsSink::disabled())?;
    let on_out = run(&MetricsSink::recording())?;
    if off_out != on_out {
        return Err(format!(
            "observability changed results on `{}`: disabled {:?}, recording {:?}",
            w.name, off_out, on_out
        ));
    }

    let disabled = measure(&w, min_wall_s, || {
        run(&MetricsSink::disabled()).map_or(0, |o| o.0)
    });
    // A fresh recording sink per rep, like a real `--metrics` run.
    let recording = measure(&w, min_wall_s, || {
        run(&MetricsSink::recording()).map_or(0, |o| o.0)
    });
    let overhead_pct =
        (disabled.lines_per_s / recording.lines_per_s.max(1e-12) - 1.0) * 100.0;

    Ok(Json::obj(vec![
        ("schema", Json::Str("gpures-bench-obs/v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("workload", Json::Str(w.name.to_string())),
        ("nodes", Json::Num(w.logs.len() as f64)),
        ("lines", Json::Num(w.lines as f64)),
        ("bytes", Json::Num(w.bytes as f64)),
        ("coalesced", Json::Num(off_out.0 as f64)),
        ("disabled", disabled.to_json()),
        ("recording", recording.to_json()),
        (
            "overhead_pct",
            Json::Num((overhead_pct * 100.0).round() / 100.0),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_cross_checks_and_round_trips() {
        let doc = obs_report(true).expect("obs smoke succeeds");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gpures-bench-obs/v1")
        );
        assert!(doc.get("coalesced").and_then(Json::as_u64).expect("count") > 0);
        assert!(doc.get("overhead_pct").and_then(Json::as_f64).is_some());
        assert_eq!(Json::parse(&doc.render()).expect("parses"), doc);
    }
}
