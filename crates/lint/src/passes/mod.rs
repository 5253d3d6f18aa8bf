//! The repo-specific lint passes: seven file-local, three
//! interprocedural, one over the shipped `.scn` scenarios.

pub mod boundedchan;
pub mod determinism;
pub mod hotalloc;
pub mod layerdag;
pub mod obsiso;
pub mod reach;
pub mod scenariohygiene;
pub mod streamhygiene;
pub mod taint;
pub mod taxonomy;
pub mod units;

pub use boundedchan::BoundedChannelsPass;
pub use determinism::DeterminismPass;
pub use hotalloc::HotAllocPass;
pub use layerdag::LayerDagPass;
pub use obsiso::ObsIsolationPass;
pub use reach::ReachPass;
pub use scenariohygiene::ScenarioHygienePass;
pub use streamhygiene::StreamHygienePass;
pub use taint::TaintPass;
pub use taxonomy::TaxonomyPass;
pub use units::UnitsPass;

use crate::Pass;

/// Every pass, in the order findings are reported.
pub fn all() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(BoundedChannelsPass),
        Box::new(DeterminismPass),
        Box::new(HotAllocPass),
        Box::new(LayerDagPass),
        Box::new(ObsIsolationPass),
        Box::new(ReachPass),
        Box::new(ScenarioHygienePass),
        Box::new(StreamHygienePass),
        Box::new(TaintPass),
        Box::new(UnitsPass),
        Box::new(TaxonomyPass),
    ]
}

/// One-paragraph rationale per lint id, for `dr-lint --explain <id>`.
pub fn explain(id: &str) -> Option<&'static str> {
    Some(match id {
        boundedchan::ID => {
            "Forbids unbounded channels (`mpsc::channel`) in library crates. The pipeline's \
             memory contract is O(workers × chunk_bytes) resident text; an unbounded queue \
             between a fast producer and a slower consumer absorbs the corpus and repeals \
             the bound silently. Cross-thread handoffs must use `mpsc::sync_channel(n)`, \
             whose blocking `send` is the back-pressure (the prefetcher pairs a one-slot \
             unit channel with a two-credit return channel). Waive a provably bounded queue with \
             `// dr-lint: allow(bounded-channels): <why it is bounded>`."
        }
        determinism::ID => {
            "Forbids ambient randomness (`thread_rng`), wall-clock reads \
             (`SystemTime::now`/`Instant::now` outside crates/obs/src/clock.rs), and \
             `HashMap`/`HashSet` in library code. The repo's headline invariant is \
             bit-reproducible campaigns under any thread count; these constructs break it \
             silently. Waive order-free hash lookups with \
             `// dr-lint: allow(determinism): <why order cannot matter>`."
        }
        reach::ID => {
            "Interprocedural: computes the call-graph transitive closure from the pipeline \
             entry points (PipelineBuilder::run_source, PipelineBuilder::run_record_source, \
             Campaign::run_observed, Scheduler::run_observed) and flags every reachable \
             `.unwrap()`, `.expect(…)`, \
             `panic!`-family macro, and indexing expression without a visible bounds guard. \
             The graph over-approximates calls by name, so a clean run proves the closure \
             panic-free. Legacy `allow(panic-freedom)` comments still waive findings."
        }
        taint::ID => {
            "Interprocedural: seeds taint at functions reading ambient nondeterminism (wall \
             clock, thread_rng, thread identity, hash-iteration order), propagates it from \
             callee to caller along call edges, and flags tainted functions that touch \
             `StudyResults`. dr-obs is a write-only sanitizer boundary: span instrumentation \
             does not taint callers, but its read-back surface (export_json, elapsed_s, now, \
             start) does."
        }
        layerdag::ID => {
            "Interprocedural: workspace `use` edges must stay inside the crate layer DAG \
             declared in crates/lint/src/graph.rs (CRATES, mirroring the Cargo manifests). \
             Cargo rejects undeclared deps; this pass additionally makes *widening* the \
             layering a reviewed change to the lint table. Test-region imports are exempt \
             (dev-dependencies may reach across layers)."
        }
        obsiso::ID => {
            "Observability must describe the run, never the results: outside crates/obs \
             and src/bin, code may not call the obs read-back surface \
             (export_json, Stopwatch, clock::now). Keeps span timing from leaking into \
             analysis numbers."
        }
        "hot-alloc" => {
            "Flags per-record allocation patterns (format!/to_string/Vec::new in inner parse \
             loops) on the streaming path, where they dominate 202-GB-scale extraction cost."
        }
        scenariohygiene::ID => {
            "Keeps the `.scn` scenario front end honest from both sides. Every shipped \
             file under scenarios/ must pass a structural check (header first and named \
             after the file stem, known statement keywords, balanced braces, the \
             required fleet/duration_days/rates/seeds statements present) so a battery \
             cannot rot in-tree and only fail at `gpures sweep` time. And outside \
             crates/faults and crates/scenario, non-test code may not build \
             `CampaignConfig` from a from-scratch struct literal — start from a preset \
             constructor (`..CampaignConfig::tiny(seed)`) or compile a scenario, so the \
             coupled fleet/rates/tuning knobs cannot drift from the presets silently."
        }
        "stream-hygiene" => {
            "Streaming sources must stay bounded-memory: no slurping whole files \
             (`read_to_string`, `fs::read`, `read_to_end`), no unbounded channel buffers \
             on the campaign→extract→coalesce path. Record stores are read block-by-block \
             through their footer index, never materialized whole."
        }
        "unit-hygiene" => {
            "Time-valued parameters and fields must carry a unit suffix (_s, _ms, _h, \
             _days): the paper's MTBE tables mix hour and day scales, and a bare `elapsed` \
             has already caused one silent 3600x error class in review."
        }
        "xid-taxonomy" => {
            "XID codes must be handled through dr-xid's taxonomy (one source of truth for \
             the paper's studied-XID set), not ad-hoc integer literals scattered per crate."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_pass_has_an_explanation() {
        for pass in all() {
            assert!(
                explain(pass.id()).is_some(),
                "pass `{}` has no --explain text",
                pass.id()
            );
        }
    }

    #[test]
    fn unknown_ids_explain_to_none() {
        assert!(explain("no-such-lint").is_none());
    }
}
