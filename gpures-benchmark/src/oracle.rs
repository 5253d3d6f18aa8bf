//! The correctness oracle: how every pass's output is reduced to one
//! digest, and the reference digest it must equal, computed through the
//! batch route (`PipelineBuilder::run_records`) over the oracle records.

use crate::harness::Fnv64;
use dr_xid::{DataError, ErrorRecord};
use resilience_core::{
    CoalesceConfig, PipelineBuilder, RecordSource, RecordStore, StudyConfig, StudyResults,
};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// The stdout report `gpures analyze` prints: Table 1, Tables 2/3 when
/// jobs were joined, then the summary block.
pub fn render(results: &StudyResults) -> String {
    let mut s = dr_report::render_table1(results).render();
    s.push('\n');
    if let Some(ji) = &results.job_impact {
        s.push_str(&dr_report::render_table2(ji).render());
        s.push('\n');
    }
    if let Some(t3) = &results.table3 {
        s.push_str(&dr_report::render_table3(t3).render());
        s.push('\n');
    }
    s.push_str(&dr_report::render_summary(results));
    s.push('\n');
    s
}

/// Digest of a study result and its rendered report. Episodes are hashed
/// field by field (millions of them would be slow to format); every other
/// section through its `Debug` form, which covers every field.
pub fn digest(results: &StudyResults, report: &str) -> u64 {
    let mut h = Fnv64::default();
    for e in &results.coalesced {
        (e.gpu, e.xid, e.detail, e.start, e.last, e.merged).hash(&mut h);
    }
    // Writing into the hasher cannot fail.
    let _ = write!(
        h,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        results.config,
        results.table1,
        results.overall_mtbe_h,
        results.category_mtbe,
        results.lost_hours,
        results.propagation,
        results.counterfactual,
        results.job_impact,
        results.table3,
        results.downtime,
        results.availability,
    );
    h.write(report.as_bytes());
    h.finish()
}

/// The study configuration `gpures analyze --dt DT --nodes N --hours H`
/// builds.
pub fn study_config(dt: u64, hours: f64, nodes: u32) -> StudyConfig {
    StudyConfig {
        coalesce: CoalesceConfig::with_window_secs(dt),
        ..StudyConfig::ampere_study()
    }
    .with_window(hours, nodes)
}

/// Every record of a store, in stream order per node.
pub fn read_store_records(path: &Path) -> Result<Vec<ErrorRecord>, DataError> {
    let store = RecordStore::open(path)?;
    let mut reader = store.reader(path)?;
    let mut out = Vec::with_capacity(store.record_count() as usize);
    while let Some(batch) = reader.next_batch()? {
        out.extend(batch.records);
    }
    Ok(out)
}

/// The reference digest: the oracle records globally sorted, then the
/// batch route with the workload's jobs and downtime.
pub fn reference_digest(
    records_path: &Path,
    study: StudyConfig,
    jobs: Option<&[dr_slurm::JobRecord]>,
    downtime: Option<&[dr_faults::DowntimeInterval]>,
) -> Result<u64, String> {
    let mut records = read_store_records(records_path).map_err(|e| e.to_string())?;
    dr_xid::record::sort_records(&mut records);
    let results = PipelineBuilder::new(study)
        .maybe_jobs(jobs)
        .maybe_downtime(downtime)
        .run_records(&records);
    Ok(digest(&results, &render(&results)))
}
