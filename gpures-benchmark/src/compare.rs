//! `compare A B`: a verdict of better, same, worse or unresolved for every
//! (workload, end-to-end metric) pair of two result files, using the
//! regression bounds in `BENCHMARK.json`.
//!
//! A result file holds one JSON object per line, as `run --out` appends
//! them; the i-th run of a workload in A is paired with the i-th in B.
//! With at least ten pairs, "better" needs the change to win nine tenths
//! of them and to move the median by more than the parent's own
//! interquartile range. "Worse" means the median moved the wrong way by
//! more than the bound. When the spread of either side's runs exceeds the
//! bound the verdict is "unresolved", unless every run of B beats every
//! run of A.

use crate::at;
use crate::harness::quartiles;
use dr_obs::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One `BENCHMARK.json` end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The end-to-end metrics and bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(at(path))?;
    let doc = Json::parse(&text).map_err(at(path))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: metric without `{k}`", path.display()))
            };
            let better = match s("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{}: bad `better` {other:?}", path.display())),
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                better,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: metric without `bound`", path.display()))?,
            })
        })
        .collect()
}

/// Per workload, the runs' metric values in file order.
pub type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Read a result file written by `run --out`.
pub fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(at(path))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let line_at = || format!("{}:{}", path.display(), i + 1);
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", line_at()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no `workload`", line_at()))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no `metrics`", line_at()));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_string()).or_default().push(values);
    }
    Ok(runs)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quartiles(&s).1
}

/// Interquartile range of `v` (0 for fewer than two values).
fn iqr(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (q1, _, q3) = quartiles(&s);
    q3 - q1
}

/// The verdict for one metric: `a` are the parent's runs, `b` the
/// change's, paired by index.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    if pairs >= 10 {
        let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
        if wins * 10 >= pairs * 9 && (mb - ma).abs() > iqr(a) {
            return Verdict::Better;
        }
    }
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        return Verdict::Worse;
    }
    let spread = |v: &[f64]| {
        let m = median(v);
        if m == 0.0 {
            0.0
        } else {
            iqr(v) / m.abs()
        }
    };
    let all_beat = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if spread(a).max(spread(b)) > bound && !all_beat {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// One line of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a_median: f64,
    pub b_median: f64,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compare every workload present in both files on every bounded metric.
pub fn compare(a: &Runs, b: &Runs, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_runs) in a {
        let Some(b_runs) = b.get(workload) else {
            continue;
        };
        for m in bounds {
            let col = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect()
            };
            let (av, bv) = (col(a_runs), col(b_runs));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a_median: if av.is_empty() { f64::NAN } else { median(&av) },
                b_median: if bv.is_empty() { f64::NAN } else { median(&bv) },
                pairs: av.len().min(bv.len()),
                verdict: verdict(&av, &bv, m.better, m.bound),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_are_the_same() {
        let v = [1.0, 1.02, 0.99];
        assert_eq!(verdict(&v, &v, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        assert_eq!(verdict(&[1.0], &[1.2], Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&[10.0], &[8.0], Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(verdict(&[1.0], &[1.05], Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn better_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&a[..9], &b[..9], Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [1.0, 1.5, 0.6, 1.4];
        let b = [1.0, 1.6, 0.7, 1.3];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::Unresolved);
    }
}
