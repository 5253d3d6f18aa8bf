//! Exact quantiles over collected samples.

/// Linear-interpolation quantile over an **already sorted** slice
/// (type-7 / the default used by R and NumPy). `q` in `[0, 1]`.
///
/// Returns `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// The (mean, P50, P95) triple reported for error persistence in Table 1.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SummaryStats {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
}

impl SummaryStats {
    /// Compute from raw samples. Empty input yields an all-zero summary.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return SummaryStats::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let sum: f64 = v.iter().sum();
        SummaryStats {
            count: v.len() as u64,
            mean: sum / v.len() as f64,
            p50: quantile_sorted(&v, 0.50).unwrap_or(0.0),
            p95: quantile_sorted(&v, 0.95).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_quantile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn summary_stats_match_hand_computation() {
        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 22.0).abs() < 1e-12);
        assert_eq!(s.p50, 3.0);
        // p95 interpolates between 4.0 and 100.0 at pos 3.8.
        assert!((s.p95 - (4.0 * 0.2 + 100.0 * 0.8)).abs() < 1e-9);
    }

    #[test]
    fn summary_stats_empty() {
        assert_eq!(SummaryStats::from_samples(&[]), SummaryStats::default());
    }

    proptest! {
        /// The exact quantile is monotone in q and bounded by min/max.
        #[test]
        fn quantile_monotone(mut xs in prop::collection::vec(-1e6f64..1e6, 1..50),
                             q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = (q1.min(q2), q1.max(q2));
            let a = quantile_sorted(&xs, lo).unwrap();
            let b = quantile_sorted(&xs, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
            prop_assert!(a >= xs[0] - 1e-9 && b <= xs[xs.len() - 1] + 1e-9);
        }
    }
}
