//! Sample summaries: the median plus the highest percentile that still has
//! at least ten samples beyond it, always reported with the sample count.

/// Samples beyond a reported tail percentile, at minimum.
const TAIL_SAMPLES: usize = 10;
/// The tail percentile reported once there are enough samples for it.
const MAX_TAIL_PCT: f64 = 99.0;

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The tail percentile reported (99, or lower with fewer samples).
    pub tail_pct: f64,
    /// Value at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// The highest whole percentile, capped at p99, with at least
/// [`TAIL_SAMPLES`] samples beyond it; `None` below 20 samples (the tail
/// would fall under the median).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    let pct = (100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)).floor();
    Some(pct.min(MAX_TAIL_PCT))
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank); `NaN` for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Summarize samples; `None` when there are too few for a tail.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_pct = tail_percentile(samples.len())?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        p50: percentile_sorted(&v, 50.0),
        tail_pct,
        tail: percentile_sorted(&v, tail_pct),
    })
}

/// Arithmetic mean; `NaN` for none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(128), Some(92.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
        for n in [20, 57, 128, 600, 999, 1000, 5000] {
            let pct = tail_percentile(n).unwrap();
            let beyond = n - ((pct / 100.0) * n as f64).ceil() as usize;
            assert!(beyond >= TAIL_SAMPLES, "n={n} pct={pct} leaves {beyond}");
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        // 1..=1000 shuffled: median 500, p99 990 by nearest rank.
        let samples: Vec<f64> = (1..=1000).map(|i| ((i * 7919) % 1000 + 1) as f64).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);

        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&few).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (100, 50.0, 90.0, 90.0));
        assert!(summarize(&few[..10]).is_none());
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
