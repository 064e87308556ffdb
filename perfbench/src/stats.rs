//! The benchmark's own arithmetic: percentiles, medians and failure ratios.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending. NaN sorts last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of ascending `sorted` for `p` in `(0, 1]`: the
/// smallest sample with at least a share `p` of all samples at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// strictly beyond it; a tail percentile of fewer samples is an anecdote.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 0.5)
}

/// Share of attempted operations that failed; 0 when nothing was attempted.
pub fn failure_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = one_to(10);
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.51), Some(6.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 samples beyond.
        let v = one_to(1000);
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        let v = one_to(999);
        assert_eq!(tail_percentile(&v, 0.99), None);
        // The median of 21 samples has 10 beyond it; of 20, rank 10 has 10.
        assert_eq!(tail_percentile(&one_to(21), 0.5), Some(11.0));
        assert_eq!(tail_percentile(&one_to(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&one_to(19), 0.5), None);
    }

    #[test]
    fn failed_samples_sort_to_the_tail() {
        let mut v = one_to(1000);
        v[3] = f64::INFINITY;
        let s = sorted(&v);
        assert_eq!(s[999], f64::INFINITY);
        assert_eq!(tail_percentile(&s, 0.99), Some(991.0));
    }

    #[test]
    fn failure_ratio_counts_against_attempts() {
        assert_eq!(failure_ratio(0, 0), 0.0);
        assert_eq!(failure_ratio(200, 0), 0.0);
        assert_eq!(failure_ratio(200, 3), 0.015);
        assert_eq!(failure_ratio(4, 4), 1.0);
    }
}
