//! Statistical comparison of detectors across datasets: Friedman test,
//! Wilcoxon signed-rank test, and critical-difference average ranks
//! (paper Figure 4).

/// Average ranks of `k` methods over `n` datasets.
///
/// `scores[d][m]` is the score of method `m` on dataset `d`; higher is
/// better. Ties share the average rank; rank 1 is best.
pub(crate) fn average_ranks(scores: &[Vec<f64>]) -> Vec<f64> {
    assert!(!scores.is_empty(), "no datasets");
    let k = scores[0].len();
    let mut sums = vec![0.0; k];
    for row in scores {
        assert_eq!(row.len(), k, "ragged score matrix");
        let ranks = rank_descending(row);
        for (s, r) in sums.iter_mut().zip(&ranks) {
            *s += r;
        }
    }
    let n = scores.len() as f64;
    sums.iter().map(|s| s / n).collect()
}

/// Ranks one row with ties averaged; the highest value gets rank 1.
fn rank_descending(row: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("NaN score"));
    let mut ranks = vec![0.0; row.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && row[idx[j + 1]] == row[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &m in &idx[i..=j] {
            ranks[m] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Friedman chi-square statistic and its (Iman–Davenport) F refinement for
/// `k` methods over `n` datasets.
#[derive(Debug, Clone, Copy)]
pub struct FriedmanResult {
    /// Friedman chi-square statistic (df = k-1).
    pub chi_square: f64,
    /// Iman–Davenport F statistic (df = (k-1, (k-1)(n-1))).
    pub f_statistic: f64,
    /// True if chi-square exceeds the 0.05 critical value (chi-square
    /// approximation), i.e. the methods differ significantly.
    pub significant_05: bool,
}

/// Runs the Friedman test on a `[dataset][method]` score matrix.
pub(crate) fn friedman_test(scores: &[Vec<f64>]) -> FriedmanResult {
    let n = scores.len() as f64;
    let k = scores[0].len() as f64;
    assert!(k >= 2.0 && n >= 2.0, "need >= 2 methods and >= 2 datasets");
    let ranks = average_ranks(scores);
    let sum_sq: f64 = ranks.iter().map(|r| r * r).sum();
    let chi = 12.0 * n / (k * (k + 1.0)) * (sum_sq - k * (k + 1.0) * (k + 1.0) / 4.0);
    let f = if (n * (k - 1.0) - chi).abs() < 1e-12 {
        f64::INFINITY
    } else {
        (n - 1.0) * chi / (n * (k - 1.0) - chi)
    };
    let crit = chi_square_critical_05(k as usize - 1);
    FriedmanResult {
        chi_square: chi,
        f_statistic: f,
        significant_05: chi > crit,
    }
}

/// 0.05 critical values of the chi-square distribution (df 1..=30), with a
/// Wilson–Hilferty approximation beyond the table.
fn chi_square_critical_05(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919, 18.307, 19.675, 21.026,
        22.362, 23.685, 24.996, 26.296, 27.587, 28.869, 30.144, 31.410, 32.671, 33.924, 35.172,
        36.415, 37.652, 38.885, 40.113, 41.337, 42.557, 43.773,
    ];
    if df == 0 {
        return 0.0;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        // Wilson–Hilferty: chi2_p ≈ df (1 - 2/(9 df) + z_p sqrt(2/(9 df)))^3
        let d = df as f64;
        let z = 1.6449; // z_{0.95}
        d * (1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt()).powi(3)
    }
}

/// Two-sided p-value of the paired Wilcoxon signed-rank test of `a` vs `b`
/// (zeros discarded, ties mid-ranked, normal approximation with tie
/// correction).
pub(crate) fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must match");
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| x - y)
        .filter(|d| d.abs() > 1e-15)
        .collect();
    let n = diffs.len();
    if n == 0 {
        return 1.0;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diffs[i]
            .abs()
            .partial_cmp(&diffs[j].abs())
            .expect("NaN diff")
    });
    let mut ranks = vec![0.0; n];
    let mut tie_correction = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && (diffs[order[j + 1]].abs() - diffs[order[i]].abs()).abs() < 1e-15 {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        let t = (j - i + 1) as f64;
        tie_correction += t * t * t - t;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    let w_plus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(&d, _)| d > 0.0)
        .map(|(_, &r)| r)
        .sum();
    let w_minus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(&d, _)| d < 0.0)
        .map(|(_, &r)| r)
        .sum();
    let w = w_plus.min(w_minus);
    let nf = n as f64;
    let mean = nf * (nf + 1.0) / 4.0;
    let var = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0 - tie_correction / 48.0;
    if var <= 0.0 {
        return 1.0;
    }
    let z = (w - mean) / var.sqrt();
    let p = 2.0 * normal_cdf(z); // z <= 0 since w is the smaller sum
    p.min(1.0)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7.
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// One entry of a critical-difference comparison.
#[derive(Debug, Clone)]
pub struct CdEntry {
    /// Method name.
    pub name: String,
    /// Average rank (1 = best).
    pub rank: f64,
}

/// Builds the Figure-4-style critical-difference summary: methods sorted by
/// average rank plus pairwise Wilcoxon p-values against the top-ranked
/// method.
pub fn critical_difference(
    names: &[&str],
    scores: &[Vec<f64>],
) -> (Vec<CdEntry>, FriedmanResult, Vec<(String, f64)>) {
    let ranks = average_ranks(scores);
    let friedman = friedman_test(scores);
    let mut entries: Vec<CdEntry> = names
        .iter()
        .zip(&ranks)
        .map(|(&n, &r)| CdEntry {
            name: n.to_string(),
            rank: r,
        })
        .collect();
    entries.sort_by(|a, b| a.rank.partial_cmp(&b.rank).expect("NaN rank"));
    let best_idx = names
        .iter()
        .position(|&n| n == entries[0].name)
        .expect("best method present");
    let best_scores: Vec<f64> = scores.iter().map(|row| row[best_idx]).collect();
    let mut pvals = Vec::new();
    for (m, &name) in names.iter().enumerate() {
        if m == best_idx {
            continue;
        }
        let other: Vec<f64> = scores.iter().map(|row| row[m]).collect();
        pvals.push((name.to_string(), wilcoxon_signed_rank(&best_scores, &other)));
    }
    (entries, friedman, pvals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple() {
        let scores = vec![vec![0.9, 0.5, 0.1], vec![0.8, 0.6, 0.2]];
        let ranks = average_ranks(&scores);
        assert_eq!(ranks, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ranks_with_ties() {
        let scores = vec![vec![0.5, 0.5, 0.1]];
        let ranks = average_ranks(&scores);
        assert_eq!(ranks, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn friedman_detects_consistent_winner() {
        // method 0 always best, 2 always worst, over 10 datasets
        let scores: Vec<Vec<f64>> = (0..10)
            .map(|d| vec![0.9 + d as f64 * 1e-3, 0.5, 0.1])
            .collect();
        let r = friedman_test(&scores);
        assert!(r.significant_05, "chi {}", r.chi_square);
    }

    #[test]
    fn friedman_no_difference() {
        // Alternate which method wins so ranks even out.
        let scores = vec![
            vec![0.9, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.1, 0.9],
        ];
        let r = friedman_test(&scores);
        assert!(!r.significant_05);
        assert!(r.chi_square.abs() < 1e-9);
    }

    #[test]
    fn wilcoxon_detects_shift() {
        let a: Vec<f64> = (0..30).map(|i| i as f64 + 1.0).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let p = wilcoxon_signed_rank(&a, &b);
        assert!(p < 0.01, "p {p}");
    }

    #[test]
    fn wilcoxon_identical_samples() {
        let a = vec![1.0, 2.0, 3.0];
        assert_eq!(wilcoxon_signed_rank(&a, &a), 1.0);
    }

    #[test]
    fn wilcoxon_symmetric_differences() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 1.0, 4.0, 3.0];
        assert!(wilcoxon_signed_rank(&a, &b) > 0.5);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.6449) - 0.95).abs() < 1e-3);
        assert!(normal_cdf(-5.0) < 1e-5);
    }

    #[test]
    fn critical_difference_orders_methods() {
        let names = ["good", "mid", "bad"];
        let scores: Vec<Vec<f64>> = (0..8)
            .map(|d| vec![0.9, 0.5 + (d % 2) as f64 * 0.01, 0.1])
            .collect();
        let (entries, friedman, pvals) = critical_difference(&names, &scores);
        assert_eq!(entries[0].name, "good");
        assert_eq!(entries[2].name, "bad");
        assert!(friedman.significant_05);
        assert_eq!(pvals.len(), 2);
    }
}
