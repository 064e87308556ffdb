//! Anomaly-diagnosis (root-cause) metrics: HitRate@P% and NDCG@P%
//! (paper §4.2.2, Table 4).
//!
//! At each anomalous timestamp the detector produces per-dimension scores;
//! the ground truth marks which dimensions are anomalous. With `g` true
//! dimensions, `P%` considers the top `ceil(g * P / 100)` predicted
//! dimensions.

/// Computes HitRate@P% for one timestamp: the fraction of ground-truth
/// dimensions appearing in the top-`ceil(g*p)` scored dimensions.
pub(crate) fn hit_rate_at(scores: &[f64], truth: &[bool], p: f64) -> Option<f64> {
    let g = truth.iter().filter(|&&t| t).count();
    if g == 0 {
        return None;
    }
    let k = ((g as f64 * p).ceil() as usize).clamp(1, scores.len());
    let top = top_k_indices(scores, k);
    let hits = top.iter().filter(|&&i| truth[i]).count();
    Some(hits as f64 / g as f64)
}

/// Computes NDCG@P% for one timestamp: discounted cumulative gain of the
/// top-`ceil(g*p)` ranking with binary relevance, normalized by the ideal
/// ordering.
pub(crate) fn ndcg_at(scores: &[f64], truth: &[bool], p: f64) -> Option<f64> {
    let g = truth.iter().filter(|&&t| t).count();
    if g == 0 {
        return None;
    }
    let k = ((g as f64 * p).ceil() as usize).clamp(1, scores.len());
    let top = top_k_indices(scores, k);
    let mut dcg = 0.0;
    for (rank, &i) in top.iter().enumerate() {
        if truth[i] {
            dcg += 1.0 / ((rank + 2) as f64).log2();
        }
    }
    let ideal: f64 = (0..g.min(k)).map(|r| 1.0 / ((r + 2) as f64).log2()).sum();
    Some(dcg / ideal)
}

/// Aggregated diagnosis metrics over a full test set.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiagnosisMetrics {
    /// HitRate@100%.
    pub hit100: f64,
    /// HitRate@150%.
    pub hit150: f64,
    /// NDCG@100%.
    pub ndcg100: f64,
    /// NDCG@150%.
    pub ndcg150: f64,
}

/// Averages the per-timestamp metrics over every timestamp that has at
/// least one ground-truth anomalous dimension.
///
/// `scores[t]` are the per-dimension anomaly scores at timestamp `t`;
/// `truth[t]` the per-dimension ground-truth labels.
pub fn diagnose(scores: &[Vec<f64>], truth: &[Vec<bool>]) -> DiagnosisMetrics {
    assert_eq!(scores.len(), truth.len(), "timestamp count mismatch");
    let mut sums = DiagnosisMetrics::default();
    let mut n = 0usize;
    for (s, t) in scores.iter().zip(truth) {
        assert_eq!(s.len(), t.len(), "dimension count mismatch");
        let (Some(h1), Some(h15), Some(n1), Some(n15)) = (
            hit_rate_at(s, t, 1.0),
            hit_rate_at(s, t, 1.5),
            ndcg_at(s, t, 1.0),
            ndcg_at(s, t, 1.5),
        ) else {
            continue;
        };
        sums.hit100 += h1;
        sums.hit150 += h15;
        sums.ndcg100 += n1;
        sums.ndcg150 += n15;
        n += 1;
    }
    if n > 0 {
        let nf = n as f64;
        sums.hit100 /= nf;
        sums.hit150 /= nf;
        sums.ndcg100 /= nf;
        sums.ndcg150 /= nf;
    }
    sums
}

/// Indices of the `k` largest scores, in descending score order
/// (deterministic tie-break by index).
fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("NaN score")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_perfect_ranking() {
        let scores = [0.9, 0.8, 0.1, 0.05];
        let truth = [true, true, false, false];
        assert_eq!(hit_rate_at(&scores, &truth, 1.0), Some(1.0));
    }

    #[test]
    fn hit_rate_partial() {
        let scores = [0.9, 0.1, 0.8, 0.05];
        let truth = [true, true, false, false];
        // top-2 = {0, 2}; only dim 0 is true -> 1/2
        assert_eq!(hit_rate_at(&scores, &truth, 1.0), Some(0.5));
        // top-3 = {0, 2, 1}; both true dims found -> 1.0
        assert_eq!(hit_rate_at(&scores, &truth, 1.5), Some(1.0));
    }

    #[test]
    fn hit_rate_no_anomalous_dims() {
        assert_eq!(hit_rate_at(&[0.1, 0.2], &[false, false], 1.0), None);
    }

    #[test]
    fn ndcg_perfect_is_one() {
        let scores = [0.9, 0.8, 0.1];
        let truth = [true, true, false];
        let n = ndcg_at(&scores, &truth, 1.0).unwrap();
        assert!((n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_penalizes_low_ranked_hits() {
        let good = ndcg_at(&[0.9, 0.8, 0.1], &[true, false, true], 1.0).unwrap();
        let bad = ndcg_at(&[0.1, 0.9, 0.8], &[true, false, true], 1.0).unwrap();
        assert!(good > bad);
    }

    #[test]
    fn p150_considers_more_candidates() {
        let scores = [0.5, 0.9, 0.1];
        let truth = [true, false, false];
        // g=1: top-1 is dim 1 (false) -> 0; top-ceil(1.5)=2 includes dim 0.
        assert_eq!(hit_rate_at(&scores, &truth, 1.0), Some(0.0));
        assert_eq!(hit_rate_at(&scores, &truth, 1.5), Some(1.0));
    }

    #[test]
    fn diagnose_averages_only_anomalous_timestamps() {
        let scores = vec![vec![0.9, 0.1], vec![0.1, 0.2], vec![0.1, 0.9]];
        let truth = vec![
            vec![true, false],
            vec![false, false], // skipped
            vec![false, true],
        ];
        let d = diagnose(&scores, &truth);
        assert_eq!(d.hit100, 1.0);
        assert!((d.ndcg100 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagnose_empty_truth_is_zero() {
        let d = diagnose(&[vec![0.5]], &[vec![false]]);
        assert_eq!(d.hit100, 0.0);
    }
}
