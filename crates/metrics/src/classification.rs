//! Binary detection metrics: precision, recall, F1, ROC-AUC, the
//! point-adjust protocol, and best-F1 threshold search.

/// Confusion-matrix counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies predictions against ground truth (equal lengths required).
    pub fn from_labels(pred: &[bool], truth: &[bool]) -> Confusion {
        assert_eq!(pred.len(), truth.len(), "label length mismatch");
        let mut c = Confusion::default();
        for (&p, &t) in pred.iter().zip(truth) {
            match (p, t) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision `tp / (tp + fp)`; 1.0 when nothing was predicted positive
    /// (the lenient convention used by the TSAD evaluation scripts).
    pub(crate) fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return if self.fn_ == 0 { 1.0 } else { 0.0 };
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall `tp / (tp + fn)`; 1.0 when there are no positives to find.
    pub(crate) fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The point-adjust protocol (Xu et al. 2018; used by OmniAnomaly, USAD,
/// TranAD): if any point inside a contiguous ground-truth anomaly segment is
/// predicted anomalous, every point of that segment is counted as detected.
///
/// Returns the adjusted prediction vector.
pub fn point_adjust(pred: &[bool], truth: &[bool]) -> Vec<bool> {
    assert_eq!(pred.len(), truth.len(), "label length mismatch");
    let mut adjusted = pred.to_vec();
    let mut i = 0;
    while i < truth.len() {
        if truth[i] {
            let start = i;
            while i < truth.len() && truth[i] {
                i += 1;
            }
            let end = i; // [start, end)
            if pred[start..end].iter().any(|&p| p) {
                for a in &mut adjusted[start..end] {
                    *a = true;
                }
            }
        } else {
            i += 1;
        }
    }
    adjusted
}

/// Detection summary computed from scores.
#[derive(Debug, Clone, Copy)]
pub struct DetectionMetrics {
    /// Precision after point adjustment.
    pub precision: f64,
    /// Recall after point adjustment.
    pub recall: f64,
    /// F1 after point adjustment.
    pub f1: f64,
    /// Area under the ROC curve of the *raw* scores.
    pub auc: f64,
}

/// Evaluates binary predictions with point adjustment plus score AUC.
pub fn evaluate(scores: &[f64], pred: &[bool], truth: &[bool]) -> DetectionMetrics {
    let adjusted = point_adjust(pred, truth);
    let c = Confusion::from_labels(&adjusted, truth);
    DetectionMetrics {
        precision: c.precision(),
        recall: c.recall(),
        f1: c.f1(),
        auc: roc_auc(scores, truth),
    }
}

/// Area under the ROC curve via the Mann–Whitney U statistic, with tie
/// correction. Returns 0.5 when either class is empty.
pub fn roc_auc(scores: &[f64], truth: &[bool]) -> f64 {
    assert_eq!(scores.len(), truth.len(), "score/label length mismatch");
    let n_pos = truth.iter().filter(|&&t| t).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank all scores (average rank for ties).
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("NaN score"));
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = truth
        .iter()
        .zip(&ranks)
        .filter(|(&t, _)| t)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [true, true, false, false];
        let truth = [true, false, true, false];
        let c = Confusion::from_labels(&pred, &truth);
        assert_eq!(
            c,
            Confusion {
                tp: 1,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert_eq!(c.precision(), 0.5);
        assert_eq!(c.recall(), 0.5);
        assert_eq!(c.f1(), 0.5);
    }

    #[test]
    fn perfect_prediction() {
        let labels = [true, false, true];
        let c = Confusion::from_labels(&labels, &labels);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn empty_positive_class() {
        let c = Confusion::from_labels(&[false; 4], &[false; 4]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn point_adjust_expands_partial_hits() {
        let truth = [false, true, true, true, false, true];
        let pred = [false, false, true, false, false, false];
        let adj = point_adjust(&pred, &truth);
        assert_eq!(adj, vec![false, true, true, true, false, false]);
    }

    #[test]
    fn point_adjust_keeps_false_positives() {
        let truth = [false, false, true];
        let pred = [true, false, true];
        let adj = point_adjust(&pred, &truth);
        assert_eq!(adj, vec![true, false, true]);
    }

    #[test]
    fn point_adjust_is_monotone() {
        // Adding predictions can only add adjusted positives.
        let truth = [true, true, false, true, true, true];
        let a = [false, false, false, false, true, false];
        let b = [true, false, false, false, true, false];
        let adj_a = point_adjust(&a, &truth);
        let adj_b = point_adjust(&b, &truth);
        for (x, y) in adj_a.iter().zip(&adj_b) {
            assert!(!x | y, "monotonicity violated");
        }
    }

    #[test]
    fn auc_perfect_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let truth = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &truth), 1.0);
    }

    #[test]
    fn auc_inverted() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let truth = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &truth), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let truth = [true, false, true, false];
        assert_eq!(roc_auc(&scores, &truth), 0.5);
    }

    #[test]
    fn auc_single_class() {
        assert_eq!(roc_auc(&[1.0, 2.0], &[false, false]), 0.5);
    }

    #[test]
    fn evaluate_combines_point_adjust_and_auc() {
        let truth = [false, true, true, false];
        let pred = [false, true, false, false];
        let scores = [0.1, 0.9, 0.2, 0.1];
        let m = evaluate(&scores, &pred, &truth);
        // point-adjust turns the partial segment hit into full recall
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.f1, 1.0);
    }
}
