//! The common interface every anomaly-detection method implements, so the
//! benchmark harness can sweep methods × datasets uniformly.
//!
//! Every lifecycle method is fallible: a method that cannot handle its
//! input (too short, wrong width, diverged training) reports a
//! [`DetectorError`] instead of aborting the whole benchmark grid. `fit`
//! traces per-epoch progress to [`tranad_telemetry::current`].

use tranad_data::TimeSeries;

pub(crate) use tranad::DetectorError;

/// Training diagnostics shared by all methods (feeds Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct FitReport {
    /// Wall-clock seconds per epoch (for MERLIN: total discovery time, as
    /// in the paper's Table 5 footnote).
    pub seconds_per_epoch: f64,
    /// Number of epochs run.
    pub epochs: usize,
}

/// A multivariate time-series anomaly detector.
///
/// The lifecycle is `fit` on a raw (unnormalized) training series, then
/// `score` any number of test series. Scores are per-timestamp,
/// per-dimension, non-negative, and higher = more anomalous.
pub trait Detector {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Fits the detector. Must succeed before `score`.
    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError>;

    /// Per-dimension anomaly scores, `scores[t][d]`. Fails with
    /// [`DetectorError::NotFitted`] before a successful `fit`.
    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError>;

    /// Scores on the training series (the POT calibration sample). Fails
    /// with [`DetectorError::NotFitted`] before a successful `fit`.
    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError>;

    /// Optional method-specific labeling (e.g. LSTM-NDT's NDT thresholds).
    /// `None` means the harness applies the shared POT procedure.
    fn native_labels(&self, _test: &TimeSeries) -> Option<Vec<bool>> {
        None
    }
}

/// Aggregates per-dimension scores into a per-timestamp score (mean).
///
/// An empty or NaN-containing row means the detector produced no usable
/// score for that timestamp — previously this silently mapped to `0.0`
/// ("perfectly normal"), hiding upstream bugs; now it is
/// [`DetectorError::MalformedScores`].
pub fn aggregate_scores(scores: &[Vec<f64>]) -> Result<Vec<f64>, DetectorError> {
    scores
        .iter()
        .enumerate()
        .map(|(t, row)| {
            if row.is_empty() || row.iter().any(|v| v.is_nan()) {
                return Err(DetectorError::MalformedScores { timestamp: t });
            }
            Ok(row.iter().sum::<f64>() / row.len() as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_is_row_mean() {
        let s = vec![vec![1.0, 3.0], vec![0.0, 0.0]];
        assert_eq!(aggregate_scores(&s).unwrap(), vec![2.0, 0.0]);
    }

    #[test]
    fn aggregate_rejects_empty_rows() {
        let s: Vec<Vec<f64>> = vec![vec![1.0], vec![]];
        assert_eq!(
            aggregate_scores(&s).unwrap_err(),
            DetectorError::MalformedScores { timestamp: 1 }
        );
    }

    #[test]
    fn aggregate_rejects_nan_rows() {
        let s = vec![vec![1.0, f64::NAN]];
        assert_eq!(
            aggregate_scores(&s).unwrap_err(),
            DetectorError::MalformedScores { timestamp: 0 }
        );
    }
}
