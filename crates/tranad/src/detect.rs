//! Online inference, anomaly detection and diagnosis (paper Algorithm 2 and
//! §3.5): POT-thresholded per-dimension labels, OR-reduced to timestamp
//! labels.

use crate::error::DetectorError;
use crate::train::TrainedTranad;
use std::time::Instant;
use tranad_data::TimeSeries;
use tranad_evt::{PotConfig, PotError, Spot};
use tranad_tensor::pool;

/// Detection output for a test series.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Per-dimension anomaly scores `s_i` per timestamp.
    pub scores: Vec<Vec<f64>>,
    /// Aggregate per-timestamp score (mean over dimensions) — used for AUC.
    pub aggregate: Vec<f64>,
    /// Per-dimension labels `y_i = 1(s_i >= POT(s_i))`.
    pub dim_labels: Vec<Vec<bool>>,
    /// Timestamp labels `y = ∨_i y_i` (Eq. 14).
    pub labels: Vec<bool>,
    /// The per-dimension POT thresholds.
    pub thresholds: Vec<f64>,
}

impl TrainedTranad {
    /// Runs Algorithm 2 on a raw test series: scores every timestamp,
    /// fits POT per dimension on the training scores, and labels. Traces
    /// to [`tranad_telemetry::current`]: a `detect.score` event (window
    /// count, wall time, mean per-window latency, also observed on the
    /// `detect.window_us` histogram) and one `pot.dim` event per dimension.
    pub fn detect(&self, test: &TimeSeries, pot: PotConfig) -> Result<Detection, DetectorError> {
        if test.is_empty() {
            return Err(DetectorError::EmptySeries);
        }
        if test.dims() != self.model.dims() {
            return Err(DetectorError::DimensionMismatch {
                expected: self.model.dims(),
                got: test.dims(),
            });
        }
        let rec = tranad_telemetry::current();
        let _span = tranad_telemetry::span::enter("detect.run");
        let started = Instant::now();
        let scores = {
            let _s = tranad_telemetry::span::enter("detect.score_windows");
            self.score_series(test)
        };
        if rec.enabled() {
            let seconds = started.elapsed().as_secs_f64();
            let us_per_window = 1e6 * seconds / test.len().max(1) as f64;
            rec.observe("detect.window_us", us_per_window);
            rec.emit("detect.score", |e| {
                e.u64("windows", test.len() as u64)
                    .f64("seconds", seconds)
                    .f64("us_per_window", us_per_window);
            });
        }
        label(&self.train_scores, scores, pot)
    }
}

/// Thresholds per-dimension `test_scores` with POT fitted on the
/// corresponding dimension of `calibration_scores` (both `[t][m]`).
///
/// Exposed separately so baseline detectors share the identical decision
/// procedure (the paper applies POT uniformly "for fair comparison").
/// Copies `test_scores` into the returned [`Detection`].
pub fn detect_from_scores(
    calibration_scores: &[Vec<f64>],
    test_scores: &[Vec<f64>],
    pot: PotConfig,
) -> Result<Detection, DetectorError> {
    label(calibration_scores, test_scores.to_vec(), pot)
}

/// The shared labelling code: one SPOT walk per dimension, moving the
/// owned `test_scores` into the result. After the parallel walks, one
/// `pot.dim` event per dimension (threshold, peak count, streaming
/// re-calibrations) goes to [`tranad_telemetry::current`] serially in
/// dimension order, so the trace is deterministic and the computation
/// itself is untouched.
fn label(
    calibration_scores: &[Vec<f64>],
    test_scores: Vec<Vec<f64>>,
    pot: PotConfig,
) -> Result<Detection, DetectorError> {
    if test_scores.is_empty() || calibration_scores.is_empty() {
        return Err(DetectorError::EmptySeries);
    }
    let m = test_scores[0].len();
    if let Some(bad) = calibration_scores.iter().find(|r| r.len() != m) {
        return Err(DetectorError::DimensionMismatch {
            expected: m,
            got: bad.len(),
        });
    }

    let rec = tranad_telemetry::current();
    let _span = tranad_telemetry::span::enter("pot.calibrate");
    // One streaming SPOT per dimension: initialized on the nominal
    // (training) score distribution, adapting on non-alarm test scores so
    // slow regime drift does not flood the detector with false positives.
    // Dimensions are independent, so they run on the thread pool; each
    // dimension's SPOT walk stays sequential, so the result is identical
    // for any thread count.
    type DimResult = Result<(Vec<bool>, f64, usize, u64), PotError>;
    let mut per_dim: Vec<DimResult> = vec![Ok((Vec::new(), 0.0, 0, 0)); m];
    pool::parallel_chunks_mut(&mut per_dim, 1, |d, slot| {
        let calib: Vec<f64> = calibration_scores.iter().map(|r| r[d]).collect();
        slot[0] = Spot::try_init(&calib, pot).map(|mut spot| {
            let labels: Vec<bool> = test_scores.iter().map(|row| spot.step(row[d])).collect();
            (labels, spot.threshold, spot.n_peaks(), spot.refits())
        });
    });
    let mut thresholds = Vec::with_capacity(m);
    let mut dim_labels = vec![vec![false; m]; test_scores.len()];
    for (d, result) in per_dim.into_iter().enumerate() {
        let (labels, threshold, n_peaks, refits) = result.map_err(|e| DetectorError::pot(d, e))?;
        for (t, l) in labels.into_iter().enumerate() {
            dim_labels[t][d] = l;
        }
        rec.emit("pot.dim", |e| {
            e.u64("dim", d as u64)
                .f64("threshold", threshold)
                .u64("n_peaks", n_peaks as u64)
                .u64("refits", refits);
        });
        thresholds.push(threshold);
    }
    let labels: Vec<bool> = dim_labels
        .iter()
        .map(|row| row.iter().any(|&b| b))
        .collect();
    let aggregate: Vec<f64> = test_scores
        .iter()
        .map(|row| row.iter().sum::<f64>() / m as f64)
        .collect();
    Ok(Detection {
        scores: test_scores,
        aggregate,
        dim_labels,
        labels,
        thresholds,
    })
}

/// Labels a test series from the *aggregate* (dimension-averaged) score
/// with a single streaming SPOT — the decision procedure the official
/// TranAD evaluation uses for the detection metrics (the per-dimension OR
/// of Eq. 14 is used for diagnosis). It is [`detect_from_scores`] over the
/// one-column matrix of row means; a failed fit reports `dim: usize::MAX`.
pub fn detect_aggregate(
    calibration_scores: &[Vec<f64>],
    test_scores: &[Vec<f64>],
    pot: PotConfig,
) -> Result<Vec<bool>, DetectorError> {
    let mean = |row: &Vec<f64>| vec![row.iter().sum::<f64>() / row.len().max(1) as f64];
    let calib: Vec<Vec<f64>> = calibration_scores.iter().map(mean).collect();
    let test: Vec<Vec<f64>> = test_scores.iter().map(mean).collect();
    match label(&calib, test, pot) {
        Ok(det) => Ok(det.labels),
        Err(DetectorError::PotFitFailed { detail, .. }) => Err(DetectorError::PotFitFailed {
            dim: usize::MAX,
            detail,
        }),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores_with_anomaly() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let calib: Vec<Vec<f64>> = (0..2000)
            .map(|t| {
                vec![
                    0.01 + 0.005 * ((t % 7) as f64),
                    0.02 + 0.004 * ((t % 5) as f64),
                ]
            })
            .collect();
        let mut test = calib[..500].to_vec();
        for row in test.iter_mut().skip(100).take(5) {
            row[1] = 5.0; // dimension-1 anomaly
        }
        (calib, test)
    }

    #[test]
    fn aggregate_detection_flags_anomaly() {
        let (calib, test) = scores_with_anomaly();
        let labels = detect_aggregate(&calib, &test, PotConfig::default()).unwrap();
        assert!(labels[100..105].iter().all(|&b| b));
        assert!(labels[..100].iter().all(|&b| !b));
    }

    /// The aggregate walk as it was before it went through
    /// `detect_from_scores`: one SPOT initialized on the calibration row
    /// means, stepped over the test row means.
    fn reference_aggregate(
        calib: &[Vec<f64>],
        test: &[Vec<f64>],
        pot: PotConfig,
    ) -> Result<Vec<bool>, DetectorError> {
        let mean = |row: &Vec<f64>| row.iter().sum::<f64>() / row.len().max(1) as f64;
        let means: Vec<f64> = calib.iter().map(mean).collect();
        let mut spot =
            Spot::try_init(&means, pot).map_err(|e| DetectorError::pot(usize::MAX, e))?;
        Ok(test.iter().map(|row| spot.step(mean(row))).collect())
    }

    #[test]
    fn aggregate_labels_match_the_reference_walk() {
        let pot = PotConfig {
            q: 1e-3,
            level: 0.05,
        };
        for seed in 0..6u64 {
            for width in [1, 3, 8] {
                let mut rng = tranad_tensor::Rng::new(seed);
                let mut row = |scale: f64| -> Vec<f64> {
                    (0..width)
                        .map(|_| scale * rng.range_f64(0.0, 1.0).powi(3))
                        .collect()
                };
                let calib: Vec<Vec<f64>> = (0..800).map(|_| row(1.0)).collect();
                let test: Vec<Vec<f64>> = (0..600)
                    .map(|t| row(if t % 97 == 0 { 4.0 } else { 1.2 }))
                    .collect();
                let got = detect_aggregate(&calib, &test, pot).unwrap();
                let want = reference_aggregate(&calib, &test, pot).unwrap();
                assert_eq!(got, want, "seed {seed}, width {width}");
                assert!(
                    got.iter().any(|&b| b),
                    "seed {seed}, width {width}: no alarm"
                );
            }
        }
        let nan = vec![vec![f64::NAN; 3]; 50];
        let test = vec![vec![0.5; 3]; 10];
        for err in [
            detect_aggregate(&nan, &test, pot).unwrap_err(),
            reference_aggregate(&nan, &test, pot).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    DetectorError::PotFitFailed {
                        dim: usize::MAX,
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn detects_and_localizes() {
        let (calib, test) = scores_with_anomaly();
        let det = detect_from_scores(&calib, &test, PotConfig::default()).unwrap();
        assert!(det.labels[100..105].iter().all(|&b| b));
        assert!(det.dim_labels[102][1]);
        assert!(!det.dim_labels[102][0]);
        // Clean region stays clean.
        assert!(det.labels[..100].iter().all(|&b| !b));
    }

    #[test]
    fn aggregate_is_mean() {
        let calib = vec![vec![0.0, 0.0]; 100];
        let test = vec![vec![1.0, 3.0]];
        let det = detect_from_scores(&calib, &test, PotConfig::default()).unwrap();
        assert_eq!(det.aggregate, vec![2.0]);
    }

    #[test]
    fn thresholds_per_dimension_differ() {
        let calib: Vec<Vec<f64>> = (0..3000)
            .map(|t| vec![(t % 10) as f64 * 0.01, (t % 10) as f64 * 1.0])
            .collect();
        let det = detect_from_scores(&calib, &calib[..10], PotConfig::default()).unwrap();
        assert!(det.thresholds[1] > det.thresholds[0] * 10.0);
    }
}
