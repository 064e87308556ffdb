//! Shared experiment runner: fits a detector on a dataset, applies the
//! paper's POT decision procedure, and computes the Table 2/3 metrics.

use tranad::{detect_aggregate, DetectorError, TranadConfig};
use tranad_baselines::{aggregate_scores, Detector, NeuralConfig};
use tranad_data::{Dataset, DatasetKind, GenConfig};
use tranad_evt::PotConfig;
use tranad_metrics::evaluate;

/// One (method, dataset) evaluation outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Point-adjusted precision.
    pub precision: f64,
    /// Point-adjusted recall.
    pub recall: f64,
    /// ROC-AUC of the aggregate score.
    pub auc: f64,
    /// Point-adjusted F1.
    pub f1: f64,
    /// Mean training seconds per epoch.
    pub secs_per_epoch: f64,
    /// Why the cell failed (empty for a successful run). Failed cells
    /// carry NaN metrics so downstream tables render them as "-".
    pub error: String,
}

impl RunResult {
    /// A failed grid cell: NaN metrics plus the error message, so one bad
    /// (method, dataset) combination no longer aborts the whole grid.
    pub(crate) fn failed(method: &str, dataset: &str, err: &DetectorError) -> RunResult {
        RunResult {
            method: method.to_string(),
            dataset: dataset.to_string(),
            precision: f64::NAN,
            recall: f64::NAN,
            auc: f64::NAN,
            f1: f64::NAN,
            secs_per_epoch: f64::NAN,
            error: err.to_string(),
        }
    }

    /// True when the cell ran to completion.
    pub(crate) fn is_ok(&self) -> bool {
        self.error.is_empty()
    }
}

tranad_json::impl_json_struct!(RunResult {
    method,
    dataset,
    precision,
    recall,
    auc,
    f1,
    secs_per_epoch,
    error,
});

/// The harness-wide experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Dataset generation (scale, seed).
    pub gen: GenConfig,
    /// Neural baseline hyperparameters.
    pub neural: NeuralConfig,
    /// TranAD hyperparameters.
    pub tranad: TranadConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            gen: GenConfig {
                scale: 0.0015,
                min_len: 500,
                seed: 42,
            },
            neural: NeuralConfig {
                epochs: 4,
                max_windows: 1024,
                ..NeuralConfig::default()
            },
            tranad: TranadConfig {
                epochs: 5,
                context: 10,
                patience: 5,
                max_windows_per_epoch: 768,
                ..TranadConfig::default()
            },
        }
    }
}

impl HarnessConfig {
    /// A fast smoke-test profile.
    pub fn quick() -> Self {
        let mut c = HarnessConfig {
            gen: GenConfig {
                scale: 0.001,
                min_len: 300,
                seed: 42,
            },
            ..HarnessConfig::default()
        };
        c.neural.epochs = 2;
        c.tranad.epochs = 2;
        c
    }
}

/// Fits `det` on the dataset's training series, scores the test series,
/// thresholds with the paper's POT settings (falling back to a method's
/// native labeling if it has one), point-adjusts, and summarizes.
pub(crate) fn evaluate_method(
    det: &mut dyn Detector,
    ds: &Dataset,
) -> Result<RunResult, DetectorError> {
    let fit = det.fit(&ds.train)?;
    evaluate_fitted(det, ds, fit.seconds_per_epoch)
}

/// Evaluates an already-fitted detector.
///
/// Scores are exponentially smoothed before thresholding (and scoring the
/// AUC), standard practice in the TSAD evaluation lineage: isolated
/// single-step reconstruction misses in the calibration data otherwise
/// dominate the tail fit, while genuine anomaly segments (tens of points)
/// survive smoothing untouched.
pub fn evaluate_fitted(
    det: &dyn Detector,
    ds: &Dataset,
    secs_per_epoch: f64,
) -> Result<RunResult, DetectorError> {
    let truth = ds.point_labels();
    let width = smoothing_width(ds.kind);
    let test_scores = smooth(det.score(&ds.test)?, width);
    let aggregate = aggregate_scores(&test_scores)?;
    let labels = match det.native_labels(&ds.test) {
        Some(native) => native,
        None => detect_aggregate(
            &smooth(det.train_scores()?.to_vec(), width),
            &test_scores,
            pot_config(ds),
        )?,
    };
    let m = evaluate(&aggregate, &labels, &truth);
    Ok(RunResult {
        method: det.name().to_string(),
        dataset: ds.kind.name().to_string(),
        precision: m.precision,
        recall: m.recall,
        auc: m.auc,
        f1: m.f1,
        secs_per_epoch,
        error: String::new(),
    })
}

/// Score-smoothing width per dataset: datasets whose anomalies are single
/// points (NAB's sensor spikes) must not be smeared; segment-anomaly
/// datasets benefit from taming isolated calibration-tail spikes.
pub(crate) fn smoothing_width(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Nab => 1,
        _ => 3,
    }
}

/// Smooths per-dimension score columns with a centered moving average of
/// the given (odd) width — wide enough to tame isolated single-step
/// reconstruction misses in the calibration tail, narrow enough not to
/// smear anomaly segments into their neighborhoods. Width 1 is a no-op.
pub(crate) fn smooth(scores: Vec<Vec<f64>>, width: usize) -> Vec<Vec<f64>> {
    let half = width / 2;
    if half == 0 || scores.len() < width || scores[0].is_empty() {
        return scores;
    }
    let n = scores.len();
    let m = scores[0].len();
    let mut out = scores.clone();
    for d in 0..m {
        for (t, row) in out.iter_mut().enumerate() {
            let lo = t.saturating_sub(half);
            let hi = (t + half).min(n - 1);
            let sum: f64 = (lo..=hi).map(|i| scores[i][d]).sum();
            row[d] = sum / (hi - lo + 1) as f64;
        }
    }
    out
}

/// POT low quantile per dataset. The paper's values (§4) are tuned to the
/// real benchmark sizes; on the scaled synthetic data we widen the tail
/// slightly so the GPD fit has enough exceedances, keeping the paper's
/// ordering (SMAP loosest, MSL middle, rest tight).
pub(crate) fn pot_level(kind: DatasetKind) -> f64 {
    (kind.pot_low_quantile() * 10.0).clamp(0.05, 0.2)
}

/// The POT configuration for a dataset: risk `q = 1e-3` (one order looser
/// than the paper's `1e-4` to reflect the ~100× shorter scaled test sets —
/// the expected alarm budget `q·N` stays comparable) with the paper's
/// per-dataset low quantile.
pub(crate) fn pot_config(ds: &Dataset) -> PotConfig {
    // ECG-like scores (UCR, MBA) have the heaviest calibration tails and
    // need the loosest risk, mirroring the paper's per-dataset EVT tuning.
    let q = match ds.kind {
        DatasetKind::Mba | DatasetKind::Ucr => 1e-2,
        _ => 1e-3,
    };
    PotConfig {
        q,
        level: pot_level(ds.kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_baselines::{Merlin, MerlinConfig};
    use tranad_data::{generate, TimeSeries};

    #[test]
    fn merlin_on_tiny_nab() {
        let ds = generate(
            DatasetKind::Nab,
            GenConfig {
                scale: 0.001,
                min_len: 300,
                seed: 1,
            },
        );
        let mut det = Merlin::new(MerlinConfig::optimized(8, 16));
        let r = evaluate_method(&mut det, &ds).unwrap();
        assert_eq!(r.method, "MERLIN");
        assert_eq!(r.dataset, "NAB");
        assert!(r.auc >= 0.0 && r.auc <= 1.0);
        assert!(r.f1 >= 0.0 && r.f1 <= 1.0);
        assert!(r.secs_per_epoch > 0.0);
    }

    #[test]
    fn failed_cell_records_error_and_round_trips_as_json() {
        use tranad_json::{FromJson, ToJson};
        // A series shorter than the window makes any neural fit fail.
        let tiny = TimeSeries::from_columns(&[vec![0.0; 3]]);
        let mut det = tranad_baselines::Usad::new(NeuralConfig::fast());
        let err = det.fit(&tiny).unwrap_err();
        let r = RunResult::failed("USAD", "SMD", &err);
        assert!(!r.is_ok());
        assert!(r.f1.is_nan() && r.auc.is_nan());
        let back =
            RunResult::from_json(&tranad_json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.error, err.to_string());
        assert!(back.f1.is_nan(), "NaN must survive the results JSON");
    }

    #[test]
    fn pot_levels_preserve_paper_order() {
        assert!(pot_level(DatasetKind::Smap) > pot_level(DatasetKind::Msl));
        assert!(pot_level(DatasetKind::Msl) > pot_level(DatasetKind::Smd));
    }
}
