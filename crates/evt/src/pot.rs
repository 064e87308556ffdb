//! Peaks-Over-Threshold (POT) configuration (Siffer et al., 2017), as used
//! by OmniAnomaly, USAD and TranAD to turn anomaly scores into binary labels
//! without ground-truth calibration, and the empirical quantile that picks
//! the initial threshold. The fit itself is [`crate::Spot`]'s.

use crate::error::PotError;

/// POT configuration.
///
/// The paper (§4) uses risk coefficient `q = 1e-4` for all datasets and a
/// per-dataset "low quantile" (0.07 for SMAP, 0.01 for MSL, 0.001 for the
/// rest) that controls the initial threshold level.
#[derive(Debug, Clone, Copy)]
pub struct PotConfig {
    /// Risk coefficient: target probability of observing a score above the
    /// final threshold.
    pub q: f64,
    /// Fraction of calibration scores allowed to exceed the *initial*
    /// threshold (the "low quantile" of the paper).
    pub level: f64,
}

impl Default for PotConfig {
    fn default() -> Self {
        PotConfig {
            q: 1e-4,
            level: 0.001,
        }
    }
}

impl PotConfig {
    /// Creates a config with the paper's fixed risk and a dataset-specific
    /// low quantile.
    pub fn with_low_quantile(level: f64) -> Self {
        PotConfig { q: 1e-4, level }
    }

    /// Validates that both the risk and the low quantile are in (0, 1).
    pub fn check(&self) -> Result<(), PotError> {
        if !(self.q > 0.0 && self.q < 1.0) {
            return Err(PotError::InvalidConfig(format!(
                "risk q must be in (0,1), got {}",
                self.q
            )));
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(PotError::InvalidConfig(format!(
                "level must be in (0,1), got {}",
                self.level
            )));
        }
        Ok(())
    }
}

/// Empirical quantile (linear interpolation, like NumPy's default). Empty
/// input, NaN values and an out-of-range level are [`PotError`]s, so
/// [`crate::Spot::try_init`] propagates malformed calibration data as errors.
pub fn try_quantile(values: &[f64], q: f64) -> Result<f64, PotError> {
    if values.is_empty() {
        return Err(PotError::EmptyCalibration);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(PotError::InvalidConfig(format!(
            "quantile level out of range: {q}"
        )));
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(PotError::NonFiniteScores);
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spot;
    use tranad_tensor::Rng;

    fn gaussian_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.range_f64(1e-12, 1.0);
                let u2: f64 = rng.range_f64(0.0, 1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect()
    }

    /// The POT fit at calibration: `Spot`'s initial state, before any
    /// streamed score adapts it.
    fn fit(scores: &[f64], config: PotConfig) -> Spot {
        Spot::try_init(scores, config).unwrap()
    }

    /// Static labels against the fitted threshold (no streaming updates).
    fn label(spot: &Spot, scores: &[f64]) -> Vec<bool> {
        scores.iter().map(|&s| s >= spot.threshold).collect()
    }

    #[test]
    fn quantile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(try_quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(try_quantile(&v, 1.0).unwrap(), 5.0);
        assert_eq!(try_quantile(&v, 0.5).unwrap(), 3.0);
        assert_eq!(try_quantile(&v, 0.25).unwrap(), 2.0);
    }

    #[test]
    fn threshold_above_initial() {
        let scores = gaussian_scores(50_000, 1);
        let pot = fit(
            &scores,
            PotConfig {
                q: 1e-4,
                level: 0.02,
            },
        );
        assert!(pot.threshold >= pot.initial_threshold);
        assert!(pot.n_peaks() > 500);
    }

    #[test]
    fn few_false_positives_on_normal_data() {
        let scores = gaussian_scores(50_000, 2);
        let pot = fit(
            &scores,
            PotConfig {
                q: 1e-4,
                level: 0.02,
            },
        );
        let fresh = gaussian_scores(50_000, 3);
        let fp = label(&pot, &fresh).iter().filter(|&&b| b).count();
        // Expected ~q * n = 5; allow generous slack.
        assert!(fp < 60, "false positives {fp}");
    }

    #[test]
    fn detects_injected_extremes() {
        let mut scores = gaussian_scores(10_000, 4);
        let pot = fit(
            &scores,
            PotConfig {
                q: 1e-3,
                level: 0.02,
            },
        );
        scores.extend([50.0, 60.0]);
        let labels = label(&pot, &scores);
        assert!(labels[10_000] && labels[10_001]);
    }

    #[test]
    fn threshold_monotone_in_risk() {
        let scores = gaussian_scores(50_000, 5);
        let strict = fit(
            &scores,
            PotConfig {
                q: 1e-5,
                level: 0.02,
            },
        )
        .threshold;
        let loose = fit(
            &scores,
            PotConfig {
                q: 1e-2,
                level: 0.02,
            },
        )
        .threshold;
        assert!(strict > loose, "{strict} vs {loose}");
    }

    #[test]
    fn nan_calibration_is_an_error_not_a_panic() {
        let mut scores = gaussian_scores(1000, 6);
        scores[13] = f64::NAN;
        assert_eq!(
            try_quantile(&scores, 0.5).unwrap_err(),
            crate::PotError::NonFiniteScores
        );
        assert_eq!(
            Spot::try_init(&scores, PotConfig::default()).unwrap_err(),
            crate::PotError::NonFiniteScores
        );
    }

    #[test]
    fn try_quantile_validates_inputs() {
        assert_eq!(
            try_quantile(&[], 0.5).unwrap_err(),
            crate::PotError::EmptyCalibration
        );
        assert!(matches!(
            try_quantile(&[1.0], 1.5).unwrap_err(),
            crate::PotError::InvalidConfig(_)
        ));
        assert_eq!(try_quantile(&[2.0, 1.0, 3.0], 0.5).unwrap(), 2.0);
    }

    #[test]
    fn constant_scores_fallback() {
        let scores = vec![1.0; 100];
        let pot = fit(&scores, PotConfig::default());
        // Nothing in the calibration data should be labeled anomalous.
        assert!(label(&pot, &scores).iter().all(|&b| !b));
    }

    #[test]
    fn tiny_sample_fallback() {
        let scores = vec![0.1, 0.2, 0.15, 0.12, 0.3];
        let pot = fit(
            &scores,
            PotConfig {
                q: 1e-4,
                level: 0.2,
            },
        );
        assert!(pot.threshold > 0.3);
        assert!(label(&pot, &[10.0])[0]);
    }
}
