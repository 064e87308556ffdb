//! Streaming POT (the SPOT algorithm of Siffer et al., 2017 §4.2), as used
//! by OmniAnomaly/TranAD's evaluation: the thresholder is initialized on
//! calibration scores and then *updates* on every non-alarm test score, so
//! slow distribution drift raises the threshold while genuine anomalies
//! (scores above the current threshold) trigger alarms without polluting
//! the tail model.

use crate::error::PotError;
use crate::gpd::{fit_gpd, pot_quantile};
use crate::pot::{try_quantile, PotConfig};

/// The complete serializable state of a [`Spot`] thresholder.
///
/// Produced by [`Spot::to_parts`] and consumed by [`Spot::from_parts`] so a
/// streaming detector can be checkpointed and resumed with bitwise-identical
/// behaviour: every field that influences [`Spot::step`] is captured.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotParts {
    /// Risk coefficient `q`.
    pub q: f64,
    /// Initial (peak-selection) threshold `t` — fixed after init.
    pub initial_threshold: f64,
    /// Current anomaly threshold `z_q`.
    pub threshold: f64,
    /// Exceedances over `t` currently in the tail model.
    pub peaks: Vec<f64>,
    /// Observations consumed so far (calibration + non-alarm stream points).
    pub n_obs: usize,
    /// Refit cadence (peaks between GPD refits).
    pub refit_every: usize,
    /// Peaks accumulated since the last refit.
    pub peaks_since_fit: usize,
    /// Streaming re-calibrations since init (telemetry).
    pub refits: u64,
}

tranad_json::impl_json_struct!(SpotParts {
    q,
    initial_threshold,
    threshold,
    peaks,
    n_obs,
    refit_every,
    peaks_since_fit,
    refits,
});

/// A streaming Peaks-Over-Threshold thresholder.
#[derive(Debug, Clone)]
pub struct Spot {
    q: f64,
    /// Initial (peak-selection) threshold `t` — fixed after init.
    pub initial_threshold: f64,
    /// Current anomaly threshold `z_q` — adapts as the stream evolves.
    pub threshold: f64,
    peaks: Vec<f64>,
    n_obs: usize,
    /// Refit the GPD after this many new peaks (1 = every peak).
    refit_every: usize,
    peaks_since_fit: usize,
    /// Streaming re-calibrations since init (telemetry).
    refits: u64,
}

impl Spot {
    /// Initializes on calibration scores (typically the model's scores on
    /// the training series): the initial threshold `t` at the `1 − level`
    /// quantile, a GPD fit over the exceedances and the POT quantile at risk
    /// `q`. Empty or NaN calibration and out-of-range configs are
    /// [`PotError`]s.
    pub fn try_init(calibration: &[f64], config: PotConfig) -> Result<Spot, PotError> {
        config.check()?;
        let t = try_quantile(calibration, 1.0 - config.level)?;
        let peaks: Vec<f64> = calibration
            .iter()
            .filter(|&&s| s > t)
            .map(|&s| s - t)
            .collect();
        let mut spot = Spot {
            q: config.q,
            initial_threshold: t,
            threshold: t,
            peaks,
            n_obs: calibration.len(),
            refit_every: 1,
            peaks_since_fit: 0,
            refits: 0,
        };
        spot.refit();
        // The init fit is not a streaming re-calibration.
        spot.refits = 0;
        Ok(spot)
    }

    fn refit(&mut self) {
        // No recorder parameter here: the streaming hot path inherits
        // whatever span recorder the enclosing entry point installed.
        let _s = tranad_telemetry::span::enter("spot.refit");
        self.peaks_since_fit = 0;
        self.refits += 1;
        if self.peaks.len() < 4 {
            // Too little tail mass: conservative max-based threshold.
            let max_peak = self.peaks.iter().cloned().fold(0.0, f64::max);
            let spread = max_peak.max(self.initial_threshold.abs() * 0.01).max(1e-12);
            self.threshold = self.initial_threshold + max_peak + 0.01 * spread;
            return;
        }
        let fit = fit_gpd(&self.peaks);
        let z = pot_quantile(&fit, self.initial_threshold, self.q, self.n_obs, self.peaks.len());
        // Cap the extrapolation: heavy-tailed score distributions (large
        // gamma) can send z far beyond anything observable, silencing the
        // detector entirely. Twice the largest observed exceedance above t
        // is a generous ceiling that keeps genuine extremes flaggable while
        // still tolerating the calibration tail.
        let max_peak = self.peaks.iter().cloned().fold(0.0, f64::max);
        let cap = self.initial_threshold + 2.0 * max_peak;
        self.threshold = z.max(self.initial_threshold).min(cap);
    }

    /// Consumes one streamed score. Returns `true` if it is an anomaly
    /// (above the current threshold). Non-alarm scores above the initial
    /// threshold become new peaks and update the tail fit.
    pub fn step(&mut self, score: f64) -> bool {
        if score >= self.threshold {
            // Alarm: anomalies do not update the model.
            return true;
        }
        self.n_obs += 1;
        if score > self.initial_threshold {
            self.peaks.push(score - self.initial_threshold);
            self.peaks_since_fit += 1;
            if self.peaks_since_fit >= self.refit_every {
                self.refit();
            }
        }
        false
    }

    /// Number of peaks currently in the tail model.
    pub fn n_peaks(&self) -> usize {
        self.peaks.len()
    }

    /// Streaming re-calibrations (tail refits) performed since init.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Captures the full streaming state for checkpointing. The returned
    /// parts round-trip through [`Spot::from_parts`] into a thresholder
    /// whose future [`Spot::step`] decisions are bitwise-identical.
    pub fn to_parts(&self) -> SpotParts {
        SpotParts {
            q: self.q,
            initial_threshold: self.initial_threshold,
            threshold: self.threshold,
            peaks: self.peaks.clone(),
            n_obs: self.n_obs,
            refit_every: self.refit_every,
            peaks_since_fit: self.peaks_since_fit,
            refits: self.refits,
        }
    }

    /// Rebuilds a thresholder from checkpointed parts, validating that the
    /// state could have been produced by a real run (finite thresholds and
    /// peaks, in-range risk, non-zero refit cadence) so a corrupt checkpoint
    /// surfaces as an error instead of silently mislabeling the stream.
    pub fn from_parts(parts: SpotParts) -> Result<Spot, PotError> {
        if !(parts.q > 0.0 && parts.q < 1.0) {
            return Err(PotError::InvalidParts(format!("risk q must be in (0,1), got {}", parts.q)));
        }
        if !parts.initial_threshold.is_finite() || !parts.threshold.is_finite() {
            return Err(PotError::InvalidParts(format!(
                "non-finite thresholds: initial {} / current {}",
                parts.initial_threshold, parts.threshold
            )));
        }
        if let Some(p) = parts.peaks.iter().find(|p| !p.is_finite()) {
            return Err(PotError::InvalidParts(format!("non-finite peak {p}")));
        }
        if parts.refit_every == 0 {
            return Err(PotError::InvalidParts("refit_every must be >= 1".to_string()));
        }
        if parts.n_obs < parts.peaks.len() {
            return Err(PotError::InvalidParts(format!(
                "{} peaks but only {} observations",
                parts.peaks.len(),
                parts.n_obs
            )));
        }
        Ok(Spot {
            q: parts.q,
            initial_threshold: parts.initial_threshold,
            threshold: parts.threshold,
            peaks: parts.peaks,
            n_obs: parts.n_obs,
            refit_every: parts.refit_every,
            peaks_since_fit: parts.peaks_since_fit,
            refits: parts.refits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pot::PotConfig;

    fn uniform_scores(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        // Small deterministic LCG to avoid a dev-dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    #[test]
    fn detects_extreme_values() {
        let calib = uniform_scores(5000, 0.0, 1.0, 1);
        let mut spot = Spot::try_init(&calib, PotConfig { q: 1e-4, level: 0.02 }).unwrap();
        assert!(spot.step(10.0));
        assert!(!spot.step(0.5));
    }

    #[test]
    fn adapts_to_slow_mean_drift() {
        // A Gaussian score stream whose mean drifts up by one sigma: the
        // streaming updates must absorb the drift with few false alarms
        // (a static threshold would not), while a genuine extreme alarms.
        let gauss = |n: usize, seed: u64| -> Vec<f64> {
            let u1 = uniform_scores(n, 1e-12, 1.0, seed);
            let u2 = uniform_scores(n, 0.0, 1.0, seed ^ 0xABCD);
            u1.iter()
                .zip(&u2)
                .map(|(&a, &b)| {
                    (-2.0 * a.ln()).sqrt() * (std::f64::consts::TAU * b).cos()
                })
                .collect()
        };
        let calib: Vec<f64> = gauss(5000, 2).iter().map(|v| 1.0 + 0.1 * v).collect();
        let mut spot = Spot::try_init(&calib, PotConfig { q: 1e-4, level: 0.05 }).unwrap();
        let stream = gauss(4000, 3);
        let mut fp = 0;
        for (i, &g) in stream.iter().enumerate() {
            let drift = 0.1 * i as f64 / 4000.0;
            if spot.step(1.0 + drift + 0.1 * g) {
                fp += 1;
            }
        }
        assert!(fp < 40, "too many false alarms under drift: {fp}");
        assert!(spot.step(20.0));
    }

    #[test]
    fn alarms_do_not_update_model() {
        let calib = uniform_scores(2000, 0.0, 1.0, 3);
        let mut spot = Spot::try_init(&calib, PotConfig { q: 1e-3, level: 0.05 }).unwrap();
        let before = spot.threshold;
        let peaks_before = spot.n_peaks();
        for _ in 0..50 {
            assert!(spot.step(100.0));
        }
        assert_eq!(spot.threshold, before, "alarms must not move the threshold");
        assert_eq!(spot.n_peaks(), peaks_before);
    }

    #[test]
    fn parts_roundtrip_is_bitwise_identical() {
        let calib = uniform_scores(3000, 0.0, 1.0, 5);
        let mut original = Spot::try_init(&calib, PotConfig { q: 1e-3, level: 0.05 }).unwrap();
        // Advance the stream a little so the captured state is non-trivial.
        let warmup = uniform_scores(500, 0.0, 1.1, 6);
        for &s in &warmup {
            original.step(s);
        }
        let parts = original.to_parts();
        let mut restored = Spot::from_parts(parts.clone()).unwrap();
        assert_eq!(restored.threshold.to_bits(), original.threshold.to_bits());
        assert_eq!(restored.n_peaks(), original.n_peaks());
        assert_eq!(restored.refits(), original.refits());
        // Every future decision must match bitwise, including refit updates.
        let stream = uniform_scores(2000, 0.0, 1.2, 7);
        for &s in &stream {
            assert_eq!(original.step(s), restored.step(s));
            assert_eq!(original.threshold.to_bits(), restored.threshold.to_bits());
        }
        // JSON round-trip preserves the parts exactly (shortest-round-trip
        // float rendering), so persisted checkpoints restore bitwise too.
        use tranad_json::{FromJson, ToJson};
        let json = parts.to_json().to_string();
        let back = SpotParts::from_json(&tranad_json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, parts);
    }

    #[test]
    fn from_parts_rejects_corrupt_state() {
        let calib = uniform_scores(1000, 0.0, 1.0, 8);
        let spot = Spot::try_init(&calib, PotConfig::default()).unwrap();
        let good = spot.to_parts();

        let mut bad = good.clone();
        bad.q = 1.5;
        assert!(matches!(Spot::from_parts(bad), Err(PotError::InvalidParts(_))));

        let mut bad = good.clone();
        bad.threshold = f64::NAN;
        assert!(matches!(Spot::from_parts(bad), Err(PotError::InvalidParts(_))));

        let mut bad = good.clone();
        bad.peaks.push(f64::INFINITY);
        assert!(matches!(Spot::from_parts(bad), Err(PotError::InvalidParts(_))));

        let mut bad = good.clone();
        bad.refit_every = 0;
        assert!(matches!(Spot::from_parts(bad), Err(PotError::InvalidParts(_))));

        let mut bad = good;
        bad.n_obs = 0;
        assert!(matches!(Spot::from_parts(bad), Err(PotError::InvalidParts(_))));
    }

    #[test]
    fn nan_calibration_is_an_error_not_a_panic() {
        let mut calib = uniform_scores(1000, 0.0, 1.0, 9);
        calib[500] = f64::NAN;
        assert_eq!(
            Spot::try_init(&calib, PotConfig::default()).unwrap_err(),
            PotError::NonFiniteScores
        );
    }
}
