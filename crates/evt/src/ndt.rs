//! Non-parametric Dynamic Thresholding (NDT) from Hundman et al.,
//! "Detecting Spacecraft Anomalies Using LSTMs and Nonparametric Dynamic
//! Thresholding" (KDD 2018) — the thresholding strategy of the LSTM-NDT
//! baseline.
//!
//! Over a smoothed error sequence `e_s`, NDT picks the threshold
//! `ε = μ(e_s) + z σ(e_s)` with `z` chosen from a candidate range to
//! maximize `(Δμ/μ + Δσ/σ) / (|E_A| + |seq|^2)`, where `Δμ`, `Δσ` are the
//! drops in mean/stddev when points above `ε` are removed, `E_A` the points
//! above `ε`, and `seq` the contiguous anomalous sequences.

/// NDT configuration.
#[derive(Debug, Clone, Copy)]
pub struct NdtConfig {
    /// Exponential smoothing factor for the error sequence (0 = none).
    pub smoothing: f64,
    /// Candidate `z` values scanned (inclusive range, unit step).
    pub z_range: (u32, u32),
}

impl Default for NdtConfig {
    fn default() -> Self {
        NdtConfig {
            smoothing: 0.05,
            z_range: (2, 10),
        }
    }
}

/// Result of NDT threshold selection.
#[derive(Debug, Clone, Copy)]
pub struct Ndt {
    /// Selected threshold ε.
    pub threshold: f64,
    /// Selected multiplier z.
    pub z: f64,
    /// Smoothing factor the threshold was selected under; [`Ndt::label`]
    /// applies the same smoothing so errors are judged on the sequence the
    /// threshold was calibrated for.
    pub smoothing: f64,
}

impl Ndt {
    /// Selects a threshold for the given error sequence.
    pub fn fit(errors: &[f64], config: NdtConfig) -> Ndt {
        assert!(!errors.is_empty(), "NDT needs an error sequence");
        let smoothed = ewma(errors, config.smoothing);
        let n = smoothed.len() as f64;
        let mean = smoothed.iter().sum::<f64>() / n;
        let std = (smoothed
            .iter()
            .map(|&e| (e - mean) * (e - mean))
            .sum::<f64>()
            / n)
            .sqrt();

        let smoothing = config.smoothing;
        if std < 1e-300 {
            return Ndt {
                threshold: mean + mean.abs() * 0.01 + 1e-12,
                z: 0.0,
                smoothing,
            };
        }

        let mut best = Ndt {
            threshold: mean + config.z_range.1 as f64 * std,
            z: config.z_range.1 as f64,
            smoothing,
        };
        let mut best_score = f64::NEG_INFINITY;
        for zi in config.z_range.0..=config.z_range.1 {
            let z = zi as f64;
            let eps = mean + z * std;
            let below: Vec<f64> = smoothed.iter().cloned().filter(|&e| e < eps).collect();
            if below.is_empty() || below.len() == smoothed.len() {
                continue;
            }
            let nb = below.len() as f64;
            let mean_b = below.iter().sum::<f64>() / nb;
            let std_b = (below
                .iter()
                .map(|&e| (e - mean_b) * (e - mean_b))
                .sum::<f64>()
                / nb)
                .sqrt();
            let delta_mean = (mean - mean_b) / mean.abs().max(1e-12);
            let delta_std = (std - std_b) / std;
            let e_a = smoothed.len() - below.len();
            let seqs = count_sequences(&smoothed, eps);
            let score = (delta_mean + delta_std) / (e_a as f64 + (seqs * seqs) as f64);
            if score > best_score {
                best_score = score;
                best = Ndt {
                    threshold: eps,
                    z,
                    smoothing,
                };
            }
        }
        best
    }

    /// Labels each error against the selected threshold. The errors are
    /// smoothed with the same factor used during [`Ndt::fit`] first — the
    /// threshold is calibrated for the smoothed sequence `e_s`, so comparing
    /// raw errors against it would flag transient spikes the selection never
    /// saw (Hundman et al. threshold and label the same smoothed sequence).
    pub fn label(&self, errors: &[f64]) -> Vec<bool> {
        if errors.is_empty() {
            return Vec::new();
        }
        ewma(errors, self.smoothing)
            .iter()
            .map(|&e| e >= self.threshold)
            .collect()
    }
}

/// Exponentially-weighted moving average with factor `alpha`
/// (`alpha = 0` returns the input unchanged).
pub(crate) fn ewma(values: &[f64], alpha: f64) -> Vec<f64> {
    if alpha <= 0.0 {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(values.len());
    let mut acc = values[0];
    for &v in values {
        acc = alpha * v + (1.0 - alpha) * acc;
        out.push(acc);
    }
    out
}

/// Number of contiguous runs above the threshold.
fn count_sequences(values: &[f64], eps: f64) -> usize {
    let mut count = 0;
    let mut inside = false;
    for &v in values {
        let above = v >= eps;
        if above && !inside {
            count += 1;
        }
        inside = above;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_tensor::Rng;

    #[test]
    fn ewma_smooths() {
        let noisy = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let s = ewma(&noisy, 0.3);
        let range = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - s.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range < 10.0);
    }

    #[test]
    fn ewma_zero_alpha_identity() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(ewma(&v, 0.0), v);
    }

    #[test]
    fn separates_clear_anomalies() {
        let mut rng = Rng::new(1);
        let mut errors: Vec<f64> = (0..2000).map(|_| rng.range_f64(0.0, 0.1)).collect();
        for e in errors.iter_mut().skip(1000).take(5) {
            *e = 5.0;
        }
        let ndt = Ndt::fit(
            &errors,
            NdtConfig {
                smoothing: 0.0,
                z_range: (2, 10),
            },
        );
        let labels = ndt.label(&errors);
        assert!(labels[1000..1005].iter().all(|&b| b));
        let fp = labels[..1000].iter().filter(|&&b| b).count();
        assert_eq!(fp, 0);
    }

    #[test]
    fn count_sequences_counts_runs() {
        let v = vec![0.0, 2.0, 2.0, 0.0, 2.0, 0.0];
        assert_eq!(count_sequences(&v, 1.0), 2);
        assert_eq!(count_sequences(&v, 3.0), 0);
    }

    #[test]
    fn constant_errors_flag_nothing() {
        let errors = vec![0.5; 500];
        let ndt = Ndt::fit(&errors, NdtConfig::default());
        assert!(ndt.label(&errors).iter().all(|&b| !b));
    }
}
