//! MERLIN (Nakamura et al., ICDM 2020): parameter-free discovery of
//! arbitrary-length discords, used as the paper's classical baseline and
//! reproduced in two configurations for Table 7:
//!
//! - [`MerlinConfig::reference`]: an exhaustive nearest-neighbor scan over a
//!   dense length grid — standing in for the original MATLAB implementation
//!   the paper compares against;
//! - [`MerlinConfig::optimized`]: the same discord semantics with early
//!   abandoning and a sparse length grid — standing in for the paper's
//!   faster Python reimplementation.
//!
//! Scores: for every subsequence length in the grid we compute the
//! z-normalized nearest-non-overlapping-neighbor distance profile (the
//! discord score of Yankov et al.); each timestamp receives the maximum
//! profile value over the windows covering it, normalized per length.
//! MERLIN is a univariate method; on multivariate data we follow the
//! paper's observation that it "is unable to scale effectively" and run it
//! per-dimension on a capped number of channels (plus the cross-dimension
//! mean), which preserves its Table 2 behaviour: strong on NAB/UCR, weak on
//! the wide datasets.

use crate::detector::{Detector, DetectorError, FitReport};
use std::time::Instant;
use tranad_data::TimeSeries;

/// MERLIN configuration.
#[derive(Debug, Clone, Copy)]
pub struct MerlinConfig {
    /// Minimum discord length (inclusive).
    pub min_len: usize,
    /// Maximum discord length (inclusive).
    pub max_len: usize,
    /// Number of lengths sampled from `[min_len, max_len]`.
    pub n_lengths: usize,
    /// Early abandoning of distance computations (the optimization the
    /// paper's reimplementation adds).
    pub early_abandon: bool,
    /// Maximum number of dimensions scanned individually on multivariate
    /// data; remaining dimensions share the mean-channel profile.
    pub max_dims: usize,
}

impl MerlinConfig {
    /// The exhaustive "original implementation" stand-in.
    pub fn reference(min_len: usize, max_len: usize) -> Self {
        MerlinConfig {
            min_len,
            max_len,
            n_lengths: 8,
            early_abandon: false,
            max_dims: 4,
        }
    }

    /// The optimized reimplementation.
    pub fn optimized(min_len: usize, max_len: usize) -> Self {
        MerlinConfig {
            min_len,
            max_len,
            n_lengths: 3,
            early_abandon: true,
            max_dims: 4,
        }
    }

    fn lengths(&self) -> Vec<usize> {
        assert!(
            self.min_len >= 3 && self.max_len >= self.min_len,
            "bad length range"
        );
        if self.n_lengths <= 1 || self.min_len == self.max_len {
            return vec![self.min_len];
        }
        let n = self.n_lengths;
        (0..n)
            .map(|i| self.min_len + (self.max_len - self.min_len) * i / (n - 1))
            .collect()
    }
}

impl Default for MerlinConfig {
    fn default() -> Self {
        MerlinConfig::optimized(10, 40)
    }
}

/// The MERLIN discord detector.
pub struct Merlin {
    config: MerlinConfig,
    train_scores: Vec<Vec<f64>>,
    /// Total discovery time on the training series (Table 5 reports this
    /// in place of a training time).
    pub discovery_seconds: f64,
}

impl Merlin {
    /// Creates a detector with the given configuration.
    pub fn new(config: MerlinConfig) -> Self {
        Merlin {
            config,
            train_scores: Vec::new(),
            discovery_seconds: 0.0,
        }
    }

    fn score_series(&self, series: &TimeSeries) -> Vec<Vec<f64>> {
        let n = series.len();
        let m = series.dims();
        let scanned = m.min(self.config.max_dims);
        // Shared fallback profile from the cross-dimension mean channel.
        let mean_channel: Vec<f64> = (0..n)
            .map(|t| series.row(t).iter().sum::<f64>() / m as f64)
            .collect();
        let fallback = if scanned < m {
            self.channel_profile(&mean_channel)
        } else {
            Vec::new()
        };
        let mut per_dim: Vec<Vec<f64>> = Vec::with_capacity(m);
        for d in 0..m {
            if d < scanned {
                per_dim.push(self.channel_profile(&series.column(d)));
            } else {
                per_dim.push(fallback.clone());
            }
        }
        // Transpose to [t][d].
        (0..n)
            .map(|t| per_dim.iter().map(|col| col[t]).collect())
            .collect()
    }

    /// Per-timestamp discord score for one channel: max over lengths of the
    /// normalized nearest-neighbor distance of the windows covering `t`.
    fn channel_profile(&self, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut out = vec![0.0; n];
        for &l in &self.config.lengths() {
            if n < 2 * l {
                continue;
            }
            let profile = nn_distance_profile(x, l, self.config.early_abandon);
            // Normalize so different lengths are comparable (distance grows
            // with sqrt(L)).
            let norm = 1.0 / (l as f64).sqrt();
            for (start, &dist) in profile.iter().enumerate() {
                let v = dist * norm;
                for o in &mut out[start..(start + l).min(n)] {
                    if v > *o {
                        *o = v;
                    }
                }
            }
        }
        out
    }
}

impl Detector for Merlin {
    fn name(&self) -> &'static str {
        "MERLIN"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        // MERLIN needs no training; the paper reports its test-set discord
        // discovery time as the Table 5 entry. We time discovery on the
        // training series here to populate the calibration scores.
        if train.is_empty() {
            return Err(DetectorError::EmptySeries);
        }
        let start = Instant::now();
        self.train_scores = self.score_series(train);
        self.discovery_seconds = start.elapsed().as_secs_f64();
        tranad_telemetry::current().emit("baseline.fit", |e| {
            e.str("method", "MERLIN")
                .f64("seconds", self.discovery_seconds);
        });
        Ok(FitReport {
            seconds_per_epoch: self.discovery_seconds,
            epochs: 1,
        })
    }

    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError> {
        if self.train_scores.is_empty() {
            return Err(DetectorError::NotFitted);
        }
        Ok(self.score_series(test))
    }

    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError> {
        if self.train_scores.is_empty() {
            return Err(DetectorError::NotFitted);
        }
        Ok(&self.train_scores)
    }

    /// MERLIN's native labeling: a test subsequence is a discord-anomaly if
    /// its nearest-neighbor distance exceeds anything observed on the
    /// anomaly-free training series (per channel). This matches MERLIN's
    /// own semantics — discords, not tail-risk thresholds — and is how the
    /// paper evaluates it (Appendix A).
    fn native_labels(&self, test: &TimeSeries) -> Option<Vec<bool>> {
        if self.train_scores.is_empty() {
            return None;
        }
        let m = test.dims();
        let mut ceilings = vec![0.0f64; m];
        for row in &self.train_scores {
            for (c, &v) in ceilings.iter_mut().zip(row) {
                *c = c.max(v);
            }
        }
        let scores = self.score_series(test);
        Some(
            scores
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&ceilings)
                        .any(|(&s, &c)| s > c * 1.001 + 1e-12)
                })
                .collect(),
        )
    }
}

/// Z-normalized Euclidean distance from each subsequence of length `l` to
/// its nearest non-overlapping neighbor (exclusion zone of `l`).
fn nn_distance_profile(x: &[f64], l: usize, early_abandon: bool) -> Vec<f64> {
    let n_sub = x.len() - l + 1;
    // Precompute per-subsequence mean and std via prefix sums.
    let mut prefix = vec![0.0; x.len() + 1];
    let mut prefix_sq = vec![0.0; x.len() + 1];
    for (i, &v) in x.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
        prefix_sq[i + 1] = prefix_sq[i] + v * v;
    }
    // Floor per-subsequence std at a fraction of the channel's global std:
    // on piecewise-constant telemetry, raw z-normalization of a flat
    // subsequence amplifies sensor noise into garbage distances and hides
    // genuine level changes.
    let n_f = x.len() as f64;
    let global_mean = prefix[x.len()] / n_f;
    let global_std = (prefix_sq[x.len()] / n_f - global_mean * global_mean)
        .max(0.0)
        .sqrt();
    let std_floor = (0.05 * global_std).max(1e-8);
    let stats: Vec<(f64, f64)> = (0..n_sub)
        .map(|i| {
            let s = prefix[i + l] - prefix[i];
            let sq = prefix_sq[i + l] - prefix_sq[i];
            let mean = s / l as f64;
            let var = (sq / l as f64 - mean * mean).max(0.0);
            (mean, var.sqrt().max(std_floor))
        })
        .collect();

    let mut out = vec![f64::INFINITY; n_sub];
    for i in 0..n_sub {
        let (mi, si) = stats[i];
        let mut best = out[i];
        for j in 0..n_sub {
            // Exclusion zone: trivial matches share the window.
            if j.abs_diff(i) < l {
                continue;
            }
            let (mj, sj) = stats[j];
            let mut acc = 0.0;
            let mut abandoned = false;
            for k in 0..l {
                let a = (x[i + k] - mi) / si;
                let b = (x[j + k] - mj) / sj;
                let d = a - b;
                acc += d * d;
                if early_abandon && acc >= best {
                    abandoned = true;
                    break;
                }
            }
            if !abandoned && acc < best {
                best = acc;
            }
        }
        out[i] = if best.is_finite() { best.sqrt() } else { 0.0 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_data::SignalRng;

    fn sine_with_discord(n: usize, anomaly_at: Option<usize>) -> Vec<f64> {
        let mut rng = SignalRng::new(1);
        (0..n)
            .map(|t| {
                let base = (t as f64 / 8.0).sin() + 0.02 * rng.normal();
                match anomaly_at {
                    Some(a) if (a..a + 15).contains(&t) => base + 3.0,
                    _ => base,
                }
            })
            .collect()
    }

    #[test]
    fn early_abandon_matches_exhaustive() {
        let x = sine_with_discord(300, Some(150));
        let fast = nn_distance_profile(&x, 12, true);
        let slow = nn_distance_profile(&x, 12, false);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn detector_scores_peak_at_anomaly() {
        let train: Vec<f64> = sine_with_discord(400, None); // clean
        let test = sine_with_discord(400, Some(200));
        let mut merlin = Merlin::new(MerlinConfig::optimized(8, 16));
        let ts = TimeSeries::from_columns(&[train]);
        merlin.fit(&ts).unwrap();
        let scores = merlin.score(&TimeSeries::from_columns(&[test])).unwrap();
        let anom: f64 = (200..215).map(|t| scores[t][0]).sum::<f64>() / 15.0;
        let norm: f64 = (50..150).map(|t| scores[t][0]).sum::<f64>() / 100.0;
        assert!(anom > 1.5 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn multivariate_caps_scanned_dims() {
        let mut rng = SignalRng::new(3);
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|_| {
                (0..120)
                    .map(|t| (t as f64 / 5.0).sin() + 0.1 * rng.normal())
                    .collect()
            })
            .collect();
        let ts = TimeSeries::from_columns(&cols);
        let mut merlin = Merlin::new(MerlinConfig {
            max_dims: 2,
            ..MerlinConfig::optimized(8, 12)
        });
        merlin.fit(&ts).unwrap();
        let scores = merlin.score(&ts).unwrap();
        assert_eq!(scores[0].len(), 8);
        // Dims beyond the cap share the fallback profile.
        assert_eq!(scores[50][3], scores[50][7]);
    }

    #[test]
    fn short_series_yields_zero_scores() {
        let ts = TimeSeries::from_columns(&[vec![1.0; 12]]);
        let mut merlin = Merlin::new(MerlinConfig::optimized(10, 40));
        merlin.fit(&ts).unwrap();
        let scores = merlin.score(&ts).unwrap();
        assert!(scores.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn length_grid_is_inclusive() {
        let cfg = MerlinConfig {
            min_len: 10,
            max_len: 40,
            n_lengths: 4,
            early_abandon: true,
            max_dims: 1,
        };
        assert_eq!(cfg.lengths(), vec![10, 20, 30, 40]);
    }
}
