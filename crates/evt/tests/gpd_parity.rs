//! Bit-for-bit parity of the GPD fit with the plain Grimshaw search.
//!
//! `fit_gpd_detailed` decides the signs in its root search from a fast,
//! certified evaluation of Grimshaw's `w` and evaluates `w` exactly only
//! where the certificate fails. That must not change a single output bit:
//! this suite compares it with the search as it was before, kept here
//! verbatim as the reference, on seeded streaming peak sets (refit after
//! every appended peak, as `Spot` does) and on whole `Spot` streams.

use tranad_evt::{
    fit_gpd_detailed, gpd_log_likelihood, pot_quantile, try_quantile, GpdFit, GpdFitInfo,
    PotConfig, Spot,
};
use tranad_tensor::Rng;

/// The GPD fit before the certified search: every `w` evaluated exactly,
/// 60 bisection steps per sign change.
mod reference {
    use super::*;

    pub fn fit_gpd_detailed(peaks: &[f64]) -> (GpdFit, GpdFitInfo) {
        assert!(!peaks.is_empty(), "cannot fit GPD to zero peaks");
        assert!(
            peaks.iter().all(|&p| p >= 0.0),
            "exceedances must be non-negative"
        );
        let n = peaks.len() as f64;
        let mean = peaks.iter().sum::<f64>() / n;
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = peaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        // Degenerate sample: all peaks (almost) identical.
        if max - min < 1e-12 || mean < 1e-300 {
            return (
                GpdFit {
                    gamma: 0.0,
                    sigma: mean.max(1e-12),
                    log_likelihood: f64::NEG_INFINITY,
                },
                GpdFitInfo {
                    candidates: 0,
                    roots: 0,
                    degenerate: true,
                },
            );
        }

        let mut candidates: Vec<(f64, f64)> = Vec::new(); // (gamma, sigma)

        // Grimshaw: roots x of w(x) = u(x) v(x) - 1 where
        //   u(x) = 1 + mean(log(1 + x y_i)),  v(x) = mean(1 / (1 + x y_i)),
        // searched over (-1/max, 0) and (0, 2*(mean-min)/min^2).
        let u = |x: f64| 1.0 + peaks.iter().map(|&y| (1.0 + x * y).ln()).sum::<f64>() / n;
        let v = |x: f64| peaks.iter().map(|&y| 1.0 / (1.0 + x * y)).sum::<f64>() / n;
        let w = |x: f64| u(x) * v(x) - 1.0;

        let mut roots_found = 0usize;
        let eps = 1e-8 / max;
        let lo_bound = -1.0 / max + eps;
        let hi_bound = 2.0 * (mean - min) / (min * min).max(1e-12);
        for (a, b) in [(lo_bound, -eps), (eps, hi_bound.max(eps * 2.0))] {
            for x in find_roots(w, a, b, 64) {
                roots_found += 1;
                let gamma = u(x) - 1.0;
                if x.abs() > 1e-300 {
                    let sigma = gamma / x;
                    if sigma > 0.0 {
                        candidates.push((gamma, sigma));
                    }
                }
            }
        }

        // Method of moments: gamma = 0.5*(1 - mean^2/var), sigma = mean*(1-gamma).
        let var = peaks.iter().map(|&y| (y - mean) * (y - mean)).sum::<f64>() / n;
        if var > 1e-300 {
            let gamma_mom = 0.5 * (1.0 - mean * mean / var);
            let sigma_mom = mean * (1.0 - gamma_mom);
            if sigma_mom > 0.0 {
                candidates.push((gamma_mom, sigma_mom));
            }
        }
        // Exponential fit (gamma -> 0) is always a valid candidate.
        candidates.push((0.0, mean));

        let info = GpdFitInfo {
            candidates: candidates.len(),
            roots: roots_found,
            degenerate: false,
        };
        let mut best = GpdFit {
            gamma: 0.0,
            sigma: mean,
            log_likelihood: f64::NEG_INFINITY,
        };
        for (gamma, sigma) in candidates {
            let ll = gpd_log_likelihood(peaks, gamma, sigma);
            if ll > best.log_likelihood {
                best = GpdFit {
                    gamma,
                    sigma,
                    log_likelihood: ll,
                };
            }
        }
        (best, info)
    }

    /// Finds sign-change roots of `f` on `[a, b]` by grid scan + bisection.
    fn find_roots(f: impl Fn(f64) -> f64, a: f64, b: f64, grid: usize) -> Vec<f64> {
        let mut roots = Vec::new();
        if !(a.is_finite() && b.is_finite()) || a >= b {
            return roots;
        }
        let step = (b - a) / grid as f64;
        let mut x0 = a;
        let mut f0 = f(x0);
        for i in 1..=grid {
            let x1 = a + step * i as f64;
            let f1 = f(x1);
            if f0.is_finite() && f1.is_finite() && f0 * f1 < 0.0 {
                // Bisection refinement.
                let (mut lo, mut hi, mut flo) = (x0, x1, f0);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    let fm = f(mid);
                    if flo * fm <= 0.0 {
                        hi = mid;
                    } else {
                        lo = mid;
                        flo = fm;
                    }
                }
                roots.push(0.5 * (lo + hi));
            }
            x0 = x1;
            f0 = f1;
        }
        roots
    }
}

fn assert_same_fit(peaks: &[f64], ctx: &str) {
    let (got, got_info) = fit_gpd_detailed(peaks);
    let (want, want_info) = reference::fit_gpd_detailed(peaks);
    let n = peaks.len();
    assert_eq!(
        got.gamma.to_bits(),
        want.gamma.to_bits(),
        "{ctx}, {n} peaks: {got:?} vs {want:?}"
    );
    assert_eq!(
        got.sigma.to_bits(),
        want.sigma.to_bits(),
        "{ctx}, {n} peaks: {got:?} vs {want:?}"
    );
    assert_eq!(
        got.log_likelihood.to_bits(),
        want.log_likelihood.to_bits(),
        "{ctx}, {n} peaks: {got:?} vs {want:?}"
    );
    assert_eq!(got_info, want_info, "{ctx}, {n} peaks");
}

/// Refits after every appended peak from 4 peaks on, as a streaming
/// thresholder does.
fn assert_same_streaming(peaks: &[f64], ctx: &str) {
    for k in 4..=peaks.len() {
        assert_same_fit(&peaks[..k], ctx);
    }
}

/// Samples GPD(gamma, sigma) by inverse transform.
fn sample_gpd(rng: &mut Rng, gamma: f64, sigma: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let u = rng.range_f64(1e-12, 1.0);
            if gamma == 0.0 {
                -sigma * u.ln()
            } else {
                sigma / gamma * (u.powf(-gamma) - 1.0)
            }
        })
        .collect()
}

#[test]
fn gpd_shapes_stream_bitwise() {
    for (i, &gamma) in [-0.45, -0.3, -0.15, 0.0, 0.1, 0.25, 0.5, 0.7, 0.9]
        .iter()
        .enumerate()
    {
        for seed in 0..6u64 {
            let mut rng = Rng::new(100 * i as u64 + seed);
            let sigma = rng.range_f64(0.01, 5.0);
            let peaks = sample_gpd(&mut rng, gamma, sigma, 200);
            assert_same_streaming(
                &peaks,
                &format!("gamma {gamma}, sigma {sigma}, seed {seed}"),
            );
        }
    }
}

#[test]
fn uniform_peaks_stream_bitwise() {
    for seed in 0..4u64 {
        let mut rng = Rng::new(7_000 + seed);
        let scale = rng.range_f64(1e-3, 1e3);
        let peaks: Vec<f64> = (0..200).map(|_| scale * rng.next_f64()).collect();
        assert_same_streaming(&peaks, &format!("uniform, seed {seed}"));
    }
}

#[test]
fn near_degenerate_peaks_stream_bitwise() {
    // Spreads on both sides of the fit's 1e-12 degeneracy cut-off.
    for (seed, spread) in [1e-9, 1e-11, 2e-12, 5e-13, 1e-15].iter().enumerate() {
        let mut rng = Rng::new(8_000 + seed as u64);
        let base = rng.range_f64(0.1, 10.0);
        let peaks: Vec<f64> = (0..120).map(|_| base + spread * rng.next_f64()).collect();
        assert_same_streaming(&peaks, &format!("near-degenerate, spread {spread}"));
        // One clear outlier on top of an almost constant tail.
        let mut with_outlier = peaks.clone();
        with_outlier.insert(60, base * 3.0);
        let ctx = format!("near-degenerate + outlier, spread {spread}");
        assert_same_streaming(&with_outlier, &ctx);
    }
}

#[test]
fn ties_and_zeros_stream_bitwise() {
    let levels = [0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0];
    for seed in 0..4u64 {
        let mut rng = Rng::new(9_000 + seed);
        let peaks: Vec<f64> = (0..150)
            .map(|_| levels[rng.range_usize(0, levels.len())])
            .collect();
        assert_same_streaming(&peaks, &format!("ties, seed {seed}"));
    }
    // Mostly zeros: the minimum is zero, so the positive search interval
    // reaches out to 2 mean / 1e-12.
    let mut rng = Rng::new(9_100);
    let peaks: Vec<f64> = (0..150)
        .map(|_| {
            if rng.chance(0.8) {
                0.0
            } else {
                rng.range_f64(0.0, 3.0)
            }
        })
        .collect();
    assert_same_streaming(&peaks, "mostly zeros");
}

#[test]
fn twelve_orders_of_magnitude_stream_bitwise() {
    for seed in 0..4u64 {
        let mut rng = Rng::new(10_000 + seed);
        let peaks: Vec<f64> = (0..150)
            .map(|_| 10f64.powf(rng.range_f64(-6.0, 6.0)))
            .collect();
        assert_same_streaming(&peaks, &format!("1e-6..1e6, seed {seed}"));
    }
}

#[test]
fn small_and_large_peak_sets_bitwise() {
    let mut rng = Rng::new(11_000);
    for n in [4, 5, 6, 7, 8, 9, 13, 31, 64, 257, 500, 1000, 2000] {
        for &gamma in &[-0.4, 0.0, 0.3, 0.8] {
            let peaks = sample_gpd(&mut rng, gamma, 1.0, n);
            assert_same_fit(&peaks, &format!("gamma {gamma}"));
        }
        let peaks: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.range_f64(-6.0, 6.0)))
            .collect();
        assert_same_fit(&peaks, "1e-6..1e6");
    }
    // Streaming refits of a long tail, the regime a stream reaches with age.
    let peaks = sample_gpd(&mut rng, 0.1, 0.5, 2000);
    for k in (1_900..=2_000).step_by(7) {
        assert_same_fit(&peaks[..k], "long stream");
    }
}

/// `Spot` as it was, over the reference fit: the same initial threshold,
/// refit after every peak and capped quantile.
struct ReferenceSpot {
    q: f64,
    initial_threshold: f64,
    threshold: f64,
    peaks: Vec<f64>,
    n_obs: usize,
    refits: u64,
}

impl ReferenceSpot {
    fn new(calibration: &[f64], config: PotConfig) -> Self {
        let t = try_quantile(calibration, 1.0 - config.level).unwrap();
        let peaks = calibration
            .iter()
            .filter(|&&s| s > t)
            .map(|&s| s - t)
            .collect();
        let mut spot = ReferenceSpot {
            q: config.q,
            initial_threshold: t,
            threshold: t,
            peaks,
            n_obs: calibration.len(),
            refits: 0,
        };
        spot.refit();
        spot.refits = 0;
        spot
    }

    fn refit(&mut self) {
        self.refits += 1;
        let max_peak = self.peaks.iter().cloned().fold(0.0, f64::max);
        if self.peaks.len() < 4 {
            let spread = max_peak.max(self.initial_threshold.abs() * 0.01).max(1e-12);
            self.threshold = self.initial_threshold + max_peak + 0.01 * spread;
            return;
        }
        let (fit, _) = reference::fit_gpd_detailed(&self.peaks);
        let z = pot_quantile(
            &fit,
            self.initial_threshold,
            self.q,
            self.n_obs,
            self.peaks.len(),
        );
        let cap = self.initial_threshold + 2.0 * max_peak;
        self.threshold = z.max(self.initial_threshold).min(cap);
    }

    fn step(&mut self, score: f64) -> bool {
        if score >= self.threshold {
            return true;
        }
        self.n_obs += 1;
        if score > self.initial_threshold {
            self.peaks.push(score - self.initial_threshold);
            self.refit();
        }
        false
    }
}

#[test]
fn spot_streams_match_reference_bitwise() {
    for seed in 0..6u64 {
        let mut rng = Rng::new(12_000 + seed);
        // Score-like streams: a noisy, slowly drifting level with a right
        // tail of varying weight and rare bursts, so peaks keep arriving.
        let tail = [0.0, 0.2, 0.5][seed as usize % 3];
        let score = |i: usize, rng: &mut Rng| {
            let noise = sample_gpd(rng, tail, 0.1, 1)[0];
            let burst = if rng.chance(0.002) {
                rng.range_f64(1.0, 5.0)
            } else {
                0.0
            };
            1.0 + 1e-6 * i as f64 + 0.05 * rng.normal() + noise + burst
        };
        let calibration: Vec<f64> = (0..1_000).map(|i| score(i, &mut rng)).collect();
        let config = PotConfig {
            q: 1e-3,
            level: 0.02,
        };
        let mut spot = Spot::try_init(&calibration, config).unwrap();
        let mut want = ReferenceSpot::new(&calibration, config);
        assert_eq!(
            spot.threshold.to_bits(),
            want.threshold.to_bits(),
            "seed {seed}: init"
        );
        for i in 0..20_000 {
            let s = score(1_000 + i, &mut rng);
            assert_eq!(spot.step(s), want.step(s), "seed {seed}, point {i}: label");
            let (got, expected) = (spot.threshold.to_bits(), want.threshold.to_bits());
            assert_eq!(got, expected, "seed {seed}, point {i}: threshold");
        }
        assert_eq!(spot.refits(), want.refits, "seed {seed}: refits");
        assert_eq!(spot.n_peaks(), want.peaks.len(), "seed {seed}: peaks");
        assert!(
            spot.refits() > 200,
            "seed {seed}: the stream must exercise refits"
        );
    }
}
