//! Signal primitives used by the synthetic dataset generators: seeded noise,
//! periodic waves, random walks, ECG-like pulse trains, and process-control
//! dynamics (tank levels, actuator states).

use tranad_tensor::Rng;

/// Seeded random source for signal generation.
pub struct SignalRng {
    rng: Rng,
}

impl SignalRng {
    /// Creates a seeded source.
    pub fn new(seed: u64) -> Self {
        SignalRng {
            rng: Rng::new(seed),
        }
    }

    /// Uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.range_f64(lo, hi)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn index(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range_usize(lo, hi)
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        self.rng.normal()
    }

    /// Bernoulli trial.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }
}

/// A sine wave `amplitude * sin(2π t / period + phase) + offset` with
/// additive Gaussian noise.
pub(crate) fn sine(
    rng: &mut SignalRng,
    len: usize,
    period: f64,
    amplitude: f64,
    offset: f64,
    noise: f64,
) -> Vec<f64> {
    let phase = rng.uniform(0.0, std::f64::consts::TAU);
    (0..len)
        .map(|t| {
            amplitude * (std::f64::consts::TAU * t as f64 / period + phase).sin()
                + offset
                + noise * rng.normal()
        })
        .collect()
}

/// A mean-reverting random walk (Ornstein–Uhlenbeck-style):
/// `x_{t+1} = x_t + theta (mu - x_t) + sigma N(0,1)`.
pub(crate) fn random_walk(
    rng: &mut SignalRng,
    len: usize,
    mu: f64,
    theta: f64,
    sigma: f64,
) -> Vec<f64> {
    let mut x = mu;
    (0..len)
        .map(|_| {
            x += theta * (mu - x) + sigma * rng.normal();
            x
        })
        .collect()
}

/// An ECG-like pulse train: sharp QRS-style spikes every `period` steps (with
/// jitter), smaller P/T bumps, and baseline noise. Used for UCR/MBA-style
/// physiological traces.
pub(crate) fn ecg(
    rng: &mut SignalRng,
    len: usize,
    period: usize,
    amplitude: f64,
    noise: f64,
) -> Vec<f64> {
    assert!(period >= 8, "ECG period too short");
    let mut out = vec![0.0; len];
    let mut t = rng.index(0, period);
    while t < len {
        // P wave
        add_bump(
            &mut out,
            t.saturating_sub(period / 5),
            period / 10,
            amplitude * 0.15,
        );
        // QRS complex: down, sharp up, down
        if t >= 1 {
            out[t - 1] -= amplitude * 0.2;
        }
        out[t] += amplitude;
        if t + 1 < len {
            out[t + 1] -= amplitude * 0.3;
        }
        // T wave
        add_bump(&mut out, t + period / 6, period / 8, amplitude * 0.25);
        let jitter = rng.index(0, (period / 10).max(1) + 1);
        t += period - period / 20 + jitter;
    }
    for v in &mut out {
        *v += noise * rng.normal();
    }
    out
}

fn add_bump(out: &mut [f64], center: usize, half_width: usize, height: f64) {
    let hw = half_width.max(1);
    let lo = center.saturating_sub(hw);
    let hi = (center + hw).min(out.len().saturating_sub(1));
    for t in lo..=hi {
        if t >= out.len() {
            break;
        }
        let d = (t as f64 - center as f64) / hw as f64;
        out[t] += height * (1.0 - d * d).max(0.0);
    }
}

/// A sawtooth "tank level" process: rises at `fill_rate` until a threshold,
/// then drains faster; with sensor noise. Models SWaT/WADI water processes.
pub(crate) fn tank_level(
    rng: &mut SignalRng,
    len: usize,
    low: f64,
    high: f64,
    fill_rate: f64,
    drain_rate: f64,
    noise: f64,
) -> Vec<f64> {
    let mut level = rng.uniform(low, high);
    let mut filling = rng.chance(0.5);
    (0..len)
        .map(|_| {
            if filling {
                level += fill_rate * (1.0 + 0.1 * rng.normal());
                if level >= high {
                    filling = false;
                }
            } else {
                level -= drain_rate * (1.0 + 0.1 * rng.normal());
                if level <= low {
                    filling = true;
                }
            }
            level + noise * rng.normal()
        })
        .collect()
}

/// A binary actuator trace derived from a continuous signal: 1 while the
/// signal is above its midpoint, 0 otherwise, with rare random toggles.
pub(crate) fn actuator(rng: &mut SignalRng, driver: &[f64], toggle_p: f64) -> Vec<f64> {
    let min = driver.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = driver.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mid = 0.5 * (min + max);
    driver
        .iter()
        .map(|&v| {
            let base = if v > mid { 1.0 } else { 0.0 };
            if rng.chance(toggle_p) {
                1.0 - base
            } else {
                base
            }
        })
        .collect()
}

/// A bursty server-metric-like trace: baseline load plus Poisson-ish bursts
/// with exponential decay (CPU / requests / IO patterns for SMD).
pub(crate) fn bursty(
    rng: &mut SignalRng,
    len: usize,
    baseline: f64,
    burst_p: f64,
    burst_height: f64,
    decay: f64,
    noise: f64,
) -> Vec<f64> {
    let mut burst = 0.0;
    (0..len)
        .map(|_| {
            if rng.chance(burst_p) {
                burst += burst_height * rng.uniform(0.5, 1.5);
            }
            burst *= decay;
            (baseline + burst + noise * rng.normal()).max(0.0)
        })
        .collect()
}

/// Piecewise-constant telemetry with occasional regime switches
/// (SMAP/MSL-style spacecraft channels). Transitions ramp over a few steps
/// — physical actuators slew rather than jump, which is what lets models
/// distinguish sanctioned mode changes from step-change faults.
pub(crate) fn telemetry(
    rng: &mut SignalRng,
    len: usize,
    levels: &[f64],
    switch_p: f64,
    noise: f64,
) -> Vec<f64> {
    assert!(!levels.is_empty(), "need at least one level");
    const RAMP: f64 = 0.25; // fraction of the remaining gap closed per step
    let mut target = levels[rng.index(0, levels.len())];
    let mut level = target;
    (0..len)
        .map(|_| {
            if rng.chance(switch_p) {
                target = levels[rng.index(0, levels.len())];
            }
            level += RAMP * (target - level);
            level + noise * rng.normal()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_has_expected_stats() {
        let mut rng = SignalRng::new(1);
        let s = sine(&mut rng, 10_000, 50.0, 2.0, 5.0, 0.0);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 7.0).abs() < 0.05, "max {max}");
    }

    #[test]
    fn random_walk_mean_reverts() {
        let mut rng = SignalRng::new(2);
        let s = random_walk(&mut rng, 20_000, 10.0, 0.05, 0.5);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn ecg_has_periodic_peaks() {
        let mut rng = SignalRng::new(3);
        let s = ecg(&mut rng, 2_000, 50, 5.0, 0.05);
        let peaks = s.iter().filter(|&&v| v > 2.5).count();
        // Roughly one QRS spike per period.
        assert!((25..=80).contains(&peaks), "peaks {peaks}");
    }

    #[test]
    fn tank_level_stays_in_band() {
        let mut rng = SignalRng::new(4);
        let s = tank_level(&mut rng, 5_000, 1.0, 9.0, 0.05, 0.08, 0.01);
        assert!(s.iter().all(|&v| v > 0.0 && v < 10.0));
        // It must actually oscillate, not settle.
        let lo_hits = s.iter().filter(|&&v| v < 2.0).count();
        let hi_hits = s.iter().filter(|&&v| v > 8.0).count();
        assert!(lo_hits > 0 && hi_hits > 0);
    }

    #[test]
    fn actuator_is_binaryish() {
        let mut rng = SignalRng::new(5);
        let driver = sine(&mut rng, 1_000, 100.0, 1.0, 0.0, 0.0);
        let a = actuator(&mut rng, &driver, 0.0);
        assert!(a.iter().all(|&v| v == 0.0 || v == 1.0));
        let ones = a.iter().filter(|&&v| v == 1.0).count();
        assert!(ones > 300 && ones < 700, "ones {ones}");
    }

    #[test]
    fn bursty_nonnegative_with_bursts() {
        let mut rng = SignalRng::new(6);
        let s = bursty(&mut rng, 10_000, 0.2, 0.01, 1.0, 0.95, 0.02);
        assert!(s.iter().all(|&v| v >= 0.0));
        let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 0.6, "no bursts observed, max {max}");
    }

    #[test]
    fn telemetry_visits_levels() {
        let mut rng = SignalRng::new(7);
        let s = telemetry(&mut rng, 10_000, &[0.0, 1.0, 2.0], 0.01, 0.01);
        for target in [0.0, 1.0, 2.0] {
            assert!(
                s.iter().any(|&v| (v - target).abs() < 0.1),
                "level {target} never visited"
            );
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let a = sine(&mut SignalRng::new(9), 100, 20.0, 1.0, 0.0, 0.1);
        let b = sine(&mut SignalRng::new(9), 100, 20.0, 1.0, 0.0, 0.1);
        assert_eq!(a, b);
    }
}
