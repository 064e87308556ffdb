//! Synthetic generators for the paper's nine benchmark datasets (Table 1).
//!
//! The real datasets are either license-gated (SWaT, WADI), large downloads
//! (SMD, SMAP/MSL), or both; per the substitution policy in DESIGN.md each
//! generator reproduces the *published statistics* of its dataset —
//! dimensionality, train/test length (scaled by `GenConfig::scale`), anomaly
//! rate — and the anomaly character the paper discusses (mild anomalies in
//! SMD, cascading faults in MSDS, noisy large-scale WADI, etc.).

use crate::anomaly::{plan_segments, Injector};
use crate::series::{Labels, TimeSeries};
use crate::signal::{actuator, bursty, ecg, random_walk, sine, tank_level, telemetry, SignalRng};

/// The nine benchmark datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Numenta Anomaly Benchmark (univariate infrastructure traces).
    Nab,
    /// HexagonML/UCR KDD-cup traces (univariate physiological).
    Ucr,
    /// MIT-BIH Supraventricular Arrhythmia (2-lead ECG).
    Mba,
    /// Soil Moisture Active Passive satellite telemetry.
    Smap,
    /// Mars Science Laboratory rover telemetry.
    Msl,
    /// Secure Water Treatment testbed.
    Swat,
    /// Water Distribution testbed.
    Wadi,
    /// Server Machine Dataset (compute-cluster metrics).
    Smd,
    /// Multi-Source Distributed System dataset.
    Msds,
}

/// Published statistics of a dataset (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct PaperStats {
    /// Training length.
    pub train: usize,
    /// Test length.
    pub test: usize,
    /// Number of dimensions.
    pub dims: usize,
    /// Anomalous fraction of the test set, in percent.
    pub anomaly_pct: f64,
    /// Number of traces in the dataset repository.
    pub traces: usize,
}

impl DatasetKind {
    /// All nine datasets, in Table 1 order.
    pub fn all() -> [DatasetKind; 9] {
        use DatasetKind::*;
        [Nab, Ucr, Mba, Smap, Msl, Swat, Wadi, Smd, Msds]
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Nab => "NAB",
            DatasetKind::Ucr => "UCR",
            DatasetKind::Mba => "MBA",
            DatasetKind::Smap => "SMAP",
            DatasetKind::Msl => "MSL",
            DatasetKind::Swat => "SWaT",
            DatasetKind::Wadi => "WADI",
            DatasetKind::Smd => "SMD",
            DatasetKind::Msds => "MSDS",
        }
    }

    /// Parses a (case-insensitive) dataset name.
    pub fn parse(name: &str) -> Option<DatasetKind> {
        DatasetKind::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Table 1 statistics.
    pub fn paper_stats(self) -> PaperStats {
        match self {
            DatasetKind::Nab => PaperStats {
                train: 4033,
                test: 4033,
                dims: 1,
                anomaly_pct: 0.92,
                traces: 6,
            },
            DatasetKind::Ucr => PaperStats {
                train: 1600,
                test: 5900,
                dims: 1,
                anomaly_pct: 1.88,
                traces: 4,
            },
            DatasetKind::Mba => PaperStats {
                train: 100_000,
                test: 100_000,
                dims: 2,
                anomaly_pct: 0.14,
                traces: 8,
            },
            DatasetKind::Smap => PaperStats {
                train: 135_183,
                test: 427_617,
                dims: 25,
                anomaly_pct: 13.13,
                traces: 55,
            },
            DatasetKind::Msl => PaperStats {
                train: 58_317,
                test: 73_729,
                dims: 55,
                anomaly_pct: 10.72,
                traces: 3,
            },
            DatasetKind::Swat => PaperStats {
                train: 496_800,
                test: 449_919,
                dims: 51,
                anomaly_pct: 11.98,
                traces: 1,
            },
            DatasetKind::Wadi => PaperStats {
                train: 1_048_571,
                test: 172_801,
                dims: 123,
                anomaly_pct: 5.99,
                traces: 1,
            },
            DatasetKind::Smd => PaperStats {
                train: 708_405,
                test: 708_420,
                dims: 38,
                anomaly_pct: 4.16,
                traces: 4,
            },
            DatasetKind::Msds => PaperStats {
                train: 146_430,
                test: 146_430,
                dims: 10,
                anomaly_pct: 5.37,
                traces: 1,
            },
        }
    }

    /// The paper's per-dataset POT low quantile (§4): 0.07 for SMAP, 0.01
    /// for MSL, 0.001 for the rest.
    pub fn pot_low_quantile(self) -> f64 {
        match self {
            DatasetKind::Smap => 0.07,
            DatasetKind::Msl => 0.01,
            _ => 0.001,
        }
    }
}

/// Generation configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Length multiplier applied to the paper's train/test lengths
    /// (lengths are clamped to at least `min_len`).
    pub scale: f64,
    /// Minimum generated length per split.
    pub min_len: usize,
    /// Base RNG seed; everything downstream derives from it.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scale: 0.02,
            min_len: 400,
            seed: 42,
        }
    }
}

impl GenConfig {
    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(self.min_len)
    }
}

/// A generated dataset: training series (anomaly-free), test series, and
/// the test set's ground-truth labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which benchmark this imitates.
    pub kind: DatasetKind,
    /// Training series (nominal behaviour only).
    pub train: TimeSeries,
    /// Test series (nominal behaviour plus injected anomalies).
    pub test: TimeSeries,
    /// Ground-truth labels for the test series.
    pub labels: Labels,
}

impl Dataset {
    /// Convenience: per-timestamp test labels.
    pub fn point_labels(&self) -> Vec<bool> {
        self.labels.point_labels()
    }

    /// Dimensions of the series.
    pub fn dims(&self) -> usize {
        self.train.dims()
    }
}

/// Generates the synthetic counterpart of `kind`.
pub fn generate(kind: DatasetKind, config: GenConfig) -> Dataset {
    let stats = kind.paper_stats();
    let train_len = config.scaled(stats.train);
    let test_len = config.scaled(stats.test);
    let seed = config.seed ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SignalRng::new(seed);
    let total = train_len + test_len;

    // One long nominal trace, split into train | test, so the test regime
    // matches the training regime (as in the real benchmarks).
    let nominal = match kind {
        DatasetKind::Nab => gen_nab(&mut rng, total),
        DatasetKind::Ucr => gen_ucr(&mut rng, total),
        DatasetKind::Mba => gen_mba(&mut rng, total),
        DatasetKind::Smap => gen_telemetry_platform(&mut rng, total, 25, 12.0 / total as f64),
        DatasetKind::Msl => gen_telemetry_platform(&mut rng, total, 55, 16.0 / total as f64),
        DatasetKind::Swat => gen_water_plant(&mut rng, total, 51, 0.01),
        DatasetKind::Wadi => gen_water_plant(&mut rng, total, 123, 0.04),
        DatasetKind::Smd => gen_server_metrics(&mut rng, total, 38),
        DatasetKind::Msds => gen_distributed_system(&mut rng, total, 10),
    };
    let train = nominal.slice(0, train_len);
    let mut test = nominal.slice(train_len, total);
    let mut labels = Labels::normal(test_len, stats.dims);

    if kind == DatasetKind::Wadi {
        apply_unlabeled_drift(&mut rng, &mut test);
    }
    inject_anomalies(
        kind,
        &mut rng,
        &mut test,
        &mut labels,
        stats.anomaly_pct / 100.0,
    );

    Dataset {
        kind,
        train,
        test,
        labels,
    }
}

// ---- nominal signal builders -----------------------------------------------

fn gen_nab(rng: &mut SignalRng, len: usize) -> TimeSeries {
    // CPU-utilization-like: daily sine + mean-reverting load walk + noise.
    // The walk reverts quickly so the train and test halves share a regime,
    // as in the real NAB traces.
    let daily = sine(rng, len, 288.0, 1.0, 0.0, 0.05);
    let walk = random_walk(rng, len, 0.0, 0.08, 0.05);
    let col: Vec<f64> = daily
        .iter()
        .zip(&walk)
        .map(|(&a, &b)| 50.0 + 20.0 * a + 5.0 * b)
        .collect();
    TimeSeries::from_columns(&[col])
}

fn gen_ucr(rng: &mut SignalRng, len: usize) -> TimeSeries {
    // Physiological pulse train (InternalBleeding / ECG style).
    TimeSeries::from_columns(&[ecg(rng, len, 64, 4.0, 0.08)])
}

fn gen_mba(rng: &mut SignalRng, len: usize) -> TimeSeries {
    // Two ECG leads sharing rhythm: lead II plus a scaled, lagged lead V.
    let lead2 = ecg(rng, len, 72, 5.0, 0.06);
    let lead_v: Vec<f64> = (0..len)
        .map(|t| 0.6 * lead2[t.saturating_sub(2)] + 0.04 * rng.normal())
        .collect();
    TimeSeries::from_columns(&[lead2, lead_v])
}

fn gen_telemetry_platform(
    rng: &mut SignalRng,
    len: usize,
    dims: usize,
    switch_p: f64,
) -> TimeSeries {
    // Spacecraft-style channels: one continuous primary channel, the rest
    // piecewise-constant discrete telemetry with occasional regime switches.
    let mut cols = Vec::with_capacity(dims);
    cols.push(
        sine(rng, len, 200.0, 1.0, 0.0, 0.05)
            .iter()
            .zip(random_walk(rng, len, 0.0, 0.08, 0.05))
            .map(|(&a, b)| a + 0.5 * b)
            .collect(),
    );
    for d in 1..dims {
        let n_levels = 2 + d % 4;
        let levels: Vec<f64> = (0..n_levels).map(|l| l as f64 / n_levels as f64).collect();
        cols.push(telemetry(rng, len, &levels, switch_p, 0.02));
    }
    TimeSeries::from_columns(&cols)
}

fn gen_water_plant(rng: &mut SignalRng, len: usize, dims: usize, noise: f64) -> TimeSeries {
    // ICS process: tank levels (sawtooth integrators), flow rates driven by
    // the tanks, and binary actuators.
    let n_tanks = dims / 5 + 1;
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(dims);
    let mut tanks: Vec<Vec<f64>> = Vec::with_capacity(n_tanks);
    for i in 0..n_tanks {
        let period_scale = 1.0 + i as f64 * 0.3;
        tanks.push(tank_level(
            rng,
            len,
            1.0,
            9.0,
            0.04 * period_scale,
            0.06 * period_scale,
            noise,
        ));
    }
    for d in 0..dims {
        let tank = &tanks[d % n_tanks];
        match d % 5 {
            0 => cols.push(tank.clone()),
            1 | 2 => {
                // Flow sensor: derivative-ish of the driving tank + noise.
                let col: Vec<f64> = (0..len)
                    .map(|t| {
                        let dv = if t > 0 { tank[t] - tank[t - 1] } else { 0.0 };
                        2.0 + 10.0 * dv + noise * rng.normal()
                    })
                    .collect();
                cols.push(col);
            }
            _ => cols.push(actuator(rng, tank, noise * 0.05)),
        }
    }
    TimeSeries::from_columns(&cols)
}

fn gen_server_metrics(rng: &mut SignalRng, len: usize, dims: usize) -> TimeSeries {
    // Machine metrics: periodic load with small bursts (CPU/requests),
    // channels correlated in pairs (cpu <-> load), tight memory-like walks
    // and smooth utilization waves. Nominal behaviour is predictable so
    // the paper's "mild anomalies close to normal data" remain the hard
    // part, not the baseline noise.
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(dims);
    for d in 0..dims {
        match d % 4 {
            0 => {
                // Periodic load: the period is short relative to the
                // training split so the full value range is seen during
                // training (min-max normalization needs representative
                // ranges; the real SMD traces span five weeks).
                cols.push(sine(rng, len, 150.0 + (d as f64) * 7.0, 0.25, 0.5, 0.03));
            }
            1 => {
                // Correlated with the previous load channel.
                let prev = cols.last().expect("d%4==1 follows d%4==0").clone();
                let col: Vec<f64> = prev
                    .iter()
                    .map(|&v| 0.7 * v + 0.1 + 0.015 * rng.normal())
                    .collect();
                cols.push(col);
            }
            2 => cols.push(random_walk(rng, len, 0.5, 0.1, 0.01)),
            _ => cols.push(sine(rng, len, 400.0, 0.2, 0.5, 0.02)),
        }
    }
    TimeSeries::from_columns(&cols)
}

fn gen_distributed_system(rng: &mut SignalRng, len: usize, dims: usize) -> TimeSeries {
    // Distributed-system golden signals: latency, error-ish, saturation,
    // traffic per service, with cross-service coupling.
    let traffic = sine(rng, len, 500.0, 0.5, 1.0, 0.05);
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(dims);
    for d in 0..dims {
        let coupling = 0.3 + 0.1 * (d % 3) as f64;
        let base = bursty(rng, len, 0.2, 0.004, 0.3, 0.9, 0.02);
        let col: Vec<f64> = (0..len)
            .map(|t| base[t] + coupling * traffic[t] + 0.02 * rng.normal())
            .collect();
        cols.push(col);
    }
    TimeSeries::from_columns(&cols)
}

/// Unlabeled nominal drift applied to the WADI test split: a fraction of
/// sensors slowly shift operating point, mimicking the train/test regime
/// gap of the real testbed. This is *not* ground-truth anomalous.
fn apply_unlabeled_drift(rng: &mut SignalRng, test: &mut TimeSeries) {
    let dims = test.dims();
    let len = test.len();
    let drifting = (dims / 5).max(1);
    for _ in 0..drifting {
        let d = rng.index(0, dims);
        let col = test.column(d);
        let mean = col.iter().sum::<f64>() / len as f64;
        let std = (col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / len as f64)
            .sqrt()
            .max(1e-6);
        let target = rng.uniform(0.5, 1.2) * std * if rng.chance(0.5) { 1.0 } else { -1.0 };
        for t in 0..len {
            let frac = t as f64 / len as f64;
            let v = test.get(t, d);
            test.set(t, d, v + frac * target);
        }
    }
}

// ---- anomaly plans ----------------------------------------------------------

fn inject_anomalies(
    kind: DatasetKind,
    rng: &mut SignalRng,
    test: &mut TimeSeries,
    labels: &mut Labels,
    rate: f64,
) {
    let dims = test.dims();
    let len = test.len();
    let mut inj = Injector::new(test, labels);
    match kind {
        DatasetKind::Nab => {
            // Short point-ish anomalies with varied shape and sign so
            // separate incidents do not "twin" (which would hide them from
            // discord-based detectors).
            for (i, (s, e)) in plan_segments(rng, len, rate, 1, 6).into_iter().enumerate() {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                for t in s..e {
                    inj.spike(t, 0, sign * rng.uniform(4.0, 8.0));
                }
            }
        }
        DatasetKind::Ucr => {
            // Distorted beats: noise bursts and local level shifts.
            for (i, (s, e)) in plan_segments(rng, len, rate, 8, 40).into_iter().enumerate() {
                if i % 2 == 0 {
                    inj.noise_burst(rng, s, e, 0, 4.0);
                } else {
                    inj.level_shift(s, e, 0, 3.0);
                }
            }
        }
        DatasetKind::Mba => {
            // Arrhythmia episodes: runs of abnormal rhythm visible in both
            // leads (supraventricular contractions raise the baseline;
            // premature beats add irregular energy).
            for (i, (s, e)) in plan_segments(rng, len, rate, 8, 30).into_iter().enumerate() {
                if i % 2 == 0 {
                    inj.level_shift(s, e, 0, 3.0);
                    inj.level_shift(s, e, 1, 2.5);
                } else {
                    inj.noise_burst(rng, s, e, 0, 4.0);
                    inj.noise_burst(rng, s, e, 1, 3.0);
                }
            }
        }
        DatasetKind::Smap | DatasetKind::Msl => {
            // Long telemetry faults on a couple of channels per segment.
            // Shifts push channels outside their sanctioned level range so
            // faults are distinguishable from ordinary regime switches
            // (flatlines would be invisible on piecewise-constant
            // telemetry, so only the continuous channel 0 gets them).
            for (i, (s, e)) in plan_segments(rng, len, rate, 20, len / 8)
                .into_iter()
                .enumerate()
            {
                let d0 = rng.index(0, dims);
                match i % 3 {
                    0 => inj.level_shift(s, e, d0, rng.uniform(4.0, 8.0)),
                    1 if d0 == 0 => inj.flatline(s, e, 0),
                    1 => inj.noise_burst(rng, s, e, d0, 3.0),
                    _ => inj.drift(s, e, d0, 6.0),
                }
                let d1 = (d0 + 1 + rng.index(0, dims - 1)) % dims;
                inj.level_shift(s, e, d1, 4.0);
                if rng.chance(0.5) {
                    let d2 = (d0 + 2 + rng.index(0, dims - 1)) % dims;
                    inj.level_shift(s, e, d2, 4.0);
                }
            }
        }
        DatasetKind::Swat => {
            // Attacks: actuators/sensors stuck at abnormal levels plus
            // shifted process variables for sustained periods. Real SWaT
            // attacks propagate through the physical process, so several
            // related channels deviate together.
            for (s, e) in plan_segments(rng, len, rate, 30, len / 6) {
                let attacked = 3 + rng.index(0, 4.min(dims));
                let first = rng.index(0, dims);
                for i in 0..attacked {
                    let d = (first + i * 5) % dims; // spread across process units
                    if rng.chance(0.5) {
                        inj.stuck_at(s, e, d, rng.uniform(2.0, 4.0));
                    } else {
                        inj.level_shift(s, e, d, rng.uniform(2.0, 4.0));
                    }
                }
            }
        }
        DatasetKind::Wadi => {
            // The hard dataset: attacks are *mild* (barely outside nominal
            // variation) and the nominal regime drifts between the training
            // and attack periods (14 vs 2 days in the real testbed), which
            // is what collapses every method's precision in Table 2.
            for (s, e) in plan_segments(rng, len, rate, 20, len / 10) {
                let attacked = 1 + rng.index(0, 2);
                for _ in 0..attacked {
                    let d = rng.index(0, dims);
                    if rng.chance(0.5) {
                        inj.stuck_at(s, e, d, rng.uniform(0.8, 1.6));
                    } else {
                        inj.level_shift(s, e, d, rng.uniform(0.8, 1.6));
                    }
                }
            }
        }
        DatasetKind::Smd => {
            // Mild anomalies close to normal data (§4.3): small shifts and
            // modest extra bursts.
            for (i, (s, e)) in plan_segments(rng, len, rate, 10, 60)
                .into_iter()
                .enumerate()
            {
                let d = rng.index(0, dims);
                if i % 2 == 0 {
                    inj.level_shift(s, e, d, rng.uniform(2.0, 3.0));
                } else {
                    inj.noise_burst(rng, s, e, d, 2.5);
                }
                if rng.chance(0.5) {
                    let d2 = (d + 1) % dims;
                    inj.level_shift(s, e, d2, 1.5);
                }
            }
        }
        DatasetKind::Msds => {
            // Cascading faults across services (Figure 5 discussion).
            for (s, e) in plan_segments(rng, len, rate, 25, 120) {
                let n = 2 + rng.index(0, 4.min(dims - 1));
                let first = rng.index(0, dims);
                let chain: Vec<usize> = (0..n).map(|i| (first + i) % dims).collect();
                let lag = 3 + rng.index(0, 5);
                inj.cascade(s, e, &chain, lag, rng.uniform(2.5, 4.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenConfig {
        GenConfig {
            scale: 0.002,
            min_len: 400,
            seed: 7,
        }
    }

    #[test]
    fn all_datasets_generate() {
        for kind in DatasetKind::all() {
            let ds = generate(kind, small());
            let stats = kind.paper_stats();
            assert_eq!(ds.dims(), stats.dims, "{}", kind.name());
            assert!(ds.train.len() >= 400);
            assert!(ds.test.len() >= 400);
            assert_eq!(ds.labels.len(), ds.test.len());
            assert!(ds.train.data().iter().all(|v| v.is_finite()));
            assert!(ds.test.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn anomaly_rates_roughly_match_paper() {
        for kind in DatasetKind::all() {
            let ds = generate(
                kind,
                GenConfig {
                    scale: 0.01,
                    min_len: 2000,
                    seed: 1,
                },
            );
            let target = kind.paper_stats().anomaly_pct / 100.0;
            let actual = ds.labels.anomaly_rate();
            assert!(
                actual > target * 0.3 && actual < target * 2.5 + 0.01,
                "{}: target {target:.4}, actual {actual:.4}",
                kind.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetKind::Smd, small());
        let b = generate(DatasetKind::Smd, small());
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(DatasetKind::Nab, GenConfig { seed: 1, ..small() });
        let b = generate(DatasetKind::Nab, GenConfig { seed: 2, ..small() });
        assert_ne!(a.test, b.test);
    }

    #[test]
    fn train_split_is_clean() {
        // Training data must contain no labeled anomalies by construction;
        // sanity check the test labels exist instead.
        let ds = generate(DatasetKind::Msds, small());
        assert!(ds.labels.anomaly_rate() > 0.0);
    }

    #[test]
    fn msds_anomalies_touch_multiple_dims() {
        let ds = generate(
            DatasetKind::Msds,
            GenConfig {
                scale: 0.01,
                min_len: 1000,
                seed: 3,
            },
        );
        let multi = (0..ds.labels.len())
            .filter(|&t| ds.labels.dim_labels(t).iter().filter(|&&b| b).count() >= 2)
            .count();
        assert!(multi > 0, "cascades should label several dimensions");
    }

    #[test]
    fn parse_names() {
        assert_eq!(DatasetKind::parse("swat"), Some(DatasetKind::Swat));
        assert_eq!(DatasetKind::parse("WADI"), Some(DatasetKind::Wadi));
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn pot_quantiles_match_paper() {
        assert_eq!(DatasetKind::Smap.pot_low_quantile(), 0.07);
        assert_eq!(DatasetKind::Msl.pot_low_quantile(), 0.01);
        assert_eq!(DatasetKind::Smd.pot_low_quantile(), 0.001);
    }
}
