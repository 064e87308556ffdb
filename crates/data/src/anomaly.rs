//! Anomaly injection: the fault types the paper's datasets contain
//! (point spikes, contextual deviations, collective level shifts, flatlined
//! sensors, drifts, noise bursts, and MSDS-style cascading faults), each
//! writing both the corrupted values and the per-dimension ground truth.

use crate::series::{Labels, TimeSeries};
use crate::signal::SignalRng;

/// Injects anomalies into a series while maintaining ground-truth labels.
pub(crate) struct Injector<'a> {
    series: &'a mut TimeSeries,
    labels: &'a mut Labels,
    stds: Vec<f64>,
}

impl<'a> Injector<'a> {
    /// Creates an injector. Per-dimension standard deviations are captured
    /// up front so anomaly magnitudes scale with the nominal signal.
    pub(crate) fn new(series: &'a mut TimeSeries, labels: &'a mut Labels) -> Self {
        assert_eq!(series.len(), labels.len(), "series/label length mismatch");
        assert_eq!(series.dims(), labels.dims(), "series/label dims mismatch");
        let stds = (0..series.dims())
            .map(|d| {
                let col = series.column(d);
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                let var =
                    col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
                var.sqrt().max(1e-6)
            })
            .collect();
        Injector {
            series,
            labels,
            stds,
        }
    }

    /// A single-point spike of `magnitude` standard deviations.
    pub(crate) fn spike(&mut self, t: usize, d: usize, magnitude: f64) {
        let v = self.series.get(t, d);
        self.series.set(t, d, v + magnitude * self.stds[d]);
        self.labels.mark(t, t + 1, d);
    }

    /// A sustained level shift over `[start, end)`.
    pub(crate) fn level_shift(&mut self, start: usize, end: usize, d: usize, magnitude: f64) {
        let delta = magnitude * self.stds[d];
        for t in start..end.min(self.series.len()) {
            let v = self.series.get(t, d);
            self.series.set(t, d, v + delta);
        }
        self.labels.mark(start, end, d);
    }

    /// A stuck-at-level fault: the sensor reports a constant abnormal
    /// value `magnitude` standard deviations above its local value (the
    /// classic ICS attack: an actuator forced to an extreme position).
    pub(crate) fn stuck_at(&mut self, start: usize, end: usize, d: usize, magnitude: f64) {
        let level = self.series.get(start, d) + magnitude * self.stds[d];
        for t in start..end.min(self.series.len()) {
            self.series.set(t, d, level);
        }
        self.labels.mark(start, end, d);
    }

    /// A stuck-at fault: the sensor repeats its value at `start`.
    pub(crate) fn flatline(&mut self, start: usize, end: usize, d: usize) {
        let frozen = self.series.get(start, d);
        for t in start..end.min(self.series.len()) {
            self.series.set(t, d, frozen);
        }
        self.labels.mark(start, end, d);
    }

    /// A burst of extra Gaussian noise.
    pub(crate) fn noise_burst(
        &mut self,
        rng: &mut SignalRng,
        start: usize,
        end: usize,
        d: usize,
        magnitude: f64,
    ) {
        for t in start..end.min(self.series.len()) {
            let v = self.series.get(t, d);
            self.series
                .set(t, d, v + magnitude * self.stds[d] * rng.normal());
        }
        self.labels.mark(start, end, d);
    }

    /// A linear drift reaching `magnitude` standard deviations at the end.
    pub(crate) fn drift(&mut self, start: usize, end: usize, d: usize, magnitude: f64) {
        let end = end.min(self.series.len());
        let span = (end - start).max(1) as f64;
        for t in start..end {
            let frac = (t - start + 1) as f64 / span;
            let v = self.series.get(t, d);
            self.series.set(t, d, v + frac * magnitude * self.stds[d]);
        }
        self.labels.mark(start, end, d);
    }

    /// A cascading fault (MSDS-style): dimension `dims[i]` shifts starting
    /// at `start + i * lag`, all segments ending together at `end`.
    pub(crate) fn cascade(
        &mut self,
        start: usize,
        end: usize,
        dims: &[usize],
        lag: usize,
        magnitude: f64,
    ) {
        for (i, &d) in dims.iter().enumerate() {
            let s = (start + i * lag).min(end);
            self.level_shift(s, end, d, magnitude);
        }
    }
}

/// Plans non-overlapping anomaly segments totalling approximately
/// `target_rate` of the series, each `min_len..=max_len` long. Segments are
/// separated by at least `min_len` normal points.
pub(crate) fn plan_segments(
    rng: &mut SignalRng,
    len: usize,
    target_rate: f64,
    min_len: usize,
    max_len: usize,
) -> Vec<(usize, usize)> {
    assert!(min_len >= 1 && max_len >= min_len, "bad segment bounds");
    let budget = (target_rate * len as f64).round() as usize;
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut used = 0usize;
    let mut attempts = 0;
    while used < budget && attempts < 10_000 {
        attempts += 1;
        let seg_len = rng.index(min_len, max_len + 1).min(budget - used + min_len);
        if seg_len >= len {
            break;
        }
        let start = rng.index(0, len - seg_len);
        let end = start + seg_len;
        let clash = segments.iter().any(|&(s, e)| {
            start < e + min_len && s < end + min_len // enforce a gap
        });
        if clash {
            continue;
        }
        segments.push((start, end));
        used += seg_len;
    }
    segments.sort_unstable();
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(len: usize, dims: usize) -> (TimeSeries, Labels) {
        let cols: Vec<Vec<f64>> = (0..dims)
            .map(|d| (0..len).map(|t| ((t + d) as f64 * 0.1).sin()).collect())
            .collect();
        let series = TimeSeries::from_columns(&cols);
        let labels = Labels::normal(len, dims);
        (series, labels)
    }

    #[test]
    fn spike_changes_value_and_label() {
        let (mut s, mut l) = fixture(100, 2);
        let before = s.get(50, 1);
        Injector::new(&mut s, &mut l).spike(50, 1, 5.0);
        assert!((s.get(50, 1) - before).abs() > 1.0);
        assert!(l.at(50, 1));
        assert!(!l.at(50, 0));
        assert!(!l.point(49));
    }

    #[test]
    fn level_shift_marks_range() {
        let (mut s, mut l) = fixture(100, 1);
        Injector::new(&mut s, &mut l).level_shift(10, 20, 0, 3.0);
        assert!((10..20).all(|t| l.point(t)));
        assert!(!(0..10).any(|t| l.point(t)));
    }

    #[test]
    fn stuck_at_holds_abnormal_level() {
        let (mut s, mut l) = fixture(100, 1);
        let mut inj = Injector::new(&mut s, &mut l);
        let expected = inj.stds[0];
        inj.stuck_at(30, 40, 0, 3.0);
        let level = s.get(30, 0);
        assert!((30..40).all(|t| s.get(t, 0) == level));
        // The stuck level sits ~3 sigma above the pre-fault value.
        assert!(level > 3.0 * expected - 1.5, "level {level}");
        assert!(l.at(35, 0));
    }

    #[test]
    fn flatline_freezes_values() {
        let (mut s, mut l) = fixture(100, 1);
        Injector::new(&mut s, &mut l).flatline(30, 40, 0);
        let frozen = s.get(30, 0);
        assert!((30..40).all(|t| s.get(t, 0) == frozen));
        assert!(l.at(35, 0));
    }

    #[test]
    fn drift_grows_monotonically() {
        let (mut s, mut l) = fixture(200, 1);
        let baseline = s.clone();
        Injector::new(&mut s, &mut l).drift(50, 150, 0, 4.0);
        let early = s.get(55, 0) - baseline.get(55, 0);
        let late = s.get(149, 0) - baseline.get(149, 0);
        assert!(late > early && early > 0.0);
    }

    #[test]
    fn cascade_staggers_starts() {
        let (mut s, mut l) = fixture(100, 4);
        Injector::new(&mut s, &mut l).cascade(10, 40, &[0, 1, 2], 5, 3.0);
        assert!(l.at(10, 0));
        assert!(!l.at(10, 1));
        assert!(l.at(15, 1));
        assert!(!l.at(15, 2));
        assert!(l.at(20, 2));
        assert!(!l.point(45));
    }

    #[test]
    fn noise_burst_increases_variance() {
        let (mut s, mut l) = fixture(500, 1);
        let before: Vec<f64> = (100..200).map(|t| s.get(t, 0)).collect();
        let mut rng = SignalRng::new(1);
        Injector::new(&mut s, &mut l).noise_burst(&mut rng, 100, 200, 0, 5.0);
        let after: Vec<f64> = (100..200).map(|t| s.get(t, 0)).collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&after) > 4.0 * var(&before));
    }

    #[test]
    fn plan_segments_respects_rate_and_separation() {
        let mut rng = SignalRng::new(2);
        let segs = plan_segments(&mut rng, 10_000, 0.05, 5, 50);
        let total: usize = segs.iter().map(|(s, e)| e - s).sum();
        let rate = total as f64 / 10_000.0;
        assert!(rate > 0.03 && rate < 0.08, "rate {rate}");
        for w in segs.windows(2) {
            assert!(w[0].1 + 5 <= w[1].0, "segments overlap or touch: {w:?}");
        }
    }

    #[test]
    fn plan_segments_zero_rate() {
        let mut rng = SignalRng::new(3);
        assert!(plan_segments(&mut rng, 1000, 0.0, 5, 10).is_empty());
    }
}
