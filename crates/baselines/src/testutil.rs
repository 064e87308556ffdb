//! Shared fixtures for the baseline detectors' tests.

use std::ops::Range;
use tranad_data::{SignalRng, TimeSeries};

/// A smooth multivariate sine mixture with light noise.
pub(crate) fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| (t as f64 / (8.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

/// A copy of `series` with a large level shift injected in dimension 0 over
/// a mid-series range; returns the corrupted copy and the anomalous range.
pub(crate) fn anomalous_copy(series: &TimeSeries, magnitude: f64) -> (TimeSeries, Range<usize>) {
    let mut test = series.clone();
    let start = series.len() / 2;
    let end = start + 8;
    for t in start..end {
        let v = test.get(t, 0);
        test.set(t, 0, v + magnitude);
    }
    (test, start..end)
}
