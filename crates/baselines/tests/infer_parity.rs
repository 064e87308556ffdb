//! Adapter-level parity gate for the tape-free scoring path.
//!
//! Every detector in the Table 2 roster scores through [`Detector::score`],
//! which now runs tape-free (`InferCtx` for the neural methods). This test
//! pins the property that refactor must preserve: scoring is a pure
//! function of the fitted state and the input — repeated calls and
//! different thread-pool sizes (the `TRANAD_THREADS=1` vs `8` axis of the
//! CI gate) return bitwise-identical per-dimension scores.

use tranad::TranadConfig;
use tranad_baselines::{all_detectors, NeuralConfig};
use tranad_data::{SignalRng, TimeSeries};
use tranad_tensor::pool;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| ((t as f64) / (8.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count mismatch");
    for (t, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: width mismatch at t={t}");
        for (d, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: score diverged at t={t} dim {d}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn all_detectors_score_bitwise_identically_across_thread_counts() {
    let neural = NeuralConfig {
        epochs: 2,
        hidden: 12,
        batch: 32,
        ..NeuralConfig::default()
    };
    let tranad_config = TranadConfig {
        epochs: 2,
        window: 6,
        context: 12,
        ff_hidden: 8,
        batch_size: 32,
        dropout: 0.0,
        ..TranadConfig::default()
    };
    let train = toy_series(80, 2, 21);
    let test = toy_series(90, 2, 22);

    let mut covered = Vec::new();
    for mut detector in all_detectors(neural, tranad_config) {
        detector.fit(&train).unwrap_or_else(|e| {
            panic!("{} failed to fit: {e}", detector.name());
        });
        let name = detector.name();
        // Small batch size above forces several chunks per score call, so
        // the pooled path genuinely fans out when threads are available.
        let one = pool::with_threads(1, || detector.score(&test).unwrap());
        let eight = pool::with_threads(8, || detector.score(&test).unwrap());
        assert_bits_eq(&one, &eight, name);
        let again = pool::with_threads(8, || detector.score(&test).unwrap());
        assert_bits_eq(&eight, &again, name);
        assert_eq!(one.len(), test.len(), "{name}: must score every timestamp");
        covered.push(name);
    }
    assert_eq!(covered.len(), 11, "Table 2 roster changed: {covered:?}");
}
