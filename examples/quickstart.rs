//! Quickstart: train TranAD on a synthetic multivariate series, inject an
//! anomaly into a test copy, and detect it with POT thresholding.
//!
//! Run with: `cargo run --release --example quickstart`

use tranad::{train, PotConfig, TranadConfig};
use tranad_data::{SignalRng, TimeSeries};
use tranad_metrics::evaluate;

fn main() {
    // 1. Build a two-dimensional training series: correlated sines + noise.
    let mut rng = SignalRng::new(7);
    let len = 800;
    let col_a: Vec<f64> = (0..len)
        .map(|t| (t as f64 / 12.0).sin() + 0.05 * rng.normal())
        .collect();
    let col_b: Vec<f64> = col_a
        .iter()
        .map(|&v| 0.5 * v + 0.04 * rng.normal())
        .collect();
    let train_series = TimeSeries::from_columns(&[col_a, col_b]);

    // 2. Train TranAD (paper defaults, shortened for the example). The
    //    builder validates every field, so a typo'd config fails here
    //    instead of deep inside training.
    let config = TranadConfig::builder()
        .epochs(5)
        .build()
        .expect("valid config");
    println!(
        "training TranAD on {} timestamps x {} dims ...",
        train_series.len(),
        train_series.dims()
    );
    let (detector, report) = train(&train_series, config).expect("training");
    println!(
        "trained {} epochs, {:.2}s/epoch, final val loss {:.6}",
        report.epochs_run,
        report.seconds_per_epoch(),
        report.val_losses.last().copied().unwrap_or(f64::NAN)
    );

    // 3. Corrupt a copy of the series: a level shift in dimension 1.
    let mut test = train_series.clone();
    let mut truth = vec![false; test.len()];
    for (t, flag) in truth.iter_mut().enumerate().take(420).skip(400) {
        let v = test.get(t, 1);
        test.set(t, 1, v + 2.0);
        *flag = true;
    }

    // 4. Detect (Algorithm 2: two-phase inference + POT thresholds).
    let detection = detector
        .detect(&test, PotConfig::default())
        .expect("detection");
    let metrics = evaluate(&detection.aggregate, &detection.labels, &truth);
    println!(
        "detection: precision {:.3}, recall {:.3}, F1 {:.3}, AUC {:.3}",
        metrics.precision, metrics.recall, metrics.f1, metrics.auc
    );

    // 5. Diagnosis: which dimension misbehaved?
    let hits_dim1 = (400..420).filter(|&t| detection.dim_labels[t][1]).count();
    let hits_dim0 = (400..420).filter(|&t| detection.dim_labels[t][0]).count();
    println!(
        "root cause: dim 1 flagged at {hits_dim1}/20 anomalous steps, dim 0 at {hits_dim0}/20"
    );
    assert!(
        metrics.f1 > 0.5,
        "expected the injected anomaly to be found"
    );
    println!("ok");
}
