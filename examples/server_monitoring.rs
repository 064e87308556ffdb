//! Server-fleet monitoring (the SMD scenario of the paper's intro): detect
//! *and diagnose* mild anomalies in a 38-metric machine trace, comparing
//! TranAD's POT labels against ground truth and ranking root-cause
//! dimensions with HitRate/NDCG.
//!
//! Run with: `cargo run --release --example server_monitoring`

use tranad::{train, PotConfig, TranadConfig};
use tranad_data::{generate, DatasetKind, GenConfig};
use tranad_metrics::{diagnose, evaluate};

fn main() {
    // SMD-like synthetic data: bursty CPU/request channels, random-walk
    // memory channels, 38 dims, mild anomalies (§4.3: "anomalous data is
    // not very far from normal data").
    let gen = GenConfig {
        scale: 0.002,
        min_len: 800,
        seed: 21,
    };
    let ds = generate(DatasetKind::Smd, gen);
    println!(
        "SMD-like dataset: train {}, test {}, {} dims, {:.2}% anomalous",
        ds.train.len(),
        ds.test.len(),
        ds.dims(),
        ds.labels.anomaly_rate() * 100.0
    );

    let config = TranadConfig::builder()
        .epochs(5)
        .build()
        .expect("valid config");
    let (detector, report) = train(&ds.train, config).expect("training");
    println!(
        "trained in {:.2}s/epoch over {} epochs",
        report.seconds_per_epoch(),
        report.epochs_run
    );

    // Detection with the paper's POT settings for SMD.
    let pot = PotConfig::with_low_quantile(0.01);
    let detection = detector.detect(&ds.test, pot).expect("detection");
    let truth = ds.point_labels();
    let metrics = evaluate(&detection.aggregate, &detection.labels, &truth);
    println!(
        "detection: P {:.3} / R {:.3} / F1 {:.3} / AUC {:.3}",
        metrics.precision, metrics.recall, metrics.f1, metrics.auc
    );

    // Diagnosis: rank dimensions by anomaly score at each anomalous step.
    let truth_dims: Vec<Vec<bool>> = (0..ds.labels.len())
        .map(|t| ds.labels.dim_labels(t))
        .collect();
    let diag = diagnose(&detection.scores, &truth_dims);
    println!(
        "diagnosis: HitRate@100% {:.3}, HitRate@150% {:.3}, NDCG@100% {:.3}, NDCG@150% {:.3}",
        diag.hit100, diag.hit150, diag.ndcg100, diag.ndcg150
    );

    // Ops-style report: the top offending dimension of the worst incident.
    if let Some(worst_t) = (0..detection.scores.len())
        .filter(|&t| truth[t])
        .max_by(|&a, &b| {
            detection.aggregate[a]
                .partial_cmp(&detection.aggregate[b])
                .unwrap()
        })
    {
        let row = &detection.scores[worst_t];
        let top_dim = (0..row.len())
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
            .unwrap();
        println!(
            "worst incident at t={worst_t}: suspected root cause metric #{top_dim} \
             (score {:.4}, ground truth anomalous: {})",
            row[top_dim],
            ds.labels.at(worst_t, top_dim)
        );
    }
    println!("ok");
}
