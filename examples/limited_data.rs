//! Few-shot training (the paper's Table 3 / MAML claim): train TranAD with
//! and without meta-learning on only 20 % of the training data and compare
//! detection quality — the gap is the MAML contribution.
//!
//! Run with: `cargo run --release --example limited_data`

use tranad::{train, Ablation, PotConfig, TranadConfig};
use tranad_data::{generate, random_subsequence, DatasetKind, GenConfig};
use tranad_metrics::evaluate;

fn main() {
    let gen = GenConfig {
        scale: 0.003,
        min_len: 900,
        seed: 55,
    };
    let ds = generate(DatasetKind::Msds, gen);
    let subset = random_subsequence(&ds.train, 0.2, 3);
    println!(
        "MSDS-like dataset; training on a random 20% subsequence \
         ({} of {} timestamps)",
        subset.len(),
        ds.train.len()
    );
    let truth = ds.point_labels();
    let pot = PotConfig::with_low_quantile(0.01);
    let base = TranadConfig::builder()
        .epochs(6)
        .build()
        .expect("valid config");

    for ablation in [Ablation::Full, Ablation::NoMaml] {
        let config = ablation.apply(base);
        let (detector, report) = train(&subset, config).expect("training");
        let detection = detector.detect(&ds.test, pot).expect("detection");
        let m = evaluate(&detection.aggregate, &detection.labels, &truth);
        println!(
            "{:>24}: F1* {:.3} / AUC* {:.3}  ({} epochs, {:.2}s/epoch)",
            ablation.name(),
            m.f1,
            m.auc,
            report.epochs_run,
            report.seconds_per_epoch()
        );
    }
    println!("ok");
}
