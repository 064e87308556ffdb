//! Industrial-control attack detection (the SWaT scenario): stuck
//! actuators and shifted process variables in a 51-sensor water-treatment
//! plant, with TranAD compared head-to-head against the USAD baseline on
//! the same data and decision procedure.
//!
//! Run with: `cargo run --release --example water_treatment`

use tranad::detect_from_scores;
use tranad_baselines::{aggregate_scores, Detector, NeuralConfig, TranadDetector, Usad};
use tranad_data::{generate, DatasetKind, GenConfig};
use tranad_evt::PotConfig;
use tranad_metrics::evaluate;

fn main() {
    let gen = GenConfig {
        scale: 0.001,
        min_len: 700,
        seed: 33,
    };
    let ds = generate(DatasetKind::Swat, gen);
    println!(
        "SWaT-like dataset: train {}, test {}, {} sensors/actuators, {:.2}% attack windows",
        ds.train.len(),
        ds.test.len(),
        ds.dims(),
        ds.labels.anomaly_rate() * 100.0
    );
    let truth = ds.point_labels();
    let pot = PotConfig::with_low_quantile(0.01);

    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(TranadDetector::new(
            tranad::TranadConfig::builder()
                .epochs(4)
                .build()
                .expect("valid config"),
        )),
        Box::new(Usad::new(
            NeuralConfig::builder()
                .epochs(4)
                .build()
                .expect("valid config"),
        )),
    ];

    for det in detectors.iter_mut() {
        let fit = det.fit(&ds.train).expect("training");
        let scores = det.score(&ds.test).expect("scoring");
        let labels = detect_from_scores(det.train_scores().expect("fitted"), &scores, pot)
            .expect("POT calibration")
            .labels;
        let m = evaluate(
            &aggregate_scores(&scores).expect("well-formed scores"),
            &labels,
            &truth,
        );
        println!(
            "{:>8}: P {:.3} / R {:.3} / F1 {:.3} / AUC {:.3}  ({:.2}s/epoch)",
            det.name(),
            m.precision,
            m.recall,
            m.f1,
            m.auc,
            fit.seconds_per_epoch
        );
    }
    println!("ok");
}
