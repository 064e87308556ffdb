//! Streaming deployment: train once, save the model to disk, reload it in a
//! "service", and feed datapoints one at a time through an `OnlineState`
//! (the paper's Algorithm 2 run in its intended online mode).
//!
//! Run with: `cargo run --release --example online_streaming`

use tranad::{train, OnlineState, PotConfig, TrainedTranad, TranadConfig};
use tranad_data::{SignalRng, TimeSeries};

fn main() {
    // Offline phase: train on clean telemetry and persist the model.
    let mut rng = SignalRng::new(99);
    let make_point = |t: usize, rng: &mut SignalRng| -> Vec<f64> {
        vec![
            (t as f64 / 11.0).sin() + 0.05 * rng.normal(),
            (t as f64 / 7.0).cos() * 0.5 + 0.04 * rng.normal(),
        ]
    };
    let train_rows: Vec<Vec<f64>> = (0..600).map(|t| make_point(t, &mut rng)).collect();
    let series = TimeSeries::from_rows(
        train_rows.iter().flatten().copied().collect(),
        train_rows.len(),
        2,
    );
    let config = TranadConfig::builder().epochs(4).build().expect("valid config");
    let (trained, report) = train(&series, config).expect("training");
    println!(
        "trained in {:.2}s/epoch; saving model ...",
        report.seconds_per_epoch()
    );
    let path = std::env::temp_dir().join("tranad_online_demo.json");
    trained.save(&path).expect("save model");

    // Online phase: a fresh process would load the model and stream.
    let loaded = TrainedTranad::load(&path).expect("load model");
    let mut state = OnlineState::new(&loaded, PotConfig::default()).expect("POT calibration");

    let mut alarms = 0;
    for t in 600..900 {
        let mut point = make_point(t, &mut rng);
        // A fault develops at t = 800: sensor 1 sticks at an extreme value.
        if t >= 800 {
            point[1] = 3.0;
        }
        let verdict = state.push(&loaded, &point).expect("streaming point");
        if verdict.anomalous {
            alarms += 1;
            if alarms <= 3 {
                println!(
                    "t={t}: ANOMALY (scores {:.4} / {:.4}, dims {:?})",
                    verdict.scores[0], verdict.scores[1], verdict.dim_labels
                );
            }
        }
    }
    println!("{alarms} alarm points raised (fault active for 100 steps)");
    assert!(alarms >= 50, "the stuck sensor must be flagged");
    std::fs::remove_file(&path).ok();
    println!("ok");
}
