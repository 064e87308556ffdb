//! Crash-safe serving: train once, then serve two telemetry streams through
//! the cross-stream-batching [`tranad_serve::Engine`] with periodic
//! checkpoints, "crash" the service mid-stream, and resume from the latest
//! checkpoint — the resumed engine picks up exactly where the checkpoint
//! says it stopped and keeps flagging anomalies.
//!
//! Run with: `cargo run --release --example crash_safe_serving`

use tranad::{train, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;
use tranad_serve::{Engine, EngineConfig, PushOutcome};

/// One datapoint of a stream — a pure function of (stream, t), so the
/// producer can regenerate any suffix after a crash.
fn point(stream: usize, t: usize) -> Vec<f64> {
    let x = t as f64;
    let noise = ((x * 12.9898 + stream as f64 * 78.233).sin() * 43758.5453).fract() - 0.5;
    let mut p = vec![
        (x / 11.0 + stream as f64).sin() + 0.05 * noise,
        (x / 7.0).cos() * 0.5 + 0.04 * noise,
    ];
    // Stream 1's second sensor sticks at an extreme value from t = 700.
    if stream == 1 && t >= 700 {
        p[1] = 3.0;
    }
    p
}

fn main() {
    // Offline phase: train on clean telemetry and persist the model.
    let rows: Vec<f64> = (0..600).flat_map(|t| point(0, t)).collect();
    let series = TimeSeries::from_rows(rows, 600, 2);
    let config = TranadConfig::builder()
        .epochs(4)
        .build()
        .expect("valid config");
    let (trained, report) = train(&series, config).expect("training");
    println!(
        "trained in {:.2}s/epoch; saving model ...",
        report.seconds_per_epoch()
    );
    let model_path = std::env::temp_dir().join("tranad_serve_demo_model.json");
    trained.save(&model_path).expect("save model");
    let ckpt_dir = std::env::temp_dir().join("tranad_serve_demo_ckpts");
    std::fs::remove_dir_all(&ckpt_dir).ok();

    // Serving phase: cross-stream batching engine over two streams,
    // checkpointing every 128 scored points into ckpt_dir. Producers intern
    // their stream name once and push through the copyable handle.
    let serve_config = EngineConfig::builder()
        .checkpoint_every(128)
        .build()
        .expect("valid serve config");
    let streams = ["web", "db"];
    let loaded = TrainedTranad::load(&model_path).expect("load model");
    let mut engine = Engine::resume(loaded, serve_config, &ckpt_dir).expect("engine");
    let ids = streams.map(|name| engine.stream_id(name).expect("stream id"));
    for t in 600..800 {
        for (s, name) in streams.iter().enumerate() {
            match engine.push_id(ids[s], &point(s, t)).expect("push") {
                PushOutcome::Enqueued { .. } => {}
                PushOutcome::Shed { depth } => {
                    println!("t={t}: {name} shed a point (queue full at {depth})")
                }
            }
        }
        if t % 16 == 15 {
            engine.run_batch().expect("batch");
        }
    }
    println!(
        "crash at t=800 with {} points scored, state bounded at {} rows",
        engine.processed(),
        engine.state_rows()
    );
    drop(engine); // the crash: queued points and post-checkpoint progress are lost

    // Recovery: a fresh process resumes from the newest checkpoint and asks
    // the engine where each stream stopped, then re-feeds from there.
    let loaded = TrainedTranad::load(&model_path).expect("load model");
    let mut engine = Engine::resume(loaded, serve_config, &ckpt_dir).expect("resume");
    let resume_from: Vec<usize> = streams
        .iter()
        .map(|n| 600 + engine.stream_seen(n).expect("stream in checkpoint") as usize)
        .collect();
    println!("resumed: continuing streams from t={resume_from:?}");

    let mut alarms = 0;
    for t in resume_from[0].min(resume_from[1])..900 {
        for (s, name) in streams.iter().enumerate() {
            if t >= resume_from[s] {
                engine.push(name, &point(s, t)).expect("push");
            }
        }
        if t % 16 == 15 {
            for sv in engine.run_batch().expect("batch").verdicts {
                let name = engine.stream_name(sv.stream).expect("own stream");
                for (i, v) in sv.verdicts.iter().enumerate() {
                    if v.anomalous {
                        alarms += 1;
                        if alarms <= 3 {
                            let seq = sv.first_seq as usize + i;
                            println!("{name} seq={seq}: ANOMALY (dims {:?})", v.dim_labels);
                        }
                    }
                }
            }
        }
    }
    for (_, vs) in engine.drain().expect("drain") {
        alarms += vs.iter().filter(|v| v.anomalous).count();
    }
    println!("{alarms} alarm points raised after resume (fault active from t=700)");
    assert!(
        alarms >= 50,
        "the stuck sensor must be flagged across the crash"
    );
    std::fs::remove_file(&model_path).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    println!("ok");
}
