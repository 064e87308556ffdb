//! End-to-end serving tests: crash/resume equivalence, thread-count
//! determinism, backpressure shedding, input validation, and checkpoint
//! retention — all against a real trained model.

use std::path::PathBuf;
use std::sync::OnceLock;
use tranad::{train, OnlineVerdict, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;
use tranad_serve::{DetectorError, Engine, EngineConfig, PotConfig, PushOutcome, ServeError};
use tranad_tensor::pool;

const DIMS: usize = 2;

/// Deterministic pseudo-noise, a pure function of its coordinates.
fn jitter(stream: usize, t: usize, d: usize) -> f64 {
    let x = t as f64 * 12.9898 + stream as f64 * 78.233 + d as f64 * 37.719;
    (x.sin() * 43758.5453).fract() - 0.5
}

/// From this point on stream 1's second sensor is stuck at an extreme
/// value. Only the kill-and-resume test feeds stream 1 this far, so it is
/// the one test that sees the fault.
const STUCK_FROM: usize = 120;

fn point(stream: usize, t: usize) -> Vec<f64> {
    let x = t as f64;
    let mut p = vec![
        (x / 11.0 + stream as f64).sin() + 0.05 * jitter(stream, t, 0),
        (x / 7.0).cos() * 0.5 + 0.04 * jitter(stream, t, 1),
    ];
    if stream == 1 && t >= STUCK_FROM {
        p[1] = 3.0;
    }
    p
}

/// Trains the shared tiny model once per test process and persists it so
/// each test can cheaply load its own copy.
fn model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let rows: Vec<f64> = (0..400).flat_map(|t| point(7, t)).collect();
        let series = TimeSeries::from_rows(rows, 400, DIMS);
        let config = TranadConfig::builder()
            .epochs(2)
            .window(6)
            .context(12)
            .ff_hidden(16)
            .dropout(0.0)
            .build()
            .unwrap();
        let (trained, _) = train(&series, config).unwrap();
        let path = std::env::temp_dir().join(format!(
            "tranad_serve_test_model_{}.json",
            std::process::id()
        ));
        trained.save(&path).unwrap();
        path
    })
}

fn load_model() -> TrainedTranad {
    TrainedTranad::load(model_path()).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tranad_serve_test_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Feeds `points` of every stream into `engine` (batching every 8 pushes)
/// and returns the verdicts per stream index.
fn feed(
    engine: &mut Engine,
    streams: &[&str],
    from: &[usize],
    to: usize,
) -> Vec<Vec<OnlineVerdict>> {
    let mut out = vec![Vec::new(); streams.len()];
    let lo = from.iter().copied().min().unwrap_or(0);
    for t in lo..to {
        for (s, name) in streams.iter().enumerate() {
            if t >= from[s] {
                engine.push(name, &point(s, t)).unwrap();
            }
        }
        if t % 8 == 7 {
            for sv in engine.run_batch().unwrap().verdicts {
                let name = engine.stream_name(sv.stream).unwrap().to_string();
                let s = streams.iter().position(|n| *n == name).unwrap();
                out[s].extend(sv.verdicts);
            }
        }
    }
    for (name, vs) in engine.drain().unwrap() {
        let s = streams.iter().position(|n| *n == name).unwrap();
        out[s].extend(vs);
    }
    out
}

fn assert_bitwise_eq(a: &[OnlineVerdict], b: &[OnlineVerdict], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: verdict counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.anomalous, y.anomalous, "{what}: verdict {i} diverged");
        assert_eq!(x.dim_labels, y.dim_labels, "{what}: labels {i} diverged");
        for (d, (p, q)) in x.scores.iter().zip(&y.scores).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: score {i} dim {d} diverged"
            );
        }
    }
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let streams = ["alpha", "beta"];
    let total = 160;
    let kill_at = 90;

    // SPOT's initial threshold at the 98% quantile: the normal stretch
    // before the kill adds peaks and refits, so the checkpoint carries SPOT
    // state that a fresh calibration would not reproduce.
    let pot = PotConfig::with_low_quantile(0.02);
    let config = EngineConfig {
        pot,
        ..EngineConfig::default()
    };
    let mut reference = Engine::new(load_model(), config).unwrap();
    let expected = feed(&mut reference, &streams, &[0, 0], total);

    let dir = tmp_dir("kr");
    let config = EngineConfig {
        checkpoint_every: 24,
        batch_max: 8,
        ..config
    };
    let mut victim = Engine::resume(load_model(), config, &dir).unwrap();
    for t in 0..kill_at {
        for (s, name) in streams.iter().enumerate() {
            victim.push(name, &point(s, t)).unwrap();
        }
        if t % 8 == 7 {
            victim.run_batch().unwrap();
        }
    }
    drop(victim); // crash: queued points and post-checkpoint progress lost

    let mut resumed = Engine::resume(load_model(), config, &dir).unwrap();
    assert!(
        resumed.processed() > 0,
        "resume must restore lifetime counters"
    );
    let from: Vec<usize> = streams
        .iter()
        .map(|n| resumed.stream_seen(n).unwrap() as usize)
        .collect();
    for &f in &from {
        assert!(
            f > 0 && f <= kill_at,
            "checkpointed progress out of range: {f}"
        );
    }
    let got = feed(&mut resumed, &streams, &from, total);
    // The resumed engine flags the fault that starts after the kill: at
    // least half of beta's stuck points raise an alarm.
    let alarms = got[1][STUCK_FROM - from[1]..]
        .iter()
        .filter(|v| v.anomalous)
        .count();
    assert!(
        alarms >= (total - STUCK_FROM) / 2,
        "stuck sensor under-flagged after resume: {alarms}"
    );
    let cap = {
        let c = resumed.trained().model.config();
        c.window.max(c.context)
    };
    assert!(
        resumed.state_rows() <= streams.len() * cap,
        "resumed resident state {} rows exceeds the {} bound",
        resumed.state_rows(),
        streams.len() * cap
    );
    for (s, name) in streams.iter().enumerate() {
        assert_bitwise_eq(&expected[s][from[s]..], &got[s], name);
    }
    // Equal verdicts can hide a SPOT that was re-calibrated instead of
    // restored: the live thresholds must match the uninterrupted run's.
    let thresholds = |e: &Engine| -> Vec<u64> {
        e.obs()
            .snapshot()
            .streams
            .iter()
            .map(|r| r.threshold.to_bits())
            .collect()
    };
    assert_eq!(
        thresholds(&reference),
        thresholds(&resumed),
        "SPOT thresholds diverged after resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Streams with different cadences: stream `s` produces its `n`-th point
/// at `t = n * (s + 1)`, so queue depths are permanently uneven and every
/// batch runs ragged rounds (some streams drop out before others).
fn feed_cadenced(
    engine: &mut Engine,
    streams: &[&str],
    seen: &[usize],
    to: usize,
) -> Vec<Vec<OnlineVerdict>> {
    let mut out = vec![Vec::new(); streams.len()];
    for t in 0..to {
        for (s, name) in streams.iter().enumerate() {
            if t % (s + 1) == 0 && t / (s + 1) >= seen[s] {
                engine.push(name, &point(s, t)).unwrap();
            }
        }
        if t % 8 == 7 {
            for sv in engine.run_batch().unwrap().verdicts {
                let name = engine.stream_name(sv.stream).unwrap().to_string();
                let s = streams.iter().position(|n| *n == name).unwrap();
                out[s].extend(sv.verdicts);
            }
        }
    }
    for (name, vs) in engine.drain().unwrap() {
        let s = streams.iter().position(|n| *n == name).unwrap();
        out[s].extend(vs);
    }
    out
}

#[test]
fn checkpoint_mid_ragged_round_resumes_exactly() {
    let streams = ["fast", "mid", "slow"];
    let total = 120;
    let kill_at = 71;
    // batch_max 4 with an every-8 batch cadence leaves the fast stream a
    // growing backlog, so batches are taken mid-backlog at uneven depths;
    // checkpoint_every 5 fires right after such ragged batches.
    let config = EngineConfig::builder()
        .batch_max(4)
        .checkpoint_every(5)
        .build()
        .unwrap();

    let mut reference = Engine::new(load_model(), config).unwrap();
    let expected = feed_cadenced(&mut reference, &streams, &[0, 0, 0], total);

    let dir = tmp_dir("ragged");
    let mut victim = Engine::resume(load_model(), config, &dir).unwrap();
    for t in 0..kill_at {
        for (s, name) in streams.iter().enumerate() {
            if t % (s + 1) == 0 {
                victim.push(name, &point(s, t)).unwrap();
            }
        }
        if t % 8 == 7 {
            victim.run_batch().unwrap();
        }
    }
    drop(victim); // crash with streams checkpointed at unequal progress

    let mut resumed = Engine::resume(load_model(), config, &dir).unwrap();
    let seen: Vec<usize> = streams
        .iter()
        .map(|n| resumed.stream_seen(n).unwrap() as usize)
        .collect();
    assert!(
        seen.windows(2).any(|w| w[0] != w[1]),
        "expected a ragged checkpoint (unequal per-stream progress), got {seen:?}"
    );
    let got = feed_cadenced(&mut resumed, &streams, &seen, total);
    for (s, name) in streams.iter().enumerate() {
        assert_bitwise_eq(&expected[s][seen[s]..], &got[s], name);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verdicts_are_identical_across_thread_counts() {
    let streams = ["a", "b", "c"];
    let run = |threads: usize| {
        pool::with_threads(threads, || {
            let mut engine = Engine::new(load_model(), EngineConfig::default()).unwrap();
            feed(&mut engine, &streams, &[0, 0, 0], 96)
        })
    };
    let serial = run(1);
    let parallel = run(8);
    for (s, name) in streams.iter().enumerate() {
        assert_eq!(serial[s].len(), 96);
        assert_bitwise_eq(&serial[s], &parallel[s], name);
    }
}

#[test]
fn full_queue_sheds_instead_of_blocking_or_growing() {
    let config = EngineConfig {
        max_queue: 4,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(load_model(), config).unwrap();
    for t in 0..4 {
        assert_eq!(
            engine.push("s", &point(0, t)).unwrap(),
            PushOutcome::Enqueued { depth: t + 1 }
        );
    }
    for t in 4..7 {
        assert_eq!(
            engine.push("s", &point(0, t)).unwrap(),
            PushOutcome::Shed { depth: 4 }
        );
    }
    assert_eq!(engine.queued("s"), Some(4));
    assert_eq!(engine.shed_total(), 3);
    // The queue drains and keeps serving after shedding.
    let verdicts = engine.drain().unwrap();
    assert_eq!(verdicts["s"].len(), 4);
    assert_eq!(engine.queued("s"), Some(0));
}

#[test]
fn malformed_input_is_rejected_before_the_queue() {
    let mut engine = Engine::new(load_model(), EngineConfig::default()).unwrap();
    assert!(matches!(
        engine.push("s", &[1.0]),
        Err(ServeError::Detector(_))
    ));
    assert!(matches!(
        engine.push("s", &[f64::NAN, 0.0]),
        Err(ServeError::Detector(_))
    ));
    assert!(matches!(
        engine.push("s", &[0.0, f64::INFINITY]),
        Err(ServeError::Detector(_))
    ));
    // Rejected pushes never even create the stream, and serving works
    // normally afterwards.
    assert_eq!(engine.queued("s"), None);
    engine.push("s", &point(0, 0)).unwrap();
    assert_eq!(engine.drain().unwrap()["s"].len(), 1);
}

#[test]
fn spot_calibration_failure_surfaces_from_engine_construction() {
    // SPOT is calibrated once per engine, so a model whose training scores
    // cannot calibrate it is refused up front, by `new` and `resume` alike.
    let poisoned = || {
        let mut trained = load_model();
        for row in &mut trained.train_scores {
            row[1] = f64::NAN;
        }
        trained
    };
    let refused = |r: Result<Engine, ServeError>| {
        matches!(
            r,
            Err(ServeError::Detector(DetectorError::PotFitFailed {
                dim: 1,
                ..
            }))
        )
    };
    assert!(refused(Engine::new(poisoned(), EngineConfig::default())));
    let dir = tmp_dir("nan_calibration");
    assert!(refused(Engine::resume(
        poisoned(),
        EngineConfig::default(),
        &dir
    )));
}

#[test]
fn old_checkpoints_are_pruned() {
    let dir = tmp_dir("prune");
    let config = EngineConfig {
        checkpoint_every: 4,
        batch_max: 4,
        keep_checkpoints: 2,
        ..EngineConfig::default()
    };
    let mut engine = Engine::resume(load_model(), config, &dir).unwrap();
    for t in 0..32 {
        engine.push("s", &point(0, t)).unwrap();
        if t % 4 == 3 {
            engine.run_batch().unwrap();
        }
    }
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        files.len(),
        2,
        "expected 2 retained checkpoints, found {files:?}"
    );
    assert!(files
        .iter()
        .all(|f| f.starts_with("ckpt-") && f.ends_with(".json")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_state_over_long_streams() {
    let mut engine = Engine::new(load_model(), EngineConfig::default()).unwrap();
    let cap = {
        let c = engine.trained().model.config();
        c.window.max(c.context)
    };
    for t in 0..2_000 {
        engine.push("s", &point(0, t)).unwrap();
        if t % 64 == 63 {
            engine.run_batch().unwrap();
        }
    }
    engine.drain().unwrap();
    assert_eq!(engine.stream_seen("s"), Some(2_000));
    assert!(
        engine.state_rows() <= cap,
        "one stream must keep at most {cap} rows, found {}",
        engine.state_rows()
    );
}
