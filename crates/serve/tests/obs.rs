//! Engine observability state: `run_batch` publishes a per-stream stats
//! table and health inputs into the shared [`EngineObs`] `Arc`, `/readyz`
//! semantics flip on the first batch, and the published numbers track the
//! engine's own counters — all against a real trained model.

use std::path::PathBuf;
use std::sync::OnceLock;
use tranad::{train, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;
use tranad_serve::{Engine, EngineConfig, HealthConfig, PushOutcome, ServeError};

const DIMS: usize = 2;

fn jitter(stream: usize, t: usize, d: usize) -> f64 {
    let x = t as f64 * 12.9898 + stream as f64 * 78.233 + d as f64 * 37.719;
    (x.sin() * 43758.5453).fract() - 0.5
}

fn point(stream: usize, t: usize) -> Vec<f64> {
    let x = t as f64;
    vec![
        (x / 11.0 + stream as f64).sin() + 0.05 * jitter(stream, t, 0),
        (x / 7.0).cos() * 0.5 + 0.04 * jitter(stream, t, 1),
    ]
}

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
            "tranad_serve_obs_model_{}.json",
            std::process::id()
        ));
        trained.save(&path).unwrap();
        path
    })
}

fn load_model() -> TrainedTranad {
    TrainedTranad::load(model_path()).unwrap()
}

#[test]
fn run_batch_publishes_stats_and_flips_ready() {
    let mut engine = Engine::new(load_model(), EngineConfig::default()).unwrap();
    let obs = engine.obs();

    // Before any batch: registered streams are visible, but the engine is
    // not ready (it has never published a batch).
    let web = engine.stream_id("web").unwrap();
    let db = engine.stream_id("db").unwrap();
    let snap = obs.snapshot();
    assert!(!snap.published);
    assert_eq!(snap.status.streams, 2);
    let names: Vec<&str> = snap.streams.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["web", "db"], "registration order");
    assert!(snap.streams[0].last_score.is_nan(), "no verdict yet");
    let health = obs.health();
    assert!(health.healthy && !health.ready);

    // Queue a few points: `queued` is only published at batch boundaries,
    // so the table still shows zeros until run_batch.
    for t in 0..10 {
        engine.push_id(web, &point(0, t)).unwrap();
        engine.push_id(db, &point(1, t)).unwrap();
    }
    assert_eq!(obs.snapshot().streams[0].queued, 0);

    let report = engine.run_batch().unwrap();
    assert_eq!(report.processed, 20);
    let snap = obs.snapshot();
    assert!(snap.published);
    assert_eq!(snap.status.processed, 20);
    assert_eq!(snap.status.batches, 1);
    assert_eq!(snap.status.shed, 0);
    assert!(snap.last_batch_age_s.unwrap() >= 0.0);
    for row in &snap.streams {
        assert_eq!(row.seen, 10);
        assert_eq!(row.queued, 0);
        assert_eq!(row.queue_hwm, 10);
        assert!(row.last_score.is_finite(), "a verdict stamps last_score");
        assert!(row.threshold.is_finite(), "live SPOT threshold published");
    }
    let health = obs.health();
    assert!(
        health.ready && health.healthy,
        "first batch makes the engine ready"
    );
}

#[test]
fn shed_counts_reach_the_published_stats() {
    // Queue of 4: overfilling must shed per stream and the published table
    // must carry both the per-stream and engine-wide shed totals.
    let config = EngineConfig {
        max_queue: 4,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(load_model(), config).unwrap();
    let obs = engine.obs();
    let web = engine.stream_id("web").unwrap();
    let mut shed = 0;
    for t in 0..7 {
        match engine.push_id(web, &point(0, t)).unwrap() {
            PushOutcome::Enqueued { .. } => {}
            PushOutcome::Shed { depth } => {
                assert_eq!(depth, 4);
                shed += 1;
            }
        }
    }
    assert_eq!(shed, 3);

    let report = engine.run_batch().unwrap();
    assert_eq!(report.processed, 4);
    let snap = obs.snapshot();
    assert_eq!(snap.status.shed, 3);
    assert_eq!(snap.streams[0].shed, 3);
    assert_eq!(snap.streams[0].queue_hwm, 4);
    assert_eq!(snap.status.queue_saturation, 0.0, "batch drained the queue");
    assert!(obs.health().healthy);
}

#[test]
fn queue_saturation_beyond_threshold_turns_the_engine_unhealthy() {
    // batch_max 1 against a 4-deep queue: a batch leaves a backlog, so the
    // published saturation (3/4) exceeds the 0.5 threshold and health (and
    // with it readiness) goes red until further batches drain the queue.
    let config = EngineConfig {
        max_queue: 4,
        batch_max: 1,
        health: HealthConfig {
            max_queue_saturation: 0.5,
            ..HealthConfig::default()
        },
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(load_model(), config).unwrap();
    let obs = engine.obs();
    let web = engine.stream_id("web").unwrap();
    for t in 0..4 {
        engine.push_id(web, &point(0, t)).unwrap();
    }
    assert_eq!(engine.run_batch().unwrap().processed, 1);
    let snap = obs.snapshot();
    assert_eq!(snap.streams[0].queued, 3);
    assert!((snap.status.queue_saturation - 0.75).abs() < 1e-12);
    let health = obs.health();
    assert!(!health.healthy, "3/4 saturation breaches the 0.5 limit");
    assert!(!health.ready, "an unhealthy engine is not ready");
    let failed: Vec<&str> = health
        .conditions
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.name)
        .collect();
    assert_eq!(failed, vec!["queue_saturation"]);

    // Drain the backlog: health recovers.
    for _ in 0..3 {
        engine.run_batch().unwrap();
    }
    let snap = obs.snapshot();
    assert_eq!(snap.status.queue_saturation, 0.0);
    let health = obs.health();
    assert!(health.healthy && health.ready);
}

#[test]
fn checkpoint_lag_is_published_and_cleared_by_checkpoints() {
    let dir = std::env::temp_dir().join(format!("tranad_serve_obs_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        checkpoint_every: 8,
        health: HealthConfig {
            max_checkpoint_lag: 6,
            ..HealthConfig::default()
        },
        ..EngineConfig::default()
    };
    let mut engine = Engine::resume(load_model(), config, &dir).unwrap();
    let obs = engine.obs();
    let web = engine.stream_id("web").unwrap();

    // 4 points: lag 4 <= 6, healthy, no checkpoint yet.
    for t in 0..4 {
        engine.push_id(web, &point(0, t)).unwrap();
    }
    let report = engine.run_batch().unwrap();
    assert!(report.checkpoint.is_none());
    let snap = obs.snapshot();
    assert_eq!(snap.status.checkpoint_lag, 4);
    assert!(snap.last_checkpoint_age_s.is_none());
    assert!(obs.health().healthy);

    // 4 more: the automatic policy checkpoints at 8, clearing the lag.
    for t in 4..8 {
        engine.push_id(web, &point(0, t)).unwrap();
    }
    let report = engine.run_batch().unwrap();
    assert!(report.checkpoint.is_some());
    let snap = obs.snapshot();
    assert_eq!(
        snap.status.checkpoint_lag, 0,
        "checkpoint resets the published lag"
    );
    assert!(snap.last_checkpoint_age_s.is_some());
    assert!(obs.health().healthy && obs.health().ready);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn builder_rejects_out_of_range_health_thresholds() {
    let bad = HealthConfig {
        max_queue_saturation: 2.0,
        ..HealthConfig::default()
    };
    assert!(matches!(
        EngineConfig::builder().health(bad).build(),
        Err(ServeError::InvalidConfig(_))
    ));
    let good = HealthConfig {
        max_checkpoint_lag: 100,
        ..HealthConfig::default()
    };
    let config = EngineConfig::builder().health(good).build().unwrap();
    assert_eq!(config.health.max_checkpoint_lag, 100);
}
