//! Telemetry routing: instrumentation records to the recorder installed on
//! the calling thread with `Recorder::span_scope` (else the process-global
//! one), and nothing records inside a pool task. `scripts/verify.sh` runs
//! this at `TRANAD_THREADS=1` and `8`: the pool-task rule only matters when
//! pool workers exist.

use std::sync::Arc;
use tranad::{detect_from_scores, train, PotConfig, TranadConfig};
use tranad_data::{SignalRng, TimeSeries};
use tranad_telemetry::{MemorySink, Recorder};
use tranad_tensor::pool;

/// Ring capacity far above what these runs record, so nothing is evicted.
const CAP: usize = 1 << 20;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| (t as f64 / (5.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn tiny_config() -> TranadConfig {
    TranadConfig {
        epochs: 2,
        window: 6,
        context: 12,
        ff_hidden: 8,
        batch_size: 32,
        patience: 10,
        ..TranadConfig::default()
    }
}

fn span_names(sink: &MemorySink) -> Vec<String> {
    sink.named("span")
        .iter()
        .map(|s| s.get_str("name").unwrap().to_string())
        .collect()
}

#[test]
fn train_and_detect_from_scores_record_to_the_installed_sink() {
    let series = toy_series(200, 2, 51);
    let sink = Arc::new(MemorySink::new(CAP));
    let rec = Recorder::with_sink(sink.clone());
    {
        let _scope = rec.span_scope();
        let (trained, _) = train(&series, tiny_config()).unwrap();
        let scores = &trained.train_scores;
        detect_from_scores(scores, scores, PotConfig::default()).unwrap();
    }
    assert!(sink.len() < CAP, "the ring evicted events");
    assert_eq!(
        sink.named("train.epoch").len(),
        2,
        "one train.epoch per epoch"
    );
    assert_eq!(sink.named("pot.dim").len(), 2, "one pot.dim per dimension");
    let spans = span_names(&sink);
    for root in ["train.run", "pot.calibrate"] {
        assert!(
            spans.iter().any(|s| s == root),
            "no {root} span in {} spans",
            spans.len()
        );
    }
    assert_eq!(
        rec.snapshot().counter("optim.steps").map(|n| n > 0),
        Some(true)
    );

    // Outside the scope the same calls no longer reach this sink.
    let before = sink.len();
    let scores = vec![vec![0.1, 0.2]; 64];
    detect_from_scores(&scores, &scores, PotConfig::default()).unwrap();
    assert_eq!(
        sink.len(),
        before,
        "recorded to a recorder no longer installed"
    );
}

#[test]
fn nothing_records_inside_pool_tasks() {
    let series = toy_series(120, 1, 52);
    let sink = Arc::new(MemorySink::new(CAP));
    let rec = Recorder::with_sink(sink.clone());
    let mut epochs = vec![0usize; 3];
    {
        let _scope = rec.span_scope();
        pool::parallel_chunks_mut(&mut epochs, 1, |_, slot| {
            slot[0] = train(&series, tiny_config()).unwrap().1.epochs_run;
        });
    }
    assert_eq!(epochs, vec![2; 3]);
    // Only the region's own span, opened on the submitting thread, arrives:
    // no training event, span or metric from inside a task, on a worker or
    // inline.
    assert_eq!(sink.len(), 1, "events: {:?}", sink.events());
    assert_eq!(span_names(&sink), vec!["pool.run".to_string()]);
    assert!(rec.snapshot().is_empty(), "a task recorded metrics");
}
