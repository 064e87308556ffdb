//! Thread-count independence: the thread pool must not change any numeric
//! result. Training losses, anomaly scores and POT thresholds are compared
//! bitwise between a fully serial run (`with_threads(1)`) and a run capped
//! at 8 threads — chunk boundaries depend only on problem sizes, every task
//! writes disjoint output, and no reduction crosses task boundaries, so the
//! two runs must agree exactly on any machine. Telemetry must not perturb
//! this: a live JSONL sink installed around the run leaves every number
//! bitwise identical to the untraced run.

use std::sync::Arc;
use tranad::{train, PotConfig, TranadConfig};
use tranad_data::{SignalRng, TimeSeries};
use tranad_telemetry::{JsonlSink, Recorder};
use tranad_tensor::pool;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| (t as f64 / (6.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn fast_config() -> TranadConfig {
    TranadConfig {
        epochs: 2,
        window: 6,
        context: 12,
        ff_hidden: 16,
        dropout: 0.1,
        batch_size: 32,
        ..TranadConfig::default()
    }
}

#[test]
fn training_and_detection_identical_across_thread_counts() {
    let series = toy_series(280, 3, 21);
    let test = toy_series(120, 3, 22);
    let config = fast_config();

    let (serial_losses, serial_scores, serial_thresholds) = pool::with_threads(1, || {
        let (trained, report) = train(&series, config).unwrap();
        let det = trained.detect(&test, PotConfig::default()).unwrap();
        (report.train_losses, det.scores, det.thresholds)
    });

    let (par_losses, par_scores, par_thresholds) = pool::with_threads(8, || {
        let (trained, report) = train(&series, config).unwrap();
        let det = trained.detect(&test, PotConfig::default()).unwrap();
        (report.train_losses, det.scores, det.thresholds)
    });

    // Bitwise equality — not approximate: the pool must not reorder any
    // floating-point reduction.
    assert_eq!(serial_losses, par_losses, "train losses diverged");
    assert_eq!(serial_scores, par_scores, "anomaly scores diverged");
    assert_eq!(serial_thresholds, par_thresholds, "POT thresholds diverged");
}

#[test]
fn scoring_identical_across_thread_counts() {
    let series = toy_series(260, 2, 31);
    let config = fast_config();
    let (trained, _) = pool::with_threads(1, || train(&series, config).unwrap());

    let serial = pool::with_threads(1, || trained.score_series(&series));
    let parallel = pool::with_threads(8, || trained.score_series(&series));
    assert_eq!(serial, parallel);
}

#[test]
fn live_jsonl_sink_preserves_determinism() {
    let series = toy_series(240, 2, 41);
    let test = toy_series(100, 2, 42);
    let config = fast_config();

    let run = |threads: usize, rec: Recorder| {
        let _scope = rec.span_scope();
        pool::with_threads(threads, || {
            let (trained, report) = train(&series, config).unwrap();
            let det = trained.detect(&test, PotConfig::default()).unwrap();
            (report.train_losses, det.scores, det.thresholds)
        })
    };

    // Untraced serial run is the reference.
    let reference = run(1, Recorder::disabled());

    // Traced runs at 1 and 8 threads: numbers must stay bitwise identical
    // AND both traces must be valid JSONL.
    let dir = std::env::temp_dir().join("tranad_determinism_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let mut span_sequences: Vec<Vec<(String, u64)>> = Vec::new();
    for threads in [1usize, 8] {
        let path = dir.join(format!("trace_t{threads}.jsonl"));
        let rec = Recorder::with_sink(Arc::new(JsonlSink::create(&path).unwrap()));
        let traced = run(threads, rec.clone());
        assert_eq!(
            traced, reference,
            "telemetry perturbed results at {threads} threads"
        );
        rec.flush_metrics();
        rec.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let mut epochs = 0;
        let mut spans: Vec<(String, u64)> = Vec::new();
        for line in text.lines() {
            let v = tranad_json::parse(line)
                .unwrap_or_else(|e| panic!("bad trace line {line:?}: {e:?}"));
            let name = v.get("event").and_then(|n| n.as_str()).expect("event name");
            if name == "train.epoch" {
                epochs += 1;
            }
            if name == "span" {
                spans.push((
                    v.get("name")
                        .and_then(|n| n.as_str())
                        .expect("span name")
                        .to_string(),
                    v.get("depth").and_then(|d| d.as_f64()).expect("span depth") as u64,
                ));
            }
        }
        assert_eq!(epochs, 2, "expected one train.epoch line per epoch");
        assert!(!spans.is_empty(), "traced run emitted no spans");
        span_sequences.push(spans);
        std::fs::remove_file(&path).ok();
    }
    // Spans are emitted serially from the orchestrating thread, so the
    // exact (name, depth) sequence — not just the multiset — must be
    // independent of the pool size.
    assert_eq!(
        span_sequences[0], span_sequences[1],
        "span sequence differs between 1 and 8 threads"
    );
}
