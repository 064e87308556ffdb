//! Golden trace test: run training, detection and one baseline fit under an
//! installed JSONL sink, then parse the whole trace back with `tranad-json`
//! and check the event taxonomy DESIGN.md documents actually shows up.

use std::sync::Arc;

use tranad::{detect_from_scores, train, PotConfig, TranadConfig};
use tranad_baselines::{Detector, IForestConfig, IsolationForest};
use tranad_data::{generate, DatasetKind, GenConfig};
use tranad_telemetry::{JsonlSink, Recorder};

#[test]
fn golden_trace_covers_the_event_taxonomy() {
    let dir = std::env::temp_dir().join(format!("tranad_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.jsonl");
    let rec = Recorder::with_sink(Arc::new(JsonlSink::create(&path).unwrap()));
    assert!(rec.enabled());

    let gen = GenConfig {
        scale: 0.001,
        min_len: 400,
        seed: 17,
    };
    let ds = generate(DatasetKind::Ucr, gen);
    let config = TranadConfig::builder()
        .epochs(2)
        .window(6)
        .context(12)
        .ff_hidden(8)
        .build()
        .unwrap();

    let scope = rec.span_scope();
    let (trained, report) = train(&ds.train, config).unwrap();
    assert_eq!(report.epochs_run, 2);
    let detection = trained.detect(&ds.test, PotConfig::default()).unwrap();
    // Exercise the per-dimension POT path explicitly too.
    let _ = detect_from_scores(&detection.scores, &detection.scores, PotConfig::default()).unwrap();

    let mut baseline = IsolationForest::new(IForestConfig {
        trees: 10,
        ..Default::default()
    });
    baseline.fit(&ds.train).unwrap();
    drop(scope);

    rec.flush_metrics();
    rec.flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    for (lineno, line) in text.lines().enumerate() {
        let v = tranad_json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e:?}", lineno + 1));
        let name = v
            .get("event")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| panic!("line {} lacks an event name", lineno + 1))
            .to_string();
        assert!(
            v.get("t")
                .and_then(|t| t.as_f64())
                .is_some_and(|t| t >= 0.0),
            "line {} lacks a timestamp",
            lineno + 1
        );
        *seen.entry(name).or_insert(0) += 1;
    }

    // Training: one event per epoch plus the run summary.
    assert_eq!(seen.get("train.epoch"), Some(&2), "events seen: {seen:?}");
    assert_eq!(seen.get("train.done"), Some(&1), "events seen: {seen:?}");
    // Detection: the batch-score event plus one POT event per dimension
    // (detect on a 1-dim UCR series, then the explicit per-dim call).
    assert!(
        seen.get("detect.score").is_some_and(|&n| n >= 1),
        "events seen: {seen:?}"
    );
    assert!(
        seen.get("pot.dim").is_some_and(|&n| n >= 2),
        "events seen: {seen:?}"
    );
    // Buffer pool and thread pool report after training.
    assert_eq!(seen.get("pool.buffers"), Some(&1), "events seen: {seen:?}");
    assert_eq!(seen.get("pool.threads"), Some(&1), "events seen: {seen:?}");
    // The baseline fit reports through the same recorder.
    assert_eq!(seen.get("baseline.fit"), Some(&1), "events seen: {seen:?}");
    // Metric summaries flushed at the end.
    assert!(
        seen.get("metric.histogram").is_some_and(|&n| n >= 1),
        "events seen: {seen:?}"
    );
    assert!(
        seen.get("metric.counter").is_some_and(|&n| n >= 1),
        "events seen: {seen:?}"
    );
    // Spans: the run is hierarchically profiled end to end (train roots,
    // per-op tape spans, POT calibration), so a live sink sees far more
    // span events than anything else.
    assert!(
        seen.get("span").is_some_and(|&n| n >= 100),
        "events seen: {seen:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
