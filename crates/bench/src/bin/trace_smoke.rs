//! Trace smoke test for CI: runs a tiny train + detect + serve with
//! whatever recorder `TRANAD_TRACE` configures, then (when the variable is
//! set) re-reads the trace file and proves every line is well-formed JSONL
//! with the expected core events.
//!
//! Run with: `TRANAD_TRACE=/tmp/trace.jsonl cargo run --release -p
//! tranad-bench --bin trace-smoke`. Without `TRANAD_TRACE` it still runs
//! the pipeline (exercising the disabled-recorder path) and prints a note.

use tranad::{train, OnlineState, PotConfig, TranadConfig};
use tranad_data::{generate, DatasetKind, GenConfig};

fn main() {
    let rec = tranad_telemetry::global();
    let gen = GenConfig {
        scale: 0.001,
        min_len: 400,
        seed: 23,
    };
    let ds = generate(DatasetKind::Ucr, gen);
    let config = TranadConfig::builder()
        .epochs(2)
        .window(6)
        .context(12)
        .ff_hidden(8)
        .build()
        .expect("valid config");
    let (trained, report) = train(&ds.train, config).expect("training");
    let detection = trained
        .detect(&ds.test, PotConfig::default())
        .expect("detection");

    // Serve the same points through the engine's batched path (serve.*
    // events, the serve.batch_forward span) and through a per-stream
    // OnlineState (one infer.forward span per point), so both land in the
    // same smoke trace.
    let points = ds.test.len().min(64);
    let mut state = OnlineState::new(&trained, PotConfig::default()).expect("online state");
    for t in 0..points {
        state.push(&trained, ds.test.row(t)).expect("online push");
    }
    let mut engine = tranad_serve::Engine::new(trained, tranad_serve::EngineConfig::default())
        .expect("serve engine");
    for t in 0..points {
        engine.push("smoke", ds.test.row(t)).expect("serve push");
    }
    let served = engine.drain().expect("serve drain");

    rec.flush_metrics();
    rec.flush();
    println!(
        "trained {} epochs, {} test points, {} flagged, {} served",
        report.epochs_run,
        detection.labels.len(),
        detection.labels.iter().filter(|&&b| b).count(),
        served.get("smoke").map_or(0, |v| v.len())
    );

    let Ok(path) = std::env::var(tranad_telemetry::TRACE_ENV) else {
        println!(
            "{} unset; ran with telemetry disabled",
            tranad_telemetry::TRACE_ENV
        );
        return;
    };
    assert!(
        rec.enabled(),
        "{} is set but the recorder is disabled",
        tranad_telemetry::TRACE_ENV
    );
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    for (lineno, line) in text.lines().enumerate() {
        let v = tranad_json::parse(line)
            .unwrap_or_else(|e| panic!("trace line {} is malformed: {e:?}", lineno + 1));
        let name = v
            .get("event")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| panic!("trace line {} lacks an event name", lineno + 1));
        *seen.entry(name.to_string()).or_insert(0) += 1;
    }

    // Every event family the train+detect pipeline must produce. A missing
    // family means instrumentation silently fell out of a code path, so the
    // smoke test names exactly what disappeared and fails the build.
    const EXPECTED: &[&str] = &[
        "train.epoch",
        "train.done",
        "detect.score",
        "pot.dim",
        "serve.batch",
        "metric.gauge",
        "span",
        "pool.buffers",
        "pool.threads",
        "metric.counter",
        "metric.histogram",
    ];
    let missing: Vec<&str> = EXPECTED
        .iter()
        .filter(|name| !seen.contains_key(**name))
        .copied()
        .collect();
    if !missing.is_empty() {
        eprintln!("trace at {path} is missing expected event families:");
        for name in &missing {
            eprintln!("  - {name}");
        }
        eprintln!("families present: {:?}", seen.keys().collect::<Vec<_>>());
        std::process::exit(1);
    }
    let epochs = seen.get("train.epoch").copied().unwrap_or(0);
    assert_eq!(epochs, 2, "expected one train.epoch event per epoch");
    let events: usize = seen.values().sum();
    let spans = seen.get("span").copied().unwrap_or(0);
    println!(
        "trace OK: {events} well-formed events across {} families ({spans} spans) in {path}",
        seen.len()
    );
}
