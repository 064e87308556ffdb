//! End-to-end trace-report coverage on a real recorded fixture: train a
//! tiny model through a faketime JSONL recorder, then check the per-op
//! table, the Chrome trace-event JSON and the flamegraph SVG produced from
//! that trace. Faketime makes the recorded durations (and therefore the
//! analysis) deterministic across machines.

use std::sync::Arc;

use tranad::{train, OnlineState, PotConfig, TranadConfig};
use tranad_bench::trace_report::{
    analyze, check_budget, parse_budget, parse_trace, render_table, to_chrome_trace,
    to_flamegraph_svg, Trace,
};
use tranad_json::Json;
use tranad_telemetry::{JsonlSink, Recorder};

fn recorded_fixture(tag: &str) -> Trace {
    let dir =
        std::env::temp_dir().join(format!("tranad_trace_report_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.jsonl");
    {
        let rec = Recorder::with_sink_faketime(Arc::new(JsonlSink::create(&path).unwrap()));
        let gen = tranad_data::GenConfig {
            scale: 0.001,
            min_len: 300,
            seed: 29,
        };
        let ds = tranad_data::generate(tranad_data::DatasetKind::Ucr, gen);
        let config = TranadConfig::builder()
            .epochs(2)
            .window(6)
            .context(12)
            .ff_hidden(8)
            .build()
            .unwrap();
        let _scope = rec.span_scope();
        let (trained, _) = train(&ds.train, config).unwrap();
        trained.detect(&ds.test, PotConfig::default()).unwrap();
        // Batch detection walks SPOT inside pool tasks, which record
        // nothing; a stream refits on the calling thread.
        let mut state = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for t in 0..ds.test.len() {
            state.push(&trained, ds.test.row(t)).unwrap();
        }
        rec.flush_metrics();
        rec.flush();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    parse_trace(&text).unwrap()
}

#[test]
fn report_covers_the_span_taxonomy_on_a_recorded_run() {
    let trace = recorded_fixture("taxonomy");
    assert!(!trace.spans.is_empty(), "fixture recorded no spans");
    let report = analyze(&trace);

    // Roots: training and detection each open a root span.
    let phase_names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert!(
        phase_names.contains(&"train.run"),
        "phases: {phase_names:?}"
    );
    assert!(
        phase_names.contains(&"detect.run"),
        "phases: {phase_names:?}"
    );

    // The golden per-op rows: every layer of the stack shows up.
    for expected in [
        "train.run",
        "train.epoch",
        "train.step",
        "train.phase1",
        "train.phase2",
        "train.maml",
        "train.validate",
        "tape.backward",
        "op.matmul",
        "nn.attention",
        "nn.encoder_layer",
        "optim.step",
        "maml.step",
        "pool.run",
        "detect.run",
        "detect.score_windows",
        "pot.calibrate",
        "spot.refit",
    ] {
        assert!(
            report.ops.iter().any(|o| o.name == expected && o.count > 0),
            "per-op table lacks {expected}; has {:?}",
            report.ops.iter().map(|o| &o.name).collect::<Vec<_>>()
        );
    }
    // Structural invariants: two epochs, one run; self <= total everywhere;
    // quantiles bracket the mean's scale.
    let epoch = report.ops.iter().find(|o| o.name == "train.epoch").unwrap();
    assert_eq!(epoch.count, 2);
    let run = report.ops.iter().find(|o| o.name == "train.run").unwrap();
    assert_eq!(run.count, 1);
    for o in &report.ops {
        assert!(o.self_us <= o.total_us + 1e-9, "{}: self > total", o.name);
        assert!(o.p50_us <= o.p99_us + 1e-9, "{}: p50 > p99", o.name);
        assert!(o.mean_us > 0.0, "{}: non-positive mean", o.name);
    }

    // The rendered table mentions the headline columns and the top op.
    let table = render_table(&report);
    for needle in [
        "per-op attribution",
        "total_ms",
        "self_ms",
        "p99_us",
        "train.step",
    ] {
        assert!(table.contains(needle), "table lacks {needle:?}:\n{table}");
    }
}

#[test]
fn chrome_trace_round_trips_with_the_expected_schema() {
    let trace = recorded_fixture("chrome");
    let chrome = to_chrome_trace(&trace).to_string();
    let v = tranad_json::parse(&chrome).expect("chrome trace must be valid JSON");
    let events = v
        .req("traceEvents")
        .unwrap()
        .as_array()
        .expect("traceEvents must be an array");
    assert_eq!(events.len(), trace.spans.len());
    for e in events {
        assert_eq!(e.req("ph").unwrap().as_str(), Some("X"));
        assert!(e.req("name").unwrap().as_str().is_some());
        for key in ["ts", "dur", "pid", "tid"] {
            let n = e.req(key).unwrap().as_f64().unwrap();
            assert!(
                n.is_finite() && n >= 0.0,
                "{key} must be a non-negative number"
            );
        }
        let args = e.req("args").unwrap();
        assert!(args.get("depth").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn flamegraph_svg_is_well_formed_and_labelled() {
    let trace = recorded_fixture("svg");
    let svg = to_flamegraph_svg(&trace);
    assert!(svg.starts_with("<svg "), "must start with an svg root");
    assert!(
        svg.trim_end().ends_with("</svg>"),
        "must close the svg root"
    );
    assert!(svg.contains("xmlns=\"http://www.w3.org/2000/svg\""));
    // Every opened tag family is balanced.
    for tag in ["g", "rect", "text", "title"] {
        let opens = svg.matches(&format!("<{tag}")).count();
        let closes = svg.matches(&format!("</{tag}>")).count() + svg.matches("/>").count();
        assert!(
            opens <= closes,
            "unbalanced <{tag}>: {opens} opens, {closes} closes"
        );
    }
    assert!(svg.matches("<title>").count() == svg.matches("</title>").count());
    // Tooltips carry the span names.
    assert!(svg.contains("<title>train.run:"), "root tooltip missing");
}

#[test]
fn budget_gate_passes_on_generous_rules_and_fails_on_tight_ones() {
    let trace = recorded_fixture("budget");
    let report = analyze(&trace);
    let generous = parse_budget(
        r#"{"budgets": [
            {"span": "train.step", "min_count": 1, "max_mean_us": 1e9},
            {"span": "op.matmul", "min_count": 1, "max_total_s": 1e6}
        ]}"#,
    )
    .unwrap();
    assert!(check_budget(&report, &generous).is_empty());

    let impossible = parse_budget(
        r#"{"budgets": [{"span": "train.step", "min_count": 1, "max_mean_us": 0.0}]}"#,
    )
    .unwrap();
    assert_eq!(check_budget(&report, &impossible).len(), 1);
}
