//! Prometheus text-exposition renderer: golden-text fixture, metric-name
//! sanitization, label-value escaping, and deterministic family ordering
//! across runs.

use tranad_obs::prom::{escape_label, render_streams_table, sanitize_name};
use tranad_obs::{EngineObs, EngineStatus, HealthConfig, ObsSnapshot, StreamStats};
use tranad_telemetry::{MemorySink, Recorder};

fn recorded_snapshot() -> tranad_telemetry::MetricsSnapshot {
    let rec = Recorder::new(MemorySink::new(64));
    rec.add("serve.shed", 3);
    rec.gauge("serve.queue_depth", 2.5);
    // 1.0 lands in the [1, 2) bucket (le="2"), 3.0 in [2, 4) (le="4").
    rec.observe("serve.push_us", 1.0);
    rec.observe("serve.push_us", 3.0);
    rec.snapshot()
}

#[test]
fn golden_text_fixture_for_recorder_metrics() {
    let snap = recorded_snapshot();
    let mut out = String::new();
    tranad_obs::prom::render_metrics(&snap, &mut out);
    let expected = "\
# TYPE tranad_serve_push_us histogram
tranad_serve_push_us_bucket{le=\"2\"} 1
tranad_serve_push_us_bucket{le=\"4\"} 2
tranad_serve_push_us_bucket{le=\"+Inf\"} 2
tranad_serve_push_us_sum 4
tranad_serve_push_us_count 2
# TYPE tranad_serve_queue_depth gauge
tranad_serve_queue_depth 2.5
# TYPE tranad_serve_shed_total counter
tranad_serve_shed_total 3
";
    assert_eq!(out, expected);
}

#[test]
fn histogram_dropped_observations_export_as_their_own_counter() {
    let rec = Recorder::new(MemorySink::new(64));
    rec.observe("lat", 1.0);
    rec.observe("lat", f64::NAN);
    rec.observe("lat", f64::INFINITY);
    let mut out = String::new();
    tranad_obs::prom::render_metrics(&rec.snapshot(), &mut out);
    assert!(out.contains("tranad_lat_count 1"), "non-finite samples are not counted:\n{out}");
    assert!(out.contains("# TYPE tranad_lat_dropped_total counter\ntranad_lat_dropped_total 2"));
}

#[test]
fn metric_names_are_sanitized_into_the_prometheus_charset() {
    assert_eq!(sanitize_name("serve.push_us"), "serve_push_us");
    assert_eq!(sanitize_name("serve.batch-rate"), "serve_batch_rate");
    assert_eq!(sanitize_name("a:b_c9"), "a:b_c9");
    assert_eq!(sanitize_name("9lives"), "_9lives", "a leading digit gains an underscore");
    assert_eq!(sanitize_name("with space/slash"), "with_space_slash");
}

#[test]
fn label_values_escape_backslash_quote_and_newline() {
    assert_eq!(escape_label("plain"), "plain");
    assert_eq!(escape_label("a\\b"), "a\\\\b");
    assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
    assert_eq!(escape_label("line1\nline2"), "line1\\nline2");
    assert_eq!(escape_label("\\\"\n"), "\\\\\\\"\\n", "all three in one value");
}

#[test]
fn stream_labels_are_escaped_in_the_rendered_output() {
    let obs = EngineObs::new(HealthConfig::default());
    obs.register_stream("web\n\"prod\"\\1");
    obs.publish_batch(EngineStatus::default(), |_, _| {});
    let snap = obs.snapshot();
    let report = EngineObs::evaluate(&snap, obs.thresholds());
    let mut out = String::new();
    tranad_obs::prom::render_engine(&snap, &report, &mut out);
    assert!(
        out.contains("tranad_stream_seen_total{stream=\"web\\n\\\"prod\\\"\\\\1\"} 0"),
        "label escaping missing:\n{out}"
    );
}

#[test]
fn counter_names_gain_total_exactly_once() {
    let rec = Recorder::new(MemorySink::new(64));
    rec.add("events", 1);
    rec.add("requests_total", 2);
    let mut out = String::new();
    tranad_obs::prom::render_metrics(&rec.snapshot(), &mut out);
    assert!(out.contains("tranad_events_total 1"));
    assert!(out.contains("tranad_requests_total 2"));
    assert!(!out.contains("requests_total_total"), "no double suffix:\n{out}");
}

#[test]
fn family_ordering_is_deterministic_across_runs() {
    // Recorder metrics: identical insertion in shuffled orders must render
    // byte-identically (BTreeMap name order).
    let mut outs = Vec::new();
    for shuffle in 0..2 {
        let rec = Recorder::new(MemorySink::new(64));
        if shuffle == 0 {
            rec.add("b_counter", 1);
            rec.gauge("a_gauge", 1.0);
            rec.observe("c_hist", 1.0);
        } else {
            rec.observe("c_hist", 1.0);
            rec.add("b_counter", 1);
            rec.gauge("a_gauge", 1.0);
        }
        let mut out = String::new();
        tranad_obs::prom::render_metrics(&rec.snapshot(), &mut out);
        outs.push(out);
    }
    assert_eq!(outs[0], outs[1]);
    let a = outs[0].find("tranad_a_gauge").unwrap();
    let b = outs[0].find("tranad_b_counter").unwrap();
    let c = outs[0].find("tranad_c_hist").unwrap();
    assert!(a < b && b < c, "families render in name order:\n{}", outs[0]);

    // Engine families: streams registered in any order render sorted.
    let obs = EngineObs::new(HealthConfig::default());
    obs.register_stream("zeta");
    obs.register_stream("alpha");
    obs.publish_batch(EngineStatus::default(), |_, _| {});
    let snap = obs.snapshot();
    let report = EngineObs::evaluate(&snap, obs.thresholds());
    let mut out = String::new();
    tranad_obs::prom::render_engine(&snap, &report, &mut out);
    let alpha = out.find("tranad_stream_seen_total{stream=\"alpha\"}").unwrap();
    let zeta = out.find("tranad_stream_seen_total{stream=\"zeta\"}").unwrap();
    assert!(alpha < zeta, "per-stream series sort by name:\n{out}");
    // Two renders of the same snapshot are byte-identical.
    let mut again = String::new();
    tranad_obs::prom::render_engine(&snap, &report, &mut again);
    assert_eq!(out, again);
}

#[test]
fn engine_families_render_health_and_readiness() {
    let obs = EngineObs::new(HealthConfig::default());
    obs.register_stream("web");
    obs.publish_batch(
        EngineStatus {
            streams: 1,
            processed: 10,
            shed: 2,
            batches: 3,
            queue_saturation: 0.25,
            checkpoint_lag: 4,
        },
        |_, row| {
            row.seen = 10;
            row.queued = 1;
            row.queue_hwm = 5;
            row.shed = 2;
            row.anomalies = 1;
            row.last_score = 0.75;
            row.threshold = 1.5;
        },
    );
    let snap = obs.snapshot();
    let report = EngineObs::evaluate(&snap, obs.thresholds());
    let mut out = String::new();
    tranad_obs::prom::render_engine(&snap, &report, &mut out);
    for needle in [
        "tranad_engine_streams 1",
        "tranad_engine_processed_total 10",
        "tranad_engine_shed_total 2",
        "tranad_engine_batches_total 3",
        "tranad_engine_queue_saturation 0.25",
        "tranad_engine_checkpoint_lag_points 4",
        "tranad_engine_ready 1",
        "tranad_engine_healthy 1",
        "tranad_engine_health_ok{condition=\"queue_saturation\"} 1",
        "tranad_stream_seen_total{stream=\"web\"} 10",
        "tranad_stream_queued{stream=\"web\"} 1",
        "tranad_stream_queue_high_watermark{stream=\"web\"} 5",
        "tranad_stream_shed_total{stream=\"web\"} 2",
        "tranad_stream_anomalies_total{stream=\"web\"} 1",
        "tranad_stream_last_score{stream=\"web\"} 0.75",
        "tranad_stream_spot_threshold{stream=\"web\"} 1.5",
        "tranad_engine_last_batch_age_seconds",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn streams_table_has_a_fixed_header_and_sorted_rows() {
    let snap = ObsSnapshot {
        status: EngineStatus::default(),
        published: true,
        last_batch_age_s: None,
        last_checkpoint_age_s: None,
        streams: vec![
            StreamStats { name: "zeta".to_string(), seen: 7, ..StreamStats::default() },
            StreamStats { name: "alpha".to_string(), seen: 3, ..StreamStats::default() },
        ],
    };
    let mut out = String::new();
    render_streams_table(&snap, &mut out);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "stream seen queued queue_hwm shed anomalies last_score threshold");
    assert!(lines[1].starts_with("alpha 3 "));
    assert!(lines[2].starts_with("zeta 7 "));
    assert!(lines[1].ends_with("NaN NaN"), "unset score/threshold render as NaN");
}

#[test]
fn scrapes_still_answer_after_a_publish_whose_fill_panicked() {
    let obs = EngineObs::new(HealthConfig::default());
    obs.register_stream("a");
    obs.register_stream("b");
    let status = EngineStatus { processed: 8, batches: 1, ..Default::default() };
    obs.publish_batch(status, |_, row| row.seen = 4);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        obs.publish_batch(EngineStatus { batches: 2, ..status }, |i, row| {
            assert!(i == 0, "fill panics on the second stream");
            row.seen = 5;
        });
    }));
    assert!(panicked.is_err());

    // The lock is poisoned; readers recover it and see the cut-short publish.
    let snap = obs.snapshot();
    assert_eq!(snap.status.batches, 2);
    assert_eq!((snap.streams[0].seen, snap.streams[1].seen), (5, 4));
    let report = obs.health();
    let mut out = String::new();
    tranad_obs::prom::render_engine(&snap, &report, &mut out);
    render_streams_table(&snap, &mut out);
    assert!(out.contains("stream=\"b\""), "{out}");

    // Publishing keeps working too.
    obs.publish_batch(EngineStatus { batches: 3, ..status }, |_, row| row.seen = 6);
    assert_eq!(obs.snapshot().streams[1].seen, 6);
}
