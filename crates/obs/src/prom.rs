//! Prometheus text-exposition (format 0.0.4) rendering over telemetry
//! snapshots and engine observability state.
//!
//! Everything here is pure string building over already-snapshotted data —
//! no locks, no I/O — so a scrape's lock hold is exactly the snapshot
//! clone, never the render. Output is deterministic: recorder metrics
//! render in the snapshot's name order (a `BTreeMap` walk), engine
//! families in a fixed code order, and per-stream series sorted by stream
//! name, so two scrapes of the same state are byte-identical.

use crate::state::{HealthReport, ObsSnapshot, StreamStats};
use std::fmt::Write;
use tranad_telemetry::{Histogram, Metric, MetricsSnapshot, BUCKETS};

/// Prefix applied to every exported metric name.
const PREFIX: &str = "tranad_";

/// Rewrites an internal metric name (e.g. `serve.push_us`) into a valid
/// Prometheus metric-name body: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gains a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if c.is_ascii_digit() && i == 0 {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the text exposition format: backslash, double
/// quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a sample value. Rust's `Display` for `f64` is already in the
/// accepted grammar for finite values; infinities and NaN use the
/// exposition spellings `+Inf` / `-Inf` / `NaN`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Exported name of a counter family: sanitized, prefixed, `_total`-suffixed
/// (unless the name already carries the suffix).
fn counter_name(name: &str) -> String {
    let body = sanitize_name(name);
    if body.ends_with("_total") {
        format!("{PREFIX}{body}")
    } else {
        format!("{PREFIX}{body}_total")
    }
}

/// Renders every metric in a recorder snapshot as one Prometheus family
/// each: counters with a `_total` suffix, gauges as-is, and log2
/// histograms as cumulative `_bucket{le=...}` series (only non-empty
/// buckets plus the mandatory `+Inf`) with `_sum` and `_count`.
pub fn render_metrics(snap: &MetricsSnapshot, out: &mut String) {
    for (name, metric) in snap.iter() {
        match metric {
            Metric::Counter(c) => {
                let full = counter_name(name);
                let _ = writeln!(out, "# TYPE {full} counter");
                let _ = writeln!(out, "{full} {c}");
            }
            Metric::Gauge(g) => {
                let full = format!("{PREFIX}{}", sanitize_name(name));
                let _ = writeln!(out, "# TYPE {full} gauge");
                let _ = writeln!(out, "{full} {}", fmt_value(*g));
            }
            Metric::Histogram(h) => render_histogram(name, h, out),
        }
    }
}

fn render_histogram(name: &str, h: &Histogram, out: &mut String) {
    let full = format!("{PREFIX}{}", sanitize_name(name));
    let _ = writeln!(out, "# TYPE {full} histogram");
    let mut cum = 0u64;
    for i in 0..BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        cum += h.buckets[i];
        let le = Histogram::bucket_upper(i);
        if le.is_finite() {
            let _ = writeln!(out, "{full}_bucket{{le=\"{}\"}} {cum}", fmt_value(le));
        }
    }
    let _ = writeln!(out, "{full}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{full}_sum {}", fmt_value(h.sum));
    let _ = writeln!(out, "{full}_count {}", h.count);
    if h.dropped > 0 {
        let _ = writeln!(out, "# TYPE {full}_dropped_total counter");
        let _ = writeln!(out, "{full}_dropped_total {}", h.dropped);
    }
}

/// One labeled per-stream family: a TYPE line, then one series per stream
/// in sorted-name order.
fn render_stream_family(
    streams: &[&StreamStats],
    family: &str,
    kind: &str,
    value: impl Fn(&StreamStats) -> f64,
    out: &mut String,
) {
    let _ = writeln!(out, "# TYPE {PREFIX}{family} {kind}");
    for s in streams {
        let _ = writeln!(
            out,
            "{PREFIX}{family}{{stream=\"{}\"}} {}",
            escape_label(&s.name),
            fmt_value(value(s))
        );
    }
}

/// Renders the engine's published state: engine-level counters/gauges,
/// evaluated health conditions, and the per-stream stats table as labeled
/// families. `report` must come from the same state (the exporter
/// evaluates it off one snapshot so a scrape is self-consistent).
pub fn render_engine(snap: &ObsSnapshot, report: &HealthReport, out: &mut String) {
    let s = &snap.status;
    let gauge = |out: &mut String, family: &str, v: f64| {
        let _ = writeln!(out, "# TYPE {PREFIX}{family} gauge");
        let _ = writeln!(out, "{PREFIX}{family} {}", fmt_value(v));
    };
    let counter = |out: &mut String, family: &str, v: u64| {
        let _ = writeln!(out, "# TYPE {PREFIX}{family} counter");
        let _ = writeln!(out, "{PREFIX}{family} {v}");
    };
    gauge(out, "engine_streams", s.streams as f64);
    counter(out, "engine_processed_total", s.processed);
    counter(out, "engine_shed_total", s.shed);
    counter(out, "engine_batches_total", s.batches);
    gauge(out, "engine_queue_saturation", s.queue_saturation);
    gauge(out, "engine_checkpoint_lag_points", s.checkpoint_lag as f64);
    gauge(out, "engine_shed_rate", s.shed_rate());
    if let Some(age) = snap.last_batch_age_s {
        gauge(out, "engine_last_batch_age_seconds", age);
    }
    if let Some(age) = snap.last_checkpoint_age_s {
        gauge(out, "engine_checkpoint_age_seconds", age);
    }
    gauge(out, "engine_ready", if report.ready { 1.0 } else { 0.0 });
    gauge(
        out,
        "engine_healthy",
        if report.healthy { 1.0 } else { 0.0 },
    );
    let _ = writeln!(out, "# TYPE {PREFIX}engine_health_ok gauge");
    for c in &report.conditions {
        let _ = writeln!(
            out,
            "{PREFIX}engine_health_ok{{condition=\"{}\"}} {}",
            escape_label(c.name),
            u8::from(c.ok)
        );
    }

    let mut streams: Vec<&StreamStats> = snap.streams.iter().collect();
    streams.sort_by(|a, b| a.name.cmp(&b.name));
    render_stream_family(
        &streams,
        "stream_seen_total",
        "counter",
        |s| s.seen as f64,
        out,
    );
    render_stream_family(&streams, "stream_queued", "gauge", |s| s.queued as f64, out);
    render_stream_family(
        &streams,
        "stream_queue_high_watermark",
        "gauge",
        |s| s.queue_hwm as f64,
        out,
    );
    render_stream_family(
        &streams,
        "stream_shed_total",
        "counter",
        |s| s.shed as f64,
        out,
    );
    render_stream_family(
        &streams,
        "stream_anomalies_total",
        "counter",
        |s| s.anomalies as f64,
        out,
    );
    render_stream_family(
        &streams,
        "stream_last_score",
        "gauge",
        |s| s.last_score,
        out,
    );
    render_stream_family(
        &streams,
        "stream_spot_threshold",
        "gauge",
        |s| s.threshold,
        out,
    );
}

/// Renders the plain-text `/streams` table: a fixed header line, then one
/// row per stream (sorted by name), space-separated.
pub fn render_streams_table(snap: &ObsSnapshot, out: &mut String) {
    let _ = writeln!(
        out,
        "stream seen queued queue_hwm shed anomalies last_score threshold"
    );
    let mut streams: Vec<&StreamStats> = snap.streams.iter().collect();
    streams.sort_by(|a, b| a.name.cmp(&b.name));
    for s in streams {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            escape_label(&s.name),
            s.seen,
            s.queued,
            s.queue_hwm,
            s.shed,
            s.anomalies,
            fmt_value(s.last_score),
            fmt_value(s.threshold)
        );
    }
}

/// Renders the `/healthz` (or `/readyz`) body: a verdict line followed by
/// one line per condition.
pub(crate) fn render_health(report: &HealthReport, ready_mode: bool, out: &mut String) {
    let verdict = if ready_mode {
        if report.ready {
            "ready"
        } else if report.healthy {
            "not ready: engine has not completed a batch"
        } else {
            "not ready: unhealthy"
        }
    } else if report.healthy {
        "ok"
    } else {
        "unhealthy"
    };
    let _ = writeln!(out, "{verdict}");
    for c in &report.conditions {
        let _ = writeln!(
            out,
            "{} {} limit {}{}",
            c.name,
            fmt_value(c.value),
            fmt_value(c.limit),
            if c.ok { "" } else { " FAIL" }
        );
    }
}
