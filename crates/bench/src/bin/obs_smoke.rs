//! End-to-end smoke test for the live observability stack: boots a real
//! serving engine with an enabled recorder and a `tranad-obs` exporter on
//! an ephemeral port, scrapes `/metrics`, `/healthz`, `/readyz` and
//! `/streams` over a raw `std::net::TcpStream`, and asserts the required
//! metric families plus the not-ready → ready transition across the first
//! batch. Exits non-zero on any failed check — scripts/verify.sh runs this
//! as the `obs-smoke` gate.
//!
//! Usage: `cargo run --release -p tranad-bench --bin obs-smoke`

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use tranad::{train, TranadConfig};
use tranad_data::{SignalRng, TimeSeries};
use tranad_obs::Exporter;
use tranad_serve::{Engine, EngineConfig};
use tranad_telemetry::{MemorySink, Recorder};

const DIMS: usize = 3;
const STREAMS: usize = 4;
const POINTS: usize = 48;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| ((t as f64) / (9.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn point(s: usize, t: usize, dst: &mut [f64]) {
    for (d, v) in dst.iter_mut().enumerate() {
        let x = t as f64 + s as f64 * 0.41;
        *v = (x / (9.0 + d as f64)).sin()
            + 0.05 * (((x * 12.9898 + d as f64 * 78.233).sin() * 43758.5453).fract() - 0.5);
    }
}

/// One raw HTTP/1.0 GET; returns (status, body). The whole walkthrough is
/// curl-free on purpose: `std::net::TcpStream` is the only client needed.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to exporter");
    conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn check(ok: bool, what: &str) {
    if ok {
        println!("ok: {what}");
    } else {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
}

fn main() {
    // A tiny but real model: the smoke test exercises the full stack, not
    // a mock.
    let config = TranadConfig {
        epochs: 2,
        patience: 10,
        window: 4,
        context: 8,
        ff_hidden: 8,
        ..TranadConfig::default()
    };
    let (trained, _) = train(&toy_series(400, DIMS, 3), config).expect("training");

    let rec = Recorder::new(MemorySink::new(4096));
    let mut engine = {
        let _scope = rec.span_scope();
        Engine::new(trained, EngineConfig::default()).expect("engine")
    };
    let ids: Vec<_> = (0..STREAMS)
        .map(|s| engine.stream_id(&format!("stream-{s}")).expect("stream id"))
        .collect();
    let exporter = Exporter::bind("127.0.0.1:0", rec, Some(engine.obs())).expect("bind exporter");
    let addr = exporter.addr();
    println!("exporter listening on {addr}");

    // Before the first batch: healthy but not ready.
    let (status, body) = get(addr, "/healthz");
    check(
        status == 200 && body.starts_with("ok"),
        "/healthz answers 200 before serving",
    );
    let (status, body) = get(addr, "/readyz");
    check(
        status == 503 && body.starts_with("not ready"),
        "/readyz answers 503 before the first batch",
    );

    // Serve a little traffic.
    let mut row = [0.0; DIMS];
    for t in 0..POINTS {
        for (s, &id) in ids.iter().enumerate() {
            point(s, t, &mut row);
            engine.push_id(id, &row).expect("push");
        }
        if t % 16 == 15 {
            engine.run_batch().expect("batch");
        }
    }
    engine.run_batch().expect("final batch");

    // After serving: ready, and every required family is exported.
    let (status, body) = get(addr, "/readyz");
    check(
        status == 200 && body.starts_with("ready"),
        "/readyz flips to 200 after a batch",
    );
    let (status, _) = get(addr, "/healthz");
    check(status == 200, "/healthz stays 200 under load");

    let (status, metrics) = get(addr, "/metrics");
    check(status == 200, "/metrics answers 200");
    let expected_processed = (STREAMS * POINTS) as u64;
    for family in [
        // Recorder metrics from the serving hot path.
        "# TYPE tranad_serve_push_us histogram",
        "tranad_serve_push_us_bucket{le=\"+Inf\"}",
        "# TYPE tranad_serve_queue_depth gauge",
        "# TYPE tranad_serve_batch_occupancy gauge",
        // Engine health and counters.
        "tranad_engine_ready 1",
        "tranad_engine_healthy 1",
        "tranad_engine_streams 4",
        &format!("tranad_engine_processed_total {expected_processed}"),
        "tranad_engine_shed_total 0",
        "tranad_engine_health_ok{condition=\"queue_saturation\"} 1",
        // Per-stream families with stream labels.
        &format!("tranad_stream_seen_total{{stream=\"stream-0\"}} {POINTS}"),
        "tranad_stream_spot_threshold{stream=\"stream-3\"}",
        "tranad_stream_last_score{stream=\"stream-1\"}",
    ] {
        check(
            metrics.contains(family),
            &format!("/metrics exports {family:?}"),
        );
    }

    let (status, table) = get(addr, "/streams");
    check(status == 200, "/streams answers 200");
    check(
        table.lines().next()
            == Some("stream seen queued queue_hwm shed anomalies last_score threshold"),
        "/streams has the stats-table header",
    );
    check(
        (0..STREAMS).all(|s| table.contains(&format!("stream-{s} {POINTS} 0 "))),
        "/streams lists every stream with its seen count and an empty queue",
    );

    exporter.shutdown();
    println!("obs-smoke OK: exporter served metrics, health and streams for a live engine");
}
