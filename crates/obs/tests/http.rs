//! The blocking HTTP/1.0 exporter end to end over a real socket: bind on
//! an ephemeral port, scrape every endpoint with a raw `TcpStream`, check
//! status codes and bodies, and shut down cleanly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tranad_obs::{EngineObs, EngineStatus, Exporter, HealthConfig};
use tranad_telemetry::{MemorySink, Recorder};

/// One raw HTTP/1.0 exchange: returns (status, body).
fn scrape(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to exporter");
    conn.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
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

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    scrape(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"))
}

#[test]
fn exporter_serves_all_endpoints_over_a_real_socket() {
    let rec = Recorder::new(MemorySink::new(64));
    rec.add("events", 5);
    rec.observe("lat_us", 3.0);
    let obs = Arc::new(EngineObs::new(HealthConfig::default()));
    obs.register_stream("web");
    let exporter = Exporter::bind("127.0.0.1:0", rec.clone(), Some(obs.clone())).unwrap();
    let addr = exporter.addr();

    // Not ready before the first published batch, but healthy.
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 503);
    assert!(
        body.starts_with("not ready: engine has not completed a batch"),
        "{body}"
    );
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok\n"), "{body}");

    // Publish one batch: ready flips, /metrics carries both recorder and
    // engine families, /streams lists the stream.
    obs.publish_batch(
        EngineStatus {
            streams: 1,
            processed: 8,
            batches: 1,
            ..Default::default()
        },
        |_, row| {
            row.seen = 8;
            row.threshold = 2.5;
        },
    );
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200);
    assert!(body.starts_with("ready\n"), "{body}");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE tranad_events_total counter",
        "tranad_events_total 5",
        "tranad_lat_us_count 1",
        "tranad_engine_ready 1",
        "tranad_engine_processed_total 8",
        "tranad_stream_seen_total{stream=\"web\"} 8",
        "tranad_stream_spot_threshold{stream=\"web\"} 2.5",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    let (status, body) = get(addr, "/streams");
    assert_eq!(status, 200);
    assert!(body.contains("web 8 "), "{body}");

    // Recorder updates are visible to the next scrape (live snapshot, not
    // a render-once cache).
    rec.add("events", 1);
    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("tranad_events_total 6"), "{body}");

    // Protocol edges: unknown path, non-GET method, query strings.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = scrape(addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200, "query strings are ignored");

    exporter.shutdown();
    // The port is released: a scrape after shutdown must fail to connect
    // or be refused service (no half-dead accept loop).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can still accept; the loop must not answer.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok();
            let mut buf = String::new();
            conn.read_to_string(&mut buf).ok();
            buf.is_empty()
        }
    );
}

#[test]
fn exporter_without_an_engine_still_serves_recorder_metrics() {
    let rec = Recorder::new(MemorySink::new(64));
    rec.gauge("depth", 2.0);
    let exporter = Exporter::bind("127.0.0.1:0", rec, None).unwrap();
    let addr = exporter.addr();
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("tranad_depth 2"));
    assert!(
        !body.contains("tranad_engine_"),
        "no engine families without an engine"
    );
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("no engine"));
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/streams");
    assert_eq!(status, 200);
    assert_eq!(body.lines().count(), 1, "header only:\n{body}");
}

#[test]
fn exporter_with_a_disabled_recorder_serves_an_empty_snapshot() {
    // The disabled-path contract: snapshot() allocates nothing and the
    // exporter renders an empty (but valid) exposition.
    let exporter = Exporter::bind("127.0.0.1:0", Recorder::disabled(), None).unwrap();
    let (status, body) = get(exporter.addr(), "/metrics");
    assert_eq!(status, 200);
    assert_eq!(body, "", "no metrics families from a disabled recorder");
}

#[test]
fn oversized_request_heads_are_rejected() {
    let exporter = Exporter::bind("127.0.0.1:0", Recorder::disabled(), None).unwrap();
    let mut conn = TcpStream::connect(exporter.addr()).unwrap();
    // Just over the 8 KiB cap, but small enough that the server consumes
    // every byte before answering (a close with unread data would RST the
    // connection and race the client's read of the 400).
    let junk = format!("GET /metrics HTTP/1.0\r\nX-Junk: {}\r\n", "a".repeat(8_360));
    conn.write_all(junk.as_bytes()).unwrap();
    let mut bytes = Vec::new();
    let _ = conn.read_to_end(&mut bytes);
    let response = String::from_utf8_lossy(&bytes);
    assert!(response.starts_with("HTTP/1.0 400"), "{response}");
}
