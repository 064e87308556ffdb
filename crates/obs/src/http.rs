//! A tiny blocking HTTP/1.0 exporter over `std::net` — just enough
//! protocol to be scraped by Prometheus, a load balancer's health checker,
//! or a `TcpStream` in a smoke test. No external dependencies, no async
//! runtime: one background thread accepts connections and answers them
//! serially.
//!
//! ## Threading model
//!
//! The exporter thread never touches engine or recorder internals beyond
//! two bounded-lock-hold reads per request: `Recorder::snapshot()` (clone
//! of the metric table under the recorder's metrics mutex) and
//! `EngineObs::snapshot()` (clone of the published stats table). Rendering
//! happens outside both locks, so a slow scraper can delay *other
//! scrapers* (requests are serial) but never the serving hot path.
//! Per-connection read/write timeouts bound how long a stalled client can
//! wedge the exporter itself.

use crate::prom;
use crate::state::EngineObs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tranad_telemetry::Recorder;

/// How long one scrape connection may stall reads or writes before the
/// exporter drops it and serves the next one.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Maximum request head the exporter will buffer before answering 400.
const MAX_REQUEST: usize = 8 * 1024;

/// The live metrics/health endpoint of one process: serves `/metrics`,
/// `/healthz`, `/readyz` and `/streams` until dropped or shut down.
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`Exporter::addr`]) and starts the background accept loop. `rec` is
    /// the recorder whose metric snapshot `/metrics` renders; `engine` is
    /// the serving engine's published state, or `None` for a process that
    /// only exports recorder metrics (then `/healthz` and `/readyz` always
    /// answer 200 and `/streams` is an empty table).
    pub fn bind(
        addr: impl ToSocketAddrs,
        rec: Recorder,
        engine: Option<Arc<EngineObs>>,
    ) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("tranad-obs-exporter".to_string())
            .spawn(move || accept_loop(listener, rec, engine, thread_stop))?;
        Ok(Exporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the exporter thread. Also runs on
    /// drop; the explicit form exists for callers that want the join to
    /// happen at a chosen point.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    rec: Recorder,
    engine: Option<Arc<EngineObs>>,
    stop: Arc<AtomicBool>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut conn) = conn else { continue };
        let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
        let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
        // A failed scrape must never take the exporter down.
        let _ = handle_request(&mut conn, &rec, engine.as_deref());
    }
}

/// Reads the request head (through the blank line) and answers it.
fn handle_request(
    conn: &mut TcpStream,
    rec: &Recorder,
    engine: Option<&EngineObs>,
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && !head.windows(2).any(|w| w == b"\n\n") {
        if head.len() > MAX_REQUEST {
            return respond(conn, 400, "request head too large\n");
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(conn, 405, "only GET is supported\n");
    }
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/metrics" => {
            let mut body = String::new();
            prom::render_metrics(&rec.snapshot(), &mut body);
            if let Some(obs) = engine {
                let snap = obs.snapshot();
                let report = EngineObs::evaluate(&snap, obs.thresholds());
                prom::render_engine(&snap, &report, &mut body);
            }
            respond(conn, 200, &body)
        }
        "/healthz" | "/readyz" => {
            let ready_mode = path == "/readyz";
            match engine {
                Some(obs) => {
                    let report = obs.health();
                    let ok = if ready_mode {
                        report.ready
                    } else {
                        report.healthy
                    };
                    let mut body = String::new();
                    prom::render_health(&report, ready_mode, &mut body);
                    respond(conn, if ok { 200 } else { 503 }, &body)
                }
                None => respond(conn, 200, "ok (no engine)\n"),
            }
        }
        "/streams" => {
            let mut body = String::new();
            match engine {
                Some(obs) => prom::render_streams_table(&obs.snapshot(), &mut body),
                None => prom::render_streams_table(
                    &crate::state::ObsSnapshot {
                        status: Default::default(),
                        published: false,
                        last_batch_age_s: None,
                        last_checkpoint_age_s: None,
                        streams: Vec::new(),
                    },
                    &mut body,
                ),
            }
            respond(conn, 200, &body)
        }
        _ => respond(
            conn,
            404,
            "not found; try /metrics /healthz /readyz /streams\n",
        ),
    }
}

fn respond(conn: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.0 {status} {reason}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(header.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}
