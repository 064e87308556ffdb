//! # tranad-obs
//!
//! Pull-based operational observability for live TranAD processes, with no
//! dependencies beyond `std::net` and the workspace's own
//! `tranad-telemetry`. Where the tracing layer (PRs 3–4) answers "what did
//! this run do?" after the fact from a JSONL file, this crate answers
//! "what is this process doing *right now*?" over HTTP:
//!
//! - **`/metrics`** — every recorder counter, gauge and log2 histogram
//!   (rendered from [`tranad_telemetry::Recorder::snapshot`], the cheap
//!   point-in-time [`tranad_telemetry::MetricsSnapshot`] view) plus, when a
//!   serving engine is attached, engine health gauges and a per-stream
//!   stats table as labeled families — all in Prometheus text exposition
//!   format 0.0.4 with deterministic family ordering.
//! - **`/healthz`** — 200/503 from the engine's published health inputs
//!   (queue saturation, checkpoint lag, shed rate, batch age) evaluated
//!   against thresholds the engine was configured with ([`HealthConfig`]).
//! - **`/readyz`** — like `/healthz`, but additionally requires that the
//!   engine has completed at least one batch.
//! - **`/streams`** — a plain-text per-stream table: points seen, queued,
//!   shed, anomaly count, last score and the live SPOT threshold.
//!
//! The seam between a serving engine and this crate is [`EngineObs`]: a
//! shared `Arc` the engine publishes into after every batch (in-place
//! updates, bounded lock hold, no steady-state allocation) and the
//! [`Exporter`] snapshots out of per scrape. Scraping never blocks the
//! scoring hot path — see `DESIGN.md` "Operational observability".
//!
//! ```no_run
//! use tranad_obs::Exporter;
//!
//! // Any process: export its recorder's metrics on an ephemeral port.
//! let rec = tranad_telemetry::global().clone();
//! let exporter = Exporter::bind("127.0.0.1:0", rec, None).unwrap();
//! println!("scrape http://{}/metrics", exporter.addr());
//! ```

mod http;
// `tests/prom.rs` names `prom::{render_metrics, render_engine, ...}`.
pub mod prom;
mod state;

pub use http::Exporter;
pub use state::{
    EngineObs, EngineStatus, HealthCondition, HealthConfig, HealthReport, ObsSnapshot, StreamStats,
};
