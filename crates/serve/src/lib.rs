//! # tranad-serve
//!
//! Crash-safe streaming serving for TranAD — the production shell around
//! the paper's Algorithm 2 deployment mode.
//!
//! An [`Engine`] owns one trained model and fans incoming datapoints across
//! per-stream [`tranad::OnlineState`]s (bounded history ring + streaming
//! SPOT thresholds per stream). The design targets the ROADMAP's
//! heavy-traffic serving story:
//!
//! - **Cross-stream batched inference**: producers enqueue points with
//!   [`Engine::push`] / [`Engine::push_id`] (cheap — validation plus a
//!   copy into pooled row storage); [`Engine::run_batch`] gathers one
//!   pending point from every active stream per round, stacks their
//!   windows and contexts into a single `[n, window, m]` / `[n, context,
//!   m]` batch and runs **one** tape-free forward through the shared model
//!   for all of them, then scatters the per-row outputs back into each
//!   stream's SPOT state. Every kernel in the stack reduces per row, so
//!   the batched forward is bitwise-identical to per-stream forwards
//!   ([`tranad::OnlineState::push`]), the reference the parity gate
//!   (`tests/batch_parity.rs`) compares against.
//! - **Handle-based stream API**: [`Engine::stream_id`] interns a stream
//!   name into a copyable [`StreamId`]; the hot path ([`Engine::push_id`],
//!   [`StreamVerdicts::stream`]) deals only in ids, with
//!   [`Engine::stream_name`] as the resolver, so no per-batch name clones.
//! - **Bounded queues with explicit backpressure**: a full queue sheds the
//!   point ([`PushOutcome::Shed`]) instead of blocking the producer or
//!   growing without bound; shed totals are counted and traced.
//! - **Crash safety**: every `checkpoint_every` processed points the
//!   engine atomically persists every stream's full streaming state; [`Engine::resume`] restarts from the latest
//!   checkpoint and continues with bitwise-identical verdicts. Points that
//!   were processed after the last checkpoint are simply re-scored on
//!   replay — determinism makes the replay exact.
//! - **Observability**: `serve.batch` / `serve.batch_forward` spans,
//!   `serve.push_us` latency histograms, queue-depth / state-rows /
//!   batch-occupancy gauges and the `serve.checkpoints` counter flow
//!   through `tranad-telemetry`, so `trace-report` attributes serving time
//!   like any other pipeline phase. Sheds and the stream count are
//!   exported once, from the engine's published state
//!   (`engine_shed_total`, `stream_shed_total`, `engine_streams`).
//!
//! The `tranad` core types serving callers name ([`TrainedTranad`],
//! [`OnlineState`], [`OnlineVerdict`], [`DetectorError`], [`PersistError`],
//! [`PotConfig`]) are re-exported here. (The re-export points this way — serve → tranad —
//! because `tranad-serve` depends on the `tranad` facade, not the other
//! way around.)
//!
//! ```no_run
//! use tranad_serve::{Engine, EngineConfig, TrainedTranad};
//!
//! let trained = TrainedTranad::load("model.json").unwrap();
//! let config = EngineConfig::builder().checkpoint_every(256).build().unwrap();
//! // Resumes from the latest checkpoint under ./ckpts, if any.
//! let mut engine = Engine::resume(trained, config, "ckpts").unwrap();
//! let web = engine.stream_id("web-frontend").unwrap();
//! engine.push_id(web, &[0.3, 0.7]).unwrap();
//! let report = engine.run_batch().unwrap();
//! for sv in &report.verdicts {
//!     for v in &sv.verdicts {
//!         if v.anomalous {
//!             println!("{}: anomaly!", engine.stream_name(sv.stream).unwrap());
//!         }
//!     }
//! }
//! ```

mod checkpoint;
mod engine;

pub use engine::{BatchReport, Engine, PushOutcome, StreamId, StreamVerdicts};

// The `tranad` core types serving callers name.
pub use tranad::{DetectorError, OnlineState, OnlineVerdict, PersistError, TrainedTranad};
pub use tranad_evt::PotConfig;
// `EngineConfig.health` carries these thresholds; the other observability
// types are named through `tranad_obs`, where the exporter lives.
pub use tranad_obs::HealthConfig;

use std::fmt;

/// Serving-engine configuration. Construct through
/// [`EngineConfig::builder`] for up-front validation, consistent with
/// `TranadConfig` and friends; direct struct construction remains possible
/// (the [`Engine`] constructors re-run `EngineConfig::check`).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// SPOT calibration, run once by the [`Engine`] constructors; every new
    /// stream starts from it.
    pub pot: PotConfig,
    /// Per-stream bounded queue capacity; a push beyond it is shed.
    pub max_queue: usize,
    /// Maximum points drained per stream per [`Engine::run_batch`] call.
    pub batch_max: usize,
    /// Automatically checkpoint after this many processed points
    /// (`0` disables checkpointing).
    pub checkpoint_every: u64,
    /// Checkpoint files retained on disk (older ones are pruned).
    pub keep_checkpoints: usize,
    /// Health thresholds published with the engine's observability state
    /// and evaluated by `/healthz` / `/readyz` (see [`Engine::obs`]).
    pub health: HealthConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pot: PotConfig::default(),
            max_queue: 256,
            batch_max: 64,
            checkpoint_every: 0,
            keep_checkpoints: 2,
            health: HealthConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Starts a validating builder seeded with the defaults:
    /// `EngineConfig::builder().batch_max(32).build()?`.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }

    /// Validates the configuration. Prefer constructing through
    /// [`EngineConfig::builder`], which calls this for you.
    pub(crate) fn check(&self) -> Result<(), ServeError> {
        if self.max_queue == 0 {
            return Err(ServeError::InvalidConfig(
                "max_queue must be >= 1".to_string(),
            ));
        }
        if self.batch_max == 0 {
            return Err(ServeError::InvalidConfig(
                "batch_max must be >= 1".to_string(),
            ));
        }
        if self.keep_checkpoints == 0 {
            return Err(ServeError::InvalidConfig(
                "keep_checkpoints must be >= 1".to_string(),
            ));
        }
        self.health.check().map_err(ServeError::InvalidConfig)?;
        self.pot
            .check()
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))
    }
}

/// Validating builder for [`EngineConfig`]. Every setter overrides one
/// default field; [`EngineConfigBuilder::build`] rejects out-of-range
/// combinations (`batch_max == 0`, `max_queue == 0`,
/// `keep_checkpoints == 0`, bad POT parameters) up front instead of
/// misbehaving at runtime.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// SPOT calibration, run once by the [`Engine`] constructors; every new
    /// stream starts from it.
    pub fn pot(mut self, pot: PotConfig) -> Self {
        self.config.pot = pot;
        self
    }

    /// Per-stream bounded queue capacity; a push beyond it is shed.
    pub fn max_queue(mut self, max_queue: usize) -> Self {
        self.config.max_queue = max_queue;
        self
    }

    /// Maximum points drained per stream per [`Engine::run_batch`] call.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// Automatic checkpoint cadence in processed points (`0` disables).
    pub fn checkpoint_every(mut self, checkpoint_every: u64) -> Self {
        self.config.checkpoint_every = checkpoint_every;
        self
    }

    /// Health thresholds published with the engine's observability state.
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.config.health = health;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, ServeError> {
        self.config.check()?;
        Ok(self.config)
    }
}

/// Why the serving layer could not accept, score or persist work.
#[derive(Debug)]
pub enum ServeError {
    /// The detection layer rejected the work (bad input, SPOT failure, ...).
    Detector(DetectorError),
    /// Checkpoint I/O or decoding failed.
    Persist(PersistError),
    /// The serving configuration is out of range.
    InvalidConfig(String),
    /// A [`StreamId`] that this engine never issued (stale or from another
    /// engine) was passed to an id-based method.
    UnknownStream(StreamId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Detector(e) => write!(f, "detector error: {e}"),
            ServeError::Persist(e) => write!(f, "checkpoint error: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::UnknownStream(id) => {
                write!(
                    f,
                    "unknown stream handle {id:?} (not issued by this engine)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Detector(e) => Some(e),
            ServeError::Persist(e) => Some(e),
            ServeError::InvalidConfig(_) | ServeError::UnknownStream(_) => None,
        }
    }
}

impl From<DetectorError> for ServeError {
    fn from(e: DetectorError) -> Self {
        ServeError::Detector(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_overrides_and_validates() {
        let c = EngineConfig::builder()
            .max_queue(512)
            .batch_max(16)
            .checkpoint_every(40)
            .build()
            .unwrap();
        assert_eq!(c.max_queue, 512);
        assert_eq!(c.batch_max, 16);
        assert_eq!(c.checkpoint_every, 40);

        assert!(matches!(
            EngineConfig::builder().batch_max(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            EngineConfig::builder().max_queue(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        let no_checkpoints = EngineConfig {
            keep_checkpoints: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            no_checkpoints.check(),
            Err(ServeError::InvalidConfig(_))
        ));
        let bad_pot = PotConfig {
            q: 2.0,
            ..PotConfig::default()
        };
        assert!(matches!(
            EngineConfig::builder().pot(bad_pot).build(),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn checkpoint_every_zero_is_valid() {
        // 0 means "no automatic checkpoints", not an error.
        assert_eq!(EngineConfig::builder().build().unwrap().checkpoint_every, 0);
    }
}
