//! Shared engine observability state: the `Arc` a serving engine publishes
//! per-stream stats and health inputs into, and the exporter reads from.
//!
//! The contract between the two sides is "bounded lock hold on both ends":
//! the publisher updates a preallocated table in place (no allocation in
//! steady state — stream names are cloned once at registration), and the
//! reader clones the whole (small) table out and renders outside the lock.
//! Scraping therefore never blocks the serving hot path for longer than
//! one `memcpy` of a few hundred bytes per stream.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Health thresholds a serving engine publishes alongside its state
/// (configured via the engine's config). A threshold of `0` (or `0.0`)
/// disables that condition — useful for engines without checkpointing or
/// with an external batch driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Unhealthy when the fullest stream queue exceeds this fraction of
    /// its capacity (`0.0` disables; default `0.9`).
    pub max_queue_saturation: f64,
    /// Unhealthy when more than this many points were processed since the
    /// last checkpoint (`0` disables; default `0` — engines without
    /// checkpoint directories should not fail health on lag).
    pub max_checkpoint_lag: u64,
    /// Unhealthy when the lifetime shed fraction
    /// `shed / (shed + processed)` exceeds this (`0.0` disables; default
    /// `0.5`).
    pub max_shed_rate: f64,
    /// Unhealthy when the last completed batch is older than this many
    /// seconds (`0.0` disables; default `0.0` — batch cadence is the
    /// driver's business unless the operator opts in).
    pub max_batch_age_s: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            max_queue_saturation: 0.9,
            max_checkpoint_lag: 0,
            max_shed_rate: 0.5,
            max_batch_age_s: 0.0,
        }
    }
}

impl HealthConfig {
    /// Validates the thresholds: fractions must lie in `[0, 1]` and no
    /// threshold may be negative or NaN.
    pub fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("max_queue_saturation", self.max_queue_saturation),
            ("max_shed_rate", self.max_shed_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a fraction in [0, 1], got {v}"));
            }
        }
        if !self.max_batch_age_s.is_finite() || self.max_batch_age_s < 0.0 {
            return Err(format!(
                "max_batch_age_s must be a non-negative number of seconds, got {}",
                self.max_batch_age_s
            ));
        }
        Ok(())
    }
}

/// The per-stream stats row a serving engine publishes after every batch.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Stream name (set once when the stream is registered).
    pub name: String,
    /// Points the stream has consumed (scored) over its lifetime.
    pub seen: u64,
    /// Points currently queued (accepted but not yet scored).
    pub queued: usize,
    /// Highest queue depth ever observed for this stream.
    pub queue_hwm: usize,
    /// Points shed by this stream's bounded queue over its lifetime.
    pub shed: u64,
    /// Points whose verdict was anomalous over the stream's lifetime.
    pub anomalies: u64,
    /// The stream's most recent anomaly score (max across dimensions;
    /// NaN until the first verdict).
    pub last_score: f64,
    /// The stream's live SPOT threshold (max across dimensions; NaN until
    /// the first publish).
    pub threshold: f64,
}

impl Default for StreamStats {
    fn default() -> Self {
        StreamStats {
            name: String::new(),
            seen: 0,
            queued: 0,
            queue_hwm: 0,
            shed: 0,
            anomalies: 0,
            last_score: f64::NAN,
            threshold: f64::NAN,
        }
    }
}

/// Engine-level counters published after every batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStatus {
    /// Registered streams.
    pub streams: usize,
    /// Lifetime points scored.
    pub processed: u64,
    /// Lifetime points shed by backpressure.
    pub shed: u64,
    /// Batches completed.
    pub batches: u64,
    /// Fullest stream queue as a fraction of its capacity, at publish time.
    pub queue_saturation: f64,
    /// Points processed since the last checkpoint (0 when checkpointing is
    /// disabled or a checkpoint just completed).
    pub checkpoint_lag: u64,
}

impl EngineStatus {
    /// Lifetime shed fraction `shed / (shed + processed)` (0 when idle).
    pub fn shed_rate(&self) -> f64 {
        let total = self.shed + self.processed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

/// A point-in-time copy of everything the engine has published, with the
/// instant-typed fields already turned into ages. This is what the
/// exporter renders from, outside the lock.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Engine-level counters.
    pub status: EngineStatus,
    /// `true` once the engine has completed (and published) a batch.
    pub published: bool,
    /// Seconds since the last completed batch (`None` before the first).
    pub last_batch_age_s: Option<f64>,
    /// Seconds since the last checkpoint (`None` before the first).
    pub last_checkpoint_age_s: Option<f64>,
    /// Per-stream stats rows, in registration order.
    pub streams: Vec<StreamStats>,
}

/// One evaluated health condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthCondition {
    /// Condition name (stable, snake_case).
    pub name: &'static str,
    /// `true` when the condition passes.
    pub ok: bool,
    /// The observed value.
    pub value: f64,
    /// The configured limit.
    pub limit: f64,
}

/// The evaluated health of a serving engine.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// `true` once the engine has completed at least one batch *and* every
    /// health condition passes — the `/readyz` answer.
    pub ready: bool,
    /// `true` when every enabled health condition passes — the `/healthz`
    /// answer (an engine that has not served yet can still be healthy).
    pub healthy: bool,
    /// Every enabled condition, in a fixed order.
    pub conditions: Vec<HealthCondition>,
}

struct ObsInner {
    status: EngineStatus,
    published: bool,
    last_batch: Option<Instant>,
    last_checkpoint: Option<Instant>,
    streams: Vec<StreamStats>,
}

/// The shared observability state of one serving engine. The engine owns
/// an `Arc<EngineObs>` and publishes into it after every batch; any number
/// of readers (the HTTP exporter, tests, an embedding application) take
/// snapshots concurrently.
pub struct EngineObs {
    thresholds: HealthConfig,
    inner: Mutex<ObsInner>,
}

impl EngineObs {
    /// Fresh, unpublished state carrying the engine's health thresholds.
    pub fn new(thresholds: HealthConfig) -> EngineObs {
        EngineObs {
            thresholds,
            inner: Mutex::new(ObsInner {
                status: EngineStatus::default(),
                published: false,
                last_batch: None,
                last_checkpoint: None,
                streams: Vec::new(),
            }),
        }
    }

    /// The published state, recovered if a panicking publisher poisoned
    /// the lock (`publish_batch` runs the caller's `fill` under it). Every
    /// field is a plain value, so a publish cut short leaves some rows from
    /// the previous batch, still well-formed: scrapes keep answering.
    fn lock(&self) -> MutexGuard<'_, ObsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The health thresholds this state was built with.
    pub fn thresholds(&self) -> HealthConfig {
        self.thresholds
    }

    /// Publisher side: appends a named, zeroed stats row (registration
    /// order defines the row index the engine uses in
    /// [`EngineObs::publish_batch`]). The one place a publish path
    /// allocates — once per stream, never per batch.
    pub fn register_stream(&self, name: &str) {
        let mut inner = self.lock();
        inner.streams.push(StreamStats { name: name.to_string(), ..StreamStats::default() });
        inner.status.streams = inner.streams.len();
    }

    /// Publisher side: records the outcome of one batch. `fill` is called
    /// once per registered stream with its index and mutable stats row;
    /// it must not block (the lock is held across the loop — the bounded
    /// lock hold the exporter's scrape contends with).
    pub fn publish_batch(
        &self,
        status: EngineStatus,
        mut fill: impl FnMut(usize, &mut StreamStats),
    ) {
        let mut inner = self.lock();
        inner.status = status;
        inner.status.streams = inner.streams.len();
        inner.last_batch = Some(Instant::now());
        inner.published = true;
        for (i, row) in inner.streams.iter_mut().enumerate() {
            fill(i, row);
        }
    }

    /// Publisher side: stamps "a checkpoint just completed".
    pub fn note_checkpoint(&self) {
        let mut inner = self.lock();
        inner.last_checkpoint = Some(Instant::now());
        inner.status.checkpoint_lag = 0;
    }

    /// Reader side: a point-in-time copy of the published state. Holds the
    /// lock only for the clone.
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.lock();
        ObsSnapshot {
            status: inner.status,
            published: inner.published,
            last_batch_age_s: inner.last_batch.map(|t| t.elapsed().as_secs_f64()),
            last_checkpoint_age_s: inner.last_checkpoint.map(|t| t.elapsed().as_secs_f64()),
            streams: inner.streams.clone(),
        }
    }

    /// Reader side: evaluates the health conditions against the published
    /// state. Conditions with a zero threshold are reported but always
    /// pass (disabled).
    pub fn health(&self) -> HealthReport {
        let snap = self.snapshot();
        Self::evaluate(&snap, self.thresholds)
    }

    /// Evaluates `thresholds` against an already-taken snapshot (pure; the
    /// exporter uses this so one scrape takes one lock, not two).
    pub fn evaluate(snap: &ObsSnapshot, thresholds: HealthConfig) -> HealthReport {
        let enabled = |limit: f64| limit > 0.0;
        let batch_age = snap.last_batch_age_s.unwrap_or(0.0);
        let conditions = vec![
            HealthCondition {
                name: "queue_saturation",
                ok: !enabled(thresholds.max_queue_saturation)
                    || snap.status.queue_saturation <= thresholds.max_queue_saturation,
                value: snap.status.queue_saturation,
                limit: thresholds.max_queue_saturation,
            },
            HealthCondition {
                name: "checkpoint_lag",
                ok: thresholds.max_checkpoint_lag == 0
                    || snap.status.checkpoint_lag <= thresholds.max_checkpoint_lag,
                value: snap.status.checkpoint_lag as f64,
                limit: thresholds.max_checkpoint_lag as f64,
            },
            HealthCondition {
                name: "shed_rate",
                ok: !enabled(thresholds.max_shed_rate)
                    || snap.status.shed_rate() <= thresholds.max_shed_rate,
                value: snap.status.shed_rate(),
                limit: thresholds.max_shed_rate,
            },
            HealthCondition {
                name: "batch_age_s",
                ok: !enabled(thresholds.max_batch_age_s)
                    || batch_age <= thresholds.max_batch_age_s,
                value: batch_age,
                limit: thresholds.max_batch_age_s,
            },
        ];
        let healthy = conditions.iter().all(|c| c.ok);
        HealthReport { ready: snap.published && healthy, healthy, conditions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_config_rejects_out_of_range_thresholds() {
        assert!(HealthConfig::default().check().is_ok());
        let bad = HealthConfig { max_queue_saturation: 1.5, ..HealthConfig::default() };
        assert!(bad.check().is_err());
        let bad = HealthConfig { max_shed_rate: -0.1, ..HealthConfig::default() };
        assert!(bad.check().is_err());
        let bad = HealthConfig { max_shed_rate: f64::NAN, ..HealthConfig::default() };
        assert!(bad.check().is_err());
        let bad = HealthConfig { max_batch_age_s: -1.0, ..HealthConfig::default() };
        assert!(bad.check().is_err());
    }

    #[test]
    fn unpublished_state_is_healthy_but_not_ready() {
        let obs = EngineObs::new(HealthConfig::default());
        let report = obs.health();
        assert!(report.healthy, "an idle engine is healthy");
        assert!(!report.ready, "an engine that never batched is not ready");
        assert!(!obs.snapshot().published);
    }

    #[test]
    fn publish_flips_ready_and_conditions_track_thresholds() {
        let obs = EngineObs::new(HealthConfig {
            max_queue_saturation: 0.5,
            max_checkpoint_lag: 10,
            ..HealthConfig::default()
        });
        obs.register_stream("a");
        obs.publish_batch(
            EngineStatus { processed: 4, queue_saturation: 0.25, checkpoint_lag: 3, ..Default::default() },
            |_, row| {
                row.seen = 4;
                row.threshold = 1.5;
            },
        );
        let report = obs.health();
        assert!(report.ready && report.healthy);
        let snap = obs.snapshot();
        assert_eq!(snap.streams.len(), 1);
        assert_eq!(snap.streams[0].name, "a");
        assert_eq!(snap.streams[0].seen, 4);
        assert!(snap.last_batch_age_s.unwrap() >= 0.0);
        assert!(snap.last_checkpoint_age_s.is_none());

        // Saturate past the threshold: unhealthy AND unready.
        obs.publish_batch(
            EngineStatus { queue_saturation: 0.9, ..snap.status },
            |_, _| {},
        );
        let report = obs.health();
        assert!(!report.healthy && !report.ready);
        let failing: Vec<_> =
            report.conditions.iter().filter(|c| !c.ok).map(|c| c.name).collect();
        assert_eq!(failing, vec!["queue_saturation"]);

        // Checkpoint lag over the limit also fails; note_checkpoint clears it.
        obs.publish_batch(
            EngineStatus { queue_saturation: 0.1, checkpoint_lag: 99, ..snap.status },
            |_, _| {},
        );
        assert!(!obs.health().healthy);
        obs.note_checkpoint();
        assert!(obs.health().healthy);
        assert!(obs.snapshot().last_checkpoint_age_s.is_some());
    }

    #[test]
    fn zero_thresholds_disable_their_conditions() {
        let obs = EngineObs::new(HealthConfig {
            max_queue_saturation: 0.0,
            max_checkpoint_lag: 0,
            max_shed_rate: 0.0,
            max_batch_age_s: 0.0,
        });
        obs.publish_batch(
            EngineStatus {
                queue_saturation: 1.0,
                checkpoint_lag: u64::MAX,
                shed: 1000,
                processed: 1,
                ..Default::default()
            },
            |_, _| {},
        );
        let report = obs.health();
        assert!(report.healthy && report.ready, "disabled conditions must not fail");
        assert!(report.conditions.iter().all(|c| c.ok));
    }

    #[test]
    fn shed_rate_is_a_fraction_of_offered_load() {
        let s = EngineStatus { processed: 75, shed: 25, ..Default::default() };
        assert_eq!(s.shed_rate(), 0.25);
        assert_eq!(EngineStatus::default().shed_rate(), 0.0);
    }
}
