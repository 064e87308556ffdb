//! The cross-stream batching serving engine.
//!
//! Producers call [`Engine::push_id`] (validate + copy into pooled row
//! storage, never blocking); a driver loop calls [`Engine::run_batch`],
//! which gathers one pending point from **every** active stream per round,
//! stacks their replication-padded windows and contexts into a single
//! `[n, window, m]` / `[n, context, m]` batch, runs one tape-free forward
//! through the shared model for all of them, and scatters the per-row
//! outputs back into each stream's SPOT/verdict state. Streams with deeper
//! queues simply stay active for more rounds (ragged batching), so uneven
//! producers never stall each other.
//!
//! Batching is bitwise-safe: every kernel in the forward stack (matmul,
//! layer-norm, softmax, attention scores, elementwise) reduces per row or
//! per plane with a summation order that depends only on the row's own
//! contents, and thread-pool chunk boundaries depend only on problem size —
//! never on `TRANAD_THREADS` or the number of co-batched rows. Row `r` of a
//! stacked forward therefore produces exactly the f64 bits a batch-1
//! forward of that stream would ([`OnlineState::push`]), which
//! `tests/batch_parity.rs` pins across stream counts and thread counts.

use crate::checkpoint::{self, ServeCheckpoint, StreamState, CHECKPOINT_VERSION};
use crate::{EngineConfig, ServeError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tranad::{DetectorError, OnlineState, OnlineVerdict, TrainedTranad};
use tranad_nn::{Fwd, InferCtx, InferWorkspace};
use tranad_obs::{EngineObs, EngineStatus};
use tranad_telemetry::Recorder;

/// An interned stream handle issued by [`Engine::stream_id`]: a copyable
/// index into the engine's slot table, valid for the engine's lifetime
/// (streams are never removed). The hot path deals only in ids; resolve
/// one back to its name with [`Engine::stream_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// The handle's dense slot index (0-based, in registration order) —
    /// handy for indexing caller-side per-stream tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The outcome of enqueueing one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Accepted; `depth` is the stream queue's depth after the append.
    Enqueued {
        /// Queue depth including this point.
        depth: usize,
    },
    /// The stream's bounded queue is full: the point was dropped (explicit
    /// load-shedding — the producer sees backpressure instead of blocking,
    /// and the drop is counted once per stream and once for the engine,
    /// exported as `stream_shed_total` and `engine_shed_total`).
    Shed {
        /// Queue depth at the time of the drop (= `max_queue`).
        depth: usize,
    },
}

/// The verdicts one [`Engine::run_batch`] produced for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamVerdicts {
    /// Stream handle; resolve with [`Engine::stream_name`]. An id, not a
    /// cloned name — batch reports allocate nothing per stream beyond the
    /// verdicts themselves.
    pub stream: StreamId,
    /// Stream-local sequence number of `verdicts[0]` (0-based count of
    /// points the stream had consumed before this batch).
    pub first_seq: u64,
    /// One verdict per processed point, in arrival order.
    pub verdicts: Vec<OnlineVerdict>,
}

/// What one [`Engine::run_batch`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Points scored across all streams.
    pub processed: usize,
    /// Per-stream verdicts (streams with work this batch, in registration
    /// order).
    pub verdicts: Vec<StreamVerdicts>,
    /// Path of the checkpoint written by the automatic policy, if any.
    pub checkpoint: Option<PathBuf>,
}

/// Bounded FIFO of fixed-width rows in one flat allocation: `cap × dims`
/// f64s allocated once when the stream is registered, so the push hot path
/// copies the point into pooled row storage instead of allocating a
/// `Vec<f64>` per point.
struct RowQueue {
    buf: Vec<f64>,
    head: usize,
    len: usize,
    dims: usize,
}

impl RowQueue {
    fn new(cap: usize, dims: usize) -> RowQueue {
        RowQueue {
            buf: vec![0.0; cap * dims],
            head: 0,
            len: 0,
            dims,
        }
    }

    fn cap(&self) -> usize {
        self.buf.len() / self.dims
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends one row; `false` when full (the caller sheds the point).
    fn push(&mut self, row: &[f64]) -> bool {
        let cap = self.cap();
        if self.len == cap {
            return false;
        }
        let at = (self.head + self.len) % cap;
        self.buf[at * self.dims..(at + 1) * self.dims].copy_from_slice(row);
        self.len += 1;
        true
    }

    /// The oldest queued row, if any.
    fn front(&self) -> Option<&[f64]> {
        (self.len > 0).then(|| &self.buf[self.head * self.dims..(self.head + 1) * self.dims])
    }

    /// Drops the oldest queued row.
    fn pop(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty RowQueue");
        self.head = (self.head + 1) % self.cap();
        self.len -= 1;
    }
}

/// One served stream: its bounded input queue and streaming state. The
/// [`OnlineState`] owns the stream's history ring and SPOT thresholders;
/// the engine owns the (shared) forward workspace, so a slot is exactly
/// the per-stream state plus its queue.
struct StreamSlot {
    name: String,
    state: OnlineState,
    queue: RowQueue,
    /// Verdicts produced by the in-flight batch.
    out: Vec<OnlineVerdict>,
    /// `state.seen()` when the in-flight batch started.
    first_seq: u64,
    /// Points this batch still owes the stream (planned minus scored).
    take: usize,
    /// Lifetime points shed by this stream's bounded queue.
    shed: u64,
    /// Lifetime points whose verdict was anomalous.
    anomalies: u64,
    /// The most recent verdict's anomaly score (max across dimensions;
    /// NaN until the first verdict).
    last_score: f64,
    /// Highest queue depth ever observed.
    queue_hwm: usize,
}

/// A multi-stream, cross-stream-batching, crash-safe serving engine. See
/// the crate docs for the design.
pub struct Engine {
    trained: TrainedTranad,
    config: EngineConfig,
    /// A new stream's state: SPOT calibrated once, on the model's training
    /// scores, and cloned for every stream the engine creates.
    fresh: OnlineState,
    streams: Vec<StreamSlot>,
    /// Stream name → slot index. BTreeMap so checkpoints list streams in a
    /// deterministic (sorted) order.
    index: BTreeMap<String, usize>,
    dims: usize,
    /// Lifetime points scored (survives resume via the checkpoint).
    processed: u64,
    /// Lifetime points shed (survives resume via the checkpoint).
    shed: u64,
    /// Points processed since the last checkpoint.
    since_ckpt: u64,
    ckpt_dir: Option<PathBuf>,
    ckpt_seq: u64,
    /// Batches completed (either path).
    batches: u64,
    /// Shared observability state: [`Engine::run_batch`] publishes the
    /// per-stream stats table and health inputs here after every batch;
    /// the `tranad-obs` exporter (and anything else holding the `Arc`)
    /// reads it with a bounded lock hold, so scraping never blocks the
    /// scoring hot path.
    obs: Arc<EngineObs>,
    /// [`tranad_telemetry::current`] at construction, resolved once so the
    /// hot path pays nothing to find it; installed around each batch.
    rec: Recorder,
    /// Reusable `[n, window, m]` / `[n, context, m]` input stacks for the
    /// cross-stream batched forward, resized per ragged round.
    workspace: InferWorkspace,
    /// Scratch: slot indices of the streams active in the current round.
    active: Vec<usize>,
}

impl Engine {
    /// Creates an engine with no checkpoint directory (in-memory only).
    /// Traces to [`tranad_telemetry::current`] as resolved here. SPOT is
    /// calibrated here, once for every stream, so a model whose training
    /// scores cannot calibrate it fails here with
    /// [`DetectorError::PotFitFailed`].
    pub fn new(trained: TrainedTranad, config: EngineConfig) -> Result<Engine, ServeError> {
        config.check()?;
        let dims = trained.model.dims();
        let fresh = OnlineState::new(&trained, config.pot)?;
        Ok(Engine {
            trained,
            config,
            fresh,
            streams: Vec::new(),
            index: BTreeMap::new(),
            dims,
            processed: 0,
            shed: 0,
            since_ckpt: 0,
            ckpt_dir: None,
            ckpt_seq: 0,
            batches: 0,
            obs: Arc::new(EngineObs::new(config.health)),
            rec: tranad_telemetry::current(),
            workspace: InferWorkspace::new(),
            active: Vec::new(),
        })
    }

    /// Creates an engine that checkpoints into `dir` and, if `dir` already
    /// holds a checkpoint, resumes every stream from the newest readable
    /// one — the resumed engine's future verdicts are bitwise-identical to
    /// an uninterrupted run's. Traces like [`Engine::new`].
    pub fn resume(
        trained: TrainedTranad,
        config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Engine, ServeError> {
        let dir = dir.as_ref().to_path_buf();
        let loaded = checkpoint::latest(&dir)?;
        let mut engine = Self::new(trained, config)?;
        engine.ckpt_dir = Some(dir);
        if let Some(ck) = loaded {
            for entry in &ck.streams {
                if engine.index.contains_key(&entry.name) {
                    return Err(ServeError::Persist(tranad::PersistError::Corrupt(format!(
                        "checkpoint lists stream {:?} twice",
                        entry.name
                    ))));
                }
                let state = OnlineState::restore(&engine.trained, &entry.snapshot)?;
                engine.register(entry.name.clone(), state);
            }
            engine.processed = ck.processed;
            engine.shed = ck.shed;
            engine.ckpt_seq = ck.seq;
            engine.rec.emit("serve.resume", |e| {
                e.u64("seq", ck.seq)
                    .u64("streams", ck.streams.len() as u64)
                    .u64("processed", ck.processed);
            });
        }
        Ok(engine)
    }

    /// Interns a stream name into a copyable [`StreamId`] handle, creating
    /// the stream on first sight. Producers should intern once and use
    /// [`Engine::push_id`] afterwards — the id path does no name lookup.
    pub fn stream_id(&mut self, stream: &str) -> Result<StreamId, ServeError> {
        Ok(StreamId(self.ensure_stream(stream) as u32))
    }

    /// Resolves a [`StreamId`] back to its name, or `None` for a handle
    /// this engine never issued.
    pub fn stream_name(&self, id: StreamId) -> Option<&str> {
        self.streams.get(id.index()).map(|s| s.name.as_str())
    }

    /// Validates and enqueues one raw datapoint for the stream behind
    /// `id`. Never blocks: when the stream's bounded queue is full the
    /// point is shed and the caller is told. Malformed input (wrong width,
    /// NaN/±Inf) is rejected up front with an error — it never reaches the
    /// queue, so it can never poison stream state. The accepted point is
    /// copied into the stream's preallocated row storage; nothing is
    /// allocated on this path.
    pub fn push_id(&mut self, id: StreamId, point: &[f64]) -> Result<PushOutcome, ServeError> {
        let started = self.rec.enabled().then(Instant::now);
        self.validate_point(point)?;
        let slot = self
            .streams
            .get_mut(id.index())
            .ok_or(ServeError::UnknownStream(id))?;
        let outcome = if slot.queue.push(point) {
            slot.queue_hwm = slot.queue_hwm.max(slot.queue.len());
            PushOutcome::Enqueued {
                depth: slot.queue.len(),
            }
        } else {
            slot.shed += 1;
            self.shed += 1;
            PushOutcome::Shed {
                depth: slot.queue.len(),
            }
        };
        if let Some(started) = started {
            self.rec
                .observe("serve.push_us", 1e6 * started.elapsed().as_secs_f64());
        }
        Ok(outcome)
    }

    /// Validates and enqueues one raw datapoint for `stream` by name,
    /// creating the stream on first sight — a thin wrapper that interns
    /// the name and calls [`Engine::push_id`]. A malformed point is
    /// rejected *before* the stream is created.
    pub fn push(&mut self, stream: &str, point: &[f64]) -> Result<PushOutcome, ServeError> {
        self.validate_point(point)?;
        let id = self.stream_id(stream)?;
        self.push_id(id, point)
    }

    fn validate_point(&self, point: &[f64]) -> Result<(), ServeError> {
        if point.len() != self.dims {
            return Err(DetectorError::DimensionMismatch {
                expected: self.dims,
                got: point.len(),
            }
            .into());
        }
        if let Some(dim) = point.iter().position(|v| !v.is_finite()) {
            return Err(DetectorError::NonFiniteInput { dim }.into());
        }
        Ok(())
    }

    /// Drains up to `batch_max` queued points per stream through
    /// cross-stream batched forwards: each round gathers one pending point
    /// from every still-active stream, stacks their windows and contexts,
    /// runs **one** tape-free forward for all of them (`serve.batch_forward`
    /// span), and scatters the per-row scores back into each stream's SPOT
    /// state. Streams with deeper queues stay active for more rounds
    /// (ragged batching). Verdicts are bitwise-identical to pushing each
    /// stream's points through its own [`OnlineState::push`] — and
    /// independent of the thread count — because every kernel reduces per
    /// row. Returns the verdicts plus what the automatic checkpoint policy
    /// did.
    pub fn run_batch(&mut self) -> Result<BatchReport, ServeError> {
        let _scope = self.rec.span_scope();
        let _span = tranad_telemetry::span::enter("serve.batch");
        let rounds_max = self.plan();
        let config = *self.trained.model.config();
        let (k, c, m) = (config.window, config.context, self.dims);
        let mut rounds = 0u64;
        let mut occupancy = 0u64;
        for _ in 0..rounds_max {
            let Engine {
                trained,
                streams,
                workspace,
                active,
                ..
            } = &mut *self;
            active.clear();
            active.extend(
                streams
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.take > 0)
                    .map(|(i, _)| i),
            );
            let n = active.len();
            if n == 0 {
                break;
            }

            // Gather: one point per active stream into row r of the stacks.
            let (wbuf, cbuf) = workspace.stage(n, k, c, m);
            for (r, &si) in active.iter().enumerate() {
                let StreamSlot {
                    queue, state, take, ..
                } = &mut streams[si];
                let point = queue.front().expect("planned round has a queued row");
                state.ingest(trained, point)?;
                queue.pop();
                state.stage_tail(
                    &mut wbuf[r * k * m..(r + 1) * k * m],
                    &mut cbuf[r * c * m..(r + 1) * c * m],
                );
                *take -= 1;
            }

            // One tape-free forward for the whole round.
            let _fwd = tranad_telemetry::span::enter("serve.batch_forward");
            let ctx = InferCtx::new(&trained.store);
            let w = ctx.input(workspace.window().clone());
            let cx = ctx.input(workspace.context().clone());
            let out = trained.model.forward(&ctx, &w, &cx);
            drop(_fwd);

            // Scatter: row r of the output belongs to stream active[r].
            let (wd, o1, o2h) = (w.data(), out.o1.data(), out.o2_hat.data());
            for (r, &si) in active.iter().enumerate() {
                let slot = &mut streams[si];
                let row = r * k * m..(r + 1) * k * m;
                let verdict =
                    slot.state
                        .apply_scores(&wd[row.clone()], &o1[row.clone()], &o2h[row]);
                slot.out.push(verdict);
            }
            rounds += 1;
            occupancy += n as u64;
        }
        self.finish(rounds, occupancy)
    }

    /// Plans one batch: snapshots each stream's starting sequence number
    /// and how many of its queued points this batch will take. Returns the
    /// number of ragged rounds the batch needs (the deepest take).
    fn plan(&mut self) -> usize {
        let batch_max = self.config.batch_max;
        let mut rounds = 0;
        for slot in &mut self.streams {
            slot.take = slot.queue.len().min(batch_max);
            slot.first_seq = slot.state.seen();
            slot.out.clear();
            rounds = rounds.max(slot.take);
        }
        rounds
    }

    /// Collects verdicts, updates counters, emits batch telemetry and runs
    /// the automatic checkpoint policy at the end of [`Engine::run_batch`].
    fn finish(&mut self, rounds: u64, occupancy: u64) -> Result<BatchReport, ServeError> {
        let mut verdicts = Vec::new();
        let mut processed = 0usize;
        for (i, slot) in self.streams.iter_mut().enumerate() {
            if slot.out.is_empty() {
                continue;
            }
            slot.anomalies += slot.out.iter().filter(|v| v.anomalous).count() as u64;
            if let Some(last) = slot.out.last() {
                slot.last_score = last.scores.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            }
            processed += slot.out.len();
            verdicts.push(StreamVerdicts {
                stream: StreamId(i as u32),
                first_seq: slot.first_seq,
                verdicts: std::mem::take(&mut slot.out),
            });
        }
        self.processed += processed as u64;
        self.since_ckpt += processed as u64;
        self.batches += 1;

        if self.rec.enabled() {
            let max_depth = self
                .streams
                .iter()
                .map(|s| s.queue.len())
                .max()
                .unwrap_or(0);
            let state_rows: usize = self.streams.iter().map(|s| s.state.buffered_rows()).sum();
            self.rec.gauge("serve.queue_depth", max_depth as f64);
            self.rec.gauge("serve.state_rows", state_rows as f64);
            if rounds > 0 {
                // Mean cross-stream batch width: how many rows the shared
                // forward amortized its per-op overhead over.
                self.rec
                    .gauge("serve.batch_occupancy", occupancy as f64 / rounds as f64);
            }
            let (total_processed, total_shed) = (self.processed, self.shed);
            let n_streams = verdicts.len() as u64;
            self.rec.emit("serve.batch", |e| {
                e.u64("streams", n_streams)
                    .u64("points", processed as u64)
                    .u64("rounds", rounds)
                    .u64("processed_total", total_processed)
                    .u64("shed_total", total_shed);
            });
        }

        let checkpoint = if self.ckpt_dir.is_some()
            && self.config.checkpoint_every > 0
            && self.since_ckpt >= self.config.checkpoint_every
        {
            self.checkpoint_now()?
        } else {
            None
        };
        // Publish after the checkpoint policy so the exported checkpoint
        // lag reflects this batch's outcome, then flush the sink: a kill
        // between batches must lose no tail events from a file-backed
        // trace (JsonlSink flushes through to disk here).
        self.publish_obs();
        self.rec.flush();
        Ok(BatchReport {
            processed,
            verdicts,
            checkpoint,
        })
    }

    /// Publishes the engine's per-stream stats table and health inputs
    /// into the shared [`EngineObs`] state. In-place updates under one
    /// bounded lock hold; allocation-free in steady state (stream names
    /// were cloned at registration).
    fn publish_obs(&self) {
        let max_depth = self
            .streams
            .iter()
            .map(|s| s.queue.len())
            .max()
            .unwrap_or(0);
        let status = EngineStatus {
            streams: self.streams.len(),
            processed: self.processed,
            shed: self.shed,
            batches: self.batches,
            queue_saturation: max_depth as f64 / self.config.max_queue as f64,
            checkpoint_lag: self.since_ckpt,
        };
        let streams = &self.streams;
        self.obs.publish_batch(status, |i, row| {
            let slot = &streams[i];
            row.seen = slot.state.seen();
            row.queued = slot.queue.len();
            row.queue_hwm = slot.queue_hwm;
            row.shed = slot.shed;
            row.anomalies = slot.anomalies;
            row.last_score = slot.last_score;
            row.threshold = slot.state.spot_threshold_max();
        });
    }

    /// The engine's shared observability state: hand the `Arc` to a
    /// [`tranad_obs::Exporter`] to serve `/metrics`, `/healthz`, `/readyz`
    /// and `/streams` for this engine. Reading it never blocks
    /// [`Engine::run_batch`] beyond the bounded publish lock.
    pub fn obs(&self) -> Arc<EngineObs> {
        self.obs.clone()
    }

    /// Runs batches until every queue is empty, concatenating the verdicts
    /// per stream (keyed by name — a convenience wrapper, not a hot path).
    pub fn drain(&mut self) -> Result<BTreeMap<String, Vec<OnlineVerdict>>, ServeError> {
        let mut all: BTreeMap<String, Vec<OnlineVerdict>> = BTreeMap::new();
        loop {
            let report = self.run_batch()?;
            if report.processed == 0 {
                return Ok(all);
            }
            for sv in report.verdicts {
                let name = self.stream_name(sv.stream).expect("own report").to_string();
                all.entry(name).or_default().extend(sv.verdicts);
            }
        }
    }

    /// Atomically writes a checkpoint of every stream's full streaming
    /// state (plus engine counters) into the checkpoint directory, pruning
    /// old files beyond `keep_checkpoints`. Returns `None` when the engine
    /// has no checkpoint directory. Queued-but-unscored points are *not*
    /// checkpointed: on crash they are the producer's to retry, while every
    /// scored point's effect on stream state is recoverable.
    pub(crate) fn checkpoint_now(&mut self) -> Result<Option<PathBuf>, ServeError> {
        let Some(dir) = self.ckpt_dir.clone() else {
            return Ok(None);
        };
        self.ckpt_seq += 1;
        let ck = ServeCheckpoint {
            format_version: CHECKPOINT_VERSION,
            seq: self.ckpt_seq,
            processed: self.processed,
            shed: self.shed,
            streams: self
                .index
                .iter()
                .map(|(name, &i)| StreamState {
                    name: name.clone(),
                    snapshot: self.streams[i].state.snapshot(),
                })
                .collect(),
        };
        let path = checkpoint::write(&dir, &ck, self.config.keep_checkpoints)?;
        self.since_ckpt = 0;
        self.obs.note_checkpoint();
        self.rec.add("serve.checkpoints", 1);
        Ok(Some(path))
    }

    /// Points a stream has consumed (scored) so far, or `None` for an
    /// unknown stream. After a resume this tells the producer where to
    /// continue feeding.
    pub fn stream_seen(&self, stream: &str) -> Option<u64> {
        self.index
            .get(stream)
            .map(|&i| self.streams[i].state.seen())
    }

    /// Points currently queued (accepted but not yet scored) for a stream.
    pub fn queued(&self, stream: &str) -> Option<usize> {
        self.index.get(stream).map(|&i| self.streams[i].queue.len())
    }

    /// Lifetime points scored (continues across resume).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Lifetime points shed by backpressure (continues across resume).
    pub fn shed_total(&self) -> u64 {
        self.shed
    }

    /// Total history rows resident across all streams — bounded by
    /// `streams × max(window, context)` regardless of stream length.
    pub fn state_rows(&self) -> usize {
        self.streams.iter().map(|s| s.state.buffered_rows()).sum()
    }

    /// The served model.
    pub fn trained(&self) -> &TrainedTranad {
        &self.trained
    }

    fn ensure_stream(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.register(name.to_string(), self.fresh.clone())
    }

    fn register(&mut self, name: String, state: OnlineState) -> usize {
        let i = self.streams.len();
        self.index.insert(name.clone(), i);
        self.obs.register_stream(&name);
        self.streams.push(StreamSlot {
            name,
            state,
            queue: RowQueue::new(self.config.max_queue, self.dims),
            out: Vec::new(),
            first_seq: 0,
            take: 0,
            shed: 0,
            anomalies: 0,
            last_score: f64::NAN,
            queue_hwm: 0,
        });
        i
    }
}

#[cfg(test)]
mod tests {
    use super::RowQueue;

    #[test]
    fn row_queue_is_a_bounded_fifo_over_flat_storage() {
        let mut q = RowQueue::new(3, 2);
        assert_eq!(q.len(), 0);
        assert!(q.front().is_none());
        assert!(q.push(&[1.0, 2.0]));
        assert!(q.push(&[3.0, 4.0]));
        assert!(q.push(&[5.0, 6.0]));
        assert!(!q.push(&[7.0, 8.0]), "a full queue must refuse the row");
        assert_eq!(q.len(), 3);
        assert_eq!(q.front().unwrap(), &[1.0, 2.0]);
        q.pop();
        // Wrap-around: the freed slot is reused without reallocation.
        assert!(q.push(&[7.0, 8.0]));
        let mut drained = Vec::new();
        while let Some(row) = q.front() {
            drained.push(row.to_vec());
            q.pop();
        }
        assert_eq!(
            drained,
            vec![vec![3.0, 4.0], vec![5.0, 6.0], vec![7.0, 8.0]]
        );
        assert_eq!(q.buf.len(), 6, "storage stays a single flat allocation");
    }
}
