//! Online (streaming) inference — the deployment mode of Algorithm 2:
//! datapoints arrive one at a time, each is scored against the model using
//! only past observations, and per-dimension streaming SPOT thresholds turn
//! scores into labels on the spot.
//!
//! [`OnlineState`] is the one per-stream API: create it with
//! [`OnlineState::new`] and feed it raw points with [`OnlineState::push`],
//! passing the shared [`TrainedTranad`] on each call. The serving engine
//! (`tranad-serve`) owns one per stream.
//!
//! The streaming state is **bounded and resumable**: only the last
//! `max(window, context)` normalized rows are retained in a fixed ring
//! buffer (a 10k-point stream holds exactly as much history as a 12-point
//! one), a monotonic counter tracks the points consumed, and the whole
//! state — ring contents, counter and per-dimension SPOT tail models — can
//! be captured with [`OnlineState::snapshot`] and rebuilt with
//! [`OnlineState::restore`] so a restarted process continues with
//! bitwise-identical verdicts.

use crate::error::DetectorError;
use crate::train::{tail_scores, TrainedTranad};
use tranad_evt::{PotConfig, Spot, SpotParts};
use tranad_nn::{Fwd, InferCtx, InferWorkspace};

/// The verdict for one streamed datapoint.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineVerdict {
    /// Per-dimension anomaly scores at this timestamp.
    pub scores: Vec<f64>,
    /// Per-dimension anomaly labels (`y_i` of Eq. 14).
    pub dim_labels: Vec<bool>,
    /// Timestamp label `y = ∨_i y_i`.
    pub anomalous: bool,
}

/// A full, serializable snapshot of streaming state.
///
/// Everything a restarted process needs to continue a stream exactly where
/// it left off: the buffered history rows (oldest first), the monotonic
/// point counter and each dimension's SPOT tail model. The serving
/// engine's checkpoints persist one per stream (it implements the
/// `tranad-json` traits).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSnapshot {
    /// Dimensionality of the stream (must match the model on restore).
    pub dims: usize,
    /// Monotonic count of datapoints consumed so far.
    pub seen: u64,
    /// Buffered normalized rows, oldest first — at most
    /// `max(window, context)` of them.
    pub rows: Vec<Vec<f64>>,
    /// Per-dimension streaming SPOT state.
    pub spots: Vec<SpotParts>,
}

tranad_json::impl_json_struct!(OnlineSnapshot {
    dims,
    seen,
    rows,
    spots
});

/// Model-independent streaming state: the bounded history ring, the point
/// counter and the per-dimension SPOT thresholders.
///
/// This is the piece a serving layer owns per stream; it borrows the
/// (shared, read-only) [`TrainedTranad`] only for the duration of each
/// [`OnlineState::push`], so many streams can score against one model —
/// including in parallel, since a push only mutates its own state.
pub struct OnlineState {
    /// Ring storage: logical order runs `start..start+len` modulo capacity.
    rows: Vec<Vec<f64>>,
    start: usize,
    /// Fixed capacity `max(window, context)` — the longest tail any forward
    /// pass reads.
    cap: usize,
    /// Monotonic count of points consumed; never decreases, unlike the ring
    /// length which saturates at `cap`.
    seen: u64,
    spots: Vec<Spot>,
    dims: usize,
    /// Reusable batch-1 staging workspace: each push fills its
    /// `[1, window, dims]` / `[1, context, dims]` stacks in place instead
    /// of rebuilding the flattened window and context from scratch. The
    /// storage is uniquely owned again by the time the next push runs (the
    /// forward pass holds its clone only transiently), so the in-place
    /// write never copies.
    stage: InferWorkspace,
}

impl OnlineState {
    /// Creates fresh streaming state; SPOT is initialized from the model's
    /// training scores. Fails with [`DetectorError::PotFitFailed`] when a
    /// dimension's training scores cannot calibrate SPOT.
    pub fn new(trained: &TrainedTranad, pot: PotConfig) -> Result<Self, DetectorError> {
        let dims = trained.model.dims();
        let config = trained.model.config();
        let mut spots = Vec::with_capacity(dims);
        for d in 0..dims {
            let calib: Vec<f64> = trained.train_scores.iter().map(|r| r[d]).collect();
            spots.push(Spot::try_init(&calib, pot).map_err(|e| DetectorError::pot(d, e))?);
        }
        let cap = config.window.max(config.context);
        Ok(OnlineState {
            rows: Vec::with_capacity(cap),
            start: 0,
            cap,
            seen: 0,
            spots,
            dims,
            stage: InferWorkspace::new(),
        })
    }

    /// Number of datapoints consumed so far (the monotonic counter — not
    /// the ring length, which is bounded by `max(window, context)`).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// History rows currently resident (`<= max(window, context)`, always).
    pub fn buffered_rows(&self) -> usize {
        self.rows.len()
    }

    /// The largest live SPOT threshold across all dimensions — the
    /// single-number "how far from alarming is this stream" summary a
    /// per-stream stats table reports.
    pub fn spot_threshold_max(&self) -> f64 {
        self.spots
            .iter()
            .map(|s| s.threshold)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Consumes one raw datapoint and returns its verdict.
    ///
    /// Fails with [`DetectorError::DimensionMismatch`] when the datapoint's
    /// width does not match the model and [`DetectorError::NonFiniteInput`]
    /// when it contains NaN/±Inf; both checks run before any state is
    /// touched, so the stream continues cleanly on the next valid point.
    ///
    /// This is the composition of the split halves ([`OnlineState::ingest`],
    /// [`OnlineState::stage_tail`], a batch-1 tape-free forward, then
    /// [`OnlineState::apply_scores`]) and doubles as the per-stream
    /// reference implementation the serving engine's cross-stream batched
    /// forward is bitwise-gated against.
    pub fn push(
        &mut self,
        trained: &TrainedTranad,
        datapoint: &[f64],
    ) -> Result<OnlineVerdict, DetectorError> {
        self.ingest(trained, datapoint)?;

        // Assemble the current window and context with replication padding
        // (exactly §3.2's W_t and C_t) in the per-state staging workspace.
        let config = trained.model.config();
        let (wdst, cdst) = self
            .stage
            .stage(1, config.window, config.context, self.dims);
        fill_tail(&self.rows, self.start, wdst);
        fill_tail(&self.rows, self.start, cdst);

        // Scoring never backpropagates, so the forward pass runs on
        // detached values: the training ops over pooled buffers, recording
        // no tape nodes, bitwise-identical outputs to the taped path.
        let _fwd = tranad_telemetry::span::enter("infer.forward");
        let ctx = InferCtx::new(&trained.store);
        let w = ctx.input(self.stage.window().clone());
        let c = ctx.input(self.stage.context().clone());
        let out = trained.model.forward(&ctx, &w, &c);
        drop(_fwd);
        Ok(self.apply_scores(w.data(), out.o1.data(), out.o2_hat.data()))
    }

    /// The stage-window half of a push, step 1: validates one raw
    /// datapoint, normalizes it with the *training* normalizer (Eq. 1:
    /// ranges known a-priori) and appends it to the bounded history ring —
    /// without running a forward pass. A caller that owns the forward (the
    /// serving engine stacking many streams into one batch) follows with
    /// [`OnlineState::stage_tail`] and, after the forward,
    /// [`OnlineState::apply_scores`].
    ///
    /// Validation runs before any state is touched, exactly as in
    /// [`OnlineState::push`]. In steady state (ring full) this allocates
    /// nothing: the normalized row overwrites the evicted one in place.
    pub fn ingest(
        &mut self,
        trained: &TrainedTranad,
        datapoint: &[f64],
    ) -> Result<(), DetectorError> {
        if datapoint.len() != self.dims {
            return Err(DetectorError::DimensionMismatch {
                expected: self.dims,
                got: datapoint.len(),
            });
        }
        if let Some(dim) = datapoint.iter().position(|v| !v.is_finite()) {
            return Err(DetectorError::NonFiniteInput { dim });
        }
        if self.rows.len() < self.cap {
            let mut row = vec![0.0; self.dims];
            trained.normalizer.transform_row_into(datapoint, &mut row);
            self.rows.push(row);
        } else {
            trained
                .normalizer
                .transform_row_into(datapoint, &mut self.rows[self.start]);
            self.start = (self.start + 1) % self.cap;
        }
        self.seen += 1;
        Ok(())
    }

    /// The stage-window half of a push, step 2: writes the
    /// replication-padded window and context tails (§3.2's `W_t` and `C_t`
    /// — exactly what the batch-1 forward of [`OnlineState::push`]
    /// consumes) into the caller's flattened `[window, dims]` /
    /// `[context, dims]` slices, typically one row of a cross-stream batch
    /// stack. Call after [`OnlineState::ingest`]; panics if no point was
    /// ever ingested.
    pub fn stage_tail(&self, wdst: &mut [f64], cdst: &mut [f64]) {
        assert!(!self.rows.is_empty(), "stage_tail before any ingest");
        fill_tail(&self.rows, self.start, wdst);
        fill_tail(&self.rows, self.start, cdst);
    }

    /// The apply half of a push: turns one stream's row of a (possibly
    /// cross-stream) forward output into per-dimension scores and steps
    /// the streaming SPOT thresholders. `w_row`, `o1_row` and `o2_hat_row`
    /// are this stream's flattened `[window, dims]` slices of the model
    /// input and outputs. The arithmetic is shared with
    /// [`OnlineState::push`], so a caller that batches `n` streams into
    /// one `[n, window, dims]` forward and applies each row gets
    /// bitwise-identical verdicts to `n` separate pushes.
    pub fn apply_scores(
        &mut self,
        w_row: &[f64],
        o1_row: &[f64],
        o2_hat_row: &[f64],
    ) -> OnlineVerdict {
        let scores = tail_scores(w_row, o1_row, o2_hat_row, self.dims);
        let dim_labels: Vec<bool> = scores
            .iter()
            .zip(self.spots.iter_mut())
            .map(|(&s, spot)| spot.step(s))
            .collect();
        let anomalous = dim_labels.iter().any(|&b| b);
        OnlineVerdict {
            scores,
            dim_labels,
            anomalous,
        }
    }

    /// Captures the complete streaming state for checkpointing.
    pub fn snapshot(&self) -> OnlineSnapshot {
        OnlineSnapshot {
            dims: self.dims,
            seen: self.seen,
            rows: (0..self.rows.len())
                .map(|i| self.logical(i).to_vec())
                .collect(),
            spots: self.spots.iter().map(Spot::to_parts).collect(),
        }
    }

    /// Rebuilds streaming state from a snapshot taken against the same
    /// model. A restored state's future verdicts are bitwise-identical to
    /// an uninterrupted run's. Validates the snapshot against the model
    /// (dimensionality, row widths, ring bound, SPOT-state consistency) so
    /// a corrupt or mismatched checkpoint fails loudly.
    pub fn restore(trained: &TrainedTranad, snap: &OnlineSnapshot) -> Result<Self, DetectorError> {
        let dims = trained.model.dims();
        if snap.dims != dims {
            return Err(DetectorError::DimensionMismatch {
                expected: dims,
                got: snap.dims,
            });
        }
        let config = trained.model.config();
        let cap = config.window.max(config.context);
        if snap.rows.len() > cap {
            return Err(DetectorError::Failed(format!(
                "snapshot buffers {} rows but the model's ring holds at most {cap}",
                snap.rows.len()
            )));
        }
        if snap.seen < snap.rows.len() as u64 {
            return Err(DetectorError::Failed(format!(
                "snapshot counter {} is smaller than its {} buffered rows",
                snap.seen,
                snap.rows.len()
            )));
        }
        for row in &snap.rows {
            if row.len() != dims {
                return Err(DetectorError::DimensionMismatch {
                    expected: dims,
                    got: row.len(),
                });
            }
            if let Some(dim) = row.iter().position(|v| !v.is_finite()) {
                return Err(DetectorError::NonFiniteInput { dim });
            }
        }
        if snap.spots.len() != dims {
            return Err(DetectorError::Failed(format!(
                "snapshot has {} SPOT states for a {dims}-dimensional model",
                snap.spots.len()
            )));
        }
        let mut spots = Vec::with_capacity(dims);
        for (d, parts) in snap.spots.iter().enumerate() {
            spots.push(Spot::from_parts(parts.clone()).map_err(|e| DetectorError::pot(d, e))?);
        }
        let mut rows = Vec::with_capacity(cap);
        rows.extend(snap.rows.iter().cloned());
        Ok(OnlineState {
            rows,
            start: 0,
            cap,
            seen: snap.seen,
            spots,
            dims,
            stage: InferWorkspace::new(),
        })
    }

    /// The `i`-th buffered row in logical order (0 = oldest).
    fn logical(&self, i: usize) -> &[f64] {
        &self.rows[(self.start + i) % self.rows.len()]
    }
}

/// Copies the last `n = dst.len() / dims` logical ring rows (oldest first,
/// ring order `start..start+len` mod len), replication-padded at the front
/// with the oldest available row, into `dst`. `n <= cap` always
/// holds (it is the window or context length), so the ring never evicts a
/// row a forward pass still needs. A free function over the ring fields so
/// the caller can fill a staging tensor it also owns.
fn fill_tail(rows: &[Vec<f64>], start: usize, dst: &mut [f64]) {
    let have = rows.len();
    let dims = rows[0].len();
    let n = dst.len() / dims;
    for (i, slot) in dst.chunks_exact_mut(dims).enumerate() {
        let idx = (have + i).saturating_sub(n);
        slot.copy_from_slice(&rows[(start + idx.min(have - 1)) % have]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TranadConfig;
    use crate::train::train;
    use tranad_data::{SignalRng, TimeSeries};

    fn trained_model() -> TrainedTranad {
        let mut rng = SignalRng::new(11);
        let col: Vec<f64> = (0..500)
            .map(|t| (t as f64 / 9.0).sin() + 0.05 * rng.normal())
            .collect();
        let series = TimeSeries::from_columns(&[col]);
        let config = TranadConfig {
            epochs: 3,
            window: 6,
            context: 12,
            ff_hidden: 16,
            dropout: 0.0,
            ..TranadConfig::default()
        };
        train(&series, config).unwrap().0
    }

    fn noisy_sine(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = SignalRng::new(seed);
        (0..len)
            .map(|t| (t as f64 / 9.0).sin() + 0.05 * rng.normal())
            .collect()
    }

    #[test]
    fn online_matches_batch_scoring_at_tail() {
        let trained = trained_model();
        let col = noisy_sine(60, 12);
        let series = TimeSeries::from_columns(std::slice::from_ref(&col));
        let batch_scores = trained.score_series(&series);

        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for (t, &v) in col.iter().enumerate() {
            let verdict = online.push(&trained, &[v]).unwrap();
            // The online score must equal the batch score at every index
            // where the context window is identical (all of them, since
            // both use the same replication padding).
            assert!(
                (verdict.scores[0] - batch_scores[t][0]).abs() < 1e-9,
                "t={t}: online {} vs batch {}",
                verdict.scores[0],
                batch_scores[t][0]
            );
        }
    }

    #[test]
    fn online_flags_injected_spike() {
        let trained = trained_model();
        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let mut rng = SignalRng::new(13);
        let mut flagged_normal = 0;
        for t in 0..80 {
            let v = (t as f64 / 9.0).sin() + 0.05 * rng.normal();
            if online.push(&trained, &[v]).unwrap().anomalous {
                flagged_normal += 1;
            }
        }
        assert!(
            flagged_normal <= 2,
            "false alarms on normal stream: {flagged_normal}"
        );
        let verdict = online.push(&trained, &[9.0]).unwrap(); // extreme outlier
        assert!(verdict.anomalous);
        assert!(verdict.dim_labels[0]);
    }

    #[test]
    fn push_checks_dimensionality() {
        let trained = trained_model();
        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let err = online.push(&trained, &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            DetectorError::DimensionMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn non_finite_input_is_rejected_without_poisoning_state() {
        let trained = trained_model();
        let mut clean = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let mut poked = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let stream = noisy_sine(40, 14);
        for (t, &v) in stream.iter().enumerate() {
            // Interleave invalid points into one detector only: they must
            // be rejected up front and leave no trace in its state.
            if t % 7 == 3 {
                assert_eq!(
                    poked.push(&trained, &[f64::NAN]).unwrap_err(),
                    DetectorError::NonFiniteInput { dim: 0 }
                );
                assert_eq!(
                    poked.push(&trained, &[f64::INFINITY]).unwrap_err(),
                    DetectorError::NonFiniteInput { dim: 0 }
                );
            }
            let a = clean.push(&trained, &[v]).unwrap();
            let b = poked.push(&trained, &[v]).unwrap();
            assert_eq!(a, b, "t={t}: rejected inputs perturbed the stream");
        }
        assert_eq!(
            clean.seen(),
            poked.seen(),
            "rejected points must not count as consumed"
        );
    }

    #[test]
    fn long_stream_history_is_bounded_and_scores_match_unbounded_tail() {
        let trained = trained_model();
        let cap = trained
            .model
            .config()
            .window
            .max(trained.model.config().context);
        let stream = noisy_sine(10_000, 15);

        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        assert_eq!(online.cap, cap);
        let mut tail_scores = Vec::new();
        for (t, &v) in stream.iter().enumerate() {
            let verdict = online.push(&trained, &[v]).unwrap();
            // The memory bound: resident history never exceeds
            // max(window, context) rows no matter how long the stream runs.
            assert!(
                online.buffered_rows() <= cap,
                "t={t}: {} resident rows exceeds the {cap}-row bound",
                online.buffered_rows()
            );
            if t >= stream.len() - 100 {
                tail_scores.push(verdict.scores[0]);
            }
        }
        assert_eq!(online.seen(), stream.len() as u64);
        assert_eq!(online.buffered_rows(), cap);

        // Tail-equivalence with unbounded history: scores depend only on the
        // last `cap` rows, so a fresh detector fed just enough leading
        // context produces bitwise-identical scores — exactly what the
        // unbounded pre-fix implementation computed at the tail.
        let mut reference = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let offset = stream.len() - 100 - cap;
        let mut ref_scores = Vec::new();
        for (i, &v) in stream[offset..].iter().enumerate() {
            let verdict = reference.push(&trained, &[v]).unwrap();
            if i >= cap {
                ref_scores.push(verdict.scores[0]);
            }
        }
        assert_eq!(tail_scores.len(), ref_scores.len());
        for (i, (a, b)) in tail_scores.iter().zip(&ref_scores).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "tail score {i} diverged");
        }
    }

    #[test]
    fn snapshot_restore_push_is_bitwise_identical() {
        let trained = trained_model();
        let stream = noisy_sine(80, 16);
        let (head, tail) = stream.split_at(35);

        let mut uninterrupted = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for &v in head {
            uninterrupted.push(&trained, &[v]).unwrap();
        }
        let snap = uninterrupted.snapshot();
        assert_eq!(snap.seen, head.len() as u64);

        let mut restored = OnlineState::restore(&trained, &snap).unwrap();
        assert_eq!(restored.seen(), head.len() as u64);
        for (t, &v) in tail.iter().enumerate() {
            let a = uninterrupted.push(&trained, &[v]).unwrap();
            let b = restored.push(&trained, &[v]).unwrap();
            assert_eq!(
                a.dim_labels, b.dim_labels,
                "t={t}: labels diverged after restore"
            );
            for (d, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t} dim {d}: scores diverged");
            }
        }
        // Equal verdicts can hide a SPOT that was re-calibrated instead of
        // restored; the whole state, refit counts included, must match.
        assert_eq!(uninterrupted.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_json_roundtrip_preserves_state() {
        use tranad_json::{FromJson, ToJson};
        let trained = trained_model();
        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for &v in &noisy_sine(25, 17) {
            online.push(&trained, &[v]).unwrap();
        }
        let snap = online.snapshot();
        let text = snap.to_json().to_string();
        let back = OnlineSnapshot::from_json(&tranad_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_rejects_mismatched_or_corrupt_snapshots() {
        let trained = trained_model();
        let mut online = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for &v in &noisy_sine(20, 18) {
            online.push(&trained, &[v]).unwrap();
        }
        let good = online.snapshot();

        let mut bad = good.clone();
        bad.dims = 3;
        assert!(OnlineState::restore(&trained, &bad).is_err());

        let mut bad = good.clone();
        bad.rows.extend(vec![vec![0.0]; bad.rows.len()]); // overflows the ring bound
        assert!(OnlineState::restore(&trained, &bad).is_err());

        let mut bad = good.clone();
        bad.seen = 1; // smaller than the buffered row count
        assert!(OnlineState::restore(&trained, &bad).is_err());

        let mut bad = good.clone();
        bad.rows[0][0] = f64::NAN;
        assert!(OnlineState::restore(&trained, &bad).is_err());

        let mut bad = good.clone();
        bad.spots.clear();
        assert!(OnlineState::restore(&trained, &bad).is_err());

        let mut bad = good;
        bad.spots[0].refit_every = 0;
        assert!(matches!(
            OnlineState::restore(&trained, &bad),
            Err(DetectorError::PotFitFailed { dim: 0, .. })
        ));
    }
}
