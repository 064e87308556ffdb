//! Shared training plumbing for the neural baselines: normalized window
//! iteration, epoch loops with timing, and flattened-window helpers.

use crate::detector::{DetectorError, FitReport};
use std::time::Instant;
use tranad_data::{SignalRng, TimeSeries, Windows};
use tranad_nn::{optim::AdamW, Ctx, ParamId, ParamStore};
use tranad_tensor::{pool, Tensor, Var};

/// Common hyperparameters for the neural baselines. Values follow the
/// respective papers where they matter (window 10 to match §4; modest
/// hidden widths for the CPU regime).
#[derive(Debug, Clone, Copy)]
pub struct NeuralConfig {
    /// Sliding-window length.
    pub window: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Latent width (autoencoder bottleneck).
    pub latent: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// AdamW learning rate.
    pub lr: f64,
    /// Upper bound on training windows visited per epoch (random subsample
    /// each epoch); keeps wide datasets tractable on CPU.
    pub max_windows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        NeuralConfig {
            window: 10,
            hidden: 32,
            latent: 8,
            epochs: 8,
            batch: 128,
            lr: 0.005,
            max_windows: usize::MAX,
            seed: 42,
        }
    }
}

impl NeuralConfig {
    /// Small configuration for unit tests.
    pub fn fast() -> Self {
        NeuralConfig {
            epochs: 3,
            hidden: 16,
            batch: 64,
            ..Default::default()
        }
    }

    /// Starts a validating builder from the defaults.
    pub fn builder() -> NeuralConfigBuilder {
        NeuralConfigBuilder {
            config: NeuralConfig::default(),
        }
    }

    /// Checks every field is in range.
    pub(crate) fn validate(&self) -> Result<(), DetectorError> {
        let bad = |msg: &str| Err(DetectorError::InvalidConfig(msg.to_string()));
        if self.window < 2 {
            return bad("window must be at least 2 (forecasters need history)");
        }
        if self.hidden < 1 || self.latent < 1 {
            return bad("hidden and latent widths must be at least 1");
        }
        if self.epochs < 1 {
            return bad("epochs must be at least 1");
        }
        if self.batch < 1 {
            return bad("batch must be at least 1");
        }
        if self.lr <= 0.0 || !self.lr.is_finite() {
            return bad("lr must be positive and finite");
        }
        if self.max_windows < 1 {
            return bad("max_windows must be at least 1");
        }
        Ok(())
    }
}

/// Validating builder for [`NeuralConfig`]; `build` rejects out-of-range
/// fields with [`DetectorError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct NeuralConfigBuilder {
    config: NeuralConfig,
}

macro_rules! neural_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $($(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        })*
    };
}

impl NeuralConfigBuilder {
    neural_setters! {
        /// Sliding-window length.
        window: usize,
        /// Hidden width.
        hidden: usize,
        /// Latent width (autoencoder bottleneck).
        latent: usize,
        /// Training epochs.
        epochs: usize,
        /// Mini-batch size.
        batch: usize,
        /// AdamW learning rate.
        lr: f64,
        /// Upper bound on training windows visited per epoch.
        max_windows: usize,
        /// RNG seed.
        seed: u64,
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<NeuralConfig, DetectorError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Shared `fit` input check: validates the config and requires enough
/// timestamps to form at least one training window.
pub(crate) fn check_fit_input(
    train: &TimeSeries,
    config: &NeuralConfig,
) -> Result<(), DetectorError> {
    config.validate()?;
    if train.is_empty() {
        return Err(DetectorError::EmptySeries);
    }
    if train.len() < config.window {
        return Err(DetectorError::SeriesTooShort {
            needed: config.window,
            got: train.len(),
        });
    }
    Ok(())
}

/// Runs a generic epoch loop over shuffled window batches.
///
/// `step` receives `(store, window_batch [b,k,m], epoch)` and returns the
/// batch loss; it owns its own backward/optimizer logic via the returned
/// gradient application. Emits one `baseline.epoch` event per epoch (mean
/// batch loss, wall time) on [`tranad_telemetry::current`] and fails with
/// [`DetectorError::NonFiniteLoss`] when training diverges instead of
/// poisoning the scores with NaN.
pub(crate) fn epoch_loop(
    store: &mut ParamStore,
    windows: &Windows,
    config: NeuralConfig,
    mut step: impl FnMut(&mut ParamStore, &Tensor, usize) -> f64,
) -> Result<FitReport, DetectorError> {
    let mut rng = SignalRng::new(config.seed ^ 0xBA5E);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut secs = 0.0;
    for epoch in 0..config.epochs {
        let _epoch_span = tranad_telemetry::span::enter("baseline.epoch");
        // Shuffle before starting the clock: seconds_per_epoch reports
        // training time (Table 5), not batch-order bookkeeping.
        for i in (1..order.len()).rev() {
            let j = rng.index(0, i + 1);
            order.swap(i, j);
        }
        let start = Instant::now();
        let visited = &order[..order.len().min(config.max_windows)];
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for batch in visited.chunks(config.batch) {
            let w = windows.batch(batch);
            loss_sum += step(store, &w, epoch);
            batches += 1;
        }
        let seconds = start.elapsed().as_secs_f64();
        secs += seconds;
        let loss = loss_sum / batches.max(1) as f64;
        if !loss.is_finite() {
            return Err(DetectorError::NonFiniteLoss { epoch });
        }
        tranad_telemetry::current().emit("baseline.epoch", |e| {
            e.u64("epoch", epoch as u64)
                .f64("loss", loss)
                .f64("seconds", seconds);
        });
    }
    Ok(FitReport {
        seconds_per_epoch: secs / config.epochs.max(1) as f64,
        epochs: config.epochs,
    })
}

/// One AdamW update given a closure producing the scalar loss; returns the
/// loss value.
pub fn sgd_step(
    store: &mut ParamStore,
    opt: &mut AdamW,
    seed: u64,
    forward: impl FnOnce(&Ctx) -> Var,
) -> f64 {
    let (loss, grads): (f64, Vec<(ParamId, Tensor)>) = {
        let ctx = Ctx::train(store, seed);
        let loss = forward(&ctx);
        loss.backward();
        (loss.value().item(), ctx.grads())
    };
    opt.step(store, &grads);
    loss
}

/// Splits `[b, k, m]` windows into `([b, k-1, m]` history, `[b, m]` target)
/// for the forecasting baselines (LSTM-NDT, MTAD-GAT, GDN).
pub(crate) fn split_history(w: &Tensor, k: usize, m: usize) -> (Tensor, Tensor) {
    assert!(k >= 2, "need at least one history step");
    let b = w.shape().dim(0);
    let mut hist = Vec::with_capacity(b * (k - 1) * m);
    let mut target = Vec::with_capacity(b * m);
    for bi in 0..b {
        let base = bi * k * m;
        hist.extend_from_slice(&w.data()[base..base + (k - 1) * m]);
        target.extend_from_slice(&w.data()[base + (k - 1) * m..base + k * m]);
    }
    (
        Tensor::from_vec(hist, [b, k - 1, m]),
        Tensor::from_vec(target, [b, m]),
    )
}

/// Flattens a `[b, k, m]` window batch into `[b, k*m]` rows.
pub fn flatten_windows(w: &Tensor) -> Tensor {
    let d = w.shape();
    assert_eq!(d.rank(), 3, "expected [b, k, m]");
    w.reshape([d.dim(0), d.dim(1) * d.dim(2)])
}

/// Per-dimension squared error between a reconstruction and the target's
/// final window row: `out[b][d] = (recon[b, last, d] - w[b, last, d])^2`.
/// `recon` may be `[b, k, m]` (full window) or `[b, m]` (last row only).
pub fn last_row_sq_error(recon: &Tensor, w: &Tensor) -> Vec<Vec<f64>> {
    let d = w.shape();
    let (b, k, m) = (d.dim(0), d.dim(1), d.dim(2));
    let mut out = Vec::with_capacity(b);
    let recon_full = recon.shape().rank() == 3;
    for bi in 0..b {
        let w_base = (bi * k + (k - 1)) * m;
        let r_base = if recon_full {
            (bi * k + (k - 1)) * m
        } else {
            bi * m
        };
        out.push(
            (0..m)
                .map(|di| {
                    let e = recon.data()[r_base + di] - w.data()[w_base + di];
                    e * e
                })
                .collect(),
        );
    }
    out
}

/// Scores a series with a per-batch closure mapping `[b, k, m]` windows to
/// per-dimension scores. Batches are independent (the closure builds its
/// own eval context per call), so they run on the thread pool; batch
/// boundaries depend only on the series length and `batch`, never on the
/// thread count, so results are identical for any pool size.
pub fn score_windows(
    series: &TimeSeries,
    window: usize,
    batch: usize,
    f: impl Fn(&Tensor) -> Vec<Vec<f64>> + Sync,
) -> Vec<Vec<f64>> {
    let windows = Windows::borrowed(series, window);
    let n = windows.len();
    let bs = batch.max(1);
    let mut slots: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n.div_ceil(bs)];
    pool::parallel_chunks_mut(&mut slots, 1, |ci, slot| {
        let _fwd = tranad_telemetry::span::enter("infer.forward");
        let start = ci * bs;
        slot[0] = f(&windows.batch_range(start, (start + bs).min(n)));
    });
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_preserves_order() {
        let w = Tensor::from_fn([2, 3, 2], |i| i as f64);
        let f = flatten_windows(&w);
        assert_eq!(f.shape().dims(), &[2, 6]);
        assert_eq!(f.data(), w.data());
    }

    #[test]
    fn last_row_error_full_window() {
        let w = Tensor::from_fn([1, 2, 2], |i| i as f64); // last row [2, 3]
        let recon = Tensor::zeros([1, 2, 2]);
        let e = last_row_sq_error(&recon, &w);
        assert_eq!(e, vec![vec![4.0, 9.0]]);
    }

    #[test]
    fn last_row_error_row_only() {
        let w = Tensor::from_fn([1, 2, 2], |i| i as f64);
        let recon = Tensor::from_vec(vec![2.0, 2.0], [1, 2]);
        let e = last_row_sq_error(&recon, &w);
        assert_eq!(e, vec![vec![0.0, 1.0]]);
    }

    #[test]
    fn score_windows_covers_series() {
        let s = TimeSeries::from_columns(&[(0..25).map(|t| t as f64).collect()]);
        let scores = score_windows(&s, 4, 8, |w| vec![vec![0.0]; w.shape().dim(0)]);
        assert_eq!(scores.len(), 25);
    }
}
