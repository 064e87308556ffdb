//! Offline two-phase adversarial training (paper Algorithm 1).
//!
//! Each step performs the two inference phases, then applies the evolving
//! losses of Eq. 10: the encoder and decoder 1 minimize
//! `ε⁻ⁿ‖O₁−W‖ + (1−ε⁻ⁿ)‖Ô₂−W‖` while decoder 2 minimizes
//! `ε⁻ⁿ‖O₂−W‖ − (1−ε⁻ⁿ)‖Ô₂−W‖` (the adversarial max of Eq. 8). At the end
//! of every epoch a first-order MAML step runs on a random batch (line 11),
//! and early stopping tracks validation loss (§4).

use crate::config::TranadConfig;
use crate::error::DetectorError;
use crate::model::TranadModel;
use std::time::Instant;
use tranad_data::{train_val_split, Normalizer, TimeSeries, Windows};
use tranad_nn::optim::{AdamW, StepLr};
use tranad_nn::{fomaml_step, Ctx, Fwd, InferCtx, Init, MamlConfig, ParamId, ParamStore};

/// A trained TranAD detector: model weights plus the fitted normalizer.
pub struct TrainedTranad {
    /// Parameter store holding the trained weights.
    pub store: ParamStore,
    /// The network.
    pub model: TranadModel,
    /// Min-max normalizer fitted on the training series.
    pub normalizer: Normalizer,
    /// Per-dimension anomaly scores on the (normalized) training series,
    /// used downstream as the POT calibration sample.
    pub train_scores: Vec<Vec<f64>>,
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch (decoder-1 objective).
    pub train_losses: Vec<f64>,
    /// Mean validation reconstruction loss per epoch.
    pub val_losses: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Number of epochs actually run (early stopping may cut `epochs`).
    pub epochs_run: usize,
}

impl TrainReport {
    /// Average seconds per epoch (Table 5's unit).
    pub fn seconds_per_epoch(&self) -> f64 {
        if self.epoch_seconds.is_empty() {
            0.0
        } else {
            self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
        }
    }
}

/// Trains TranAD on a (raw, unnormalized) training series. Traces to
/// [`tranad_telemetry::current`]: one `train.epoch` event per epoch
/// (losses, timings, lr, early-stop state), a `train.early_stop` event
/// when patience runs out, and pool/buffer counters at the end of the run.
/// A disabled recorder adds no work.
pub fn train(
    series: &TimeSeries,
    config: TranadConfig,
) -> Result<(TrainedTranad, TrainReport), DetectorError> {
    config.validate()?;
    if series.is_empty() {
        return Err(DetectorError::EmptySeries);
    }
    if series.len() <= 4 {
        return Err(DetectorError::SeriesTooShort {
            needed: 5,
            got: series.len(),
        });
    }
    let rec = tranad_telemetry::current();
    let _run_span = tranad_telemetry::span::enter("train.run");
    let normalizer = Normalizer::fit(series);
    let normalized = normalizer.transform(series);
    let (train_part, val_part) = train_val_split(&normalized, 0.8);

    let mut store = ParamStore::new();
    let mut init = Init::with_seed(config.seed);
    let model = TranadModel::new(&mut store, &mut init, series.dims(), config);
    // Trainable sets: update 2 trains decoder 2 alone; update 1 and the
    // MAML step train everything else.
    let is_d2 = |id: ParamId| model.decoder2_param_ids().contains(&id);
    let not_d2 = |id: ParamId| !is_d2(id);

    let train_windows = Windows::new(train_part, config.window);
    let val_windows = Windows::new(val_part, config.window);

    let mut opt = AdamW::new(config.lr);
    let sched = StepLr::new(config.lr, config.lr_step, 0.5);
    let mut rng = tranad_data::SignalRng::new(config.seed ^ 0x5EED);

    let mut report = TrainReport {
        train_losses: Vec::new(),
        val_losses: Vec::new(),
        epoch_seconds: Vec::new(),
        epochs_run: 0,
    };
    let mut best_val = f64::INFINITY;
    let mut best_snapshot = store.snapshot();
    let mut stale = 0usize;

    let mut order: Vec<usize> = (0..train_windows.len()).collect();
    for epoch in 0..config.epochs {
        let _epoch_span = tranad_telemetry::span::enter("train.epoch");
        let started = Instant::now();
        sched.apply(&mut opt, epoch as u64);
        shuffle(&mut order, &mut rng);
        let visited = &order[..order.len().min(config.max_windows_per_epoch)];
        let w_recon = config.recon_weight(epoch);

        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for batch in visited.chunks(config.batch_size) {
            let _step_span = tranad_telemetry::span::enter("train.step");
            let (w, c) = {
                let _s = tranad_telemetry::span::enter("train.window_batch");
                (
                    train_windows.batch(batch),
                    train_windows.context_batch(batch, config.context),
                )
            };
            let step_seed = config.seed ^ ((epoch * 31 + batches) as u64);

            // Update 1: encoder + decoder 1 minimize L1.
            let (loss1, grads1) = {
                let _p1 = tranad_telemetry::span::enter("train.phase1");
                let ctx = Ctx::train(&store, step_seed).with_trainable(not_d2);
                let wv = ctx.input(w.clone());
                let cv = ctx.input(c.clone());
                let out = model.forward(&ctx, &wv, &cv);
                let loss = if config.adversarial {
                    out.o1
                        .mse(&wv)
                        .scale(w_recon)
                        .add(&out.o2_hat.mse(&wv).scale(1.0 - w_recon))
                } else {
                    out.o1.mse(&wv).add(&out.o2.mse(&wv))
                };
                loss.backward();
                if rec.enabled() {
                    // Memory observability per step: autograd tape length.
                    rec.gauge("train.tape_len", ctx.tape().len() as f64);
                }
                (loss.value().item(), ctx.grads())
            };
            opt.step(&mut store, &grads1);

            // Update 2: decoder 2 minimizes L2 (maximizes ‖Ô₂−W‖).
            let _p2 = tranad_telemetry::span::enter("train.phase2");
            if config.adversarial {
                let grads2 = {
                    let ctx = Ctx::train(&store, step_seed ^ 0xD2).with_trainable(is_d2);
                    let wv = ctx.input(w.clone());
                    let cv = ctx.input(c.clone());
                    let out = model.forward(&ctx, &wv, &cv);
                    let loss = out
                        .o2
                        .mse(&wv)
                        .scale(w_recon)
                        .sub(&out.o2_hat.mse(&wv).scale(1.0 - w_recon));
                    loss.backward();
                    ctx.grads()
                };
                opt.step(&mut store, &grads2);
            } else {
                // Without the adversarial game decoder 2 trains on plain
                // phase-1 reconstruction, in its own decoder-2-only update.
                let grads2 = {
                    let ctx = Ctx::train(&store, step_seed ^ 0xD2).with_trainable(is_d2);
                    let wv = ctx.input(w.clone());
                    let cv = ctx.input(c.clone());
                    let (_, o2) = model.phase1(&ctx, &wv, &cv);
                    o2.mse(&wv).backward();
                    ctx.grads()
                };
                opt.step(&mut store, &grads2);
            }
            drop(_p2);

            epoch_loss += loss1;
            batches += 1;
        }

        // Meta-learning on a random batch (Algorithm 1 line 11).
        let maml_started = Instant::now();
        if config.maml && train_windows.len() > 1 {
            let _maml_span = tranad_telemetry::span::enter("train.maml");
            let mb: Vec<usize> = (0..config.batch_size.min(train_windows.len()))
                .map(|_| rng.index(0, train_windows.len()))
                .collect();
            let w = train_windows.batch(&mb);
            let c = train_windows.context_batch(&mb, config.context);
            let maml_cfg = MamlConfig {
                inner_lr: opt.lr,
                meta_lr: config.meta_lr,
            };
            fomaml_step(&mut store, maml_cfg, |s| {
                let ctx = Ctx::train(s, config.seed ^ 0x3A31 ^ epoch as u64).with_trainable(not_d2);
                let wv = ctx.input(w.clone());
                let cv = ctx.input(c.clone());
                let out = model.forward(&ctx, &wv, &cv);
                out.o1
                    .mse(&wv)
                    .scale(w_recon)
                    .add(&out.o2_hat.mse(&wv).scale(1.0 - w_recon))
                    .backward();
                ctx.grads()
            });
        }

        let maml_seconds = maml_started.elapsed().as_secs_f64();

        // Validation reconstruction loss for early stopping.
        let val_loss = {
            let _s = tranad_telemetry::span::enter("train.validate");
            validation_loss(&store, &model, &val_windows, config)
        };
        let train_loss = epoch_loss / batches.max(1) as f64;
        if !train_loss.is_finite() || !val_loss.is_finite() {
            return Err(DetectorError::NonFiniteLoss { epoch });
        }
        report.train_losses.push(train_loss);
        report.val_losses.push(val_loss);
        report.epoch_seconds.push(started.elapsed().as_secs_f64());
        report.epochs_run = epoch + 1;

        let improved = val_loss < best_val - 1e-9;
        if improved {
            best_val = val_loss;
            best_snapshot = store.snapshot();
            stale = 0;
        } else {
            stale += 1;
        }
        rec.emit("train.epoch", |e| {
            e.u64("epoch", epoch as u64)
                .f64("train_loss", train_loss)
                .f64("val_loss", val_loss)
                .f64("seconds", started.elapsed().as_secs_f64())
                .f64("maml_seconds", maml_seconds)
                .f64("lr", opt.lr)
                .f64("recon_weight", w_recon)
                .bool("improved", improved)
                .u64("stale", stale as u64);
        });
        if !improved && stale >= config.patience {
            rec.emit("train.early_stop", |e| {
                e.u64("epoch", epoch as u64)
                    .f64("best_val", best_val)
                    .u64("patience", config.patience as u64);
            });
            break;
        }
    }
    store.restore(&best_snapshot);

    // Score the full (normalized) training series for POT calibration.
    let trained = TrainedTranad {
        train_scores: Vec::new(),
        store,
        model,
        normalizer,
    };
    let train_scores = trained.score_normalized(&normalized);
    rec.emit("train.done", |e| {
        e.u64("epochs_run", report.epochs_run as u64)
            .f64("best_val", best_val)
            .f64("seconds_per_epoch", report.seconds_per_epoch());
    });
    tranad_tensor::bufpool::record_stats();
    tranad_tensor::pool::record_counters();
    Ok((
        TrainedTranad {
            train_scores,
            ..trained
        },
        report,
    ))
}

fn validation_loss(
    store: &ParamStore,
    model: &TranadModel,
    windows: &Windows,
    config: TranadConfig,
) -> f64 {
    let mut total = 0.0;
    let n = windows.len();
    let bs = config.batch_size.max(1);
    // Validation never backpropagates, so it runs tape-free; chunk the
    // timestamp range directly instead of materializing an index list.
    for start in (0..n).step_by(bs) {
        let end = (start + bs).min(n);
        let ctx = InferCtx::new(store);
        let w = ctx.input(windows.batch_range(start, end));
        let c = ctx.input(windows.context_batch_range(start, end, config.context));
        let out = model.forward(&ctx, &w, &c);
        let loss = out.o1.mse(&w).add(&out.o2_hat.mse(&w)).scale(0.5);
        total += loss.value().item() * (end - start) as f64;
    }
    total / n.max(1) as f64
}

impl TrainedTranad {
    /// Per-dimension anomaly scores for an already-normalized series
    /// (Eq. 13 evaluated at each timestamp's window tail:
    /// `s = ½‖O₁−Ŵ‖² + ½‖Ô₂−Ŵ‖²` per dimension).
    pub(crate) fn score_normalized(&self, normalized: &TimeSeries) -> Vec<Vec<f64>> {
        let config = *self.model.config();
        let windows = Windows::borrowed(normalized, config.window);
        let m = normalized.dims();
        // Batches are independent tape-free forward passes, so they run on
        // the thread pool. Batch boundaries depend only on the series
        // length and batch size — never on the thread count — so scores
        // are identical for any pool size.
        let n = windows.len();
        let bs = config.batch_size.max(1);
        let n_chunks = n.div_ceil(bs);
        let mut slots: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_chunks];
        tranad_tensor::pool::parallel_chunks_mut(&mut slots, 1, |ci, slot| {
            let start = ci * bs;
            let end = (start + bs).min(n);
            let _fwd = tranad_telemetry::span::enter("infer.forward");
            let ctx = InferCtx::new(&self.store);
            let w = ctx.input(windows.batch_range(start, end));
            let c = ctx.input(windows.context_batch_range(start, end, config.context));
            let out = self.model.forward(&ctx, &w, &c);
            let stride = config.window * m;
            slot[0] = w
                .data()
                .chunks_exact(stride)
                .zip(out.o1.data().chunks_exact(stride))
                .zip(out.o2_hat.data().chunks_exact(stride))
                .map(|((w, o1), o2h)| tail_scores(w, o1, o2h, m))
                .collect();
        });
        slots.into_iter().flatten().collect()
    }

    /// Per-dimension anomaly scores for a raw series (normalizes first).
    pub fn score_series(&self, series: &TimeSeries) -> Vec<Vec<f64>> {
        self.score_normalized(&self.normalizer.transform(series))
    }
}

/// Eq. 13 at a window's final row — the current timestamp: per dimension,
/// `s = ½(O₁−Ŵ)² + ½(Ô₂−Ŵ)²`. `window`, `o1` and `o2_hat` are one window's
/// flattened `[k, dims]` slices of the model input and outputs. Batch
/// scoring and [`crate::OnlineState`] both score through it.
pub(crate) fn tail_scores(window: &[f64], o1: &[f64], o2_hat: &[f64], dims: usize) -> Vec<f64> {
    let base = window.len() - dims;
    (0..dims)
        .map(|d| {
            let target = window[base + d];
            let e1 = o1[base + d] - target;
            let e2 = o2_hat[base + d] - target;
            0.5 * e1 * e1 + 0.5 * e2 * e2
        })
        .collect()
}

fn shuffle(order: &mut [usize], rng: &mut tranad_data::SignalRng) {
    for i in (1..order.len()).rev() {
        let j = rng.index(0, i + 1);
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_data::SignalRng;

    fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
        let mut rng = SignalRng::new(seed);
        let cols: Vec<Vec<f64>> = (0..dims)
            .map(|d| {
                (0..len)
                    .map(|t| ((t as f64) / (10.0 + d as f64)).sin() + 0.05 * rng.normal())
                    .collect()
            })
            .collect();
        TimeSeries::from_columns(&cols)
    }

    fn tiny_config() -> TranadConfig {
        TranadConfig {
            epochs: 3,
            batch_size: 64,
            dropout: 0.0,
            context: 12,
            window: 6,
            ff_hidden: 16,
            patience: 10,
            ..TranadConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let series = toy_series(400, 2, 1);
        let (_trained, report) = train(&series, tiny_config()).unwrap();
        assert!(report.epochs_run >= 2);
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert!(report.seconds_per_epoch() > 0.0);
    }

    #[test]
    fn train_scores_cover_series() {
        let series = toy_series(300, 2, 2);
        let (trained, _) = train(&series, tiny_config()).unwrap();
        assert_eq!(trained.train_scores.len(), series.len());
        assert_eq!(trained.train_scores[0].len(), 2);
        assert!(trained
            .train_scores
            .iter()
            .flatten()
            .all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn scores_spike_on_corrupted_points() {
        let series = toy_series(400, 1, 3);
        let (trained, _) = train(&series, tiny_config()).unwrap();
        // Corrupt a copy of the training series far outside the data range.
        let mut test = series.clone();
        for t in 200..204 {
            test.set(t, 0, 10.0);
        }
        let scores = trained.score_series(&test);
        let anom: f64 = (200..204).map(|t| scores[t][0]).sum::<f64>() / 4.0;
        let norm: f64 = (50..150).map(|t| scores[t][0]).sum::<f64>() / 100.0;
        assert!(
            anom > 5.0 * norm,
            "anomalous score {anom} not separated from normal {norm}"
        );
    }

    #[test]
    fn deterministic_training() {
        let series = toy_series(200, 1, 4);
        let cfg = TranadConfig {
            epochs: 2,
            ..tiny_config()
        };
        let (a, _) = train(&series, cfg).unwrap();
        let (b, _) = train(&series, cfg).unwrap();
        assert_eq!(a.train_scores, b.train_scores);
    }

    #[test]
    fn ablation_variants_train() {
        let series = toy_series(200, 2, 5);
        for (t, s, a, m) in [
            (false, true, true, true),
            (true, false, true, true),
            (true, true, false, true),
            (true, true, true, false),
        ] {
            let cfg = TranadConfig {
                use_transformer: t,
                self_conditioning: s,
                adversarial: a,
                maml: m,
                epochs: 2,
                ..tiny_config()
            };
            let (trained, report) = train(&series, cfg).unwrap();
            assert!(report.epochs_run >= 1);
            assert!(trained.train_scores.iter().flatten().all(|v| v.is_finite()));
        }
    }
}
