//! USAD (Audibert et al., KDD 2020): an autoencoder with one shared encoder
//! and two decoders trained in an adversarial game — the closest prior art
//! to TranAD's training loop.
//!
//! Phase semantics follow the USAD paper: with `AE1(w) = D1(E(w))` and
//! `AE2(w) = D2(E(w))`, at epoch `n` decoder 1 minimizes
//! `(1/n)‖AE1(w)−w‖ + (1−1/n)‖AE2(AE1(w))−w‖` and decoder 2 minimizes
//! `(1/n)‖AE2(w)−w‖ − (1−1/n)‖AE2(AE1(w))−w‖`. The anomaly score is
//! `α‖AE1(w)−w‖ + β‖AE2(AE1(w))−w‖` (α = β = 0.5 here).

use crate::common::{flatten_windows, last_row_sq_error, score_windows, sgd_step, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use std::time::Instant;
use tranad_data::{Normalizer, SignalRng, TimeSeries, Windows};
use tranad_nn::{optim::AdamW, Activation, Ctx, FeedForward, Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::Var;

struct UsadState {
    store: ParamStore,
    encoder: FeedForward,
    decoder1: FeedForward,
    decoder2: FeedForward,
    /// Index of decoder 2's first parameter; its parameters come last.
    d2_start: usize,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The USAD detector.
pub struct Usad {
    config: NeuralConfig,
    state: Option<UsadState>,
}

impl Usad {
    /// Creates an (unfitted) USAD detector.
    pub fn new(config: NeuralConfig) -> Self {
        Usad {
            config,
            state: None,
        }
    }

    fn forward<F: Fwd>(state: &UsadState, ctx: &F, flat: &Var) -> (Var, Var, Var) {
        let z = state.encoder.forward(ctx, flat);
        let ae1 = state.decoder1.forward(ctx, &z);
        let ae2 = state.decoder2.forward(ctx, &z);
        // AE2(AE1(w)): re-encode decoder 1's reconstruction.
        let z2 = state.encoder.forward(ctx, &ae1);
        let ae2_ae1 = state.decoder2.forward(ctx, &z2);
        (ae1, ae2, ae2_ae1)
    }

    fn score_batches(&self, state: &UsadState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            let ctx = InferCtx::new(&state.store);
            let flat = ctx.input(flatten_windows(w));
            let (ae1, _, ae2_ae1) = Self::forward(state, &ctx, &flat);
            let b = w.shape().dim(0);
            let r1 = ae1.reshape([b, k, state.dims]);
            let r2 = ae2_ae1.reshape([b, k, state.dims]);
            let e1 = last_row_sq_error(&r1.value(), w);
            let e2 = last_row_sq_error(&r2.value(), w);
            e1.iter()
                .zip(&e2)
                .map(|(a, b)| a.iter().zip(b).map(|(x, y)| 0.5 * x + 0.5 * y).collect())
                .collect()
        })
    }
}

impl Detector for Usad {
    fn name(&self) -> &'static str {
        "USAD"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        crate::common::check_fit_input(train, &cfg)?;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();
        let in_dim = cfg.window * dims;

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let encoder = FeedForward::new(
            &mut store,
            &mut init,
            &[in_dim, cfg.hidden, cfg.latent],
            Activation::Relu,
            Activation::Relu,
            0.0,
        );
        let decoder1 = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.latent, cfg.hidden, in_dim],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let d2_start = store.len();
        let decoder2 = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.latent, cfg.hidden, in_dim],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt1 = AdamW::new(cfg.lr);
        let mut opt2 = AdamW::new(cfg.lr);
        let mut rng = SignalRng::new(cfg.seed);
        let mut order: Vec<usize> = (0..windows.len()).collect();

        let mut state = UsadState {
            store,
            encoder,
            decoder1,
            decoder2,
            d2_start,
            normalizer,
            train_scores: Vec::new(),
            dims,
        };

        let mut secs = 0.0;
        for epoch in 0..cfg.epochs {
            let start = Instant::now();
            for i in (1..order.len()).rev() {
                let j = rng.index(0, i + 1);
                order.swap(i, j);
            }
            let n = (epoch + 1) as f64;
            let (w_n, w_adv) = (1.0 / n, 1.0 - 1.0 / n);
            let visited = &order[..order.len().min(cfg.max_windows)];
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for batch in visited.chunks(cfg.batch) {
                let w = windows.batch(batch);
                let flat = flatten_windows(&w);
                // Decoder-1 (and encoder) update.
                {
                    let mut store = std::mem::take(&mut state.store);
                    loss_sum += sgd_step(&mut store, &mut opt1, cfg.seed ^ epoch as u64, |ctx| {
                        let f = ctx.input(flat.clone());
                        let target = ctx.input(flat.clone());
                        let (ae1, _, ae2_ae1) = Self::forward(&state, ctx, &f);
                        ae1.mse(&target)
                            .scale(w_n)
                            .add(&ae2_ae1.mse(&target).scale(w_adv))
                    });
                    state.store = store;
                }
                // Decoder-2 update (adversarial).
                {
                    let grads = {
                        let ctx = Ctx::train(&state.store, cfg.seed ^ 0xD2 ^ epoch as u64)
                            .with_trainable(|id| id.index() >= state.d2_start);
                        let f = ctx.input(flat.clone());
                        let target = ctx.input(flat.clone());
                        let (_, ae2, ae2_ae1) = Self::forward(&state, &ctx, &f);
                        let loss = ae2
                            .mse(&target)
                            .scale(w_n)
                            .sub(&ae2_ae1.mse(&target).scale(w_adv));
                        loss.backward();
                        ctx.grads()
                    };
                    opt2.step(&mut state.store, &grads);
                }
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

        state.train_scores = self.score_batches(&state, train);
        self.state = Some(state);
        Ok(FitReport {
            seconds_per_epoch: secs / cfg.epochs.max(1) as f64,
            epochs: cfg.epochs,
        })
    }

    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError> {
        let state = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        Ok(self.score_batches(state, test))
    }

    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError> {
        Ok(&self
            .state
            .as_ref()
            .ok_or(DetectorError::NotFitted)?
            .train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn usad_separates_anomalies() {
        let train = toy_series(400, 2, 1);
        let mut det = Usad::new(NeuralConfig::fast());
        let report = det.fit(&train).unwrap();
        assert!(report.seconds_per_epoch > 0.0);
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 3.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn scores_match_series_length() {
        let train = toy_series(200, 3, 2);
        let mut det = Usad::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let scores = det.score(&train).unwrap();
        assert_eq!(scores.len(), 200);
        assert_eq!(scores[0].len(), 3);
        assert_eq!(det.train_scores().unwrap().len(), 200);
    }

    #[test]
    fn score_before_fit_errors() {
        let err = Usad::new(NeuralConfig::fast())
            .score(&toy_series(50, 1, 3))
            .unwrap_err();
        assert_eq!(err, DetectorError::NotFitted);
    }
}
