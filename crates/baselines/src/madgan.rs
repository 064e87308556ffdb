//! MAD-GAN (Li et al., ICANN 2019): an LSTM-based GAN where the anomaly
//! score combines reconstruction error with the discriminator's suspicion.
//!
//! The generator here is an LSTM autoencoder (standing in for the
//! original's latent-space inversion, which requires per-sample gradient
//! search); the discriminator is an LSTM binary classifier trained on real
//! windows vs. generator reconstructions. Score = λ·recon + (1−λ)·(1−D(x)).

use crate::common::{last_row_sq_error, score_windows, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use tranad_telemetry::Recorder;
use std::time::Instant;
use tranad_data::{Normalizer, SignalRng, TimeSeries, Windows};
use tranad_nn::layers::{Activation, FeedForward, Linear};
use tranad_nn::optim::AdamW;
use tranad_nn::rnn::LstmCell;
use tranad_nn::{Ctx, Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::{Tensor, Var};

struct MadGanState {
    store: ParamStore,
    enc_lstm: LstmCell,
    dec: FeedForward,
    disc_lstm: LstmCell,
    disc_head: Linear,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The MAD-GAN detector.
pub struct MadGan {
    config: NeuralConfig,
    /// Reconstruction weight λ in the anomaly score (original uses 0.5–0.9).
    pub lambda: f64,
    state: Option<MadGanState>,
}

impl MadGan {
    /// Creates an (unfitted) MAD-GAN detector.
    pub fn new(config: NeuralConfig) -> Self {
        MadGan { config, lambda: 0.7, state: None }
    }

    fn last_hidden<F: Fwd>(lstm: &LstmCell, ctx: &F, w: &Var) -> Var {
        let d = w.shape();
        let (b, k) = (d.dim(0), d.dim(1));
        let h = lstm.hidden_size();
        lstm.run(ctx, w).reshape([b, k * h]).narrow_last((k - 1) * h, h)
    }

    fn reconstruct<F: Fwd>(state: &MadGanState, ctx: &F, w: &Var) -> Var {
        let latent = Self::last_hidden(&state.enc_lstm, ctx, w);
        state.dec.forward(ctx, &latent)
    }

    fn discriminate<F: Fwd>(state: &MadGanState, ctx: &F, w: &Var) -> Var {
        let latent = Self::last_hidden(&state.disc_lstm, ctx, w);
        state.disc_head.forward(ctx, &latent).sigmoid()
    }

    fn score_batches(&self, state: &MadGanState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        let lambda = self.lambda;
        score_windows(&normalized, k, self.config.batch, |w| {
            let ctx = InferCtx::new(&state.store);
            let b = w.shape().dim(0);
            let wv = ctx.input(w.clone());
            let recon = Self::reconstruct(state, &ctx, &wv)
                .reshape([b, k, state.dims]);
            let d_out = Self::discriminate(state, &ctx, &wv);
            let errs = last_row_sq_error(&recon.value(), w);
            errs.into_iter()
                .enumerate()
                .map(|(bi, e)| {
                    let suspicion = 1.0 - d_out.data()[bi];
                    e.iter()
                        .map(|&ed| lambda * ed + (1.0 - lambda) * suspicion / state.dims as f64)
                        .collect()
                })
                .collect()
        })
    }
}

impl Detector for MadGan {
    fn name(&self) -> &'static str {
        "MAD-GAN"
    }

    fn fit(
        &mut self,
        train: &TimeSeries,
        rec: &Recorder,
    ) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        crate::common::check_fit_input(train, &cfg)?;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let enc_lstm = LstmCell::new(&mut store, &mut init, dims, cfg.hidden);
        let dec = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.hidden, cfg.hidden, cfg.window * dims],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let disc_start = store.len();
        let disc_lstm = LstmCell::new(&mut store, &mut init, dims, cfg.hidden / 2);
        let disc_head = Linear::new(&mut store, &mut init, cfg.hidden / 2, 1);

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt_g = AdamW::new(cfg.lr);
        let mut opt_d = AdamW::new(cfg.lr);
        let mut rng = SignalRng::new(cfg.seed);
        let mut order: Vec<usize> = (0..windows.len()).collect();

        let mut state = MadGanState {
            store,
            enc_lstm,
            dec,
            disc_lstm,
            disc_head,
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
            let visited = &order[..order.len().min(cfg.max_windows)];
            for batch in visited.chunks(cfg.batch) {
                let w = windows.batch(batch);
                let b = batch.len();
                let k = cfg.window;
                // Generator: reconstruct + fool the discriminator.
                {
                    let mut store = std::mem::take(&mut state.store);
                    let st = &state;
                    let grads: Vec<_> = {
                        let ctx = Ctx::train(&store, cfg.seed ^ epoch as u64)
                            .with_trainable(|id| id.index() < disc_start);
                        let wv = ctx.input(w.clone());
                        let recon_flat = Self::reconstruct(st, &ctx, &wv);
                        let target = ctx.input(crate::common::flatten_windows(&w));
                        let recon_loss = recon_flat.mse(&target);
                        // Adversarial: the discriminator should call the
                        // reconstruction "real" (1); gradient flows through
                        // the discriminator, whose weights are constants in
                        // this step, into the generator.
                        let fake = recon_flat.reshape([b, k, st.dims]);
                        let d_fake = Self::discriminate(st, &ctx, &fake);
                        let fool = d_fake.neg().add_scalar(1.0).square().mean_all();
                        let loss = recon_loss.add(&fool.scale(0.1));
                        loss.backward();
                        ctx.grads()
                    };
                    opt_g.step(&mut store, &grads);
                    state.store = store;
                }
                // Discriminator: real -> 1, reconstruction -> 0.
                {
                    let mut store = std::mem::take(&mut state.store);
                    let st = &state;
                    let grads: Vec<_> = {
                        let ctx = Ctx::train(&store, cfg.seed ^ 0xD ^ epoch as u64)
                            .with_trainable(|id| id.index() >= disc_start);
                        let wv = ctx.input(w.clone());
                        // Detach the reconstruction: the discriminator step
                        // must not move generator weights.
                        let recon = ctx.input(
                            Self::reconstruct(st, &ctx, &wv)
                                .value()
                                .reshape([b, k, st.dims]),
                        );
                        let d_real = Self::discriminate(st, &ctx, &wv);
                        let d_fake = Self::discriminate(st, &ctx, &recon);
                        let ones = ctx.input(Tensor::ones(d_real.shape()));
                        let loss = d_real.sub(&ones).square().mean_all().add(&d_fake.square().mean_all());
                        loss.backward();
                        ctx.grads()
                    };
                    opt_d.step(&mut store, &grads);
                    state.store = store;
                }
            }
            let seconds = start.elapsed().as_secs_f64();
            secs += seconds;
            rec.emit("baseline.epoch", |e| {
                e.u64("epoch", epoch as u64).f64("seconds", seconds);
            });
        }

        state.train_scores = self.score_batches(&state, train);
        self.state = Some(state);
        Ok(FitReport { seconds_per_epoch: secs / cfg.epochs.max(1) as f64, epochs: cfg.epochs })
    }

    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError> {
        let state = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        Ok(self.score_batches(state, test))
    }

    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError> {
        Ok(&self.state.as_ref().ok_or(DetectorError::NotFitted)?.train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn madgan_detects_injected_anomalies() {
        let train = toy_series(300, 2, 31);
        let mut det = MadGan::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 1.5 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn discriminator_output_in_unit_interval() {
        let train = toy_series(200, 1, 32);
        let mut det = MadGan::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        let scores = det.score(&train).unwrap();
        assert!(scores.iter().flatten().all(|&v| v.is_finite() && v >= 0.0));
    }
}
