//! CAE-M (Zhang et al., TKDE 2021): a convolutional autoencoding memory
//! network — a feature autoencoder followed by a bidirectional LSTM that
//! models long-term temporal trends of the latent sequence.
//!
//! We keep the two-stage shape: a per-window autoencoder (stage 1) and a
//! forward+backward LSTM over the latent sequence predicting the latent of
//! the current step (stage 2). The score combines reconstruction error with
//! the temporal-prediction error, which is what gives CAE-M its sensitivity
//! to slow drifts.

use crate::common::{flatten_windows, last_row_sq_error, score_windows, sgd_step, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_nn::{
    optim::AdamW, Activation, FeedForward, Fwd, InferCtx, Init, Linear, LstmCell, ParamStore,
};
use tranad_tensor::{Tensor, Var};

struct CaemState {
    store: ParamStore,
    encoder: FeedForward,
    decoder: FeedForward,
    fwd: LstmCell,
    bwd: LstmCell,
    temporal_head: Linear,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The CAE-M detector.
pub struct CaeM {
    config: NeuralConfig,
    state: Option<CaemState>,
}

impl CaeM {
    /// Creates an (unfitted) CAE-M detector.
    pub fn new(config: NeuralConfig) -> Self {
        CaeM {
            config,
            state: None,
        }
    }

    /// Bidirectional temporal prediction of the window's per-step latent
    /// features from the raw window, returning `[b, latent]`.
    fn temporal<F: Fwd>(state: &CaemState, ctx: &F, w: &Var) -> Var {
        let d = w.shape();
        let (b, k) = (d.dim(0), d.dim(1));
        let h = state.fwd.hidden_size();
        let fwd = state.fwd.run(ctx, w);
        let rev = ctx.input(reverse_time(&w.value()));
        let bwd = state.bwd.run(ctx, &rev);
        let f_last = fwd.reshape([b, k * h]).narrow_last((k - 1) * h, h);
        let b_last = bwd.reshape([b, k * h]).narrow_last((k - 1) * h, h);
        state
            .temporal_head
            .forward(ctx, &Var::concat_last(&[f_last, b_last]))
    }

    fn score_batches(&self, state: &CaemState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            let ctx = InferCtx::new(&state.store);
            let b = w.shape().dim(0);
            let wv = ctx.input(w.clone());
            let flat = ctx.input(flatten_windows(w));
            let zv = state.encoder.forward(&ctx, &flat);
            let recon = state.decoder.forward(&ctx, &zv).reshape([b, k, state.dims]);
            let errs = last_row_sq_error(&recon.value(), w);
            // Temporal consistency error in latent space.
            let z_pred = Self::temporal(state, &ctx, &wv);
            let latent = zv.shape().last_dim();
            errs.into_iter()
                .enumerate()
                .map(|(bi, e)| {
                    let tdiff: f64 = (0..latent)
                        .map(|j| {
                            let d = z_pred.data()[bi * latent + j] - zv.data()[bi * latent + j];
                            d * d
                        })
                        .sum::<f64>()
                        / latent as f64;
                    e.iter().map(|&ed| ed + tdiff / state.dims as f64).collect()
                })
                .collect()
        })
    }
}

/// Reverses the time axis of a `[b, k, m]` tensor.
fn reverse_time(w: &Tensor) -> Tensor {
    let d = w.shape();
    let (b, k, m) = (d.dim(0), d.dim(1), d.dim(2));
    let mut out = vec![0.0; w.numel()];
    for bi in 0..b {
        for t in 0..k {
            let src = (bi * k + t) * m;
            let dst = (bi * k + (k - 1 - t)) * m;
            out[dst..dst + m].copy_from_slice(&w.data()[src..src + m]);
        }
    }
    Tensor::from_vec(out, [b, k, m])
}

impl Detector for CaeM {
    fn name(&self) -> &'static str {
        "CAE-M"
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
            Activation::Tanh,
            0.0,
        );
        let decoder = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.latent, cfg.hidden, in_dim],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let fwd = LstmCell::new(&mut store, &mut init, dims, cfg.hidden / 2);
        let bwd = LstmCell::new(&mut store, &mut init, dims, cfg.hidden / 2);
        let temporal_head = Linear::new(&mut store, &mut init, cfg.hidden, cfg.latent);

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let mut state = CaemState {
            store,
            encoder,
            decoder,
            fwd,
            bwd,
            temporal_head,
            normalizer,
            train_scores: Vec::new(),
            dims,
        };
        let report = {
            let mut store = std::mem::take(&mut state.store);
            let st = &state;
            let report = crate::common::epoch_loop(&mut store, &windows, cfg, |store, w, epoch| {
                let flat = flatten_windows(w);
                sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                    let x = ctx.input(flat.clone());
                    let wv = ctx.input(w.clone());
                    let z = st.encoder.forward(ctx, &x);
                    let recon_loss = st.decoder.forward(ctx, &z).mse(&x);
                    // Temporal head predicts the (detached) latent.
                    let z_target = ctx.input(z.value());
                    let temporal_loss = Self::temporal(st, ctx, &wv).mse(&z_target);
                    recon_loss.add(&temporal_loss.scale(0.5))
                })
            });
            state.store = store;
            report
        };

        state.train_scores = self.score_batches(&state, train);
        self.state = Some(state);
        report
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
    fn reverse_time_roundtrip() {
        let w = Tensor::from_fn([2, 3, 2], |i| i as f64);
        let r = reverse_time(&reverse_time(&w));
        assert_eq!(r.data(), w.data());
        let once = reverse_time(&w);
        assert_eq!(&once.data()[0..2], &w.data()[4..6]);
    }

    #[test]
    fn caem_detects_anomalies() {
        let train = toy_series(300, 2, 71);
        let mut det = CaeM::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }
}
