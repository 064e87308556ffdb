//! OmniAnomaly (Su et al., KDD 2019): a stochastic recurrent network — a
//! GRU encoder feeding a variational latent, decoded back into the window.
//! The anomaly score is the reconstruction negative log-likelihood
//! (per-dimension squared error under a fixed-variance Gaussian). The
//! planar normalizing flow of the original is omitted; the stochastic
//! bottleneck is what drives the method's robustness on noisy data (WADI),
//! which survives this simplification.

use crate::common::{last_row_sq_error, score_windows, sgd_step, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use tranad_telemetry::Recorder;
use tranad_data::{Normalizer, SignalRng, TimeSeries, Windows};
use tranad_nn::layers::{Activation, FeedForward, Linear};
use tranad_nn::optim::AdamW;
use tranad_nn::rnn::GruCell;
use tranad_nn::{Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::{Tensor, Var};

struct OmniState {
    store: ParamStore,
    gru: GruCell,
    mu_head: Linear,
    logvar_head: Linear,
    decoder: FeedForward,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The OmniAnomaly detector.
pub struct OmniAnomaly {
    config: NeuralConfig,
    /// KL divergence weight (β-VAE style; small keeps reconstructions sharp).
    pub kl_weight: f64,
    state: Option<OmniState>,
}

impl OmniAnomaly {
    /// Creates an (unfitted) OmniAnomaly detector.
    pub fn new(config: NeuralConfig) -> Self {
        OmniAnomaly { config, kl_weight: 0.01, state: None }
    }

    /// Encodes windows to `(mu, logvar)` via the GRU's final hidden state.
    fn encode<F: Fwd>(state: &OmniState, ctx: &F, w: &Tensor) -> (Var, Var) {
        let d = w.shape();
        let (b, k) = (d.dim(0), d.dim(1));
        let h = state.gru.hidden_size();
        let hs = state.gru.run(ctx, &ctx.input(w.clone()));
        let last = hs.reshape([b, k * h]).narrow_last((k - 1) * h, h);
        (
            state.mu_head.forward(ctx, &last),
            state.logvar_head.forward(ctx, &last),
        )
    }

    fn score_batches(&self, state: &OmniState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            // Deterministic inference: decode from the latent mean.
            let ctx = InferCtx::new(&state.store);
            let (mu, _) = Self::encode(state, &ctx, w);
            let recon = state.decoder.forward(&ctx, &mu);
            let b = w.shape().dim(0);
            let r3 = recon.reshape([b, k, state.dims]);
            last_row_sq_error(&r3.value(), w)
        })
    }
}

impl Detector for OmniAnomaly {
    fn name(&self) -> &'static str {
        "OmniAnomaly"
    }

    fn fit(
        &mut self,
        train: &TimeSeries,
        rec: &Recorder,
    ) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let gru = GruCell::new(&mut store, &mut init, dims, cfg.hidden);
        let mu_head = Linear::new(&mut store, &mut init, cfg.hidden, cfg.latent);
        let logvar_head = Linear::new(&mut store, &mut init, cfg.hidden, cfg.latent);
        let decoder = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.latent, cfg.hidden, cfg.window * dims],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let mut noise_rng = SignalRng::new(cfg.seed ^ 0xF10);
        let kl_w = self.kl_weight;
        let state_holder = OmniState {
            store: ParamStore::new(), // placeholder, swapped below
            gru,
            mu_head,
            logvar_head,
            decoder,
            normalizer,
            train_scores: Vec::new(),
            dims,
        };
        let mut state = state_holder;
        state.store = store;

        let report = {
            let mut local_store = std::mem::take(&mut state.store);
            let st = &state;
            let report = crate::common::epoch_loop(&mut local_store, &windows, cfg, rec, |store, w, epoch| {
                let b = w.shape().dim(0);
                let latent = cfg.latent;
                let noise = Tensor::from_fn([b, latent], |_| noise_rng.normal());
                sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                    let (mu, logvar) = Self::encode(st, ctx, w);
                    // Reparameterization: z = mu + exp(logvar/2) * eps.
                    let z = mu.add(&logvar.scale(0.5).exp().mul(&ctx.input(noise.clone())));
                    let recon = st.decoder.forward(ctx, &z);
                    let target = ctx.input(crate::common::flatten_windows(w));
                    let recon_loss = recon.mse(&target);
                    // KL(q||N(0,1)) = -0.5 * mean(1 + logvar - mu^2 - exp(logvar))
                    let kl = logvar
                        .add_scalar(1.0)
                        .sub(&mu.square())
                        .sub(&logvar.exp())
                        .mean_all()
                        .scale(-0.5);
                    recon_loss.add(&kl.scale(kl_w))
                })
            });
            state.store = local_store;
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
        Ok(&self.state.as_ref().ok_or(DetectorError::NotFitted)?.train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn omni_reconstructs_and_detects() {
        let train = toy_series(400, 2, 21);
        let mut det = OmniAnomaly::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn deterministic_scoring() {
        let train = toy_series(200, 1, 22);
        let mut det = OmniAnomaly::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        assert_eq!(det.score(&train).unwrap(), det.score(&train).unwrap());
    }
}
