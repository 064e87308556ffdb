//! MSCRED (Zhang et al., AAAI 2019): encodes inter-sensor *signature
//! matrices* (pairwise correlations over windows at multiple scales) with a
//! convolutional recurrent autoencoder; anomalies are residuals of the
//! reconstructed signature matrix.
//!
//! This implementation keeps the signature-matrix core — per-window
//! pairwise inner products at multiple scales — and autoencodes them with a
//! feed-forward network (the ConvLSTM spatial prior matters for images;
//! signature matrices here are small). Per-dimension scores are the row
//! residuals of the reconstructed signature matrix, which is exactly how
//! MSCRED attributes anomalies to sensors. For high-dimensional datasets
//! the sensors are pooled into at most `max_channels` groups first — the
//! scalability ceiling the paper notes for MSCRED.

use crate::common::{score_windows, sgd_step, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_nn::{optim::AdamW, Activation, FeedForward, Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::Tensor;

struct MscredState {
    store: ParamStore,
    autoencoder: FeedForward,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
    channels: usize,
    /// Sensor -> pooled channel map.
    channel_of: Vec<usize>,
    scales: Vec<usize>,
}

/// The MSCRED detector.
pub struct Mscred {
    config: NeuralConfig,
    /// Maximum signature-matrix side (sensors are average-pooled above it).
    pub max_channels: usize,
    state: Option<MscredState>,
}

impl Mscred {
    /// Creates an (unfitted) MSCRED detector.
    pub fn new(config: NeuralConfig) -> Self {
        Mscred {
            config,
            max_channels: 12,
            state: None,
        }
    }

    /// Builds the multi-scale signature matrix for one window `[k, m]`,
    /// flattened: for each scale `s`, entry `(i, j)` is the inner product
    /// of channels `i` and `j` over the last `s` steps, normalized by `s`.
    fn signature(
        w: &Tensor,
        bi: usize,
        k: usize,
        dims: usize,
        channel_of: &[usize],
        channels: usize,
        scales: &[usize],
    ) -> Vec<f64> {
        // Pool sensors into channels per timestep.
        let mut pooled = vec![0.0; k * channels];
        let mut counts = vec![0usize; channels];
        for (d, &c) in channel_of.iter().enumerate() {
            counts[c] += 1;
            for t in 0..k {
                pooled[t * channels + c] += w.data()[(bi * k + t) * dims + d];
            }
        }
        for t in 0..k {
            for c in 0..channels {
                pooled[t * channels + c] /= counts[c].max(1) as f64;
            }
        }
        let mut sig = Vec::with_capacity(scales.len() * channels * channels);
        for &s in scales {
            let s = s.min(k);
            for i in 0..channels {
                for j in 0..channels {
                    let mut acc = 0.0;
                    for t in (k - s)..k {
                        acc += pooled[t * channels + i] * pooled[t * channels + j];
                    }
                    sig.push(acc / s as f64);
                }
            }
        }
        sig
    }

    fn score_batches(&self, state: &MscredState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            let b = w.shape().dim(0);
            let sig_len = state.scales.len() * state.channels * state.channels;
            let mut rows = Vec::with_capacity(b * sig_len);
            for bi in 0..b {
                rows.extend(Self::signature(
                    w,
                    bi,
                    k,
                    state.dims,
                    &state.channel_of,
                    state.channels,
                    &state.scales,
                ));
            }
            let input = Tensor::from_vec(rows, [b, sig_len]);
            let ctx = InferCtx::new(&state.store);
            let recon = state.autoencoder.forward(&ctx, &ctx.input(input.clone()));
            // Residual per channel: mean squared residual over its rows in
            // every scale, then spread back to the sensors in the channel.
            (0..b)
                .map(|bi| {
                    let mut chan_err = vec![0.0; state.channels];
                    for (si, _) in state.scales.iter().enumerate() {
                        let base = bi * sig_len + si * state.channels * state.channels;
                        for (i, ce) in chan_err.iter_mut().enumerate() {
                            for j in 0..state.channels {
                                let idx = base + i * state.channels + j;
                                let e = recon.data()[idx] - input.data()[idx];
                                *ce += e * e;
                            }
                        }
                    }
                    let denom = (state.scales.len() * state.channels) as f64;
                    state
                        .channel_of
                        .iter()
                        .map(|&c| chan_err[c] / denom)
                        .collect()
                })
                .collect()
        })
    }
}

impl Detector for Mscred {
    fn name(&self) -> &'static str {
        "MSCRED"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        crate::common::check_fit_input(train, &cfg)?;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();
        let channels = dims.min(self.max_channels);
        let channel_of: Vec<usize> = (0..dims).map(|d| d * channels / dims).collect();
        let scales = vec![cfg.window, cfg.window / 2, cfg.window / 4]
            .into_iter()
            .filter(|&s| s >= 1)
            .collect::<Vec<_>>();
        let sig_len = scales.len() * channels * channels;

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let autoencoder = FeedForward::new(
            &mut store,
            &mut init,
            &[sig_len, cfg.hidden, cfg.latent, cfg.hidden, sig_len],
            Activation::Relu,
            Activation::Identity,
            0.0,
        );

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let k = cfg.window;
        let (co, ch, sc) = (channel_of.clone(), channels, scales.clone());
        let ae = &autoencoder;
        let report = crate::common::epoch_loop(&mut store, &windows, cfg, |store, w, epoch| {
            let b = w.shape().dim(0);
            let mut rows = Vec::with_capacity(b * sig_len);
            for bi in 0..b {
                rows.extend(Self::signature(w, bi, k, dims, &co, ch, &sc));
            }
            let input = Tensor::from_vec(rows, [b, sig_len]);
            sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                let x = ctx.input(input.clone());
                ae.forward(ctx, &x).mse(&x)
            })
        });

        let mut state = MscredState {
            store,
            autoencoder,
            normalizer,
            train_scores: Vec::new(),
            dims,
            channels,
            channel_of,
            scales,
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
    fn mscred_detects_anomalies() {
        let train = toy_series(300, 3, 61);
        let mut det = Mscred::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 1.5 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn pooling_caps_signature_size() {
        let train = toy_series(150, 30, 62);
        let mut det = Mscred::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let st = det.state.as_ref().unwrap();
        assert!(st.channels <= 12);
        assert_eq!(st.channel_of.len(), 30);
        let scores = det.score(&train).unwrap();
        assert_eq!(scores[0].len(), 30);
    }
}
