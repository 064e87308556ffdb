//! MTAD-GAT (Zhao et al., ICDM 2020): graph-attention layers over the
//! feature axis and the time axis, feeding a GRU that forecasts the next
//! datapoint. The anomaly score is the per-dimension forecast error.
//!
//! The two graph-attention layers are realized with scaled dot-product
//! self-attention (features-as-tokens and timestamps-as-tokens
//! respectively), which is the dense-graph special case of GAT attention.

use crate::common::{score_windows, sgd_step, NeuralConfig};

use crate::detector::{Detector, DetectorError, FitReport};
use tranad_telemetry::Recorder;
use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_nn::attention::scaled_dot_attention;
use tranad_nn::layers::Linear;
use tranad_nn::optim::AdamW;
use tranad_nn::rnn::GruCell;
use tranad_nn::{Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::Var;

struct MtadGatState {
    store: ParamStore,
    feat_proj: Linear,
    time_proj: Linear,
    gru: GruCell,
    head: Linear,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The MTAD-GAT detector.
pub struct MtadGat {
    config: NeuralConfig,
    state: Option<MtadGatState>,
}

impl MtadGat {
    /// Creates an (unfitted) MTAD-GAT detector.
    pub fn new(config: NeuralConfig) -> Self {
        MtadGat { config, state: None }
    }

    /// The network: feature attention + time attention on the history,
    /// concatenated with the input, GRU over time, linear forecast head.
    fn forecast<F: Fwd>(state: &MtadGatState, ctx: &F, history: &Var) -> Var {
        let d = history.shape();
        let (b, k, m) = (d.dim(0), d.dim(1), d.dim(2));
        // Feature-oriented attention: tokens are dimensions, embeddings are
        // the K-length series of each dimension -> transpose to [b, m, k].
        let feat_tokens = history.transpose();
        let fq = state.feat_proj.forward(ctx, &feat_tokens);
        let feat_attended = scaled_dot_attention(&fq, &fq, &feat_tokens, None).transpose();
        // Time-oriented attention: tokens are timestamps [b, k, m].
        let tq = state.time_proj.forward(ctx, history);
        let time_attended = scaled_dot_attention(&tq, &tq, history, None);
        // Concatenate [x ; feat_att ; time_att] -> [b, k, 3m], run the GRU.
        let enriched = Var::concat_last(&[history.clone(), feat_attended, time_attended]);
        let hs = state.gru.run(ctx, &enriched);
        let h = state.gru.hidden_size();
        let last = hs.reshape([b, k * h]).narrow_last((k - 1) * h, h);
        let _ = m;
        state.head.forward(ctx, &last).sigmoid()
    }

    fn score_batches(&self, state: &MtadGatState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            let ctx = InferCtx::new(&state.store);
            let (history, target) = crate::common::split_history(w, k, state.dims);
            let pred = Self::forecast(state, &ctx, &ctx.input(history));
            let b = w.shape().dim(0);
            (0..b)
                .map(|bi| {
                    (0..state.dims)
                        .map(|di| {
                            let e = pred.data()[bi * state.dims + di]
                                - target.data()[bi * state.dims + di];
                            e * e
                        })
                        .collect()
                })
                .collect()
        })
    }
}

impl Detector for MtadGat {
    fn name(&self) -> &'static str {
        "MTAD-GAT"
    }

    fn fit(
        &mut self,
        train: &TimeSeries,
        rec: &Recorder,
    ) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        assert!(cfg.window >= 2, "MTAD-GAT forecasts from history");
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();
        let hist = cfg.window - 1;

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let feat_proj = Linear::new(&mut store, &mut init, hist, hist);
        let time_proj = Linear::new(&mut store, &mut init, dims, dims);
        let gru = GruCell::new(&mut store, &mut init, 3 * dims, cfg.hidden);
        let head = Linear::new(&mut store, &mut init, cfg.hidden, dims);

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let mut state = MtadGatState {
            store,
            feat_proj,
            time_proj,
            gru,
            head,
            normalizer,
            train_scores: Vec::new(),
            dims,
        };
        let report = {
            let mut store = std::mem::take(&mut state.store);
            let st = &state;
            let report = crate::common::epoch_loop(&mut store, &windows, cfg, rec, |store, w, epoch| {
                let (history, target) = crate::common::split_history(w, cfg.window, dims);
                sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                    let pred = Self::forecast(st, ctx, &ctx.input(history.clone()));
                    pred.mse(&ctx.input(target.clone()))
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
        Ok(&self.state.as_ref().ok_or(DetectorError::NotFitted)?.train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn mtad_gat_detects_anomalies() {
        let train = toy_series(300, 3, 41);
        let mut det = MtadGat::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn score_dimensions_match() {
        let train = toy_series(150, 4, 42);
        let mut det = MtadGat::new(NeuralConfig::fast());
        det.fit(&train, &Recorder::disabled()).unwrap();
        let scores = det.score(&train).unwrap();
        assert_eq!(scores.len(), 150);
        assert_eq!(scores[0].len(), 4);
    }
}
