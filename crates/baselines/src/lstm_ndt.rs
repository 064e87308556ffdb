//! LSTM-NDT (Hundman et al., KDD 2018): an LSTM forecaster scoring
//! next-step prediction errors, thresholded with Non-parametric Dynamic
//! Thresholding rather than POT.

use crate::common::{check_fit_input, score_windows, sgd_step, split_history, NeuralConfig};
use crate::detector::{aggregate_scores, Detector, DetectorError, FitReport};
use std::time::Instant;
use tranad_data::{Normalizer, SignalRng, TimeSeries, Windows};
use tranad_evt::{Ndt, NdtConfig};
use tranad_nn::{optim::AdamW, Fwd, InferCtx, Init, Linear, LstmCell, ParamStore};
use tranad_tensor::Tensor;

struct LstmNdtState {
    store: ParamStore,
    lstm: LstmCell,
    head: Linear,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The LSTM-NDT detector.
pub struct LstmNdt {
    config: NeuralConfig,
    state: Option<LstmNdtState>,
}

impl LstmNdt {
    /// Creates an (unfitted) LSTM-NDT detector.
    pub fn new(config: NeuralConfig) -> Self {
        LstmNdt {
            config,
            state: None,
        }
    }

    /// Forecast error scores: the model sees `w[.., ..k-1, ..]` and predicts
    /// the final row; the squared error per dimension is the score.
    fn score_batches(&self, state: &LstmNdtState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        let k = self.config.window;
        score_windows(&normalized, k, self.config.batch, |w| {
            let ctx = InferCtx::new(&state.store);
            let d = w.shape();
            let (b, m) = (d.dim(0), d.dim(2));
            let (history, target) = split_history(w, k, m);
            let hs = state.lstm.run(&ctx, &ctx.input(history));
            let last = last_hidden(&hs.value(), b, k - 1, state.lstm.hidden_size());
            let pred = state.head.forward(&ctx, &ctx.input(last));
            (0..b)
                .map(|bi| {
                    (0..m)
                        .map(|di| {
                            let e = pred.data()[bi * m + di] - target.data()[bi * m + di];
                            e * e
                        })
                        .collect()
                })
                .collect()
        })
    }
}

/// Extracts the final timestep's hidden state from `[b, len, h]`.
fn last_hidden(hs: &Tensor, b: usize, len: usize, h: usize) -> Tensor {
    let mut out = Vec::with_capacity(b * h);
    for bi in 0..b {
        let base = (bi * len + (len - 1)) * h;
        out.extend_from_slice(&hs.data()[base..base + h]);
    }
    Tensor::from_vec(out, [b, h])
}

impl Detector for LstmNdt {
    fn name(&self) -> &'static str {
        "LSTM-NDT"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        check_fit_input(train, &cfg)?;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let lstm = LstmCell::new(&mut store, &mut init, dims, cfg.hidden);
        let head = Linear::new(&mut store, &mut init, cfg.hidden, dims);

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let mut rng = SignalRng::new(cfg.seed);
        let mut order: Vec<usize> = (0..windows.len()).collect();
        let mut secs = 0.0;
        for epoch in 0..cfg.epochs {
            let start = Instant::now();
            for i in (1..order.len()).rev() {
                let j = rng.index(0, i + 1);
                order.swap(i, j);
            }
            let visited = &order[..order.len().min(cfg.max_windows)];
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for batch in visited.chunks(cfg.batch) {
                let w = windows.batch(batch);
                let (history, target) = split_history(&w, cfg.window, dims);
                let b = batch.len();
                let hidden = cfg.hidden;
                let lstm_ref = &lstm;
                let head_ref = &head;
                loss_sum += sgd_step(&mut store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                    let hs = lstm_ref.run(ctx, &ctx.input(history.clone()));
                    // Differentiable slice of the final hidden state.
                    let last = hs
                        .reshape([b, (cfg.window - 1) * hidden])
                        .narrow_last((cfg.window - 2) * hidden, hidden);
                    let pred = head_ref.forward(ctx, &last);
                    pred.mse(&ctx.input(target.clone()))
                });
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

        let mut state = LstmNdtState {
            store,
            lstm,
            head,
            normalizer,
            train_scores: Vec::new(),
            dims,
        };
        state.train_scores = self.score_batches(&state, train);
        let _ = state.dims;
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

    /// NDT thresholding of the aggregate error sequence — the method's own
    /// labeling strategy, which the paper credits for its uneven results.
    fn native_labels(&self, test: &TimeSeries) -> Option<Vec<bool>> {
        let scores = aggregate_scores(&self.score(test).ok()?).ok()?;
        let ndt = Ndt::fit(&scores, NdtConfig::default());
        Some(ndt.label(&scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn forecaster_learns_sine() {
        let train = toy_series(400, 1, 7);
        let mut det = LstmNdt::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let scores = aggregate_scores(det.train_scores().unwrap()).unwrap();
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(mean < 0.1, "forecast error too high: {mean}");
    }

    #[test]
    fn anomalies_score_higher() {
        let train = toy_series(400, 2, 8);
        let mut det = LstmNdt::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 3.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn native_labels_use_ndt() {
        let train = toy_series(300, 1, 9);
        let mut det = LstmNdt::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 6.0);
        let labels = det.native_labels(&test).expect("LSTM-NDT labels natively");
        assert!(range.clone().any(|t| labels[t]), "anomaly not flagged");
        let fp = labels[..30].iter().filter(|&&b| b).count();
        assert!(fp < 5, "too many false positives: {fp}");
    }

    #[test]
    fn split_history_shapes() {
        let w = Tensor::from_fn([2, 4, 3], |i| i as f64);
        let (h, t) = split_history(&w, 4, 3);
        assert_eq!(h.shape().dims(), &[2, 3, 3]);
        assert_eq!(t.shape().dims(), &[2, 3]);
        assert_eq!(t.data()[0], 9.0); // first batch, last row starts at 3*3
    }
}
