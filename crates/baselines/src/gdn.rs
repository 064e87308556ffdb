//! GDN — Graph Deviation Network (Deng & Hooi, AAAI 2021): learns a sparse
//! relationship graph between sensors, forecasts each sensor from its graph
//! neighbors with attention, and scores the *normalized* deviation (error
//! divided by the sensor's robust error spread).
//!
//! The graph here is built from training correlations (top-`k` neighbors
//! per sensor), which is the stationary limit of GDN's learned embedding
//! similarity; forecasting and deviation scoring follow the original.

use crate::common::{score_windows, sgd_step, split_history, NeuralConfig};
use crate::detector::{Detector, DetectorError, FitReport};
use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_nn::{optim::AdamW, Activation, FeedForward, Fwd, InferCtx, Init, ParamStore};
use tranad_tensor::{Tensor, Var};

struct GdnState {
    store: ParamStore,
    /// One forecaster per sensor, reading the windowed history of the
    /// sensor and its graph neighbors.
    forecasters: Vec<FeedForward>,
    /// Graph: neighbor indices per sensor (self first).
    neighbors: Vec<Vec<usize>>,
    /// Robust per-sensor error scale (median + IQR on training errors).
    error_scale: Vec<f64>,
    normalizer: Normalizer,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

/// The GDN detector.
pub struct Gdn {
    config: NeuralConfig,
    /// Neighbors per sensor in the learned graph (original default 15,
    /// capped by dimensionality here).
    pub top_k: usize,
    state: Option<GdnState>,
}

impl Gdn {
    /// Creates an (unfitted) GDN detector.
    pub fn new(config: NeuralConfig) -> Self {
        Gdn {
            config,
            top_k: 5,
            state: None,
        }
    }

    /// Gathers `[b, hist * n_neigh]` input rows for sensor `d`.
    fn gather(history: &Tensor, neighbors: &[usize], dims: usize) -> Tensor {
        let s = history.shape();
        let (b, hist) = (s.dim(0), s.dim(1));
        let mut out = Vec::with_capacity(b * hist * neighbors.len());
        for bi in 0..b {
            for &nd in neighbors {
                for t in 0..hist {
                    out.push(history.data()[(bi * hist + t) * dims + nd]);
                }
            }
        }
        Tensor::from_vec(out, [b, hist * neighbors.len()])
    }

    fn forecast_errors(&self, state: &GdnState, w: &Tensor) -> Vec<Vec<f64>> {
        let k = self.config.window;
        let (history, target) = split_history(w, k, state.dims);
        let b = w.shape().dim(0);
        let ctx = InferCtx::new(&state.store);
        let mut errors = vec![vec![0.0; state.dims]; b];
        for d in 0..state.dims {
            let input = Self::gather(&history, &state.neighbors[d], state.dims);
            let pred = state.forecasters[d].forward(&ctx, &ctx.input(input));
            for (bi, row) in errors.iter_mut().enumerate() {
                let e = pred.data()[bi] - target.data()[bi * state.dims + d];
                row[d] = e * e;
            }
        }
        errors
    }

    fn score_batches(&self, state: &GdnState, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = state.normalizer.transform(series);
        score_windows(&normalized, self.config.window, self.config.batch, |w| {
            self.forecast_errors(state, w)
                .into_iter()
                .map(|row| {
                    row.iter()
                        .zip(&state.error_scale)
                        .map(|(&e, &s)| e / s)
                        .collect()
                })
                .collect()
        })
    }
}

impl Detector for Gdn {
    fn name(&self) -> &'static str {
        "GDN"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        let cfg = self.config;
        crate::common::check_fit_input(train, &cfg)?;
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        let dims = train.dims();
        let hist = cfg.window - 1;
        let top_k = self.top_k.min(dims - 1);

        // Relationship graph from absolute training correlations.
        let neighbors = correlation_graph(&normalized, top_k);

        let mut store = ParamStore::new();
        let mut init = Init::with_seed(cfg.seed);
        let forecasters: Vec<FeedForward> = (0..dims)
            .map(|d| {
                FeedForward::new(
                    &mut store,
                    &mut init,
                    &[hist * neighbors[d].len(), cfg.hidden, 1],
                    Activation::Relu,
                    Activation::Sigmoid,
                    0.0,
                )
            })
            .collect();

        let windows = Windows::borrowed(&normalized, cfg.window);
        let mut opt = AdamW::new(cfg.lr);
        let neighbors_ref = neighbors.clone();
        let forecasters_ref = &forecasters;
        let report = crate::common::epoch_loop(&mut store, &windows, cfg, |store, w, epoch| {
            let (history, target) = split_history(w, cfg.window, dims);
            // Joint step over all sensors: sum of per-sensor forecast MSEs.
            sgd_step(store, &mut opt, cfg.seed ^ epoch as u64, |ctx| {
                let b = w.shape().dim(0);
                let mut loss: Option<Var> = None;
                for d in 0..dims {
                    let input = Self::gather(&history, &neighbors_ref[d], dims);
                    let pred = forecasters_ref[d].forward(ctx, &ctx.input(input));
                    let tgt_col: Vec<f64> = (0..b).map(|bi| target.data()[bi * dims + d]).collect();
                    let tgt = ctx.input(Tensor::from_vec(tgt_col, [b, 1]));
                    let l = pred.mse(&tgt);
                    loss = Some(match loss {
                        Some(acc) => acc.add(&l),
                        None => l,
                    });
                }
                loss.expect("at least one sensor")
            })
        });

        let mut state = GdnState {
            store,
            forecasters,
            neighbors,
            error_scale: vec![1.0; dims],
            normalizer,
            train_scores: Vec::new(),
            dims,
        };
        // Robust deviation normalization from training errors.
        let raw_train: Vec<Vec<f64>> = {
            let normalized = state.normalizer.transform(train);
            score_windows(&normalized, cfg.window, cfg.batch, |w| {
                self.forecast_errors(&state, w)
            })
        };
        for d in 0..dims {
            let mut col: Vec<f64> = raw_train.iter().map(|r| r[d]).collect();
            col.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = col[col.len() / 2];
            let iqr = col[(col.len() * 3) / 4] - col[col.len() / 4];
            state.error_scale[d] = (median + iqr).max(1e-9);
        }
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

/// Top-`k` absolute-correlation neighbors per dimension (self prepended).
fn correlation_graph(series: &TimeSeries, top_k: usize) -> Vec<Vec<usize>> {
    let m = series.dims();
    let n = series.len() as f64;
    let cols: Vec<Vec<f64>> = (0..m).map(|d| series.column(d)).collect();
    let means: Vec<f64> = cols.iter().map(|c| c.iter().sum::<f64>() / n).collect();
    let stds: Vec<f64> = cols
        .iter()
        .zip(&means)
        .map(|(c, &mu)| {
            (c.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n)
                .sqrt()
                .max(1e-9)
        })
        .collect();
    (0..m)
        .map(|d| {
            let mut scored: Vec<(usize, f64)> = (0..m)
                .filter(|&o| o != d)
                .map(|o| {
                    let corr = cols[d]
                        .iter()
                        .zip(&cols[o])
                        .map(|(&a, &b)| (a - means[d]) * (b - means[o]))
                        .sum::<f64>()
                        / (n * stds[d] * stds[o]);
                    (o, corr.abs())
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let mut neigh = vec![d];
            neigh.extend(scored.iter().take(top_k).map(|(o, _)| *o));
            neigh
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn graph_prefers_correlated_dims() {
        // dim 1 is a copy of dim 0; dim 2 independent.
        let base: Vec<f64> = (0..200).map(|t| (t as f64 / 7.0).sin()).collect();
        let copy = base.clone();
        let indep: Vec<f64> = (0..200).map(|t| ((t * t) as f64).cos()).collect();
        let ts = TimeSeries::from_columns(&[base, copy, indep]);
        let g = correlation_graph(&ts, 1);
        assert_eq!(g[0], vec![0, 1]);
        assert_eq!(g[1], vec![1, 0]);
    }

    #[test]
    fn gdn_detects_anomalies() {
        let train = toy_series(300, 3, 51);
        let mut det = Gdn::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn univariate_degenerates_gracefully() {
        let train = toy_series(200, 1, 52);
        let mut det = Gdn::new(NeuralConfig::fast());
        det.fit(&train).unwrap();
        let scores = det.score(&train).unwrap();
        assert_eq!(scores[0].len(), 1);
        assert!(scores.iter().flatten().all(|v| v.is_finite()));
    }
}
