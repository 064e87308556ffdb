//! Model introspection for the paper's Figure 3: per-timestamp averaged
//! attention weights and focus scores.

use crate::train::TrainedTranad;
use tranad_data::{TimeSeries, Windows};
use tranad_nn::{Fwd, InferCtx};

/// Attention and focus traces over a series.
#[derive(Debug, Clone)]
pub struct Introspection {
    /// Average attention weight the current timestamp places on its context
    /// window (mean over heads and key positions), per timestamp.
    pub attention: Vec<f64>,
    /// Focus score per timestamp and dimension (`(O₁−W)²` at the window
    /// tail).
    pub focus: Vec<Vec<f64>>,
}

impl TrainedTranad {
    /// Computes attention and focus traces on a raw series.
    ///
    /// Returns `None` for the feed-forward ablation (no attention exists).
    pub fn introspect(&self, series: &TimeSeries) -> Option<Introspection> {
        let config = *self.model.config();
        let normalized = self.normalizer.transform(series);
        let windows = Windows::new(normalized, config.window);
        let m = series.dims();
        let k = config.window;
        let c_len = config.context;

        let mut attention = Vec::with_capacity(windows.len());
        let mut focus = Vec::with_capacity(windows.len());
        let n = windows.len();
        let bs = config.batch_size.max(1);
        for start in (0..n).step_by(bs) {
            let end = (start + bs).min(n);
            let ctx = InferCtx::new(&self.store);
            let w = ctx.input(windows.batch_range(start, end));
            let c = ctx.input(windows.context_batch_range(start, end, c_len));
            let attn = self.model.context_attention(&ctx, &w, &c)?;
            let out = self.model.forward(&ctx, &w, &c);
            for bi in 0..end - start {
                // Attention from the last (current) context position,
                // averaged over the keys it attends to — the variance of
                // that row signals how concentrated attention is; we report
                // the max weight as the "attention score".
                let row_start = (bi * c_len + (c_len - 1)) * c_len;
                let row = &attn.data()[row_start..row_start + c_len];
                let max_w = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                attention.push(max_w);
                let base = (bi * k + (k - 1)) * m;
                focus.push(out.focus.data()[base..base + m].to_vec());
            }
        }
        Some(Introspection { attention, focus })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TranadConfig;
    use crate::train::train;
    use tranad_data::SignalRng;

    fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
        let mut rng = SignalRng::new(seed);
        let cols: Vec<Vec<f64>> = (0..dims)
            .map(|_| {
                (0..len)
                    .map(|t| (t as f64 / 9.0).sin() + 0.05 * rng.normal())
                    .collect()
            })
            .collect();
        TimeSeries::from_columns(&cols)
    }

    fn cfg() -> TranadConfig {
        TranadConfig {
            epochs: 2,
            window: 6,
            context: 12,
            ff_hidden: 16,
            dropout: 0.0,
            ..TranadConfig::default()
        }
    }

    #[test]
    fn introspection_covers_series() {
        let series = toy_series(150, 2, 1);
        let (trained, _) = train(&series, cfg()).unwrap();
        let intro = trained.introspect(&series).expect("transformer model");
        assert_eq!(intro.attention.len(), series.len());
        assert_eq!(intro.focus.len(), series.len());
        assert_eq!(intro.focus[0].len(), 2);
        assert!(intro.attention.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn focus_correlates_with_anomalies() {
        let series = toy_series(300, 1, 2);
        let (trained, _) = train(&series, cfg()).unwrap();
        let mut test = series.clone();
        for t in 150..155 {
            test.set(t, 0, 8.0);
        }
        let intro = trained.introspect(&test).unwrap();
        let anom: f64 = (150..155).map(|t| intro.focus[t][0]).sum::<f64>() / 5.0;
        let norm: f64 = (20..120).map(|t| intro.focus[t][0]).sum::<f64>() / 100.0;
        assert!(anom > 3.0 * norm, "focus anom {anom} vs norm {norm}");
    }

    #[test]
    fn feed_forward_ablation_has_no_attention() {
        let series = toy_series(120, 1, 3);
        let (trained, _) = train(
            &series,
            TranadConfig {
                use_transformer: false,
                ..cfg()
            },
        )
        .unwrap();
        assert!(trained.introspect(&series).is_none());
    }
}
