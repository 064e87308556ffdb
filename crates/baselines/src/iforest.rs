//! Isolation Forest (Liu et al., ICDM 2008) — the classical ensemble
//! baseline the paper tested and dropped for low F1; included here for
//! completeness and as a sanity floor in the harness.
//!
//! Standard iTrees over datapoint rows: anomalies isolate in few random
//! splits, so the score is `2^(-E[h(x)] / c(n))`.

use crate::detector::{Detector, DetectorError, FitReport};
use std::time::Instant;
use tranad_data::{Normalizer, SignalRng, TimeSeries};

/// One node of an isolation tree.
enum Node {
    Split {
        dim: usize,
        value: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
    Leaf {
        size: usize,
    },
}

/// Isolation Forest configuration.
#[derive(Debug, Clone, Copy)]
pub struct IForestConfig {
    /// Number of trees (original default 100).
    pub trees: usize,
    /// Subsample size per tree (original default 256).
    pub sample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IForestConfig {
    fn default() -> Self {
        IForestConfig {
            trees: 100,
            sample: 256,
            seed: 42,
        }
    }
}

/// The Isolation Forest detector.
pub struct IsolationForest {
    config: IForestConfig,
    trees: Vec<Node>,
    max_depth: usize,
    c_n: f64,
    normalizer: Option<Normalizer>,
    train_scores: Vec<Vec<f64>>,
    dims: usize,
}

impl IsolationForest {
    /// Creates an (unfitted) forest.
    pub fn new(config: IForestConfig) -> Self {
        IsolationForest {
            config,
            trees: Vec::new(),
            max_depth: 0,
            c_n: 1.0,
            normalizer: None,
            train_scores: Vec::new(),
            dims: 0,
        }
    }

    fn build_tree(
        rows: &[usize],
        series: &TimeSeries,
        depth: usize,
        max_depth: usize,
        rng: &mut SignalRng,
    ) -> Node {
        if rows.len() <= 1 || depth >= max_depth {
            return Node::Leaf { size: rows.len() };
        }
        let dims = series.dims();
        // Pick a split dimension with spread; give up after a few tries.
        for _ in 0..4 {
            let d = rng.index(0, dims);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &r in rows.iter() {
                let v = series.get(r, d);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo < 1e-12 {
                continue;
            }
            let split = rng.uniform(lo, hi);
            let left: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&r| series.get(r, d) < split)
                .collect();
            let right: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&r| series.get(r, d) >= split)
                .collect();
            if left.is_empty() || right.is_empty() {
                continue;
            }
            return Node::Split {
                dim: d,
                value: split,
                left: Box::new(Self::build_tree(&left, series, depth + 1, max_depth, rng)),
                right: Box::new(Self::build_tree(&right, series, depth + 1, max_depth, rng)),
            };
        }
        Node::Leaf { size: rows.len() }
    }

    fn path_length(node: &Node, row: &[f64], depth: usize) -> f64 {
        match node {
            Node::Leaf { size } => depth as f64 + c_factor(*size),
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                if row[*dim] < *value {
                    Self::path_length(left, row, depth + 1)
                } else {
                    Self::path_length(right, row, depth + 1)
                }
            }
        }
    }

    fn score_rows(&self, series: &TimeSeries) -> Vec<Vec<f64>> {
        let normalized = self
            .normalizer
            .as_ref()
            .expect("fit before score")
            .transform(series);
        (0..normalized.len())
            .map(|t| {
                let row = normalized.row(t);
                let avg_path: f64 = self
                    .trees
                    .iter()
                    .map(|tree| Self::path_length(tree, row, 0))
                    .sum::<f64>()
                    / self.trees.len().max(1) as f64;
                let s = 2f64.powf(-avg_path / self.c_n);
                vec![s; self.dims]
            })
            .collect()
    }
}

/// Average unsuccessful-search path length of a BST with `n` nodes.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (n - 1.0) / n
}

impl Detector for IsolationForest {
    fn name(&self) -> &'static str {
        "IsolationForest"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport, DetectorError> {
        if train.is_empty() {
            return Err(DetectorError::EmptySeries);
        }
        let start = Instant::now();
        let normalizer = Normalizer::fit(train);
        let normalized = normalizer.transform(train);
        self.dims = train.dims();
        let sample = self.config.sample.min(train.len());
        self.max_depth = (sample as f64).log2().ceil() as usize;
        self.c_n = c_factor(sample).max(1e-9);
        let mut rng = SignalRng::new(self.config.seed);
        self.trees = (0..self.config.trees)
            .map(|_| {
                let rows: Vec<usize> = (0..sample)
                    .map(|_| rng.index(0, normalized.len()))
                    .collect();
                Self::build_tree(&rows, &normalized, 0, self.max_depth, &mut rng)
            })
            .collect();
        self.normalizer = Some(normalizer);
        self.train_scores = self.score_rows(train);
        let seconds = start.elapsed().as_secs_f64();
        tranad_telemetry::current().emit("baseline.fit", |e| {
            e.str("method", "IsolationForest").f64("seconds", seconds);
        });
        Ok(FitReport {
            seconds_per_epoch: seconds,
            epochs: 1,
        })
    }

    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError> {
        if self.normalizer.is_none() {
            return Err(DetectorError::NotFitted);
        }
        Ok(self.score_rows(test))
    }

    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError> {
        if self.normalizer.is_none() {
            return Err(DetectorError::NotFitted);
        }
        Ok(&self.train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    #[test]
    fn iforest_scores_outliers_higher() {
        let train = toy_series(500, 2, 81);
        let mut det = IsolationForest::new(IForestConfig::default());
        det.fit(&train).unwrap();
        let (test, range) = anomalous_copy(&train, 6.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn scores_in_unit_interval() {
        let train = toy_series(300, 3, 82);
        let mut det = IsolationForest::new(IForestConfig {
            trees: 20,
            ..Default::default()
        });
        det.fit(&train).unwrap();
        assert!(det
            .train_scores()
            .unwrap()
            .iter()
            .flatten()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn c_factor_monotone() {
        assert_eq!(c_factor(1), 0.0);
        assert!(c_factor(100) > c_factor(10));
    }
}
