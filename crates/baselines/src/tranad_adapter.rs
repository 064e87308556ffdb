//! Adapter implementing the shared [`Detector`] interface for the TranAD
//! model, so the benchmark harness treats it exactly like every baseline.

use crate::detector::{Detector, DetectorError, FitReport};
use tranad::{train, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;

/// TranAD wrapped as a [`Detector`].
pub struct TranadDetector {
    config: TranadConfig,
    trained: Option<TrainedTranad>,
    /// The ablation variant's display name (defaults to "TranAD").
    name: &'static str,
}

impl TranadDetector {
    /// Creates an (unfitted) TranAD detector.
    pub fn new(config: TranadConfig) -> Self {
        TranadDetector {
            config,
            trained: None,
            name: "TranAD",
        }
    }

    /// Creates an ablation variant with its Table 6 row label.
    pub fn ablation(ablation: tranad::Ablation, base: TranadConfig) -> Self {
        TranadDetector {
            config: ablation.apply(base),
            trained: None,
            name: ablation.name(),
        }
    }

    /// The trained inner model, if fitted.
    pub fn trained(&self) -> Option<&TrainedTranad> {
        self.trained.as_ref()
    }
}

impl Detector for TranadDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, train_series: &TimeSeries) -> Result<FitReport, DetectorError> {
        let (trained, report) = train(train_series, self.config)?;
        self.trained = Some(trained);
        Ok(FitReport {
            seconds_per_epoch: report.seconds_per_epoch(),
            epochs: report.epochs_run,
        })
    }

    fn score(&self, test: &TimeSeries) -> Result<Vec<Vec<f64>>, DetectorError> {
        Ok(self
            .trained
            .as_ref()
            .ok_or(DetectorError::NotFitted)?
            .score_series(test))
    }

    fn train_scores(&self) -> Result<&[Vec<f64>], DetectorError> {
        Ok(&self
            .trained
            .as_ref()
            .ok_or(DetectorError::NotFitted)?
            .train_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{anomalous_copy, toy_series};

    fn fast_config() -> TranadConfig {
        TranadConfig {
            epochs: 3,
            window: 6,
            context: 12,
            ff_hidden: 16,
            dropout: 0.0,
            ..TranadConfig::default()
        }
    }

    #[test]
    fn adapter_detects_anomalies() {
        let train_series = toy_series(300, 2, 91);
        let mut det = TranadDetector::new(fast_config());
        let report = det.fit(&train_series).unwrap();
        assert!(report.epochs >= 1);
        let (test, range) = anomalous_copy(&train_series, 5.0);
        let scores = det.score(&test).unwrap();
        let anom: f64 = range.clone().map(|t| scores[t][0]).sum::<f64>() / range.len() as f64;
        let norm: f64 = (30..150).map(|t| scores[t][0]).sum::<f64>() / 120.0;
        assert!(anom > 3.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn ablation_names_propagate() {
        let det = TranadDetector::ablation(tranad::Ablation::NoMaml, fast_config());
        assert_eq!(det.name(), "w/o MAML");
    }
}
