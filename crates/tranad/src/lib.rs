//! # tranad
//!
//! A from-scratch Rust implementation of **TranAD** (Tuli, Casale,
//! Jennings — VLDB 2022): deep transformer networks for anomaly detection
//! and diagnosis in multivariate time series.
//!
//! The model (Figure 1 of the paper) encodes the sequence context and the
//! current window with transformer encoders, reconstructs the window with
//! two decoders, and trains them adversarially in two phases with
//! focus-score self-conditioning (Algorithm 1). At test time, POT
//! thresholding turns reconstruction deviations into per-dimension anomaly
//! labels (Algorithm 2).
//!
//! ```
//! use tranad::{train, PotConfig, TranadConfig};
//! use tranad_data::TimeSeries;
//!
//! // A short sine-wave series; anything implementing the data layout works.
//! let col: Vec<f64> = (0..200).map(|t| (t as f64 / 8.0).sin()).collect();
//! let series = TimeSeries::from_columns(&[col]);
//!
//! let config = TranadConfig::builder()
//!     .epochs(2).window(6).context(12).ff_hidden(8)
//!     .build().unwrap();
//! let (detector, report) = train(&series, config).unwrap();
//! assert!(report.epochs_run >= 1);
//!
//! let detection = detector.detect(&series, PotConfig::default()).unwrap();
//! assert_eq!(detection.labels.len(), series.len());
//! ```
//!
//! Every pipeline stage is instrumented: set `TRANAD_TRACE=/path/trace.jsonl`
//! (or pass a [`tranad_telemetry::Recorder`] to the `*_with` variants) to
//! stream per-epoch losses, POT calibration details, buffer-pool stats and
//! more as JSON lines. With no sink configured the instrumentation costs
//! zero allocations per training step.

pub mod ablation;
pub mod config;
pub mod detect;
pub mod error;
pub mod introspect;
pub mod model;
pub mod online;
pub mod persist;
pub mod train;

pub use ablation::Ablation;
pub use config::{TranadConfig, TranadConfigBuilder};
pub use detect::{detect_aggregate, detect_from_scores, detect_from_scores_with, Detection};
pub use error::DetectorError;
pub use introspect::Introspection;
pub use model::{TranadModel, TranadOutput};
pub use online::{OnlineSnapshot, OnlineState, OnlineVerdict};
pub use persist::{atomic_write, PersistError};
pub use train::{train, train_with, TrainReport, TrainedTranad};

// Re-export the POT configuration: it is part of the detection API surface.
pub use tranad_evt::PotConfig;
