//! # tranad-data
//!
//! Dataset infrastructure for the TranAD reproduction:
//!
//! - [`TimeSeries`] / [`Labels`]: multivariate time-series containers with
//!   per-dimension ground-truth labels.
//! - [`generate`]: synthetic counterparts of the paper's nine benchmarks
//!   (Table 1), matching their published dimensionality, scaled lengths and
//!   anomaly rates. See DESIGN.md for the substitution rationale. They are
//!   built from seeded signal primitives ([`SignalRng`]: sines, random
//!   walks, ECG pulse trains, tank processes, bursty server metrics,
//!   telemetry) and labeled fault injection (spikes, shifts, flatlines,
//!   drifts, noise bursts, cascades).
//! - [`Normalizer`] / [`Windows`]: Eq. 1 min-max normalization and §3.2
//!   sliding windows with replication padding.
//! - [`train_val_split`] / [`limited_data_subsets`]: 80/20 validation split
//!   and the 20–100 % training subsets of Table 3 / Figure 6.

mod anomaly;
mod datasets;
mod preprocess;
mod series;
mod signal;
mod splits;

pub use datasets::{generate, Dataset, DatasetKind, GenConfig, PaperStats};
pub use preprocess::{Normalizer, Windows};
pub use series::{Labels, TimeSeries};
pub use signal::SignalRng;
pub use splits::{limited_data_subsets, random_subsequence, train_val_split};
