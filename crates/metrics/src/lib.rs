//! # tranad-metrics
//!
//! Evaluation metrics for time-series anomaly detection and diagnosis:
//!
//! - [`evaluate`]: precision/recall/F1 with the point-adjust protocol, and
//!   [`roc_auc`] (paper §4.2.1, Tables 2–3).
//! - [`diagnose`]: HitRate@P% and NDCG@P% root-cause metrics
//!   (paper §4.2.2, Table 4).
//! - [`critical_difference`]: Friedman + Wilcoxon signed-rank
//!   critical-difference analysis (paper Figure 4).

mod classification;
mod diagnosis;
mod ranking;

pub use classification::{evaluate, point_adjust, roc_auc, Confusion, DetectionMetrics};
pub use diagnosis::{diagnose, DiagnosisMetrics};
pub use ranking::{critical_difference, CdEntry, FriedmanResult};
