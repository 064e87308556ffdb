//! # tranad-evt
//!
//! Extreme-value-theory thresholding for anomaly scores, as used across the
//! TranAD reproduction:
//!
//! - [`pot`]: the Peaks-Over-Threshold configuration of the paper's
//!   thresholding method (risk `q = 1e-4`, per-dataset low quantiles) and
//!   the quantile that sets the initial threshold.
//! - [`spot`]: streaming SPOT, the one POT fit (init on train scores with
//!   Grimshaw GPD fitting, adapt on non-alarm test scores), used by batch
//!   detection and serving alike.
//! - [`ndt`]: Non-parametric Dynamic Thresholding for the LSTM-NDT baseline.
//! - [`gpd`]: the underlying Generalized Pareto fitting machinery.

pub mod error;
pub mod gpd;
pub mod ndt;
pub mod pot;
pub mod spot;

pub use error::PotError;
pub use gpd::{fit_gpd, fit_gpd_detailed, GpdFit, GpdFitInfo};
pub use ndt::{Ndt, NdtConfig};
pub use pot::{try_quantile, PotConfig};
pub use spot::{Spot, SpotParts};
