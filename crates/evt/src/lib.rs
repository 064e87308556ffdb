//! # tranad-evt
//!
//! Extreme-value-theory thresholding for anomaly scores, as used across the
//! TranAD reproduction:
//!
//! - [`PotConfig`]: the Peaks-Over-Threshold configuration of the paper's
//!   thresholding method (risk `q = 1e-4`, per-dataset low quantiles), and
//!   [`try_quantile`], the quantile that sets the initial threshold.
//! - [`Spot`]: streaming SPOT, the one POT fit (init on train scores with
//!   Grimshaw GPD fitting, adapt on non-alarm test scores), used by batch
//!   detection and serving alike.
//! - [`Ndt`]: Non-parametric Dynamic Thresholding for the LSTM-NDT baseline.
//! - [`fit_gpd_detailed`]: the underlying Generalized Pareto fitting machinery.

mod error;
mod gpd;
mod ndt;
mod pot;
mod spot;

pub use error::PotError;
pub use gpd::{fit_gpd_detailed, gpd_log_likelihood, pot_quantile, GpdFit, GpdFitInfo};
pub use ndt::{Ndt, NdtConfig};
pub use pot::{try_quantile, PotConfig};
pub use spot::{Spot, SpotParts};
