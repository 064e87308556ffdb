//! # tranad-baselines
//!
//! Every baseline method of the TranAD paper's evaluation (Table 2),
//! implemented on the same substrate as TranAD itself so training-time and
//! detection comparisons are apples-to-apples:
//!
//! | Detector | Method | Core idea kept |
//! |---|---|---|
//! | [`Merlin`] | MERLIN | parameter-free discord discovery |
//! | [`LstmNdt`] | LSTM-NDT | LSTM forecasting + NDT thresholds |
//! | [`Dagmm`] | DAGMM | autoencoder + GMM energy |
//! | [`OmniAnomaly`] | OmniAnomaly | GRU-VAE reconstruction probability |
//! | [`Mscred`] | MSCRED | multi-scale signature matrices |
//! | [`MadGan`] | MAD-GAN | LSTM GAN, recon + discriminator score |
//! | [`Usad`] | USAD | two-decoder adversarial autoencoder |
//! | [`MtadGat`] | MTAD-GAT | feature + time graph attention, GRU |
//! | [`CaeM`] | CAE-M | autoencoder + bidirectional LSTM memory |
//! | [`Gdn`] | GDN | sensor graph + deviation normalization |
//! | [`IsolationForest`] | Isolation Forest | random isolation trees |
//!
//! All expose the [`Detector`] trait; [`all_detectors`] builds the Table 2
//! roster. Simplifications relative to the original systems are documented
//! per detector and in DESIGN.md.

mod caem;
mod common;
mod dagmm;
mod detector;
mod gdn;
mod gmm;
mod iforest;
mod lstm_ndt;
mod madgan;
mod merlin;
mod mscred;
mod mtad_gat;
mod omni;
mod tranad_adapter;
mod usad;

#[cfg(test)]
pub(crate) mod testutil;

pub use caem::CaeM;
pub use common::{
    flatten_windows, last_row_sq_error, score_windows, sgd_step, NeuralConfig, NeuralConfigBuilder,
};
pub use dagmm::Dagmm;
pub use detector::{aggregate_scores, Detector, FitReport};
pub use gdn::Gdn;
pub use iforest::{IForestConfig, IsolationForest};
pub use lstm_ndt::LstmNdt;
pub use madgan::MadGan;
pub use merlin::{Merlin, MerlinConfig};
pub use mscred::Mscred;
pub use mtad_gat::MtadGat;
pub use omni::OmniAnomaly;
pub use tranad_adapter::TranadDetector;
pub use usad::Usad;

use tranad::TranadConfig;

/// Builds the full Table 2 method roster (excluding Isolation Forest,
/// which the paper dropped), each boxed behind the [`Detector`] trait.
pub fn all_detectors(neural: NeuralConfig, tranad_config: TranadConfig) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(Merlin::new(MerlinConfig::optimized(10, 40))),
        Box::new(LstmNdt::new(neural)),
        Box::new(Dagmm::new(neural)),
        Box::new(OmniAnomaly::new(neural)),
        Box::new(Mscred::new(neural)),
        Box::new(MadGan::new(neural)),
        Box::new(Usad::new(neural)),
        Box::new(MtadGat::new(neural)),
        Box::new(CaeM::new(neural)),
        Box::new(Gdn::new(neural)),
        Box::new(TranadDetector::new(tranad_config)),
    ]
}
