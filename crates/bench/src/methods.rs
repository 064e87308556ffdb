//! The method roster: every detector the paper's tables cover, buildable
//! fresh for each run (Table 3 retrains on five subsets).

use crate::runner::HarnessConfig;
use tranad::Ablation;
use tranad_baselines::{
    CaeM, Dagmm, Detector, Gdn, IForestConfig, IsolationForest, LstmNdt, MadGan, Merlin,
    MerlinConfig, Mscred, MtadGat, OmniAnomaly, TranadDetector, Usad,
};

/// The Table 2 method roster (paper order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Discord discovery (classical baseline).
    Merlin,
    /// LSTM forecaster + NDT.
    LstmNdt,
    /// Autoencoder + GMM energy.
    Dagmm,
    /// GRU-VAE.
    OmniAnomaly,
    /// Signature-matrix autoencoder.
    Mscred,
    /// LSTM GAN.
    MadGan,
    /// Two-decoder adversarial AE.
    Usad,
    /// Graph attention + GRU forecaster.
    MtadGat,
    /// AE + bidirectional LSTM memory.
    CaeM,
    /// Graph deviation network.
    Gdn,
    /// The paper's contribution.
    Tranad,
    /// Extra baseline the paper tested and dropped.
    IsolationForest,
    /// Table 6 ablations.
    TranadAblation(Ablation),
}

impl Method {
    /// The Table 2 roster in paper order (Isolation Forest excluded, as in
    /// the paper).
    pub fn table2() -> Vec<Method> {
        vec![
            Method::Merlin,
            Method::LstmNdt,
            Method::Dagmm,
            Method::OmniAnomaly,
            Method::Mscred,
            Method::MadGan,
            Method::Usad,
            Method::MtadGat,
            Method::CaeM,
            Method::Gdn,
            Method::Tranad,
        ]
    }

    /// The Table 6 roster: TranAD plus its four ablations.
    pub(crate) fn table6() -> Vec<Method> {
        Ablation::all()
            .into_iter()
            .map(Method::TranadAblation)
            .collect()
    }

    /// Display name as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Merlin => "MERLIN",
            Method::LstmNdt => "LSTM-NDT",
            Method::Dagmm => "DAGMM",
            Method::OmniAnomaly => "OmniAnomaly",
            Method::Mscred => "MSCRED",
            Method::MadGan => "MAD-GAN",
            Method::Usad => "USAD",
            Method::MtadGat => "MTAD-GAT",
            Method::CaeM => "CAE-M",
            Method::Gdn => "GDN",
            Method::Tranad => "TranAD",
            Method::IsolationForest => "IsolationForest",
            Method::TranadAblation(a) => a.name(),
        }
    }

    /// Builds a fresh, unfitted detector for this method.
    pub(crate) fn build(self, cfg: &HarnessConfig) -> Box<dyn Detector> {
        let n = cfg.neural;
        match self {
            Method::Merlin => Box::new(Merlin::new(MerlinConfig::optimized(10, 40))),
            Method::LstmNdt => Box::new(LstmNdt::new(n)),
            Method::Dagmm => Box::new(Dagmm::new(n)),
            Method::OmniAnomaly => Box::new(OmniAnomaly::new(n)),
            Method::Mscred => Box::new(Mscred::new(n)),
            Method::MadGan => Box::new(MadGan::new(n)),
            Method::Usad => Box::new(Usad::new(n)),
            Method::MtadGat => Box::new(MtadGat::new(n)),
            Method::CaeM => Box::new(CaeM::new(n)),
            Method::Gdn => Box::new(Gdn::new(n)),
            Method::Tranad => Box::new(TranadDetector::new(cfg.tranad)),
            Method::IsolationForest => Box::new(IsolationForest::new(IForestConfig {
                seed: n.seed,
                ..Default::default()
            })),
            Method::TranadAblation(a) => Box::new(TranadDetector::ablation(a, cfg.tranad)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_roster() {
        let names: Vec<&str> = Method::table2().into_iter().map(Method::name).collect();
        assert_eq!(
            names,
            vec![
                "MERLIN",
                "LSTM-NDT",
                "DAGMM",
                "OmniAnomaly",
                "MSCRED",
                "MAD-GAN",
                "USAD",
                "MTAD-GAT",
                "CAE-M",
                "GDN",
                "TranAD"
            ]
        );
    }

    #[test]
    fn table6_has_five_rows() {
        let rows = Method::table6();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].name(), "TranAD");
    }

    #[test]
    fn all_methods_build() {
        let cfg = HarnessConfig::quick();
        for m in Method::table2() {
            let det = m.build(&cfg);
            assert_eq!(det.name(), m.name());
        }
    }

    #[test]
    fn every_method_rejects_an_empty_series_without_panicking() {
        let cfg = HarnessConfig::quick();
        let empty = tranad_data::TimeSeries::from_rows(vec![], 0, 3);
        let roster = Method::table2()
            .into_iter()
            .chain([Method::IsolationForest]);
        for m in roster {
            let mut det = m.build(&cfg);
            let fit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| det.fit(&empty)));
            match fit {
                Ok(result) => assert_eq!(
                    result.unwrap_err(),
                    tranad::DetectorError::EmptySeries,
                    "{}",
                    m.name()
                ),
                Err(_) => panic!("{} panicked on an empty training series", m.name()),
            }
        }
    }
}
