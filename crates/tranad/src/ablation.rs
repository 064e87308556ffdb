//! The ablation variants of Table 6 (§5.1): TranAD with each major
//! component removed.

use crate::config::TranadConfig;

/// A named ablation of the TranAD model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// The full model.
    Full,
    /// Transformer encoders replaced by a feed-forward network.
    NoTransformer,
    /// Phase-2 focus score fixed to zero.
    NoSelfConditioning,
    /// Single-phase training with pure reconstruction loss.
    NoAdversarial,
    /// No meta-learning step.
    NoMaml,
}

impl Ablation {
    /// All variants, in Table 6 row order.
    pub fn all() -> [Ablation; 5] {
        [
            Ablation::Full,
            Ablation::NoTransformer,
            Ablation::NoSelfConditioning,
            Ablation::NoAdversarial,
            Ablation::NoMaml,
        ]
    }

    /// Table 6 row label.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Full => "TranAD",
            Ablation::NoTransformer => "w/o transformer",
            Ablation::NoSelfConditioning => "w/o self-condition",
            Ablation::NoAdversarial => "w/o adversarial training",
            Ablation::NoMaml => "w/o MAML",
        }
    }

    /// Applies the ablation to a base configuration.
    pub fn apply(self, base: TranadConfig) -> TranadConfig {
        match self {
            Ablation::Full => base,
            Ablation::NoTransformer => TranadConfig {
                use_transformer: false,
                ..base
            },
            Ablation::NoSelfConditioning => TranadConfig {
                self_conditioning: false,
                ..base
            },
            Ablation::NoAdversarial => TranadConfig {
                adversarial: false,
                ..base
            },
            Ablation::NoMaml => TranadConfig {
                maml: false,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_flips_exactly_one_flag() {
        let base = TranadConfig::default();
        let flags = |c: &TranadConfig| {
            [
                c.use_transformer,
                c.self_conditioning,
                c.adversarial,
                c.maml,
            ]
        };
        assert_eq!(flags(&Ablation::Full.apply(base)), [true; 4]);
        for (ab, idx) in [
            (Ablation::NoTransformer, 0),
            (Ablation::NoSelfConditioning, 1),
            (Ablation::NoAdversarial, 2),
            (Ablation::NoMaml, 3),
        ] {
            let f = flags(&ab.apply(base));
            for (i, &v) in f.iter().enumerate() {
                assert_eq!(v, i != idx, "{ab:?} flag {i}");
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            Ablation::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
