//! TranAD hyperparameters (paper §4) and ablation switches (§5.1).

use crate::error::DetectorError;

/// Configuration of the TranAD model and training loop.
///
/// Defaults follow the paper: window size 10, 1 transformer encoder layer,
/// 2 feed-forward layers with 64 hidden units, dropout 0.1, AdamW with lr
/// 0.01 (meta lr 0.02) and a step scheduler with factor 0.5.
#[derive(Debug, Clone, Copy)]
pub struct TranadConfig {
    /// Local context window length `K`.
    pub window: usize,
    /// Length of the encoded complete-sequence context `C` fed to the first
    /// encoder. The paper encodes the sequence up to `t`; we cap it (see
    /// DESIGN.md) since attention cost is quadratic.
    pub context: usize,
    /// Feed-forward hidden width inside encoder layers.
    pub ff_hidden: usize,
    /// Dropout probability in the encoders.
    pub dropout: f64,
    /// Upper bound on attention heads. The paper sets heads equal to the
    /// dataset dimensionality; we use the largest divisor of `d_model = 2m`
    /// not exceeding this cap (other assignments "give similar broad-level
    /// trends", §4).
    pub max_heads: usize,
    /// Initial AdamW learning rate.
    pub lr: f64,
    /// Meta-learning (outer MAML) rate.
    pub meta_lr: f64,
    /// Scheduler: halve the lr every this many epochs.
    pub lr_step: u64,
    /// Maximum training epochs (iteration limit `N` of Algorithm 1).
    pub epochs: usize,
    /// Mini-batch size for window batches.
    pub batch_size: usize,
    /// Evolutionary hyperparameter ε of Eq. 10 (close to 1; the weight of
    /// the reconstruction term at epoch `n` is `ε^{-n}`... see note below).
    pub epsilon: f64,
    /// Patience (epochs without validation improvement) for early stopping.
    pub patience: usize,
    /// Upper bound on the number of training windows visited per epoch
    /// (a fresh random subsample each epoch). Keeps wide, long datasets
    /// tractable on CPU without changing the estimator.
    pub max_windows_per_epoch: usize,
    /// RNG seed for weight init, batching and dropout.
    pub seed: u64,
    /// Ablation: replace the transformer encoders with feed-forward
    /// networks ("w/o transformer", Table 6 row 2).
    pub use_transformer: bool,
    /// Ablation: self-conditioning — feed the phase-1 reconstruction error
    /// as the phase-2 focus score ("w/o self-conditioning" sets this false,
    /// fixing `F = 0`).
    pub self_conditioning: bool,
    /// Ablation: two-phase adversarial training ("w/o adversarial training"
    /// sets this false: single phase, pure reconstruction loss).
    pub adversarial: bool,
    /// Ablation: MAML meta step per epoch ("w/o MAML" sets this false).
    pub maml: bool,
    /// Extension (paper §6 future work): bidirectional window encoding —
    /// drop the causal mask so the window encoder attends to the whole
    /// window in both directions. Only valid for offline detection; the
    /// online API requires causal attention.
    pub bidirectional: bool,
}

impl Default for TranadConfig {
    fn default() -> Self {
        TranadConfig {
            window: 10,
            context: 20,
            ff_hidden: 64,
            dropout: 0.1,
            max_heads: 8,
            lr: 0.01,
            meta_lr: 0.02,
            lr_step: 5,
            epochs: 10,
            batch_size: 128,
            epsilon: 1.06,
            patience: 3,
            max_windows_per_epoch: usize::MAX,
            seed: 42,
            use_transformer: true,
            self_conditioning: true,
            adversarial: true,
            maml: true,
            bidirectional: false,
        }
    }
}

impl TranadConfig {
    /// A configuration tuned for fast unit tests.
    #[cfg(test)]
    pub(crate) fn fast() -> Self {
        TranadConfig {
            epochs: 3,
            batch_size: 64,
            dropout: 0.0,
            ..Default::default()
        }
    }

    /// The evolving reconstruction weight `ε^{-n}` at epoch `n` (Eq. 10).
    /// ε slightly above 1 makes the weight decay from 1 toward 0, shifting
    /// emphasis from plain reconstruction to the adversarial term.
    pub fn recon_weight(&self, epoch: usize) -> f64 {
        self.epsilon.powi(-(epoch as i32))
    }

    /// Number of attention heads for modality `m`: the largest divisor of
    /// `d_model = 2m` that does not exceed [`TranadConfig::max_heads`].
    pub(crate) fn heads_for(&self, m: usize) -> usize {
        let d_model = self.d_model(m);
        (1..=self.max_heads.min(d_model))
            .rev()
            .find(|h| d_model.is_multiple_of(*h))
            .unwrap_or(1)
    }

    /// The model width: `d_model = 2m` (window concatenated with the focus
    /// score on the feature axis), floored at 16. Below the floor the raw
    /// concatenation is linearly embedded — with tiny widths (univariate
    /// data gives `2m = 2`) the encoder's LayerNorm degenerates: the
    /// normalization of two features is always `±1`, destroying all
    /// information.
    pub fn d_model(&self, m: usize) -> usize {
        (2 * m).max(16)
    }

    /// Validates invariants. Prefer constructing through
    /// [`TranadConfig::builder`], which calls this for you.
    pub(crate) fn validate(&self) -> Result<(), DetectorError> {
        let bad = |msg: &str| Err(DetectorError::InvalidConfig(msg.to_string()));
        if self.window < 1 {
            return bad("window must be >= 1");
        }
        if self.context < self.window {
            return bad("context must cover the window");
        }
        if self.epsilon <= 1.0 || !self.epsilon.is_finite() {
            return bad("epsilon must exceed 1 for a decaying reconstruction weight");
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return bad("dropout must be in [0,1)");
        }
        if self.batch_size < 1 {
            return bad("batch_size must be >= 1");
        }
        if self.epochs < 1 {
            return bad("epochs must be >= 1");
        }
        if self.lr <= 0.0 || !self.lr.is_finite() {
            return bad("lr must be positive and finite");
        }
        if self.meta_lr <= 0.0 || !self.meta_lr.is_finite() {
            return bad("meta_lr must be positive and finite");
        }
        if self.lr_step < 1 {
            return bad("lr_step must be >= 1");
        }
        if self.patience < 1 {
            return bad("patience must be >= 1");
        }
        if self.max_heads < 1 {
            return bad("max_heads must be >= 1");
        }
        if self.ff_hidden < 1 {
            return bad("ff_hidden must be >= 1");
        }
        if self.max_windows_per_epoch < 1 {
            return bad("max_windows_per_epoch must be >= 1");
        }
        Ok(())
    }

    /// Starts a validating builder seeded with the paper defaults:
    /// `TranadConfig::builder().window(10).build()?`.
    pub fn builder() -> TranadConfigBuilder {
        TranadConfigBuilder {
            config: TranadConfig::default(),
        }
    }
}

/// Validating builder for [`TranadConfig`]. Every setter overrides one
/// paper-default field; [`TranadConfigBuilder::build`] rejects invalid
/// combinations (window = 0, context < window, ε ≤ 1, ...) up front instead
/// of panicking mid-epoch.
#[derive(Debug, Clone, Copy)]
pub struct TranadConfigBuilder {
    config: TranadConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, $field: $ty) -> Self {
                self.config.$field = $field;
                self
            }
        )*
    };
}

impl TranadConfigBuilder {
    builder_setters! {
        /// Local context window length `K`.
        window: usize,
        /// Encoded complete-sequence context length.
        context: usize,
        /// Feed-forward hidden width inside encoder layers.
        ff_hidden: usize,
        /// Dropout probability in the encoders.
        dropout: f64,
        /// Upper bound on attention heads.
        max_heads: usize,
        /// Initial AdamW learning rate.
        lr: f64,
        /// Meta-learning (outer MAML) rate.
        meta_lr: f64,
        /// Scheduler: halve the lr every this many epochs.
        lr_step: u64,
        /// Maximum training epochs.
        epochs: usize,
        /// Mini-batch size for window batches.
        batch_size: usize,
        /// Evolutionary hyperparameter ε of Eq. 10 (must exceed 1).
        epsilon: f64,
        /// Early-stopping patience in epochs.
        patience: usize,
        /// Upper bound on training windows visited per epoch.
        max_windows_per_epoch: usize,
        /// RNG seed for weight init, batching and dropout.
        seed: u64,
        /// Ablation: transformer encoders on/off.
        use_transformer: bool,
        /// Ablation: self-conditioning on/off.
        self_conditioning: bool,
        /// Ablation: two-phase adversarial training on/off.
        adversarial: bool,
        /// Ablation: per-epoch MAML meta step on/off.
        maml: bool,
        /// Extension: bidirectional (non-causal) window encoding.
        bidirectional: bool,
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TranadConfig, DetectorError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

tranad_json::impl_json_struct!(TranadConfig {
    window,
    context,
    ff_hidden,
    dropout,
    max_heads,
    lr,
    meta_lr,
    lr_step,
    epochs,
    batch_size,
    epsilon,
    patience,
    max_windows_per_epoch,
    seed,
    use_transformer,
    self_conditioning,
    adversarial,
    maml,
    bidirectional,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_json::{FromJson, ToJson};

    #[test]
    fn config_json_roundtrip() {
        let c = TranadConfig {
            seed: 9,
            window: 12,
            dropout: 0.25,
            maml: false,
            ..Default::default()
        };
        let text = c.to_json().to_string();
        let back = TranadConfig::from_json(&tranad_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.seed, 9);
        assert_eq!(back.window, 12);
        assert_eq!(back.dropout, 0.25);
        assert!(!back.maml);
        assert_eq!(back.max_windows_per_epoch, usize::MAX);
    }

    #[test]
    fn config_json_missing_field_errors() {
        let v = tranad_json::parse(r#"{"window": 10}"#).unwrap();
        assert!(TranadConfig::from_json(&v).is_err());
    }

    #[test]
    fn defaults_match_paper() {
        let c = TranadConfig::default();
        assert_eq!(c.window, 10);
        assert_eq!(c.ff_hidden, 64);
        assert_eq!(c.dropout, 0.1);
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.meta_lr, 0.02);
        c.validate().unwrap();
    }

    #[test]
    fn recon_weight_decays_from_one() {
        let c = TranadConfig::default();
        assert!((c.recon_weight(0) - 1.0).abs() < 1e-12);
        assert!(c.recon_weight(5) < c.recon_weight(1));
        assert!(c.recon_weight(100) > 0.0);
    }

    #[test]
    fn heads_divide_d_model() {
        let c = TranadConfig::default();
        for m in [1, 2, 5, 25, 38, 51, 55, 123] {
            let h = c.heads_for(m);
            assert_eq!(c.d_model(m) % h, 0, "m={m}, h={h}");
            assert!(h <= c.max_heads);
        }
    }

    #[test]
    fn heads_for_univariate() {
        let c = TranadConfig::default();
        assert_eq!(c.d_model(1), 16); // floored
        assert_eq!(c.heads_for(1), 8);
    }

    #[test]
    fn d_model_uses_2m_above_floor() {
        let c = TranadConfig::default();
        assert_eq!(c.d_model(25), 50);
        assert_eq!(c.d_model(8), 16);
    }

    #[test]
    fn validate_rejects_short_context() {
        let err = TranadConfig {
            context: 5,
            window: 10,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("context must cover the window"));
    }

    #[test]
    fn builder_applies_overrides_and_validates() {
        let c = TranadConfig::builder()
            .window(12)
            .context(24)
            .epochs(2)
            .build()
            .unwrap();
        assert_eq!(c.window, 12);
        assert_eq!(c.context, 24);
        assert_eq!(c.epochs, 2);
        assert_eq!(c.ff_hidden, TranadConfig::default().ff_hidden);

        assert!(TranadConfig::builder().window(0).build().is_err());
        assert!(TranadConfig::builder()
            .window(10)
            .context(5)
            .build()
            .is_err());
        assert!(TranadConfig::builder().epsilon(0.5).build().is_err());
        assert!(TranadConfig::builder().dropout(1.0).build().is_err());
        assert!(TranadConfig::builder().lr(0.0).build().is_err());
    }
}
