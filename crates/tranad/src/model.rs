//! The TranAD network (paper Figure 1): a context encoder over the complete
//! sequence, a masked window encoder, and two feed-forward decoders, all
//! operating on `d_model = 2m` features (window concatenated with the focus
//! score on the feature axis).

use crate::config::TranadConfig;
use tranad_nn::{
    causal_mask, Activation, EncoderLayer, FeedForward, Fwd, Init, Linear, ParamId, ParamStore,
    PositionalEncoding, WindowEncoderLayer,
};
use tranad_tensor::{Tensor, Var};

/// Encoder trunk: either the paper's transformer pair or the "w/o
/// transformer" ablation's feed-forward stand-in.
#[allow(clippy::large_enum_variant)] // one instance per model
enum Trunk {
    Transformer {
        pos: PositionalEncoding,
        context_encoder: EncoderLayer,
        window_encoder: WindowEncoderLayer,
    },
    /// Position-wise MLP over the concatenated inputs (Table 6 row 2).
    FeedForward(FeedForward),
}

/// The TranAD network with its two decoders.
pub struct TranadModel {
    /// Input embedding, present when `2m` is below the `d_model` floor.
    embed: Option<Linear>,
    trunk: Trunk,
    decoder1: FeedForward,
    decoder2: FeedForward,
    dims: usize,
    config: TranadConfig,
    /// Parameter ids belonging to decoder 2 (the adversarial "discriminator"
    /// side of Eq. 8); everything else belongs to the encoder + decoder 1.
    decoder2_params: Vec<ParamId>,
}

/// Output of one two-phase forward pass: taped from a [`Ctx`] pass,
/// detached from a tape-free [`InferCtx`] pass.
///
/// [`Ctx`]: tranad_nn::Ctx
/// [`InferCtx`]: tranad_nn::InferCtx
pub struct TranadOutput {
    /// Phase-1 reconstruction from decoder 1 (`O_1`).
    pub o1: Var,
    /// Phase-1 reconstruction from decoder 2 (`O_2`).
    pub o2: Var,
    /// Phase-2 self-conditioned reconstruction from decoder 2 (`Ô_2`).
    pub o2_hat: Var,
    /// The focus score fed to phase 2 (detached tensor), for introspection.
    pub focus: Tensor,
}

impl TranadModel {
    /// Builds a model for `dims`-dimensional data, registering parameters in
    /// `store`.
    pub fn new(store: &mut ParamStore, init: &mut Init, dims: usize, config: TranadConfig) -> Self {
        // Fallible callers validate first (`train` returns the error);
        // direct construction with a bad config is a programming error.
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let d_model = config.d_model(dims);
        let embed = (2 * dims < d_model).then(|| Linear::new(store, init, 2 * dims, d_model));
        let before = store.len();
        let trunk = if config.use_transformer {
            let heads = config.heads_for(dims);
            Trunk::Transformer {
                pos: PositionalEncoding::new(config.context.max(config.window) + 1, d_model),
                context_encoder: EncoderLayer::new(
                    store,
                    init,
                    d_model,
                    heads,
                    config.ff_hidden,
                    config.dropout,
                ),
                window_encoder: WindowEncoderLayer::new(
                    store,
                    init,
                    d_model,
                    heads,
                    config.ff_hidden,
                    config.dropout,
                ),
            }
        } else {
            Trunk::FeedForward(FeedForward::new(
                store,
                init,
                &[d_model, config.ff_hidden, d_model],
                Activation::Relu,
                Activation::Identity,
                config.dropout,
            ))
        };
        let _ = before;
        let decoder1 = FeedForward::new(
            store,
            init,
            &[d_model, dims],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let d2_start = store.len();
        let decoder2 = FeedForward::new(
            store,
            init,
            &[d_model, dims],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let decoder2_params: Vec<ParamId> = store.ids().skip(d2_start).collect();
        TranadModel {
            embed,
            trunk,
            decoder1,
            decoder2,
            dims,
            config,
            decoder2_params,
        }
    }

    /// Data dimensionality `m`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The model configuration.
    pub fn config(&self) -> &TranadConfig {
        &self.config
    }

    /// Ids of decoder-2 parameters (the max side of Eq. 8).
    pub fn decoder2_param_ids(&self) -> &[ParamId] {
        &self.decoder2_params
    }

    /// Encodes `(W, C, F)` into the window representation `I_2^3` of Eq. 5.
    ///
    /// `window`: `[b, k, m]`, `context`: `[b, c, m]`, `focus`: `[b, k, m]`
    /// (zeros in phase 1, phase-1 squared deviations in phase 2).
    fn encode<F: Fwd>(&self, ctx: &F, window: &Var, context: &Var, focus: &Var) -> Var {
        // Concatenate the focus score on the feature axis: [b, k, 2m],
        // then embed if 2m sits below the d_model floor.
        let mut win_in = Var::concat_last(&[window.clone(), focus.clone()]);
        if let Some(embed) = &self.embed {
            win_in = embed.forward(ctx, &win_in);
        }
        match &self.trunk {
            Trunk::Transformer {
                pos,
                context_encoder,
                window_encoder,
            } => {
                let k = window.shape().dim(1);
                let i1 = self.context_input(ctx, pos, context, &focus.value());
                let i1_2 = context_encoder.forward(ctx, &i1, None);
                let i2 = pos.forward(ctx, &win_in);
                // §6 future-work extension: bidirectional window encoding
                // replaces the causal mask with full self-attention.
                let mask = if self.config.bidirectional {
                    ctx.input(Tensor::zeros([k, k]))
                } else {
                    ctx.input(causal_mask(k))
                };
                window_encoder.forward(ctx, &i2, &i1_2, &mask)
            }
            Trunk::FeedForward(ff) => ff.forward(ctx, &win_in),
        }
    }

    /// The context encoder's input `I_1`: the focus `[b, k, m]` zero-padded
    /// to context length (paper §3.3: "broadcast F to match the dimension
    /// ... with appropriate zero-padding", the focus occupying the final k
    /// rows), concatenated onto the context, embedded if 2m sits below the
    /// d_model floor, plus the position encoding.
    fn context_input<F: Fwd>(
        &self,
        ctx: &F,
        pos: &PositionalEncoding,
        context: &Var,
        focus: &Tensor,
    ) -> Var {
        let dims = context.shape();
        let (b, c_len) = (dims.dim(0), dims.dim(1));
        let k = focus.shape().dim(1);
        let ctx_focus = ctx.input(zero_pad_focus(focus, b, c_len, k, self.dims));
        let mut ctx_in = Var::concat_last(&[context.clone(), ctx_focus]);
        if let Some(embed) = &self.embed {
            ctx_in = embed.forward(ctx, &ctx_in);
        }
        pos.forward(ctx, &ctx_in)
    }

    /// Phase 1 (Algorithm 1 line 5): reconstructions with `F = 0`.
    pub fn phase1<F: Fwd>(&self, ctx: &F, window: &Var, context: &Var) -> (Var, Var) {
        let zeros = ctx.input(Tensor::zeros(window.shape()));
        let latent = self.encode(ctx, window, context, &zeros);
        (
            self.decoder1.forward(ctx, &latent),
            self.decoder2.forward(ctx, &latent),
        )
    }

    /// Phase 2 (line 6): decoder-2 reconstruction conditioned on the focus
    /// score. The focus is a detached tensor (no gradient flows through it),
    /// matching the auto-regressive two-phase inference of §3.4.
    pub(crate) fn phase2<F: Fwd>(
        &self,
        ctx: &F,
        window: &Var,
        context: &Var,
        focus: Tensor,
    ) -> Var {
        let f = ctx.input(focus);
        let latent = self.encode(ctx, window, context, &f);
        self.decoder2.forward(ctx, &latent)
    }

    /// The full two-phase forward pass.
    ///
    /// When `self_conditioning` is disabled (ablation), the phase-2 focus is
    /// fixed to zeros; when `adversarial` is disabled the caller should use
    /// only `o1`/`o2`.
    pub fn forward<F: Fwd>(&self, ctx: &F, window: &Var, context: &Var) -> TranadOutput {
        let (o1, o2) = self.phase1(ctx, window, context);
        let focus = if self.config.self_conditioning {
            // F = (O1 - W)^2, elementwise squared deviation, detached.
            o1.value().zip(&window.value(), |a, b| (a - b) * (a - b))
        } else {
            Tensor::zeros(window.shape())
        };
        let o2_hat = self.phase2(ctx, window, context, focus.clone());
        TranadOutput {
            o1,
            o2,
            o2_hat,
            focus,
        }
    }

    /// Averaged context-encoder self-attention weights for the Figure 3
    /// introspection. Returns `[b, c, c]`, or `None` for the feed-forward
    /// ablation.
    pub(crate) fn context_attention<F: Fwd>(
        &self,
        ctx: &F,
        window: &Var,
        context: &Var,
    ) -> Option<Tensor> {
        match &self.trunk {
            Trunk::Transformer {
                pos,
                context_encoder,
                ..
            } => {
                let zeros = Tensor::zeros(window.shape());
                let i1 = self.context_input(ctx, pos, context, &zeros);
                Some(context_encoder.attention_weights(ctx, &i1, None))
            }
            Trunk::FeedForward(_) => None,
        }
    }
}

/// Places the `[b, k, m]` focus tensor into the last `k` rows of a zeroed
/// `[b, c, m]` tensor.
fn zero_pad_focus(focus: &Tensor, b: usize, c_len: usize, k: usize, m: usize) -> Tensor {
    assert!(c_len >= k, "context shorter than window");
    let mut out = Tensor::zeros([b, c_len, m]);
    for bi in 0..b {
        for ki in 0..k {
            let src = (bi * k + ki) * m;
            let dst = (bi * c_len + (c_len - k + ki)) * m;
            out.data_mut()[dst..dst + m].copy_from_slice(&focus.data()[src..src + m]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_nn::Ctx;

    fn build(dims: usize, config: TranadConfig) -> (ParamStore, TranadModel) {
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(config.seed);
        let model = TranadModel::new(&mut store, &mut init, dims, config);
        (store, model)
    }

    fn inputs(ctx: &Ctx, b: usize, k: usize, c: usize, m: usize) -> (Var, Var) {
        let w = ctx.input(Tensor::from_fn([b, k, m], |i| ((i % 17) as f64) / 17.0));
        let cx = ctx.input(Tensor::from_fn([b, c, m], |i| ((i % 13) as f64) / 13.0));
        (w, cx)
    }

    #[test]
    fn forward_shapes() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(3, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 4, cfg.window, cfg.context, 3);
        let out = model.forward(&ctx, &w, &c);
        assert_eq!(out.o1.shape().dims(), &[4, cfg.window, 3]);
        assert_eq!(out.o2.shape().dims(), &[4, cfg.window, 3]);
        assert_eq!(out.o2_hat.shape().dims(), &[4, cfg.window, 3]);
        assert_eq!(out.focus.shape().dims(), &[4, cfg.window, 3]);
    }

    #[test]
    fn outputs_in_unit_range() {
        // Sigmoid decoders must produce values in (0, 1) matching the
        // normalized inputs (Eq. 6).
        let cfg = TranadConfig::fast();
        let (store, model) = build(2, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 2, cfg.window, cfg.context, 2);
        let out = model.forward(&ctx, &w, &c);
        for v in out.o1.value().data() {
            assert!((0.0..=1.0).contains(v));
        }
        for v in out.o2_hat.value().data() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn focus_is_squared_deviation() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(1, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 1, cfg.window, cfg.context, 1);
        let out = model.forward(&ctx, &w, &c);
        let o1 = out.o1.value();
        let wv = w.value();
        for i in 0..o1.numel() {
            let expect = (o1.data()[i] - wv.data()[i]).powi(2);
            assert!((out.focus.data()[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn self_conditioning_off_zeroes_focus() {
        let cfg = TranadConfig {
            self_conditioning: false,
            ..TranadConfig::fast()
        };
        let (store, model) = build(2, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 1, cfg.window, cfg.context, 2);
        let out = model.forward(&ctx, &w, &c);
        assert!(out.focus.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn decoder2_params_disjoint_from_rest() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(2, cfg);
        let d2: std::collections::HashSet<usize> = model
            .decoder2_param_ids()
            .iter()
            .map(|p| p.index())
            .collect();
        assert!(!d2.is_empty());
        assert!(d2.len() < store.len());
    }

    #[test]
    fn feed_forward_ablation_runs() {
        let cfg = TranadConfig {
            use_transformer: false,
            ..TranadConfig::fast()
        };
        let (store, model) = build(3, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 2, cfg.window, cfg.context, 3);
        let out = model.forward(&ctx, &w, &c);
        assert_eq!(out.o2_hat.shape().dims(), &[2, cfg.window, 3]);
        assert!(model.context_attention(&ctx, &w, &c).is_none());
    }

    #[test]
    fn context_attention_shape() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(2, cfg);
        let ctx = Ctx::eval(&store);
        let (w, c) = inputs(&ctx, 3, cfg.window, cfg.context, 2);
        let attn = model.context_attention(&ctx, &w, &c).unwrap();
        assert_eq!(attn.shape().dims(), &[3, cfg.context, cfg.context]);
    }

    #[test]
    fn gradients_flow_through_both_phases() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(2, cfg);
        let ctx = Ctx::train(&store, 1);
        let (w, c) = inputs(&ctx, 2, cfg.window, cfg.context, 2);
        let out = model.forward(&ctx, &w, &c);
        let loss = out.o1.mse(&w).add(&out.o2_hat.mse(&w));
        loss.backward();
        assert!(ctx.grad_norm_sq() > 0.0);
        assert!(ctx
            .grads()
            .iter()
            .all(|(_, g)| g.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn bidirectional_window_uses_future_context() {
        // With the bidirectional extension, the first window position's
        // reconstruction must depend on the last position's value.
        let cfg = TranadConfig {
            bidirectional: true,
            ..TranadConfig::fast()
        };
        let (store, model) = build(1, cfg);
        let ctx = Ctx::eval(&store);
        let base = Tensor::from_fn([1, cfg.window, 1], |i| (i as f64 * 0.1).sin());
        let mut changed = base.clone();
        let last = changed.numel() - 1;
        changed.data_mut()[last] += 1.0;
        let c = ctx.input(Tensor::zeros([1, cfg.context, 1]));
        let a = model.forward(&ctx, &ctx.input(base), &c).o1.value();
        let b = model.forward(&ctx, &ctx.input(changed), &c).o1.value();
        assert!(
            (a.data()[0] - b.data()[0]).abs() > 1e-9,
            "no bidirectional flow"
        );
    }

    #[test]
    fn causal_window_ignores_future() {
        let cfg = TranadConfig::fast();
        let (store, model) = build(1, cfg);
        let ctx = Ctx::eval(&store);
        let base = Tensor::from_fn([1, cfg.window, 1], |i| (i as f64 * 0.1).sin());
        let mut changed = base.clone();
        let last = changed.numel() - 1;
        changed.data_mut()[last] += 1.0;
        // Context identical and window-caused differences only at the tail:
        // position 0 output must not change... note the cross-attention
        // reads the *context*, which here is fixed zeros.
        let c = ctx.input(Tensor::zeros([1, cfg.context, 1]));
        let a = model.forward(&ctx, &ctx.input(base), &c).o1.value();
        let b = model.forward(&ctx, &ctx.input(changed), &c).o1.value();
        assert!((a.data()[0] - b.data()[0]).abs() < 1e-12);
    }

    #[test]
    fn zero_pad_focus_places_window_at_tail() {
        let focus = Tensor::from_fn([1, 2, 1], |i| (i + 1) as f64);
        let padded = zero_pad_focus(&focus, 1, 5, 2, 1);
        assert_eq!(padded.data(), &[0.0, 0.0, 0.0, 1.0, 2.0]);
    }
}
