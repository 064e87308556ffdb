//! Transformer building blocks: sinusoidal positional encoding, the
//! encoder layer of TranAD's Eq. (4), and the masked decoder-style window
//! encoder layer of Eq. (5).

use crate::attention::MultiHeadAttention;
use crate::fwd::Fwd;
use crate::layers::{Activation, FeedForward, LayerNorm};
use crate::param::{Init, ParamStore};
use tranad_tensor::{Tensor, Var};

/// Sinusoidal positional encoding table (Vaswani et al., 2017 §3.5).
///
/// Precomputed up to `max_len` positions for `d_model` features; sliced per
/// sequence length at forward time.
pub struct PositionalEncoding {
    table: Tensor,
    max_len: usize,
    d_model: usize,
}

impl PositionalEncoding {
    /// Builds the encoding table.
    pub fn new(max_len: usize, d_model: usize) -> Self {
        let table = Tensor::from_fn([max_len, d_model], |flat| {
            let pos = (flat / d_model) as f64;
            let i = flat % d_model;
            let exponent = (2 * (i / 2)) as f64 / d_model as f64;
            let angle = pos / 10_000_f64.powf(exponent);
            if i.is_multiple_of(2) {
                angle.sin()
            } else {
                angle.cos()
            }
        });
        PositionalEncoding { table, max_len, d_model }
    }

    /// Adds position encodings to `x` of shape `[b, len, d_model]`.
    pub fn forward<F: Fwd>(&self, ctx: &F, x: &Var) -> Var {
        let dims = x.shape();
        let len = dims.dim(dims.rank() - 2);
        assert!(
            len <= self.max_len,
            "sequence length {len} exceeds positional encoding table {}",
            self.max_len
        );
        assert_eq!(dims.last_dim(), self.d_model, "d_model mismatch");
        let rows = len * self.d_model;
        let slice = Tensor::from_vec(self.table.data()[..rows].to_vec(), [len, self.d_model]);
        x.add(&ctx.input(slice))
    }
}

/// Standard pre-built transformer encoder layer (TranAD Eq. 4):
/// self-attention + residual + LayerNorm, then feed-forward + residual +
/// LayerNorm, with dropout on each sublayer output.
pub struct EncoderLayer {
    attn: MultiHeadAttention,
    norm1: LayerNorm,
    ff: FeedForward,
    norm2: LayerNorm,
    dropout: f64,
}

impl EncoderLayer {
    /// Creates an encoder layer. `ff_hidden` is the feed-forward expansion
    /// width (the paper uses 2 feed-forward layers with 64 hidden units).
    pub fn new(
        store: &mut ParamStore,
        init: &mut Init,
        d_model: usize,
        heads: usize,
        ff_hidden: usize,
        dropout: f64,
    ) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(store, init, d_model, heads),
            norm1: LayerNorm::new(store, d_model),
            ff: FeedForward::new(
                store,
                init,
                &[d_model, ff_hidden, d_model],
                Activation::Relu,
                Activation::Identity,
                dropout,
            ),
            norm2: LayerNorm::new(store, d_model),
            dropout,
        }
    }

    /// Applies the layer to `x` `[b, len, d_model]` with an optional
    /// additive attention mask.
    pub fn forward<F: Fwd>(&self, ctx: &F, x: &Var, mask: Option<&Var>) -> Var {
        let _s = tranad_telemetry::span::enter("nn.encoder_layer");
        let attn_out = ctx.dropout(&self.attn.self_attention(ctx, x, mask), self.dropout);
        let h = self.norm1.forward(ctx, &x.add(&attn_out));
        let ff_out = ctx.dropout(&self.ff.forward(ctx, &h), self.dropout);
        self.norm2.forward(ctx, &h.add(&ff_out))
    }

    /// Averaged self-attention weights for introspection.
    pub fn attention_weights<F: Fwd>(&self, ctx: &F, x: &Var, mask: Option<&Var>) -> Tensor {
        self.attn.attention_weights(ctx, x, x, mask)
    }
}

/// TranAD's window encoder (Eq. 5): masked self-attention on the window,
/// then cross-attention with the context encoding as keys/values, then a
/// feed-forward sublayer (as in a standard transformer decoder layer).
pub struct WindowEncoderLayer {
    self_attn: MultiHeadAttention,
    norm1: LayerNorm,
    cross_attn: MultiHeadAttention,
    norm2: LayerNorm,
    ff: FeedForward,
    norm3: LayerNorm,
    dropout: f64,
}

impl WindowEncoderLayer {
    /// Creates the window encoder layer.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Init,
        d_model: usize,
        heads: usize,
        ff_hidden: usize,
        dropout: f64,
    ) -> Self {
        WindowEncoderLayer {
            self_attn: MultiHeadAttention::new(store, init, d_model, heads),
            norm1: LayerNorm::new(store, d_model),
            cross_attn: MultiHeadAttention::new(store, init, d_model, heads),
            norm2: LayerNorm::new(store, d_model),
            ff: FeedForward::new(
                store,
                init,
                &[d_model, ff_hidden, d_model],
                Activation::Relu,
                Activation::Identity,
                dropout,
            ),
            norm3: LayerNorm::new(store, d_model),
            dropout,
        }
    }

    /// `window`: `[b, k, d_model]`; `context`: `[b, c, d_model]` — the
    /// encoded complete sequence, used as keys and values of the
    /// cross-attention. `causal` is the `[k, k]` additive mask of Eq. 5.
    pub fn forward<F: Fwd>(&self, ctx: &F, window: &Var, context: &Var, causal: &Var) -> Var {
        let _s = tranad_telemetry::span::enter("nn.window_encoder_layer");
        let sa = ctx.dropout(
            &self.self_attn.self_attention(ctx, window, Some(causal)),
            self.dropout,
        );
        let h = self.norm1.forward(ctx, &window.add(&sa));
        let ca = ctx.dropout(
            &self.cross_attn.forward(ctx, &h, context, context, None),
            self.dropout,
        );
        let h2 = self.norm2.forward(ctx, &h.add(&ca));
        let ff_out = ctx.dropout(&self.ff.forward(ctx, &h2), self.dropout);
        self.norm3.forward(ctx, &h2.add(&ff_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::causal_mask;
    use crate::ctx::Ctx;

    fn setup() -> (ParamStore, Init) {
        (ParamStore::new(), Init::with_seed(0))
    }

    #[test]
    fn positional_encoding_values() {
        let pe = PositionalEncoding::new(16, 4);
        // position 0: sin(0)=0, cos(0)=1 alternating
        assert_eq!(pe.table.at(&[0, 0]), 0.0);
        assert_eq!(pe.table.at(&[0, 1]), 1.0);
        // position 1, i=0: sin(1)
        assert!((pe.table.at(&[1, 0]) - 1f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn positional_encoding_broadcasts_over_batch() {
        let pe = PositionalEncoding::new(8, 4);
        let store = ParamStore::new();
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::zeros([3, 5, 4]));
        let y = pe.forward(&ctx, &x).value();
        // all batches identical and equal to the table slice
        for b in 0..3 {
            for p in 0..5 {
                for d in 0..4 {
                    assert_eq!(y.at(&[b, p, d]), pe.table.at(&[p, d]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds positional encoding table")]
    fn positional_encoding_length_check() {
        let pe = PositionalEncoding::new(4, 2);
        let store = ParamStore::new();
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::zeros([1, 8, 2]));
        pe.forward(&ctx, &x);
    }

    #[test]
    fn encoder_layer_shape_and_grads() {
        let (mut store, mut init) = setup();
        let layer = EncoderLayer::new(&mut store, &mut init, 8, 2, 16, 0.0);
        let ctx = Ctx::train(&store, 0);
        let x = ctx.input(Tensor::from_fn([2, 5, 8], |i| (i as f64 * 0.07).sin()));
        let y = layer.forward(&ctx, &x, None);
        assert_eq!(y.shape().dims(), &[2, 5, 8]);
        y.square().mean_all().backward();
        // every parameter of the layer received gradient
        assert!(ctx.grads().iter().all(|(_, g)| g.data().iter().all(|v| v.is_finite())));
        assert!(ctx.grad_norm_sq() > 0.0);
    }

    #[test]
    fn window_encoder_layer_shapes() {
        let (mut store, mut init) = setup();
        let layer = WindowEncoderLayer::new(&mut store, &mut init, 6, 3, 12, 0.0);
        let ctx = Ctx::eval(&store);
        let w = ctx.input(Tensor::from_fn([2, 4, 6], |i| (i as f64 * 0.11).cos()));
        let c = ctx.input(Tensor::from_fn([2, 9, 6], |i| (i as f64 * 0.05).sin()));
        let mask = ctx.input(causal_mask(4));
        let y = layer.forward(&ctx, &w, &c, &mask);
        assert_eq!(y.shape().dims(), &[2, 4, 6]);
    }

    #[test]
    fn encoder_output_changes_with_input() {
        let (mut store, mut init) = setup();
        let layer = EncoderLayer::new(&mut store, &mut init, 4, 2, 8, 0.0);
        let ctx = Ctx::eval(&store);
        let a = layer
            .forward(&ctx, &ctx.input(Tensor::zeros([1, 3, 4])), None)
            .value();
        let b = layer
            .forward(&ctx, &ctx.input(Tensor::ones([1, 3, 4])), None)
            .value();
        assert_ne!(a.data(), b.data());
    }
}
