//! Basic neural network layers: affine maps, layer normalization, and
//! position-wise feed-forward blocks.

use crate::fwd::Fwd;
use crate::param::{Init, ParamId, ParamStore};
use tranad_tensor::{Act, Tensor, Var};

/// Affine layer `y = x W + b` applied to the last dimension.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new(store: &mut ParamStore, init: &mut Init, in_dim: usize, out_dim: usize) -> Self {
        Self::with_bias(store, init, in_dim, out_dim, true)
    }

    /// Creates a linear layer, optionally without bias.
    pub(crate) fn with_bias(
        store: &mut ParamStore,
        init: &mut Init,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(init.xavier(in_dim, out_dim));
        let b = bias.then(|| store.add(Tensor::zeros([out_dim])));
        Linear { w, b, in_dim }
    }

    /// Applies the layer. `x` may be `[.., in_dim]` of rank 2 or 3.
    pub fn forward<F: Fwd>(&self, ctx: &F, x: &Var) -> Var {
        self.forward_act(ctx, x, Act::Identity)
    }

    /// Applies the layer fused with an activation: `act(x W + b)` records a
    /// single tape node instead of three (matmul, add, activation), with
    /// bitwise-identical values and gradients.
    pub(crate) fn forward_act<F: Fwd>(&self, ctx: &F, x: &Var, act: Act) -> Var {
        debug_assert_eq!(
            x.shape().last_dim(),
            self.in_dim,
            "Linear expected last dim {}, got {}",
            self.in_dim,
            x.shape()
        );
        let w = ctx.param(self.w);
        let b = self.b.map(|b| ctx.param(b));
        x.linear_act(&w, b.as_ref(), act)
    }
}

/// Layer normalization over the last dimension with learned scale and shift.
pub(crate) struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f64,
}

impl LayerNorm {
    /// Creates a layer norm for feature width `dim`.
    pub(crate) fn new(store: &mut ParamStore, dim: usize) -> Self {
        LayerNorm {
            gamma: store.add(Tensor::ones([dim])),
            beta: store.add(Tensor::zeros([dim])),
            eps: 1e-5,
        }
    }

    /// Applies normalization followed by the affine transform, fused into a
    /// single tape node (bitwise identical to the norm/mul/add chain).
    pub(crate) fn forward<F: Fwd>(&self, ctx: &F, x: &Var) -> Var {
        x.layer_norm_affine(&ctx.param(self.gamma), &ctx.param(self.beta), self.eps)
    }
}

/// Supported activation functions for feed-forward blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no activation).
    Identity,
}

impl Activation {
    /// The elementwise-kernel equivalent used by fused ops.
    pub(crate) fn to_act(self) -> Act {
        match self {
            Activation::Relu => Act::Relu,
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Tanh => Act::Tanh,
            Activation::Identity => Act::Identity,
        }
    }
}

/// A stack of linear layers with a shared hidden activation, e.g. the
/// two-layer position-wise feed-forward unit of a transformer encoder.
pub struct FeedForward {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
    dropout: f64,
}

impl FeedForward {
    /// Builds an MLP through the given widths, e.g. `[64, 128, 64]` for a
    /// two-layer block. `hidden_act` is applied between layers, `out_act`
    /// after the last layer.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Init,
        widths: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        dropout: f64,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "FeedForward needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, init, w[0], w[1]))
            .collect();
        FeedForward {
            layers,
            hidden_act,
            out_act,
            dropout,
        }
    }

    /// Applies the block. Each linear layer is fused with its activation
    /// into one tape node.
    pub fn forward<F: Fwd>(&self, ctx: &F, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            if i < last {
                h = layer.forward_act(ctx, &h, self.hidden_act.to_act());
                h = ctx.dropout(&h, self.dropout);
            } else {
                h = layer.forward_act(ctx, &h, self.out_act.to_act());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use tranad_tensor::check::assert_gradients_match;

    fn setup() -> (ParamStore, Init) {
        (ParamStore::new(), Init::with_seed(0))
    }

    #[test]
    fn linear_shapes() {
        let (mut store, mut init) = setup();
        let lin = Linear::new(&mut store, &mut init, 3, 5);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::ones([2, 3]));
        assert_eq!(lin.forward(&ctx, &x).shape().dims(), &[2, 5]);
        let x3 = ctx.input(Tensor::ones([4, 2, 3]));
        assert_eq!(lin.forward(&ctx, &x3).shape().dims(), &[4, 2, 5]);
    }

    #[test]
    fn linear_zero_weights_returns_bias() {
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(0);
        let lin = Linear::new(&mut store, &mut init, 2, 2);
        // overwrite weights with zeros, bias with [1, 2]
        store.set(crate::param::ParamId(0), Tensor::zeros([2, 2]));
        store.set(crate::param::ParamId(1), Tensor::from_slice(&[1.0, 2.0]));
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::ones([3, 2]));
        let y = lin.forward(&ctx, &x).value();
        assert_eq!(y.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn linear_gradients_flow_to_params() {
        let (mut store, mut init) = setup();
        let lin = Linear::new(&mut store, &mut init, 3, 2);
        let ctx = Ctx::train(&store, 0);
        let x = ctx.input(Tensor::ones([4, 3]));
        let loss = lin.forward(&ctx, &x).square().mean_all();
        loss.backward();
        let grads = ctx.grads();
        assert_eq!(grads.len(), 2); // w and b
        assert!(grads.iter().any(|(_, g)| g.l2_norm() > 0.0));
    }

    #[test]
    fn layer_norm_affine_identity_params() {
        let (mut store, _) = setup();
        let ln = LayerNorm::new(&mut store, 4);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&ctx, &x).value();
        // gamma=1, beta=0 -> standardized output
        assert!(y.mean().abs() < 1e-10);
    }

    #[test]
    fn feed_forward_output_range_sigmoid() {
        let (mut store, mut init) = setup();
        let ff = FeedForward::new(
            &mut store,
            &mut init,
            &[4, 8, 4],
            Activation::Relu,
            Activation::Sigmoid,
            0.0,
        );
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::from_fn([5, 4], |i| i as f64 - 10.0));
        let y = ff.forward(&ctx, &x).value();
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn composite_layer_matches_numeric_grad() {
        // End-to-end gradient check through Linear + LayerNorm wiring,
        // with the weights treated as the checked inputs.
        let w = Tensor::from_fn([3, 3], |i| (i as f64 * 0.37).sin());
        let x = Tensor::from_fn([2, 3], |i| (i as f64 * 0.71).cos());
        assert_gradients_match(&[w, x], 1e-3, |_t, v| {
            v[1].matmul(&v[0])
                .layer_norm_last(1e-5)
                .sigmoid()
                .mean_all()
        });
    }
}
