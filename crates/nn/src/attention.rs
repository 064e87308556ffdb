//! Scaled dot-product and multi-head attention (Vaswani et al., 2017),
//! including the causal masking TranAD's window encoder uses.

use crate::fwd::Fwd;
use crate::layers::Linear;
use crate::param::{Init, ParamStore};
use tranad_tensor::{Tensor, Var};

/// Additive mask value for disallowed attention positions. Large but finite
/// so softmax stays well-conditioned.
pub(crate) const MASK_NEG: f64 = -1e30;

/// Builds the `[len, len]` additive causal mask: position `i` may attend to
/// positions `0..=i` only.
pub fn causal_mask(len: usize) -> Tensor {
    Tensor::from_fn([len, len], |flat| {
        let (i, j) = (flat / len, flat % len);
        if j > i {
            MASK_NEG
        } else {
            0.0
        }
    })
}

/// Scaled dot-product attention on already-projected inputs.
///
/// `q`: `[b, lq, d]`, `k`/`v`: `[b, lk, d]`, optional additive mask
/// broadcastable to `[b, lq, lk]`. Returns `[b, lq, d]`.
pub fn scaled_dot_attention(q: &Var, k: &Var, v: &Var, mask: Option<&Var>) -> Var {
    let d = q.shape().last_dim() as f64;
    // Fused q·kᵀ·scale: one tape node, no materialized transpose.
    let mut scores = q.matmul_t_scaled(k, 1.0 / d.sqrt());
    if let Some(m) = mask {
        scores = scores.add(m);
    }
    scores.softmax_last().matmul(v)
}

/// Multi-head attention with separate query/key/value/output projections.
///
/// Heads are realized by narrowing the projected feature axis, which keeps
/// the autograd graph simple at the cost of `h` small matmuls — fine for the
/// TranAD regime (`d_model = 2m`, heads = `m`, window 10).
pub(crate) struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block over `d_model` features with `heads` heads.
    /// `d_model` must divide evenly by `heads`.
    pub(crate) fn new(
        store: &mut ParamStore,
        init: &mut Init,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "heads {heads} must divide d_model {d_model}"
        );
        MultiHeadAttention {
            wq: Linear::new(store, init, d_model, d_model),
            wk: Linear::new(store, init, d_model, d_model),
            wv: Linear::new(store, init, d_model, d_model),
            wo: Linear::new(store, init, d_model, d_model),
            heads,
            head_dim: d_model / heads,
        }
    }

    /// Full attention: projects, splits into heads, attends, concatenates,
    /// and projects out. `query`: `[b, lq, d]`, `key`/`value`: `[b, lk, d]`.
    pub(crate) fn forward<F: Fwd>(
        &self,
        ctx: &F,
        query: &Var,
        key: &Var,
        value: &Var,
        mask: Option<&Var>,
    ) -> Var {
        let _s = tranad_telemetry::span::enter("nn.attention");
        let q = self.wq.forward(ctx, query);
        let k = self.wk.forward(ctx, key);
        let v = self.wv.forward(ctx, value);
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = q.narrow_last(start, self.head_dim);
            let kh = k.narrow_last(start, self.head_dim);
            let vh = v.narrow_last(start, self.head_dim);
            head_outputs.push(scaled_dot_attention(&qh, &kh, &vh, mask));
        }
        let concat = Var::concat_last(&head_outputs);
        self.wo.forward(ctx, &concat)
    }

    /// Self-attention convenience: `forward(x, x, x, mask)`.
    pub(crate) fn self_attention<F: Fwd>(&self, ctx: &F, x: &Var, mask: Option<&Var>) -> Var {
        self.forward(ctx, x, x, x, mask)
    }

    /// Returns the averaged (over heads) post-softmax attention weights for
    /// introspection, e.g. the Figure 3 visualization. Shape `[b, lq, lk]`.
    pub(crate) fn attention_weights<F: Fwd>(
        &self,
        ctx: &F,
        query: &Var,
        key: &Var,
        mask: Option<&Var>,
    ) -> Tensor {
        let q = self.wq.forward(ctx, query);
        let k = self.wk.forward(ctx, key);
        let mut acc: Option<Tensor> = None;
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = q.narrow_last(start, self.head_dim);
            let kh = k.narrow_last(start, self.head_dim);
            let mut scores = qh.matmul_t_scaled(&kh, 1.0 / (self.head_dim as f64).sqrt());
            if let Some(m) = mask {
                scores = scores.add(m);
            }
            let w = scores.softmax_last().value();
            match &mut acc {
                Some(a) => a.add_assign(&w),
                slot @ None => *slot = Some(w),
            }
        }
        let mut avg = acc.expect("at least one head");
        avg.scale_assign(1.0 / self.heads as f64);
        avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::param::{Init, ParamStore};
    use tranad_tensor::check::assert_gradients_match;

    #[test]
    fn causal_mask_lower_triangular() {
        let m = causal_mask(3);
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[0, 1]), MASK_NEG);
        assert_eq!(m.at(&[2, 1]), 0.0);
        assert_eq!(m.at(&[1, 2]), MASK_NEG);
    }

    #[test]
    fn attention_preserves_shape() {
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(0);
        let mha = MultiHeadAttention::new(&mut store, &mut init, 8, 2);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::from_fn([3, 5, 8], |i| (i as f64 * 0.1).sin()));
        let y = mha.self_attention(&ctx, &x, None);
        assert_eq!(y.shape().dims(), &[3, 5, 8]);
    }

    #[test]
    fn cross_attention_uses_key_length() {
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(0);
        let mha = MultiHeadAttention::new(&mut store, &mut init, 4, 2);
        let ctx = Ctx::eval(&store);
        let q = ctx.input(Tensor::ones([2, 3, 4]));
        let kv = ctx.input(Tensor::ones([2, 7, 4]));
        let y = mha.forward(&ctx, &q, &kv, &kv, None);
        assert_eq!(y.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn causal_attention_ignores_future() {
        // With a causal mask, changing the *last* timestep of the input must
        // not change the output at the *first* timestep.
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(1);
        let mha = MultiHeadAttention::new(&mut store, &mut init, 4, 1);
        let ctx = Ctx::eval(&store);
        let mask = ctx.input(causal_mask(3));

        let base = Tensor::from_fn([1, 3, 4], |i| (i as f64 * 0.3).cos());
        let mut changed = base.clone();
        for v in &mut changed.data_mut()[8..12] {
            *v += 5.0; // perturb t=2 only
        }

        let y0 = mha
            .self_attention(&ctx, &ctx.input(base), Some(&mask))
            .value();
        let y1 = mha
            .self_attention(&ctx, &ctx.input(changed), Some(&mask))
            .value();
        for j in 0..4 {
            assert!((y0.at(&[0, 0, j]) - y1.at(&[0, 0, j])).abs() < 1e-12);
            assert!((y0.at(&[0, 1, j]) - y1.at(&[0, 1, j])).abs() < 1e-12);
        }
        // ...but the masked step itself does change.
        assert!((y0.at(&[0, 2, 0]) - y1.at(&[0, 2, 0])).abs() > 1e-6);
    }

    #[test]
    fn attention_weights_rows_sum_to_one() {
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(2);
        let mha = MultiHeadAttention::new(&mut store, &mut init, 6, 3);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::from_fn([1, 4, 6], |i| (i as f64 * 0.17).sin()));
        let w = mha.attention_weights(&ctx, &x, &x, None);
        assert_eq!(w.shape().dims(), &[1, 4, 4]);
        for r in 0..4 {
            let s: f64 = (0..4).map(|c| w.at(&[0, r, c])).sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn scaled_dot_attention_gradients() {
        let q = Tensor::from_fn([1, 2, 3], |i| (i as f64 * 0.4).sin());
        let k = Tensor::from_fn([1, 2, 3], |i| (i as f64 * 0.6).cos());
        let v = Tensor::from_fn([1, 2, 3], |i| i as f64 * 0.1);
        assert_gradients_match(&[q, k, v], 1e-3, |_t, vars| {
            scaled_dot_attention(&vars[0], &vars[1], &vars[2], None)
                .square()
                .mean_all()
        });
    }
}
