//! The forward-pass contexts: model code is written once against [`Fwd`]
//! and computes with [`Var`]s, which run either **taped** (training — every
//! op records a tape node for backward, via
//! [`Ctx`]) or **detached** (serving — the same
//! ops record nothing, via [`InferCtx`]).
//!
//! ## Determinism argument
//!
//! Each op is defined once, in `tranad_tensor::tape`: it computes its value
//! from its operands' values with one expression, then records a node only
//! if the operands are on a tape. Detached and taped outputs are therefore
//! bitwise identical by construction — the same kernels on the same operand
//! bits, in the same order; only the bookkeeping differs. The kernels
//! themselves are thread-count-invariant (task boundaries depend only on
//! problem size), so the parity holds at any `TRANAD_THREADS` setting.
//! `crates/tranad/tests/infer_parity.rs` asserts it bit for bit.
//!
//! ## Workspace lifecycle
//!
//! [`InferCtx`] holds no buffers of its own: intermediates draw from the
//! thread-local [`tranad_tensor::bufpool`], and because no tape keeps them
//! alive, each one is recycled the moment the next op drops it. A scoring
//! pass therefore reuses a small, fixed working set of pooled buffers
//! instead of accreting one allocation per op the way a tape does.

use crate::ctx::Ctx;
use crate::param::{ParamId, ParamStore};
use tranad_tensor::{Tensor, Var};

/// A forward-pass context: hands model code its parameters and inputs as
/// [`Var`]s and hosts the stochastic bits (dropout). Layers are written
/// once against this trait; [`Ctx`] runs them taped for training,
/// [`InferCtx`] runs them detached for serving.
pub trait Fwd {
    /// The value of parameter `id`.
    fn param(&self, id: ParamId) -> Var;
    /// Introduces a non-parameter input (data, masks, constants).
    fn input(&self, t: Tensor) -> Var;
    /// Inverted dropout (identity when not training).
    fn dropout(&self, x: &Var, p: f64) -> Var;
    /// Whether stochastic layers are active.
    fn training(&self) -> bool;
}

impl Fwd for Ctx<'_> {
    fn param(&self, id: ParamId) -> Var {
        Ctx::param(self, id)
    }
    fn input(&self, t: Tensor) -> Var {
        Ctx::input(self, t)
    }
    fn dropout(&self, x: &Var, p: f64) -> Var {
        Ctx::dropout(self, x, p)
    }
    fn training(&self) -> bool {
        self.training
    }
}

/// The tape-free serving context: parameters come straight out of the
/// [`ParamStore`] as detached [`Var`]s over O(1) copy-on-write handles,
/// inputs are detached as they are, dropout is the identity (inference is
/// always eval-mode), and no tape, node list or backward closure is ever
/// allocated.
pub struct InferCtx<'a> {
    store: &'a ParamStore,
}

impl<'a> InferCtx<'a> {
    /// A tape-free evaluation context over the given parameters.
    pub fn new(store: &'a ParamStore) -> Self {
        InferCtx { store }
    }
}

/// Reusable input staging for tape-free forwards: one window stack and one
/// context stack, resized per batch and recycled across calls.
///
/// A batch-1 owner (a single-stream online state) calls
/// [`InferWorkspace::stage`] with `n = 1` every push and keeps reusing the
/// same two buffers; the serving engine stages `n` rows per cross-stream
/// round, and because [`Tensor::stage`] reuses storage whenever the element
/// count matches, consecutive rounds at the same occupancy are
/// allocation-free. The forward pass holds its input clones only
/// transiently, so the storage is uniquely owned again by the next call.
pub struct InferWorkspace {
    window: Tensor,
    context: Tensor,
}

impl InferWorkspace {
    /// An empty workspace; the first [`InferWorkspace::stage`] call sizes it.
    pub fn new() -> Self {
        InferWorkspace {
            window: Tensor::zeros([1]),
            context: Tensor::zeros([1]),
        }
    }

    /// Sizes the stacks for an `n`-row batch over `[k, m]` windows and
    /// `[c, m]` contexts and returns their writable storage
    /// (`n*k*m` and `n*c*m` f64s, stale — the caller fills every row).
    pub fn stage(&mut self, n: usize, k: usize, c: usize, m: usize) -> (&mut [f64], &mut [f64]) {
        (self.window.stage([n, k, m]), self.context.stage([n, c, m]))
    }

    /// The staged `[n, window, m]` input stack.
    pub fn window(&self) -> &Tensor {
        &self.window
    }

    /// The staged `[n, context, m]` input stack.
    pub fn context(&self) -> &Tensor {
        &self.context
    }
}

impl Default for InferWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Fwd for InferCtx<'_> {
    fn param(&self, id: ParamId) -> Var {
        Var::detached(self.store.get(id).clone())
    }
    fn input(&self, t: Tensor) -> Var {
        Var::detached(t)
    }
    fn dropout(&self, x: &Var, _p: f64) -> Var {
        // Inference is always eval-mode, where dropout is the identity —
        // exactly what `Ctx::eval` computes.
        x.clone()
    }
    fn training(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use tranad_tensor::{Act, Shape};

    /// Bitwise slice equality (NaN == NaN, unlike `f64` equality).
    fn assert_bits_eq(a: &[f64], b: &[f64], name: &str) {
        let (ab, bb): (Vec<u64>, Vec<u64>) = (
            a.iter().map(|v| v.to_bits()).collect(),
            b.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(ab, bb, "{name}");
    }

    /// Deterministic pseudo-random tensor (mirrors `tape.rs` tests).
    fn pseudo(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        })
    }

    /// The `[a, b, w, bias, gamma, beta]` operands of the op list below,
    /// introduced through `ctx`.
    fn operands(ctx: &impl Fwd) -> [Var; 6] {
        let shapes: [&[usize]; 6] = [&[2, 3, 4], &[2, 3, 4], &[4, 5], &[5], &[4], &[4]];
        let mut seed = 0;
        shapes.map(|s| {
            seed += 1;
            ctx.input(pseudo(s, seed))
        })
    }

    /// Detached (tape-free) ops against taped ones from `Ctx::eval`, bit
    /// for bit, over every op the forward pass may use.
    #[test]
    fn tensor_ops_match_var_ops_bitwise() {
        let store = ParamStore::new();
        let (taped_ctx, free_ctx) = (Ctx::eval(&store), InferCtx::new(&store));
        let (taped, free) = (operands(&taped_ctx), operands(&free_ctx));
        assert!(free.iter().all(|v| v.tape().is_none()));

        #[allow(clippy::type_complexity)]
        let ops: &[(&str, fn(&[Var; 6]) -> Var)] = &[
            ("neg", |[a, ..]| a.neg()),
            ("exp", |[a, ..]| a.exp()),
            ("sqrt", |[a, ..]| a.sqrt()),
            ("square", |[a, ..]| a.square()),
            ("abs", |[a, ..]| a.abs()),
            ("sigmoid", |[a, ..]| a.sigmoid()),
            ("tanh", |[a, ..]| a.tanh()),
            ("relu", |[a, ..]| a.relu()),
            ("softmax", |[a, ..]| a.softmax_last()),
            ("ln_norm", |[a, ..]| a.layer_norm_last(1e-5)),
            ("sum_last", |[a, ..]| a.sum_last()),
            ("mean_last", |[a, ..]| a.mean_last()),
            ("sum_all", |[a, ..]| a.sum_all()),
            ("mean_all", |[a, ..]| a.mean_all()),
            ("add", |[a, b, ..]| a.add(b)),
            ("sub", |[a, b, ..]| a.sub(b)),
            ("mul", |[a, b, ..]| a.mul(b)),
            ("div", |[a, b, ..]| a.div(b)),
            ("scale", |[a, ..]| a.scale(0.37)),
            ("add_scalar", |[a, ..]| a.add_scalar(-0.2)),
            ("matmul", |[a, _, w, ..]| a.matmul(w)),
            ("linear_act", |[a, _, w, bias, ..]| {
                a.linear_act(w, Some(bias), Act::Tanh)
            }),
            ("ln_affine", |[a, _, _, _, g, beta]| {
                a.layer_norm_affine(g, beta, 1e-5)
            }),
            ("matmul_t_scaled", |[a, b, ..]| a.matmul_t_scaled(b, 0.5)),
            ("concat", |[a, b, ..]| {
                Var::concat_last(&[a.clone(), b.clone()])
            }),
            ("narrow", |[a, ..]| a.narrow_last(1, 2)),
            ("mse", |[a, b, ..]| a.mse(b)),
            ("transpose", |[a, ..]| a.transpose()),
            ("reshape", |[a, ..]| a.reshape([6, 4])),
        ];
        for (name, op) in ops {
            let (t, f) = (op(&taped), op(&free));
            assert!(t.tape().is_some() && f.tape().is_none(), "{name}");
            assert_eq!(t.shape(), f.shape(), "{name}");
            assert_bits_eq(t.data(), f.data(), name);
        }
    }

    #[test]
    fn infer_ctx_hands_out_shared_params_and_identity_dropout() {
        let mut store = ParamStore::new();
        let id = store.add(pseudo([3, 3], 9));
        let ctx = InferCtx::new(&store);
        let p = ctx.param(id);
        assert!(p.tape().is_none(), "params are detached");
        assert!(
            p.value().shares_storage(store.get(id)),
            "param must be an O(1) handle"
        );
        let x = ctx.input(pseudo([4, 4], 10));
        let y = ctx.dropout(&x, 0.9);
        assert_eq!(x.data(), y.data());
        assert!(!ctx.training());
    }
}
