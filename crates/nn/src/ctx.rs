//! Per-forward-pass context: binds a fresh autograd tape to a parameter
//! store, caching one leaf per parameter so gradients can be read back after
//! `backward`.
//!
//! Only trainable parameters enter the tape as gradient-carrying leaves;
//! inputs and every parameter outside the context's trainable set enter as
//! constants, so backward differentiates only toward what the caller's
//! update keeps (see [`Ctx::with_trainable`]).

use crate::param::{ParamId, ParamStore};
use std::cell::RefCell;
use std::collections::HashMap;
use tranad_tensor::{Rng, Tape, Tensor, Var};

/// One forward/backward pass worth of state.
///
/// This is the **taped** implementation of [`crate::fwd::Fwd`]: every op
/// records a tape node so `backward()` can run. The tape-free counterpart
/// for serving is [`crate::fwd::InferCtx`].
pub struct Ctx<'a> {
    tape: Tape,
    store: &'a ParamStore,
    leaves: RefCell<HashMap<usize, Var>>,
    rng: RefCell<Rng>,
    /// Per parameter index, whether it receives a gradient; `None` means
    /// every parameter does.
    trainable: Option<Vec<bool>>,
    /// Whether stochastic layers (dropout) are active.
    pub training: bool,
}

impl<'a> Ctx<'a> {
    /// A training-mode context (dropout active) with a seeded RNG.
    pub fn train(store: &'a ParamStore, seed: u64) -> Self {
        Ctx {
            tape: Tape::new(),
            store,
            leaves: RefCell::new(HashMap::new()),
            rng: RefCell::new(Rng::new(seed)),
            trainable: None,
            training: true,
        }
    }

    /// Restricts the trainable parameters to those `keep` accepts: the
    /// rest enter the tape as constants, backward computes nothing for
    /// them, and [`Ctx::grads`] leaves them out. Gradients of the kept
    /// parameters are bitwise identical to an unrestricted pass.
    pub fn with_trainable(mut self, keep: impl Fn(ParamId) -> bool) -> Self {
        self.trainable = Some(self.store.ids().map(keep).collect());
        self
    }

    /// An evaluation-mode context (dropout is the identity).
    pub fn eval(store: &'a ParamStore) -> Self {
        let mut ctx = Self::train(store, 0);
        ctx.training = false;
        ctx
    }

    /// The underlying tape.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// The leaf variable for a parameter, created on first use and cached so
    /// every use of the parameter shares gradient accumulation. The leaf is
    /// a borrowed view of the stored tensor (an O(1) shared-storage handle,
    /// not a copy); copy-on-write keeps it stable if the store is updated
    /// in place while the context is alive. Parameters outside the
    /// trainable set become constant leaves.
    pub(crate) fn param(&self, id: ParamId) -> Var {
        let mut leaves = self.leaves.borrow_mut();
        leaves
            .entry(id.index())
            .or_insert_with(|| {
                let t = self.store.get(id).clone();
                if self.trainable.as_ref().is_none_or(|mask| mask[id.index()]) {
                    self.tape.leaf(t)
                } else {
                    self.tape.constant(t)
                }
            })
            .clone()
    }

    /// Introduces a non-parameter input (data, masks, constants) as a
    /// constant leaf: nothing reads an input's gradient, so none is
    /// computed.
    pub fn input(&self, t: Tensor) -> Var {
        self.tape.constant(t)
    }

    /// Inverted dropout: scales kept activations by `1/(1-p)` during
    /// training; identity in eval mode.
    pub(crate) fn dropout(&self, x: &Var, p: f64) -> Var {
        if !self.training || p <= 0.0 {
            return x.clone();
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let mask = {
            let mut rng = self.rng.borrow_mut();
            Tensor::from_fn(x.shape(), |_| {
                if rng.next_f64() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
        };
        x.mul(&self.input(mask))
    }

    /// Gradients of every trainable parameter touched during this pass, as
    /// `(id, gradient)` pairs sorted by id. Call after `backward()` on the
    /// loss.
    pub fn grads(&self) -> Vec<(ParamId, Tensor)> {
        let leaves = self.leaves.borrow();
        let mut out: Vec<(ParamId, Tensor)> = leaves
            .iter()
            .filter(|(_, var)| var.requires_grad())
            .map(|(&idx, var)| (ParamId(idx), var.grad()))
            .collect();
        out.sort_by_key(|(id, _)| id.index());
        out
    }

    /// Squared L2 norm of all parameter gradients (for clipping/diagnostics).
    pub fn grad_norm_sq(&self) -> f64 {
        self.grads()
            .iter()
            .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    #[test]
    fn param_leaf_is_cached() {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[2.0]));
        let ctx = Ctx::train(&store, 0);
        let a = ctx.param(id);
        let b = ctx.param(id);
        // Reuse must accumulate gradient in one leaf: d(x*x)/dx = 2x = 4.
        let y = a.mul(&b).sum_all();
        y.backward();
        let grads = ctx.grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.data(), &[4.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let store = ParamStore::new();
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::ones([4, 4]));
        let y = ctx.dropout(&x, 0.5);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn dropout_train_scales_kept_units() {
        let store = ParamStore::new();
        let ctx = Ctx::train(&store, 3);
        let x = ctx.input(Tensor::ones([100, 10]));
        let y = ctx.dropout(&x, 0.5).value();
        let kept = y.data().iter().filter(|&&v| v != 0.0).count();
        // Expect roughly half kept, each scaled to 2.0.
        assert!(kept > 350 && kept < 650, "kept {kept}");
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));
        // Expectation preserved.
        assert!((y.mean() - 1.0).abs() < 0.15);
    }

    #[test]
    fn untrainable_params_are_constants_and_skipped_by_grads() {
        let mut store = ParamStore::new();
        let a = store.add(Tensor::from_slice(&[2.0]));
        let b = store.add(Tensor::from_slice(&[3.0]));
        let full = Ctx::train(&store, 0);
        full.param(a).mul(&full.param(b)).sum_all().backward();
        let only_b = Ctx::train(&store, 0).with_trainable(|id| id == b);
        let x = only_b.input(Tensor::from_slice(&[1.0]));
        assert!(!x.requires_grad() && !only_b.param(a).requires_grad());
        only_b
            .param(a)
            .mul(&only_b.param(b))
            .add(&x)
            .sum_all()
            .backward();
        let grads = only_b.grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, b);
        assert_eq!(grads[0].1.data(), full.grads()[1].1.data());
        // `b`, the mul, the add and the loss; not the input, not `a`.
        assert_eq!(only_b.tape().grad_count(), 4);
    }

    #[test]
    fn grads_only_for_touched_params() {
        let mut store = ParamStore::new();
        let a = store.add(Tensor::from_slice(&[1.0]));
        let _unused = store.add(Tensor::from_slice(&[1.0]));
        let ctx = Ctx::train(&store, 0);
        let loss = ctx.param(a).square().sum_all();
        loss.backward();
        assert_eq!(ctx.grads().len(), 1);
    }
}
