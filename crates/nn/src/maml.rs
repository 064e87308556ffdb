//! First-order model-agnostic meta-learning (FOMAML).
//!
//! The paper's Algorithm 1 performs, at the end of each epoch, a meta update
//! `θ ← θ − β ∇_θ L(f(θ'))` where `θ' = θ − α ∇_θ L(f(θ))` is computed on a
//! random batch (Eqs. 11–12). We implement the first-order approximation:
//! the gradient at `θ'` is applied directly to `θ`, which Finn et al. (2017)
//! report performs nearly identically while avoiding second derivatives.

use crate::optim::Sgd;
use crate::param::{ParamId, ParamStore};
use tranad_tensor::Tensor;

/// Configuration for a FOMAML meta step.
#[derive(Debug, Clone, Copy)]
pub struct MamlConfig {
    /// Inner-loop (adaptation) learning rate α.
    pub inner_lr: f64,
    /// Meta (outer) learning rate β. The paper uses 0.02.
    pub meta_lr: f64,
}

impl Default for MamlConfig {
    fn default() -> Self {
        MamlConfig {
            inner_lr: 0.01,
            meta_lr: 0.02,
        }
    }
}

/// Performs one first-order MAML step.
///
/// `loss_grads` computes gradients of the task loss at the *current* store
/// contents (e.g. by running a forward/backward pass over a random batch).
/// It is invoked twice: once at θ to compute the adaptation step, and once
/// at θ' = θ − α∇L(θ) to compute the meta gradient, which is then applied
/// to the original θ with step size β.
pub fn fomaml_step(
    store: &mut ParamStore,
    config: MamlConfig,
    mut loss_grads: impl FnMut(&ParamStore) -> Vec<(ParamId, Tensor)>,
) {
    let _s = tranad_telemetry::span::enter("maml.step");
    let theta = store.snapshot();

    // Inner adaptation: θ' = θ - α ∇L(θ)
    {
        let _inner = tranad_telemetry::span::enter("maml.inner");
        let inner_grads = loss_grads(store);
        Sgd::new(config.inner_lr).step(store, &inner_grads);
    }

    // Meta gradient evaluated at θ', then restore θ and apply it with β.
    let _meta = tranad_telemetry::span::enter("maml.meta");
    let meta_grads = loss_grads(store);
    store.restore(&theta);
    Sgd::new(config.meta_lr).step(store, &meta_grads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    #[test]
    fn fomaml_moves_toward_task_optimum() {
        // Task loss: (p - 5)^2. FOMAML should still descend toward 5.
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[0.0]));
        let cfg = MamlConfig {
            inner_lr: 0.05,
            meta_lr: 0.05,
        };
        for _ in 0..100 {
            fomaml_step(&mut store, cfg, |s| {
                let ctx = Ctx::train(s, 0);
                let p = ctx.param(id);
                let t = ctx.input(Tensor::from_slice(&[5.0]));
                p.sub(&t).square().sum_all().backward();
                ctx.grads()
            });
        }
        let p = store.get(id).data()[0];
        assert!((p - 5.0).abs() < 0.1, "converged to {p}");
    }

    #[test]
    fn fomaml_restores_theta_before_meta_update() {
        // With meta_lr = 0 the parameters must be unchanged even though the
        // inner loop moved them.
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[1.0]));
        let cfg = MamlConfig {
            inner_lr: 0.5,
            meta_lr: 0.0,
        };
        fomaml_step(&mut store, cfg, |s| {
            let ctx = Ctx::train(s, 0);
            let p = ctx.param(id);
            p.square().sum_all().backward();
            ctx.grads()
        });
        assert_eq!(store.get(id).data(), &[1.0]);
    }

    #[test]
    fn fomaml_uses_adapted_gradient() {
        // Loss (p - 4)^2 starting from p=0 with α=0.25: θ' = 0 + 0.25*8 = 2,
        // meta grad at θ' is 2(2-4) = -4, so θ ← 0 + 0.1*4 = 0.4.
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[0.0]));
        let cfg = MamlConfig {
            inner_lr: 0.25,
            meta_lr: 0.1,
        };
        fomaml_step(&mut store, cfg, |s| {
            let ctx = Ctx::train(s, 0);
            let p = ctx.param(id);
            let t = ctx.input(Tensor::from_slice(&[4.0]));
            p.sub(&t).square().sum_all().backward();
            ctx.grads()
        });
        let p = store.get(id).data()[0];
        assert!((p - 0.4).abs() < 1e-9, "got {p}");
    }
}
