//! Finite-difference gradient checking, shared by this crate's tests and by
//! downstream layers (`tranad-nn`) to validate their composite ops.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Result of comparing analytic and numeric gradients for one input.
#[derive(Debug)]
pub struct GradCheck {
    /// Largest absolute elementwise difference.
    pub max_abs_diff: f64,
    /// Largest relative difference (guarded against tiny denominators).
    pub max_rel_diff: f64,
}

/// Checks the analytic gradient of `f` (a scalar-valued function of leaves
/// built from `inputs`) against central finite differences.
///
/// `f` is called repeatedly with perturbed copies of the inputs; it must be
/// deterministic. Returns one [`GradCheck`] per input.
pub fn check_gradients(
    inputs: &[Tensor],
    eps: f64,
    f: impl Fn(&Tape, &[Var]) -> Var,
) -> Vec<GradCheck> {
    // Analytic pass.
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&tape, &vars);
    assert_eq!(
        out.shape().numel(),
        1,
        "grad check requires a scalar output"
    );
    out.backward();
    let analytic: Vec<Tensor> = vars.iter().map(|v| v.grad()).collect();

    let eval = |perturbed: &[Tensor]| -> f64 {
        let tape = Tape::new();
        let vars: Vec<Var> = perturbed.iter().map(|t| tape.leaf(t.clone())).collect();
        f(&tape, &vars).value().item()
    };

    let mut results = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let mut max_abs: f64 = 0.0;
        let mut max_rel: f64 = 0.0;
        for j in 0..input.numel() {
            let mut plus: Vec<Tensor> = inputs.to_vec();
            plus[i].data_mut()[j] += eps;
            let mut minus: Vec<Tensor> = inputs.to_vec();
            minus[i].data_mut()[j] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic[i].data()[j];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-8);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
        results.push(GradCheck {
            max_abs_diff: max_abs,
            max_rel_diff: max_rel,
        });
    }
    results
}

/// Asserts that every input's analytic gradient matches finite differences
/// within `tol` (relative).
pub fn assert_gradients_match(inputs: &[Tensor], tol: f64, f: impl Fn(&Tape, &[Var]) -> Var) {
    for (i, r) in check_gradients(inputs, 1e-5, f).iter().enumerate() {
        assert!(
            r.max_rel_diff < tol || r.max_abs_diff < tol,
            "input {i}: analytic vs numeric gradient mismatch: {r:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn randomish(shape: &[usize], seed: u64) -> Tensor {
        // Deterministic pseudo-random values in [-1, 1] without pulling in
        // an RNG dependency.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        Tensor::from_fn(shape.to_vec(), |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn elementwise_chain() {
        let x = randomish(&[3, 4], 7);
        assert_gradients_match(&[x], 1e-4, |_t, v| {
            v[0].sigmoid()
                .mul(&v[0].tanh())
                .add_scalar(0.5)
                .square()
                .mean_all()
        });
    }

    #[test]
    fn matmul_chain() {
        let a = randomish(&[3, 4], 1);
        let b = randomish(&[4, 2], 2);
        assert_gradients_match(&[a, b], 1e-4, |_t, v| v[0].matmul(&v[1]).relu().sum_all());
    }

    #[test]
    fn batched_attention_like() {
        let q = randomish(&[2, 3, 4], 3);
        let k = randomish(&[2, 3, 4], 4);
        let vv = randomish(&[2, 3, 4], 5);
        assert_gradients_match(&[q, k, vv], 1e-3, |_t, v| {
            let scores = v[0].matmul(&v[1].transpose()).scale(0.5).softmax_last();
            scores.matmul(&v[2]).square().mean_all()
        });
    }

    #[test]
    fn layer_norm_grad() {
        let x = randomish(&[2, 6], 9);
        assert_gradients_match(&[x], 1e-3, |_t, v| {
            v[0].layer_norm_last(1e-5).square().mean_all()
        });
    }

    #[test]
    fn exp_grad() {
        let x = randomish(&[5], 11);
        let y = randomish(&[5], 12);
        assert_gradients_match(&[x, y], 1e-4, |_t, v| {
            v[1].mul(&v[0].neg()).exp().mean_all()
        });
    }

    #[test]
    fn concat_narrow_grad() {
        let a = randomish(&[2, 3], 21);
        let b = randomish(&[2, 2], 22);
        assert_gradients_match(&[a, b], 1e-4, |_t, v| {
            let c = Var::concat_last(&[v[0].clone(), v[1].clone()]);
            c.narrow_last(1, 3).square().sum_all()
        });
    }

    #[test]
    fn broadcast_bias_grad() {
        let x = randomish(&[4, 3], 31);
        let bias = randomish(&[3], 32);
        assert_gradients_match(&[x, bias], 1e-4, |_t, v| v[0].add(&v[1]).tanh().mean_all());
    }
}
