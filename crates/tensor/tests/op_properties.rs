//! Property-based tests for tensor algebra and autograd: algebraic
//! identities, gradient linearity, and broadcast/reduce duality.
//!
//! Cases are generated with the crate's own seeded [`Rng`] (no `proptest`
//! dependency): each property is checked over a few dozen random inputs,
//! and every assertion message carries the case number, which doubles as
//! the seed for reproduction.

use tranad_tensor::check::check_gradients;
use tranad_tensor::{Act, Rng, Shape, Tape, Tensor, Var};

const CASES: u64 = 48;

fn random_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [2, 3]);
        let b = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let c = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let lhs = a.matmul(&b.zip(&c, |x, y| x + y));
        let rhs = a.matmul(&b).zip(&a.matmul(&c), |x, y| x + y);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-9, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn transpose_involution() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let t = Tensor::from_vec(random_vec(&mut rng, 12, -3.0, 3.0), [3, 4]);
        let round_trip = t.transpose().transpose();
        assert_eq!(round_trip.data(), t.data(), "case {case}");
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T = B^T A^T
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [2, 3]);
        let b = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-9, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn gradient_is_linear_in_seed_scale() {
    // d(s * f)/dx = s * df/dx
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let x = Tensor::from_vec(random_vec(&mut rng, 8, -3.0, 3.0), [2, 4]);
        let s = rng.range_f64(0.1, 5.0);
        let tape1 = Tape::new();
        let x1 = tape1.leaf(x.clone());
        x1.tanh().mean_all().backward();
        let g1 = x1.grad();

        let tape2 = Tape::new();
        let x2 = tape2.leaf(x.clone());
        x2.tanh().mean_all().scale(s).backward();
        let g2 = x2.grad();

        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((a * s - b).abs() < 1e-9, "case {case}: {a}*{s} vs {b}");
        }
    }
}

#[test]
fn sum_all_equals_row_sum_chain() {
    // Row sums as a product with a ones column, then summed.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let t = Tensor::from_vec(random_vec(&mut rng, 12, -3.0, 3.0), [3, 4]);
        let tape = Tape::new();
        let x = tape.leaf(t.clone());
        let direct = x.sum_all().value().item();
        let ones = tape.constant(Tensor::ones([4, 1]));
        let chained = x.matmul(&ones).sum_all().value().item();
        assert!((direct - chained).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn broadcast_then_reduce_is_scaling() {
    // Broadcasting [4] over [rows, 4] and reducing back multiplies by rows.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let small = Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [4]);
        let rows = rng.range_usize(1, 6);
        let big = Tensor::ones([rows, 4]);
        let summed = big
            .broadcast_zip(&small, |a, b| a * b)
            .reduce_to_shape(&Shape::new([4]));
        for (x, y) in summed.data().iter().zip(small.data()) {
            assert!((x - y * rows as f64).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn layer_norm_is_shift_invariant() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let v = random_vec(&mut rng, 8, -3.0, 3.0);
        let shift = rng.range_f64(-5.0, 5.0);
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(v.clone(), [2, 4]));
        let b = tape.leaf(Tensor::from_vec(
            v.iter().map(|x| x + shift).collect::<Vec<_>>(),
            [2, 4],
        ));
        let (gamma, beta) = (
            tape.constant(Tensor::ones([4])),
            tape.constant(Tensor::zeros([4])),
        );
        let na = a.layer_norm_affine(&gamma, &beta, 1e-8).value();
        let nb = b.layer_norm_affine(&gamma, &beta, 1e-8).value();
        for (x, y) in na.data().iter().zip(nb.data()) {
            assert!((x - y).abs() < 1e-6, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn relu_grad_matches_numeric() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Keep values away from the kink where the subgradient is ambiguous.
        let v: Vec<f64> = random_vec(&mut rng, 6, -2.0, 2.0)
            .into_iter()
            .map(|x| if x.abs() < 0.05 { x + 0.1 } else { x })
            .collect();
        let x = Tensor::from_vec(v, [2, 3]);
        // An identity weight makes the pre-activation exactly `x`.
        let eye = Tensor::from_fn([3, 3], |i| f64::from(i % 4 == 0));
        let checks = check_gradients(&[x], 1e-6, |t, vars| {
            let w = t.constant(eye.clone());
            vars[0].linear_act(&w, None, Act::Relu).sum_all()
        });
        assert!(checks[0].max_abs_diff < 1e-4, "case {case}");
    }
}

#[test]
fn concat_gradient_splits() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [1, 4]));
        let b = tape.leaf(Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [1, 4]));
        let cat = tranad_tensor::Var::concat_last(&[a.clone(), b.clone()]);
        cat.square().sum_all().backward();
        // Each input's gradient is 2x of itself (d sum(x^2) = 2x).
        let (ga, va) = (a.grad(), a.value());
        for (g, x) in ga.data().iter().zip(va.data()) {
            assert!((g - 2.0 * x).abs() < 1e-9, "case {case}");
        }
        let (gb, vb) = (b.grad(), b.value());
        for (g, x) in gb.data().iter().zip(vb.data()) {
            assert!((g - 2.0 * x).abs() < 1e-9, "case {case}");
        }
    }
}

/// One node recorded on two tapes: `full` where every leaf requires a
/// gradient, `pruned` where some leaves are constants. `rg` is whether the
/// pruned node should require a gradient: the OR of its inputs, computed
/// here independently of the tape.
struct Twin {
    full: Var,
    pruned: Var,
    rg: bool,
}

/// Applies the one-node op `f` to the same inputs on both tapes.
fn twin_op(
    nodes: &mut Vec<Twin>,
    used: &mut Vec<bool>,
    ins: &[usize],
    f: impl Fn(&[Var]) -> Var,
) -> usize {
    let full: Vec<Var> = ins.iter().map(|&i| nodes[i].full.clone()).collect();
    let pruned: Vec<Var> = ins.iter().map(|&i| nodes[i].pruned.clone()).collect();
    let rg = ins.iter().any(|&i| nodes[i].rg);
    for &i in ins {
        used[i] = true;
    }
    nodes.push(Twin {
        full: f(&full),
        pruned: f(&pruned),
        rg,
    });
    used.push(false);
    nodes.len() - 1
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn pruned_backward_matches_all_leaves_bitwise() {
    // Activations are [2, 3, 4]; weights [4, 4]; vectors [4].
    for case in 0..CASES * 4 {
        let mut rng = Rng::new(case);
        let (full_tape, pruned_tape) = (Tape::new(), Tape::new());
        let (mut nodes, mut used) = (Vec::new(), Vec::new());
        // Each leaf is trainable with probability 1/2, or always if `force`.
        let mut leaf = |rng: &mut Rng, shape: &[usize], force: bool| {
            let trainable = force || rng.chance(0.5);
            let n = shape.iter().product();
            let t = Tensor::from_vec(random_vec(rng, n, -2.0, 2.0), shape.to_vec());
            let pruned = if trainable {
                pruned_tape.leaf(t.clone())
            } else {
                pruned_tape.constant(t.clone())
            };
            nodes.push(Twin {
                full: full_tape.leaf(t),
                pruned,
                rg: trainable,
            });
            used.push(false);
            nodes.len() - 1
        };
        let mut acts = Vec::new();
        let (mut weights, mut vectors) = (Vec::new(), Vec::new());
        // The first leaf is trainable so the loss requires a gradient.
        for i in 0..3 {
            acts.push(leaf(&mut rng, &[2, 3, 4], i == 0));
        }
        for _ in 0..2 {
            weights.push(leaf(&mut rng, &[4, 4], false));
            vectors.push(leaf(&mut rng, &[4], false));
        }
        for _ in 0..14 {
            let pick = |rng: &mut Rng, from: &[usize]| from[rng.range_usize(0, from.len())];
            let (x, y) = (pick(&mut rng, &acts), pick(&mut rng, &acts));
            let w = pick(&mut rng, &weights);
            let (v, v2) = (pick(&mut rng, &vectors), pick(&mut rng, &vectors));
            let (n, u) = (&mut nodes, &mut used);
            let out = match rng.range_usize(0, 16) {
                0 => twin_op(n, u, &[x, y], |a| a[0].add(&a[1])),
                1 => twin_op(n, u, &[x, y], |a| a[0].sub(&a[1])),
                2 => twin_op(n, u, &[x, y], |a| a[0].mul(&a[1])),
                3 => twin_op(n, u, &[x, x], |a| a[0].mul(&a[1])),
                4 => {
                    // The reconstruction loss, broadcast back as a scale.
                    let diff = twin_op(n, u, &[x, y], |a| a[0].sub(&a[1]));
                    let sq = twin_op(n, u, &[diff], |a| a[0].square());
                    let mse = twin_op(n, u, &[sq], |a| a[0].mean_all());
                    let s = twin_op(n, u, &[mse], |a| a[0].add_scalar(1.0));
                    twin_op(n, u, &[y, s], |a| a[0].mul(&a[1]))
                }
                5 => twin_op(n, u, &[x, v], |a| a[0].add(&a[1])),
                6 => twin_op(n, u, &[x, v], |a| a[0].mul(&a[1])),
                7 => twin_op(n, u, &[x, w], |a| a[0].matmul(&a[1])),
                8 => {
                    let kinds = [Act::Identity, Act::Relu, Act::Sigmoid, Act::Tanh];
                    let act = kinds[rng.range_usize(0, 4)];
                    if rng.chance(0.5) {
                        twin_op(n, u, &[x, w, v], |a| {
                            a[0].linear_act(&a[1], Some(&a[2]), act)
                        })
                    } else {
                        twin_op(n, u, &[x, w], |a| a[0].linear_act(&a[1], None, act))
                    }
                }
                9 => twin_op(n, u, &[x, v, v2], |a| {
                    a[0].layer_norm_affine(&a[1], &a[2], 1e-5)
                }),
                10 => {
                    let scores = twin_op(n, u, &[x, y], |a| a[0].matmul_t_scaled(&a[1], 0.5));
                    let probs = twin_op(n, u, &[scores], |a| a[0].softmax_last());
                    twin_op(n, u, &[probs, y], |a| a[0].matmul(&a[1]))
                }
                11 => {
                    let t = twin_op(n, u, &[y], |a| a[0].transpose());
                    let s = twin_op(n, u, &[x, t], |a| a[0].matmul(&a[1]));
                    twin_op(n, u, &[s, x], |a| a[0].matmul(&a[1]))
                }
                12 => {
                    let cat = twin_op(n, u, &[x, y], Var::concat_last);
                    let start = rng.range_usize(0, 5);
                    twin_op(n, u, &[cat], |a| a[0].narrow_last(start, 4))
                }
                13 => {
                    let flat = twin_op(n, u, &[x], |a| a[0].reshape([6, 4]));
                    let prod = twin_op(n, u, &[flat, w], |a| a[0].matmul(&a[1]));
                    twin_op(n, u, &[prod], |a| a[0].reshape([2, 3, 4]))
                }
                14 => {
                    // Feed-forward, residual, norm: the encoder's sublayer.
                    let h = twin_op(n, u, &[x, w, v], |a| {
                        a[0].linear_act(&a[1], Some(&a[2]), Act::Relu)
                    });
                    let r = twin_op(n, u, &[x, h], |a| a[0].add(&a[1]));
                    twin_op(n, u, &[r, v, v2], |a| {
                        a[0].layer_norm_affine(&a[1], &a[2], 1e-5)
                    })
                }
                _ => match rng.range_usize(0, 6) {
                    0 => twin_op(n, u, &[x], |a| a[0].tanh()),
                    1 => twin_op(n, u, &[x, w], |a| a[0].linear_act(&a[1], None, Act::Relu)),
                    2 => twin_op(n, u, &[x], |a| a[0].sigmoid()),
                    3 => twin_op(n, u, &[x], |a| a[0].softmax_last()),
                    4 => twin_op(n, u, &[x], |a| a[0].scale(0.5)),
                    _ => twin_op(n, u, &[x], |a| a[0].neg()),
                },
            };
            acts.push(out);
        }
        // Sum every node no op consumed, so every node reaches the loss.
        let sinks: Vec<usize> = (0..nodes.len()).filter(|&i| !used[i]).collect();
        let mut loss = twin_op(&mut nodes, &mut used, &[sinks[0]], |a| a[0].sum_all());
        for &i in &sinks[1..] {
            let part = twin_op(&mut nodes, &mut used, &[i], |a| a[0].sum_all());
            loss = twin_op(&mut nodes, &mut used, &[loss, part], |a| a[0].add(&a[1]));
        }
        nodes[loss].full.backward();
        nodes[loss].pruned.backward();

        assert_eq!(
            full_tape.grad_count(),
            full_tape.len(),
            "case {case}: all nodes reach the loss"
        );
        let mut requiring = 0;
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.pruned.requires_grad(),
                node.rg,
                "case {case}: node {i} flag"
            );
            if node.rg {
                requiring += 1;
                assert_eq!(
                    bits(&node.pruned.grad()),
                    bits(&node.full.grad()),
                    "case {case}: node {i} gradient differs from the all-leaves backward"
                );
            }
        }
        // Nodes that do not require a gradient (constants among them) hold
        // none: only the `requiring` nodes were ever accumulated into.
        assert_eq!(
            pruned_tape.grad_count(),
            requiring,
            "case {case}: gradients held"
        );
    }
}

#[test]
fn backward_from_a_constant_loss_is_a_no_op() {
    let tape = Tape::new();
    let x = tape.constant(Tensor::from_slice(&[1.0, -2.0]));
    let loss = x.square().sum_all();
    assert!(!loss.requires_grad());
    loss.backward();
    assert_eq!(tape.grad_count(), 0);
}
