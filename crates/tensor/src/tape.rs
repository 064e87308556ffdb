//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every differentiable operation eagerly; calling
//! [`Var::backward`] walks the tape in reverse, accumulating gradients into
//! every node that requires one. A fresh tape is intended per training step
//! — parameters live outside the tape and are re-introduced as leaves each
//! step.
//!
//! Every node records whether it requires a gradient: a [`Tape::leaf`] does,
//! a [`Tape::constant`] does not, and an op node does when any of its inputs
//! does. Backward never computes or accumulates a gradient for a node that
//! does not require one. A node that requires a gradient has only consumers
//! that require one too, so it receives the same contributions, from the same
//! rules, in the same order as it would with every leaf trainable: kept
//! gradients are bitwise identical to the all-leaves backward.

use crate::shape::Shape;
use crate::tensor::{Act, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// Recorded operation, holding input node ids plus whatever context the
/// backward pass needs.
enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Matmul(usize, usize),
    Transpose(usize),
    Reshape(usize),
    Neg(usize),
    Scale(usize, f64),
    AddScalar(usize),
    Exp(usize),
    Square(usize),
    Sigmoid(usize),
    Tanh(usize),
    SoftmaxLast(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Test-only reference for `LinearAct` with [`Act::Relu`].
    #[cfg(test)]
    Relu(usize),
    /// Test-only reference for `LayerNormAffine` (no affine).
    #[cfg(test)]
    LayerNormLast {
        x: usize,
        inv_std: Tensor,
    },
    ConcatLast(Vec<usize>),
    NarrowLast {
        x: usize,
        start: usize,
    },
    /// Fused `act(x @ w + b)`: one node where the unfused chain records
    /// three (matmul, broadcast add, activation).
    LinearAct {
        x: usize,
        w: usize,
        b: Option<usize>,
        act: Act,
    },
    /// Fused `layer_norm(x) * gamma + beta`: one node instead of three.
    LayerNormAffine {
        x: usize,
        gamma: usize,
        beta: usize,
        eps: f64,
    },
    /// Fused `(a @ b^T) * scale` (attention scores): one node instead of
    /// three (transpose, matmul, scale).
    MatmulTScale {
        a: usize,
        b: usize,
        scale: f64,
    },
}

/// Span name for an op's backward rule, or `None` for ops too cheap to be
/// worth a trace line (elementwise, reshapes, reductions). The list mirrors
/// the forward-instrumented ops so `trace-report` can pair `op.*` with
/// `bwd.*` rows.
fn backward_span(op: &Op) -> Option<&'static str> {
    Some(match op {
        Op::Matmul(..) => "bwd.matmul",
        Op::SoftmaxLast(..) => "bwd.softmax",
        #[cfg(test)]
        Op::LayerNormLast { .. } => "bwd.layer_norm",
        Op::ConcatLast(..) => "bwd.concat",
        Op::LinearAct { .. } => "bwd.linear_act",
        Op::LayerNormAffine { .. } => "bwd.layer_norm_affine",
        Op::MatmulTScale { .. } => "bwd.matmul_t_scale",
        _ => return None,
    })
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// Whether an op node requires a gradient: the OR of its inputs' flags.
fn any_input_requires_grad(nodes: &[Node], op: &Op) -> bool {
    let rg = |i: usize| nodes[i].requires_grad;
    match op {
        Op::Leaf => unreachable!("leaves set their flag explicitly"),
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::Matmul(a, b)
        | Op::MatmulTScale { a, b, .. } => rg(*a) || rg(*b),
        Op::Transpose(a)
        | Op::Reshape(a)
        | Op::Neg(a)
        | Op::Scale(a, _)
        | Op::AddScalar(a)
        | Op::Exp(a)
        | Op::Square(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::SoftmaxLast(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::NarrowLast { x: a, .. } => rg(*a),
        #[cfg(test)]
        Op::Relu(a) | Op::LayerNormLast { x: a, .. } => rg(*a),
        Op::ConcatLast(parts) => parts.iter().any(|&p| rg(p)),
        Op::LinearAct { x, w, b, .. } => rg(*x) || rg(*w) || b.is_some_and(rg),
        Op::LayerNormAffine { x, gamma, beta, .. } => rg(*x) || rg(*gamma) || rg(*beta),
    }
}

#[derive(Default)]
struct TapeInner {
    nodes: Vec<Node>,
}

/// A recording tape. Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

/// A value the forward pass computes with: its tensor, plus a node on a
/// [`Tape`] when it is recorded for backward.
///
/// Every op is defined once, here: it computes its result from its
/// operands' values and, when the operands are on a tape, records a node
/// for backward. A *detached* `Var` ([`Var::detached`]) is on no tape, so
/// ops over detached operands record nothing and the same expressions run
/// as plain tensor kernels. Taped and detached results are therefore
/// bitwise identical by construction. Mixing operands from different tapes,
/// or taped with detached operands, panics.
#[derive(Clone)]
pub struct Var {
    value: Tensor,
    node: Option<(Tape, usize)>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes holding a gradient (diagnostics / tests): after
    /// backward, the nodes that both require a gradient and reach the loss.
    pub fn grad_count(&self) -> usize {
        self.inner
            .borrow()
            .nodes
            .iter()
            .filter(|n| n.grad.is_some())
            .count()
    }

    /// Introduces `t` as a leaf that receives a gradient (a trainable
    /// parameter, or an input whose gradient is wanted).
    pub fn leaf(&self, t: Tensor) -> Var {
        self.push_node(t, Op::Leaf, true)
    }

    /// Introduces `t` as a leaf that never receives a gradient (data,
    /// masks, frozen parameters). Backward prunes every rule that would
    /// only feed constants.
    pub fn constant(&self, t: Tensor) -> Var {
        self.push_node(t, Op::Leaf, false)
    }

    fn push(&self, value: Tensor, op: Op) -> Var {
        let requires_grad = any_input_requires_grad(&self.inner.borrow().nodes, &op);
        self.push_node(value, op, requires_grad)
    }

    fn push_node(&self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        // The node and the `Var` share one storage (an O(1) handle).
        inner.nodes.push(Node {
            value: value.clone(),
            grad: None,
            op,
            requires_grad,
        });
        Var {
            value,
            node: Some((self.clone(), id)),
        }
    }

    fn accumulate(&self, id: usize, g: Tensor) {
        let mut inner = self.inner.borrow_mut();
        let node = &mut inner.nodes[id];
        debug_assert!(
            node.requires_grad,
            "gradient accumulated into constant node {id}"
        );
        debug_assert_eq!(
            g.shape(),
            node.value.shape(),
            "gradient shape mismatch at node {id}"
        );
        match &mut node.grad {
            // In place: the accumulator is uniquely owned while backward is
            // still upstream of this node (copy-on-write guards the rest).
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

/// The tape `vars` are recorded on, or `None` when every one is detached.
fn tape_of<'a>(vars: impl IntoIterator<Item = &'a Var>) -> Option<&'a Tape> {
    let mut vars = vars.into_iter();
    let first = vars.next().expect("an op has at least one operand").tape();
    for v in vars {
        match (first, v.tape()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    Rc::ptr_eq(&a.inner, &b.inner),
                    "variables belong to different tapes"
                )
            }
            _ => panic!("taped and detached variables mixed in one op"),
        }
    }
    first
}

/// The op's result: detached when `tape` is `None`, otherwise a new node
/// recording `op()` (only built when taped, so it may read operand ids).
fn record(tape: Option<&Tape>, value: Tensor, op: impl FnOnce() -> Op) -> Var {
    match tape {
        Some(tape) => tape.push(value, op()),
        None => Var::detached(value),
    }
}

impl Var {
    /// A value on no tape: ops over it compute their results and record
    /// nothing.
    pub fn detached(value: Tensor) -> Var {
        Var { value, node: None }
    }

    /// The tape this variable is recorded on (`None` when detached).
    pub fn tape(&self) -> Option<&Tape> {
        self.node.as_ref().map(|(tape, _)| tape)
    }

    /// This variable's node id; only called on taped variables.
    fn id(&self) -> usize {
        self.node.as_ref().expect("a taped variable").1
    }

    /// This variable's current value: an O(1) shared-storage handle, not a
    /// copy (tensors are copy-on-write).
    pub fn value(&self) -> Tensor {
        self.value.clone()
    }

    /// This variable's elements, row-major.
    pub fn data(&self) -> &[f64] {
        self.value.data()
    }

    /// The shape of this variable's value.
    pub fn shape(&self) -> Shape {
        *self.value.shape()
    }

    /// Whether backward computes a gradient for this node (never for a
    /// detached variable).
    pub fn requires_grad(&self) -> bool {
        self.node
            .as_ref()
            .is_some_and(|(tape, id)| tape.inner.borrow().nodes[*id].requires_grad)
    }

    /// The accumulated gradient (zeros if backward never reached this node,
    /// which is always the case for nodes that do not require a gradient
    /// and for detached variables).
    pub fn grad(&self) -> Tensor {
        let grad = self
            .node
            .as_ref()
            .and_then(|(tape, id)| tape.inner.borrow().nodes[*id].grad.clone());
        grad.unwrap_or_else(|| Tensor::zeros(self.shape()))
    }

    fn unary(&self, value: Tensor, op: impl FnOnce(usize) -> Op) -> Var {
        record(self.tape(), value, || op(self.id()))
    }

    fn binary(
        &self,
        other: &Var,
        f: impl Fn(f64, f64) -> f64 + Sync,
        op: fn(usize, usize) -> Op,
    ) -> Var {
        let tape = tape_of([self, other]);
        let v = self.value.broadcast_zip(&other.value, f);
        record(tape, v, || op(self.id(), other.id()))
    }

    // ---- arithmetic --------------------------------------------------------

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a + b, Op::Add)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a - b, Op::Sub)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a * b, Op::Mul)
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.unary(self.value.map(|x| -x), Op::Neg)
    }

    /// Multiplication by a constant.
    pub fn scale(&self, c: f64) -> Var {
        self.unary(self.value.map(|x| x * c), |a| Op::Scale(a, c))
    }

    /// Addition of a constant.
    pub fn add_scalar(&self, c: f64) -> Var {
        self.unary(self.value.map(|x| x + c), Op::AddScalar)
    }

    // ---- linear algebra ----------------------------------------------------

    /// Matrix product (see [`Tensor::matmul`] for supported rank pairs).
    pub fn matmul(&self, other: &Var) -> Var {
        let tape = tape_of([self, other]);
        let _s = tranad_telemetry::span::enter("op.matmul");
        let v = self.value.matmul(&other.value);
        record(tape, v, || Op::Matmul(self.id(), other.id()))
    }

    /// Swap of the last two dimensions.
    pub fn transpose(&self) -> Var {
        self.unary(self.value.transpose(), Op::Transpose)
    }

    /// Shape reinterpretation (element count preserved).
    pub fn reshape(&self, shape: impl Into<Shape>) -> Var {
        self.unary(self.value.reshape(shape), Op::Reshape)
    }

    // ---- nonlinearities ----------------------------------------------------

    /// Elementwise `exp`.
    pub fn exp(&self) -> Var {
        self.unary(self.value.map(f64::exp), Op::Exp)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        self.unary(self.value.map(|x| x * x), Op::Square)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(self.value.map(|x| 1.0 / (1.0 + (-x).exp())), Op::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(self.value.map(f64::tanh), Op::Tanh)
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&self) -> Var {
        let _s = tranad_telemetry::span::enter("op.softmax");
        self.unary(self.value.softmax_last(), Op::SoftmaxLast)
    }

    // ---- fused ops ---------------------------------------------------------

    /// Fused `act(self @ w + b)` — one tape node and one output buffer where
    /// the unfused chain records three nodes. Numerically identical
    /// (bitwise) to `self.matmul(w).add(b)` followed by the activation.
    pub fn linear_act(&self, w: &Var, b: Option<&Var>, act: Act) -> Var {
        let tape = tape_of([self, w].into_iter().chain(b));
        let _s = tranad_telemetry::span::enter("op.linear_act");
        let v = self
            .value
            .matmul_bias_act(&w.value, b.map(|b| &b.value), act);
        record(tape, v, || Op::LinearAct {
            x: self.id(),
            w: w.id(),
            b: b.map(Var::id),
            act,
        })
    }

    /// Fused affine layer norm `layer_norm(self) * gamma + beta` — one tape
    /// node instead of three, bitwise identical to the unfused chain. The
    /// node keeps no intermediates: backward recomputes the normalized input
    /// from `self`'s value with the same kernel.
    pub fn layer_norm_affine(&self, gamma: &Var, beta: &Var, eps: f64) -> Var {
        let tape = tape_of([self, gamma, beta]);
        let _s = tranad_telemetry::span::enter("op.layer_norm_affine");
        let v = self.value.layer_norm_affine(&gamma.value, &beta.value, eps);
        record(tape, v, || Op::LayerNormAffine {
            x: self.id(),
            gamma: gamma.id(),
            beta: beta.id(),
            eps,
        })
    }

    /// Fused `(self @ other^T) * scale` (attention scores) — one tape node
    /// instead of three, without materializing the transpose; bitwise
    /// identical to `self.matmul(&other.transpose()).scale(scale)`.
    pub fn matmul_t_scaled(&self, other: &Var, scale: f64) -> Var {
        let tape = tape_of([self, other]);
        let _s = tranad_telemetry::span::enter("op.matmul_t_scale");
        let v = self.value.matmul_nt_scaled(&other.value, scale);
        record(tape, v, || Op::MatmulTScale {
            a: self.id(),
            b: other.id(),
            scale,
        })
    }

    // ---- reductions & reshuffles -------------------------------------------

    /// Sum of all elements (rank-0 result).
    pub fn sum_all(&self) -> Var {
        self.unary(Tensor::scalar(self.value.sum()), Op::SumAll)
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean_all(&self) -> Var {
        self.unary(Tensor::scalar(self.value.mean()), Op::MeanAll)
    }

    /// Concatenation along the last dimension.
    pub fn concat_last(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let tape = tape_of(parts);
        let _s = tranad_telemetry::span::enter("op.concat");
        let refs: Vec<&Tensor> = parts.iter().map(|p| &p.value).collect();
        let v = Tensor::concat_last(&refs);
        record(tape, v, || {
            Op::ConcatLast(parts.iter().map(Var::id).collect())
        })
    }

    /// `len` columns of the last dimension starting at `start`.
    pub fn narrow_last(&self, start: usize, len: usize) -> Var {
        self.unary(self.value.narrow_last(start, len), |x| Op::NarrowLast {
            x,
            start,
        })
    }

    /// Mean squared error against `target`: `mean((self - target)^2)`.
    pub fn mse(&self, target: &Var) -> Var {
        self.sub(target).square().mean_all()
    }

    // ---- backward ----------------------------------------------------------

    /// Runs reverse-mode differentiation from this node, seeding its gradient
    /// with ones. Gradients accumulate into every reachable node that
    /// requires one; a node that does not require a gradient is a no-op.
    pub fn backward(&self) {
        let _s = tranad_telemetry::span::enter("tape.backward");
        let Some((tape, root)) = &self.node else {
            return;
        };
        if !self.requires_grad() {
            return;
        }
        tape.accumulate(*root, Tensor::ones(self.shape()));
        for id in (0..=*root).rev() {
            let grad = {
                let inner = tape.inner.borrow();
                match &inner.nodes[id].grad {
                    None => continue,
                    Some(g) => g.clone(),
                }
            };
            tape.propagate(id, grad);
        }
    }
}

impl Tape {
    fn propagate(&self, id: usize, g: Tensor) {
        // Per-op backward spans only for the ops worth attributing (the
        // same set as the forward `op.*` spans); gated on `active()` so
        // the untraced hot loop skips the extra tape borrow entirely.
        let _span = if tranad_telemetry::span::active() {
            let inner = self.inner.borrow();
            backward_span(&inner.nodes[id].op).map(tranad_telemetry::span::enter)
        } else {
            None
        };
        // Clone whatever the backward rule needs while holding the borrow,
        // then release it before accumulating into inputs. A single-input
        // op requires a gradient exactly when its input does, so only the
        // multi-input rules check their inputs' flags; they compute a part
        // only for inputs that require it, and `Up3` keeps the input order
        // so accumulation order matches the unpruned rule.
        enum Rule {
            None,
            One { to: usize, g: Tensor },
            Up3([Option<(usize, Tensor)>; 3]),
            Many(Vec<(usize, Tensor)>),
        }
        let rule = {
            let inner = self.inner.borrow();
            let node = &inner.nodes[id];
            let val = |i: usize| inner.nodes[i].value.clone();
            let rg = |i: usize| inner.nodes[i].requires_grad;
            // `(i, f())` when input `i` requires a gradient.
            let part = |i: usize, f: &dyn Fn() -> Tensor| rg(i).then(|| (i, f()));
            let two =
                |a: Option<(usize, Tensor)>, b: Option<(usize, Tensor)>| Rule::Up3([a, b, None]);
            match &node.op {
                Op::Leaf => Rule::None,
                Op::Add(a, b) => two(
                    part(*a, &|| g.reduce_to_shape(val(*a).shape())),
                    part(*b, &|| g.reduce_to_shape(val(*b).shape())),
                ),
                Op::Sub(a, b) => two(
                    part(*a, &|| g.reduce_to_shape(val(*a).shape())),
                    part(*b, &|| g.map(|x| -x).reduce_to_shape(val(*b).shape())),
                ),
                Op::Mul(a, b) => {
                    let (av, bv) = (val(*a), val(*b));
                    let times =
                        |t: &Tensor, s: &Shape| g.broadcast_zip(t, |x, y| x * y).reduce_to_shape(s);
                    two(
                        part(*a, &|| times(&bv, av.shape())),
                        part(*b, &|| times(&av, bv.shape())),
                    )
                }
                Op::Matmul(a, b) => {
                    let (ga, gb) = matmul_backward(&g, &val(*a), &val(*b), rg(*a), rg(*b));
                    two(ga.map(|ga| (*a, ga)), gb.map(|gb| (*b, gb)))
                }
                Op::Transpose(a) => Rule::One {
                    to: *a,
                    g: g.transpose(),
                },
                Op::Reshape(a) => {
                    let s = *val(*a).shape();
                    Rule::One {
                        to: *a,
                        g: g.reshape(s),
                    }
                }
                Op::Neg(a) => Rule::One {
                    to: *a,
                    g: g.map(|x| -x),
                },
                Op::Scale(a, c) => {
                    let c = *c;
                    Rule::One {
                        to: *a,
                        g: g.map(|x| x * c),
                    }
                }
                Op::AddScalar(a) => Rule::One { to: *a, g },
                Op::Exp(a) => Rule::One {
                    to: *a,
                    g: g.zip(&node.value, |x, y| x * y),
                },
                Op::Square(a) => Rule::One {
                    to: *a,
                    g: g.zip(&val(*a), |x, y| 2.0 * x * y),
                },
                Op::Sigmoid(a) => Rule::One {
                    to: *a,
                    g: g.zip(&node.value, |x, y| x * y * (1.0 - y)),
                },
                Op::Tanh(a) => Rule::One {
                    to: *a,
                    g: g.zip(&node.value, |x, y| x * (1.0 - y * y)),
                },
                #[cfg(test)]
                Op::Relu(a) => Rule::One {
                    to: *a,
                    g: g.zip(&val(*a), |x, y| if y > 0.0 { x } else { 0.0 }),
                },
                Op::SoftmaxLast(a) => Rule::One {
                    to: *a,
                    g: softmax_backward(&g, &node.value),
                },
                Op::SumAll(a) => {
                    let s = *val(*a).shape();
                    Rule::One {
                        to: *a,
                        g: Tensor::full(s, g.item()),
                    }
                }
                Op::MeanAll(a) => {
                    let s = *val(*a).shape();
                    let n = s.numel() as f64;
                    Rule::One {
                        to: *a,
                        g: Tensor::full(s, g.item() / n),
                    }
                }
                #[cfg(test)]
                Op::LayerNormLast { x, inv_std } => Rule::One {
                    to: *x,
                    g: layer_norm_backward(&g, &node.value, inv_std),
                },
                Op::ConcatLast(parts) => {
                    let mut grads = Vec::with_capacity(parts.len());
                    let mut start = 0;
                    for &p in parts {
                        let w = val(p).shape().last_dim();
                        if rg(p) {
                            grads.push((p, g.narrow_last(start, w)));
                        }
                        start += w;
                    }
                    Rule::Many(grads)
                }
                Op::NarrowLast { x, start } => {
                    let s = *val(*x).shape();
                    Rule::One {
                        to: *x,
                        g: scatter_last(&g, &s, *start),
                    }
                }
                Op::LinearAct { x, w, b, act } => {
                    // dpre = g ∘ act'(y), with act' read off the output y;
                    // then the plain matmul backward on the pre-activation.
                    // Expressions (and evaluation order) match the unfused
                    // Relu/Sigmoid/Tanh backward rules bitwise.
                    let dpre = match act {
                        Act::Identity => g.clone(),
                        Act::Relu => g.zip(&node.value, |x, y| if y > 0.0 { x } else { 0.0 }),
                        Act::Sigmoid => g.zip(&node.value, |x, y| x * y * (1.0 - y)),
                        Act::Tanh => g.zip(&node.value, |x, y| x * (1.0 - y * y)),
                    };
                    let (gx, gw) = matmul_backward(&dpre, &val(*x), &val(*w), rg(*x), rg(*w));
                    let gb =
                        b.and_then(|bid| part(bid, &|| dpre.reduce_to_shape(val(bid).shape())));
                    Rule::Up3([gx.map(|gx| (*x, gx)), gw.map(|gw| (*w, gw)), gb])
                }
                Op::LayerNormAffine {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    // Mirrors the unfused add/mul/layer-norm backward chain
                    // term for term (same reduction order — bitwise equal).
                    // The normalized input is recomputed from `x` by the
                    // kernel the unfused forward runs, so it has its bits.
                    let gv = val(*gamma);
                    let gbeta = part(*beta, &|| g.reduce_to_shape(val(*beta).shape()));
                    let parts = (rg(*x) || rg(*gamma)).then(|| val(*x).layer_norm_parts(*eps));
                    let parts = || parts.as_ref().expect("computed for x or gamma");
                    let ggamma = part(*gamma, &|| {
                        g.broadcast_zip(&parts().0, |a, b| a * b)
                            .reduce_to_shape(gv.shape())
                    });
                    let gx = part(*x, &|| {
                        let gn = g.broadcast_zip(&gv, |a, b| a * b);
                        layer_norm_backward(&gn, &parts().0, &parts().1)
                    });
                    Rule::Up3([gx, ggamma, gbeta])
                }
                Op::MatmulTScale { a, b, scale } => {
                    let c = *scale;
                    let gs = g.map(|x| x * c);
                    two(
                        part(*a, &|| gs.matmul(&val(*b))),
                        // gs^T @ a without materializing the transpose (same
                        // ascending summation order — bitwise identical).
                        part(*b, &|| gs.matmul_tn(&val(*a))),
                    )
                }
            }
        };
        match rule {
            Rule::None => {}
            Rule::One { to, g } => self.accumulate(to, g),
            Rule::Up3(parts) => {
                for (to, g) in parts.into_iter().flatten() {
                    self.accumulate(to, g);
                }
            }
            Rule::Many(gs) => {
                for (to, g) in gs {
                    self.accumulate(to, g);
                }
            }
        }
    }
}

/// dA, dB for `out = A @ B` given `g = dOut`, each computed only when its
/// flag (`want_a`, `want_b`) asks for it.
///
/// Runs on the transpose-free tiled kernels: `g @ B^T` via
/// [`Tensor::matmul_nt_scaled`] with scale 1 (`x * 1.0` is a bitwise
/// identity) and `A^T @ g` via [`Tensor::matmul_tn`]. Both accumulate in
/// the same index order as the materialized-transpose chain, so gradients
/// are bitwise identical to the old `transpose()`-based rules without the
/// transpose allocations.
fn matmul_backward(
    g: &Tensor,
    a: &Tensor,
    b: &Tensor,
    want_a: bool,
    want_b: bool,
) -> (Option<Tensor>, Option<Tensor>) {
    match (a.shape().rank(), b.shape().rank()) {
        (2, 2) | (3, 3) => (
            want_a.then(|| g.matmul_nt_scaled(b, 1.0)),
            want_b.then(|| a.matmul_tn(g)),
        ),
        (3, 2) => {
            // Shared rhs: flatten the batch so `g @ B^T` runs as one 2-d
            // nt product against the shared weight (reshape is O(1)).
            let (bb, n, m) = (g.shape().dim(0), g.shape().dim(1), g.shape().dim(2));
            let kk = a.shape().dim(2);
            let ga = want_a.then(|| {
                g.reshape([bb * n, m])
                    .matmul_nt_scaled(b, 1.0)
                    .reshape([bb, n, kk])
            });
            // [b, k, m] per-batch products, summed over the batch.
            let gb = want_b.then(|| sum_axis0(&a.matmul_tn(g)));
            (ga, gb)
        }
        _ => unreachable!("matmul forward validated ranks"),
    }
}

/// Sums a rank-3 tensor over its first axis, producing rank-2.
fn sum_axis0(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 3);
    let (b, n, m) = (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2));
    let mut out = Tensor::zeros([n, m]);
    let od = out.data_mut();
    for bi in 0..b {
        for (o, &v) in od.iter_mut().zip(&t.data()[bi * n * m..(bi + 1) * n * m]) {
            *o += v;
        }
    }
    out
}

/// Softmax jacobian-vector product over the last dim:
/// `dx = (g - sum(g*y)) * y` rowwise.
fn softmax_backward(g: &Tensor, y: &Tensor) -> Tensor {
    let m = y.shape().last_dim();
    let rows = y.numel() / m;
    let mut out = Tensor::uninit(*y.shape());
    let od = out.data_mut();
    for r in 0..rows {
        let gr = &g.data()[r * m..(r + 1) * m];
        let yr = &y.data()[r * m..(r + 1) * m];
        let dot: f64 = gr.iter().zip(yr).map(|(&a, &b)| a * b).sum();
        for ((o, &gi), &yi) in od[r * m..(r + 1) * m].iter_mut().zip(gr).zip(yr) {
            *o = (gi - dot) * yi;
        }
    }
    out
}

/// Layer-norm backward over the last dim given normalized output `y` and the
/// per-row inverse standard deviation.
fn layer_norm_backward(g: &Tensor, y: &Tensor, inv_std: &Tensor) -> Tensor {
    let m = y.shape().last_dim();
    let rows = y.numel() / m;
    let mut out = Tensor::uninit(*y.shape());
    let od = out.data_mut();
    for r in 0..rows {
        let gr = &g.data()[r * m..(r + 1) * m];
        let yr = &y.data()[r * m..(r + 1) * m];
        let is = inv_std.data()[r];
        let mean_g: f64 = gr.iter().sum::<f64>() / m as f64;
        let mean_gy: f64 = gr.iter().zip(yr).map(|(&a, &b)| a * b).sum::<f64>() / m as f64;
        for ((o, &gi), &yi) in od[r * m..(r + 1) * m].iter_mut().zip(gr).zip(yr) {
            *o = is * (gi - mean_g - yi * mean_gy);
        }
    }
    out
}

/// Scatters a narrowed gradient back into a zero tensor of shape `target`.
fn scatter_last(g: &Tensor, target: &Shape, start: usize) -> Tensor {
    let m = target.last_dim();
    let len = g.shape().last_dim();
    let rows = target.numel() / m;
    let mut out = Tensor::zeros(*target);
    let od = out.data_mut();
    for r in 0..rows {
        od[r * m + start..r * m + start + len].copy_from_slice(&g.data()[r * len..(r + 1) * len]);
    }
    out
}

#[cfg(test)]
/// The unfused references the fused ops are checked against, bit for bit
/// (`fused_*_matches_unfused_bitwise`); no model records them.
impl Var {
    /// Rectified linear unit: the activation half of
    /// `linear_act(.., Act::Relu)`.
    pub(crate) fn relu(&self) -> Var {
        self.unary(self.value.map(|x| x.max(0.0)), Op::Relu)
    }

    /// Layer normalization over the last dimension, without the affine half
    /// of [`Var::layer_norm_affine`].
    pub(crate) fn layer_norm_last(&self, eps: f64) -> Var {
        let _s = tranad_telemetry::span::enter("op.layer_norm");
        let (normed, inv_std) = self.value.layer_norm_parts(eps);
        self.unary(normed, |x| Op::LayerNormLast { x, inv_std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_backward() {
        let t = Tape::new();
        let a = t.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let b = t.leaf(Tensor::from_slice(&[3.0, 4.0]));
        let c = a.add(&b).sum_all();
        c.backward();
        assert_eq!(a.grad().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward() {
        let t = Tape::new();
        let a = t.leaf(Tensor::from_slice(&[2.0, 3.0]));
        let b = t.leaf(Tensor::from_slice(&[5.0, 7.0]));
        let c = a.mul(&b).sum_all();
        c.backward();
        assert_eq!(a.grad().data(), &[5.0, 7.0]);
        assert_eq!(b.grad().data(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_backward_reduces() {
        let t = Tape::new();
        let a = t.leaf(Tensor::ones([2, 3]));
        let bias = t.leaf(Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let c = a.add(&bias).sum_all();
        c.backward();
        assert_eq!(bias.grad().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_backward_2d() {
        let t = Tape::new();
        let a = t.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = t.leaf(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]));
        let c = a.matmul(&b).sum_all();
        c.backward();
        // dA = 1s @ B^T
        assert_eq!(a.grad().data(), &[11.0, 15.0, 11.0, 15.0]);
        // dB = A^T @ 1s
        assert_eq!(b.grad().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_backward_batched_shared_rhs() {
        let t = Tape::new();
        let a = t.leaf(Tensor::ones([2, 2, 3]));
        let w = t.leaf(Tensor::ones([3, 2]));
        let c = a.matmul(&w).sum_all();
        c.backward();
        assert_eq!(a.grad().shape().dims(), &[2, 2, 3]);
        assert_eq!(w.grad().shape().dims(), &[3, 2]);
        // each weight sees 2 batches * 2 rows of ones
        assert!(w.grad().data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn chain_rule_square() {
        let t = Tape::new();
        let x = t.leaf(Tensor::from_slice(&[3.0]));
        let y = x.square().scale(2.0).sum_all(); // 2x^2 -> dy/dx = 4x = 12
        y.backward();
        assert_eq!(x.grad().data(), &[12.0]);
    }

    #[test]
    fn sigmoid_backward_value() {
        let t = Tape::new();
        let x = t.leaf(Tensor::from_slice(&[0.0]));
        let y = x.sigmoid().sum_all();
        y.backward();
        // sigma'(0) = 0.25
        assert!((x.grad().data()[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn softmax_backward_sums_to_zero() {
        // Because softmax output sums to 1, gradient of sum over the
        // softmax should be ~0 everywhere.
        let t = Tape::new();
        let x = t.leaf(Tensor::from_slice(&[0.3, -1.2, 2.0]));
        let y = x.softmax_last().sum_all();
        y.backward();
        for &v in x.grad().data() {
            assert!(v.abs() < 1e-12, "grad {v}");
        }
    }

    #[test]
    fn layer_norm_output_standardized() {
        let t = Tape::new();
        let x = t.leaf(Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]));
        let y = x.layer_norm_last(1e-5);
        let v = y.value();
        assert!(v.mean().abs() < 1e-10);
        let var: f64 = v.data().iter().map(|a| a * a).sum::<f64>() / 4.0;
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let t = Tape::new();
        let x = t.leaf(Tensor::from_slice(&[2.0]));
        let y = x.mul(&x).sum_all(); // x^2 via reuse, dy/dx = 2x = 4
        y.backward();
        assert_eq!(x.grad().data(), &[4.0]);
    }

    #[test]
    fn concat_narrow_backward() {
        let t = Tape::new();
        let a = t.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let b = t.leaf(Tensor::from_slice(&[3.0]));
        let c = Var::concat_last(&[a.clone(), b.clone()]);
        let d = c.narrow_last(1, 2).scale(3.0).sum_all();
        d.backward();
        assert_eq!(a.grad().data(), &[0.0, 3.0]);
        assert_eq!(b.grad().data(), &[3.0]);
    }

    fn pseudo(shape: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        Tensor::from_fn(shape.to_vec(), |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn fused_linear_act_matches_unfused_bitwise() {
        let x = pseudo(&[2, 5, 4], 3);
        let w = pseudo(&[4, 6], 4);
        let b = pseudo(&[6], 5);
        for act in [Act::Identity, Act::Relu, Act::Sigmoid, Act::Tanh] {
            let t1 = Tape::new();
            let (xv, wv, bv) = (t1.leaf(x.clone()), t1.leaf(w.clone()), t1.leaf(b.clone()));
            let fused = xv.linear_act(&wv, Some(&bv), act);
            fused.square().mean_all().backward();

            let t2 = Tape::new();
            let (xu, wu, bu) = (t2.leaf(x.clone()), t2.leaf(w.clone()), t2.leaf(b.clone()));
            let pre = xu.matmul(&wu).add(&bu);
            let unfused = match act {
                Act::Identity => pre,
                Act::Relu => pre.relu(),
                Act::Sigmoid => pre.sigmoid(),
                Act::Tanh => pre.tanh(),
            };
            unfused.square().mean_all().backward();

            assert_eq!(
                fused.value().data(),
                unfused.value().data(),
                "{act:?} value"
            );
            assert_eq!(xv.grad().data(), xu.grad().data(), "{act:?} dx");
            assert_eq!(wv.grad().data(), wu.grad().data(), "{act:?} dw");
            assert_eq!(bv.grad().data(), bu.grad().data(), "{act:?} db");
            assert_eq!(
                t1.len(),
                t2.len() - if act == Act::Identity { 1 } else { 2 }
            );
        }
    }

    #[test]
    fn fused_layer_norm_affine_matches_unfused_bitwise() {
        let x = pseudo(&[3, 4, 6], 7);
        let gamma = pseudo(&[6], 8);
        let beta = pseudo(&[6], 9);

        let t1 = Tape::new();
        let (xv, gv, bv) = (
            t1.leaf(x.clone()),
            t1.leaf(gamma.clone()),
            t1.leaf(beta.clone()),
        );
        let fused = xv.layer_norm_affine(&gv, &bv, 1e-5);
        fused.square().mean_all().backward();

        let t2 = Tape::new();
        let (xu, gu, bu) = (
            t2.leaf(x.clone()),
            t2.leaf(gamma.clone()),
            t2.leaf(beta.clone()),
        );
        let unfused = xu.layer_norm_last(1e-5).mul(&gu).add(&bu);
        unfused.square().mean_all().backward();

        assert_eq!(fused.value().data(), unfused.value().data());
        assert_eq!(xv.grad().data(), xu.grad().data());
        assert_eq!(gv.grad().data(), gu.grad().data());
        assert_eq!(bv.grad().data(), bu.grad().data());
        assert_eq!(t1.len(), t2.len() - 2);
    }

    #[test]
    fn fused_matmul_t_scaled_matches_unfused_bitwise() {
        let q = pseudo(&[2, 4, 3], 11);
        let k = pseudo(&[2, 5, 3], 12);

        let t1 = Tape::new();
        let (qv, kv) = (t1.leaf(q.clone()), t1.leaf(k.clone()));
        let fused = qv.matmul_t_scaled(&kv, 0.25);
        fused.square().mean_all().backward();

        let t2 = Tape::new();
        let (qu, ku) = (t2.leaf(q.clone()), t2.leaf(k.clone()));
        let unfused = qu.matmul(&ku.transpose()).scale(0.25);
        unfused.square().mean_all().backward();

        assert_eq!(fused.value().data(), unfused.value().data());
        assert_eq!(qv.grad().data(), qu.grad().data());
        assert_eq!(kv.grad().data(), ku.grad().data());
        assert_eq!(t1.len(), t2.len() - 2);
    }

    #[test]
    fn detached_ops_record_no_node() {
        let x = Var::detached(pseudo(&[2, 3, 4], 21));
        let w = Var::detached(pseudo(&[4, 5], 22));
        let b = Var::detached(pseudo(&[5], 23));
        let h = x.linear_act(&w, Some(&b), Act::Tanh).softmax_last();
        let y = Var::concat_last(&[h.clone(), h.narrow_last(1, 2)])
            .square()
            .mean_all();
        for v in [&h, &y] {
            assert!(v.tape().is_none() && !v.requires_grad());
        }
        // The same expressions on a tape give the same bits.
        let t = Tape::new();
        let (xt, wt, bt) = (
            t.constant(x.value()),
            t.leaf(w.value()),
            t.constant(b.value()),
        );
        let ht = xt.linear_act(&wt, Some(&bt), Act::Tanh).softmax_last();
        let yt = Var::concat_last(&[ht.clone(), ht.narrow_last(1, 2)])
            .square()
            .mean_all();
        assert_eq!(t.len(), 9); // 3 leaves + 6 ops
        assert_eq!(ht.data(), h.data());
        assert_eq!(yt.data(), y.data());
    }

    #[test]
    fn detached_backward_leaves_every_gradient_empty() {
        let x = Var::detached(Tensor::from_slice(&[1.0, -2.0, 3.0]));
        let w = Var::detached(Tensor::from_slice(&[0.5, 0.5, 0.5]));
        let y = x.mul(&w).sigmoid().sum_all();
        y.backward();
        for v in [&x, &w, &y] {
            assert!(v.grad().data().iter().all(|&g| g == 0.0));
            assert_eq!(v.grad().shape(), &v.shape());
        }
    }

    #[test]
    #[should_panic(expected = "taped and detached")]
    fn taped_with_detached_operand_panics() {
        let t = Tape::new();
        let a = t.leaf(Tensor::scalar(1.0));
        let _ = a.add(&Var::detached(Tensor::scalar(2.0)));
    }

    #[test]
    #[should_panic(expected = "taped and detached")]
    fn detached_with_taped_operand_panics() {
        let t = Tape::new();
        let x = Var::detached(Tensor::ones([2, 3]));
        let w = t.leaf(Tensor::ones([3, 2]));
        let _ = x.linear_act(&w, None, Act::Identity);
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn cross_tape_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.leaf(Tensor::scalar(1.0));
        let b = t2.leaf(Tensor::scalar(2.0));
        let _ = a.add(&b);
    }
}
