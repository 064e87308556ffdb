//! Recurrent cells (LSTM, GRU) needed by the paper's recurrent baselines
//! (LSTM-NDT, OmniAnomaly, MAD-GAN, CAE-M, DAGMM's estimation network).

use crate::fwd::Fwd;
use crate::layers::Linear;
use crate::param::{Init, ParamStore};
use tranad_tensor::{Tensor, Var};

/// A single LSTM cell with fused gate projections.
pub struct LstmCell {
    wx: Linear, // input -> 4H (i, f, g, o)
    wh: Linear, // hidden -> 4H
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell mapping `input` features to a `hidden`-sized state.
    pub fn new(store: &mut ParamStore, init: &mut Init, input: usize, hidden: usize) -> Self {
        LstmCell {
            wx: Linear::new(store, init, input, 4 * hidden),
            wh: Linear::with_bias(store, init, hidden, 4 * hidden, false),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Zero-initialized `(h, c)` state for a batch of size `b`.
    pub(crate) fn zero_state<F: Fwd>(&self, ctx: &F, b: usize) -> (Var, Var) {
        (
            ctx.input(Tensor::zeros([b, self.hidden])),
            ctx.input(Tensor::zeros([b, self.hidden])),
        )
    }

    /// One step: `x` is `[b, input]`, state is `([b, h], [b, h])`.
    pub(crate) fn step<F: Fwd>(&self, ctx: &F, x: &Var, state: (&Var, &Var)) -> (Var, Var) {
        let (h, c) = state;
        let gates = self.wx.forward(ctx, x).add(&self.wh.forward(ctx, h));
        let hd = self.hidden;
        let i = gates.narrow_last(0, hd).sigmoid();
        let f = gates.narrow_last(hd, hd).sigmoid();
        let g = gates.narrow_last(2 * hd, hd).tanh();
        let o = gates.narrow_last(3 * hd, hd).sigmoid();
        let c_next = f.mul(c).add(&i.mul(&g));
        let h_next = o.mul(&c_next.tanh());
        (h_next, c_next)
    }

    /// Runs the cell over a `[b, len, input]` sequence, returning the hidden
    /// state at every step as `[b, len, hidden]`.
    pub fn run<F: Fwd>(&self, ctx: &F, xs: &Var) -> Var {
        let dims = xs.shape();
        assert_eq!(dims.rank(), 3, "LstmCell::run expects [b, len, input]");
        let (b, len, input) = (dims.dim(0), dims.dim(1), dims.dim(2));
        let (mut h, mut c) = self.zero_state(ctx, b);
        let mut outputs = Vec::with_capacity(len);
        for t in 0..len {
            let xt = slice_time(xs, b, len, input, t);
            let (h2, c2) = self.step(ctx, &xt, (&h, &c));
            h = h2;
            c = c2;
            outputs.push(h.reshape([b, 1, self.hidden]));
        }
        stack_time(&outputs, b, len, self.hidden)
    }
}

/// A single GRU cell with fused gate projections.
pub struct GruCell {
    wx: Linear, // input -> 3H (r, z, n)
    wh: Linear, // hidden -> 3H
    hidden: usize,
}

impl GruCell {
    /// Creates a cell mapping `input` features to a `hidden`-sized state.
    pub fn new(store: &mut ParamStore, init: &mut Init, input: usize, hidden: usize) -> Self {
        GruCell {
            wx: Linear::new(store, init, input, 3 * hidden),
            wh: Linear::with_bias(store, init, hidden, 3 * hidden, false),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Zero-initialized hidden state for a batch of size `b`.
    pub(crate) fn zero_state<F: Fwd>(&self, ctx: &F, b: usize) -> Var {
        ctx.input(Tensor::zeros([b, self.hidden]))
    }

    /// One step: `x` is `[b, input]`, `h` is `[b, hidden]`.
    pub(crate) fn step<F: Fwd>(&self, ctx: &F, x: &Var, h: &Var) -> Var {
        let gx = self.wx.forward(ctx, x);
        let gh = self.wh.forward(ctx, h);
        let hd = self.hidden;
        let r = gx.narrow_last(0, hd).add(&gh.narrow_last(0, hd)).sigmoid();
        let z = gx
            .narrow_last(hd, hd)
            .add(&gh.narrow_last(hd, hd))
            .sigmoid();
        let n = gx
            .narrow_last(2 * hd, hd)
            .add(&r.mul(&gh.narrow_last(2 * hd, hd)))
            .tanh();
        // h' = (1 - z) * n + z * h
        let one_minus_z = z.neg().add_scalar(1.0);
        one_minus_z.mul(&n).add(&z.mul(h))
    }

    /// Runs the cell over a `[b, len, input]` sequence, returning hidden
    /// states `[b, len, hidden]`.
    pub fn run<F: Fwd>(&self, ctx: &F, xs: &Var) -> Var {
        let dims = xs.shape();
        assert_eq!(dims.rank(), 3, "GruCell::run expects [b, len, input]");
        let (b, len, input) = (dims.dim(0), dims.dim(1), dims.dim(2));
        let mut h = self.zero_state(ctx, b);
        let mut outputs = Vec::with_capacity(len);
        for t in 0..len {
            let xt = slice_time(xs, b, len, input, t);
            h = self.step(ctx, &xt, &h);
            outputs.push(h.reshape([b, 1, self.hidden]));
        }
        stack_time(&outputs, b, len, self.hidden)
    }
}

/// Extracts timestep `t` of a `[b, len, d]` sequence as `[b, d]`,
/// differentiably (reshape + narrow trick on the flattened time axis).
fn slice_time(xs: &Var, b: usize, len: usize, d: usize, t: usize) -> Var {
    // [b, len, d] -> [b, len*d] -> narrow -> [b, d]
    xs.reshape([b, len * d]).narrow_last(t * d, d)
}

/// Stacks per-timestep `[b, 1, h]` outputs into `[b, len, h]`.
fn stack_time(outputs: &[Var], b: usize, len: usize, h: usize) -> Var {
    // concat over the last dim of [b, 1, h] views flattened to [b, h] each,
    // then reshape back: [b, len*h] -> [b, len, h]
    let flat: Vec<Var> = outputs.iter().map(|o| o.reshape([b, h])).collect();
    Var::concat_last(&flat).reshape([b, len, h])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    fn setup() -> (ParamStore, Init) {
        (ParamStore::new(), Init::with_seed(0))
    }

    #[test]
    fn lstm_step_shapes() {
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, 3, 5);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::ones([2, 3]));
        let (h0, c0) = cell.zero_state(&ctx, 2);
        let (h, c) = cell.step(&ctx, &x, (&h0, &c0));
        assert_eq!(h.shape().dims(), &[2, 5]);
        assert_eq!(c.shape().dims(), &[2, 5]);
    }

    #[test]
    fn lstm_run_over_sequence() {
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, 2, 4);
        let ctx = Ctx::eval(&store);
        let xs = ctx.input(Tensor::from_fn([3, 6, 2], |i| (i as f64 * 0.1).sin()));
        let hs = cell.run(&ctx, &xs);
        assert_eq!(hs.shape().dims(), &[3, 6, 4]);
        // hidden states bounded by tanh
        assert!(hs.value().data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_state_carries_information() {
        // Output at the last step must depend on the first input.
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, 1, 3);
        let ctx = Ctx::eval(&store);
        let mut a = Tensor::zeros([1, 4, 1]);
        let b = a.clone();
        a.data_mut()[0] = 10.0; // change t=0 only
        let ha = cell.run(&ctx, &ctx.input(a)).value();
        let hb = cell.run(&ctx, &ctx.input(b)).value();
        let last_a = ha.at(&[0, 3, 0]);
        let last_b = hb.at(&[0, 3, 0]);
        assert!(
            (last_a - last_b).abs() > 1e-8,
            "no memory: {last_a} vs {last_b}"
        );
    }

    #[test]
    fn gru_run_shapes_and_grads() {
        let (mut store, mut init) = setup();
        let cell = GruCell::new(&mut store, &mut init, 2, 3);
        let ctx = Ctx::train(&store, 0);
        let xs = ctx.input(Tensor::from_fn([2, 5, 2], |i| (i as f64 * 0.2).cos()));
        let hs = cell.run(&ctx, &xs);
        assert_eq!(hs.shape().dims(), &[2, 5, 3]);
        hs.square().mean_all().backward();
        assert!(ctx.grad_norm_sq() > 0.0);
        assert!(ctx
            .grads()
            .iter()
            .all(|(_, g)| g.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn gru_zero_input_zero_state_is_stable() {
        let (mut store, mut init) = setup();
        let cell = GruCell::new(&mut store, &mut init, 2, 3);
        let ctx = Ctx::eval(&store);
        let x = ctx.input(Tensor::zeros([1, 2]));
        let h = cell.zero_state(&ctx, 1);
        let h1 = cell.step(&ctx, &x, &h);
        assert!(h1.value().data().iter().all(|v| v.is_finite()));
    }
}
