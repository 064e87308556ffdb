//! Regression test pinning the autograd tape size of one TranAD training
//! step. The fused ops (linear+bias+activation, layer-norm affine, scaled
//! q·kᵀ) each collapse several tape nodes into one; if a code path quietly
//! falls back to the unfused chain, the node count grows and this test
//! fails. Update the constants deliberately when the architecture changes.
//!
//! A second pin counts the nodes holding a gradient after backward in each
//! update's context. Backward only differentiates toward the update's
//! trainable parameters; if a path silently falls back to differentiating
//! everything (a trainable set dropped, inputs entering as gradient leaves),
//! the count grows and the pin fails.

use tranad::{TranadConfig, TranadModel};
use tranad_nn::{Ctx, Init, ParamId, ParamStore};
use tranad_tensor::Tensor;

fn tiny_config() -> TranadConfig {
    TranadConfig {
        epochs: 1,
        batch_size: 4,
        dropout: 0.0,
        context: 12,
        window: 6,
        ff_hidden: 16,
        ..TranadConfig::default()
    }
}

fn step_tape_len(config: TranadConfig, dims: usize) -> usize {
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(7);
    let model = TranadModel::new(&mut store, &mut init, dims, config);

    let ctx = Ctx::train(&store, 11);
    let b = 4;
    let wv = ctx.input(Tensor::from_fn([b, config.window, dims], |i| {
        (i as f64 * 0.17).sin()
    }));
    let cv = ctx.input(Tensor::from_fn([b, config.context, dims], |i| {
        (i as f64 * 0.29).cos()
    }));
    let out = model.forward(&ctx, &wv, &cv);
    // The phase-1/phase-2 loss of training update 1 (Eq. 10 at epoch 0).
    let loss = out
        .o1
        .mse(&wv)
        .scale(1.0)
        .add(&out.o2_hat.mse(&wv).scale(0.0));
    loss.backward();
    ctx.tape().len()
}

#[test]
fn transformer_step_tape_size_is_pinned() {
    // One full two-phase forward + loss on the transformer trunk. Fused
    // linear/layer-norm/attention nodes keep this count flat; the unfused
    // chains would add 2 nodes per linear+activation, 2 per layer norm and
    // 2 per attention score product.
    assert_eq!(step_tape_len(tiny_config(), 2), 446);
}

#[test]
fn feedforward_ablation_step_tape_size_is_pinned() {
    let config = TranadConfig {
        use_transformer: false,
        ..tiny_config()
    };
    assert_eq!(step_tape_len(config, 2), 34);
}

/// Which of the two training updates a context runs.
#[derive(Clone, Copy)]
enum Update {
    /// Update 1: everything but decoder 2 trains on `L1`.
    EncoderDecoder1,
    /// Update 2: decoder 2 alone trains on `L2`.
    Decoder2,
}

/// `(tape nodes, nodes holding a gradient)` after one update's backward.
fn update_grad_count(config: TranadConfig, dims: usize, update: Update) -> (usize, usize) {
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(7);
    let model = TranadModel::new(&mut store, &mut init, dims, config);
    let d2 = model.decoder2_param_ids();
    let is_d2 = |id: ParamId| d2.contains(&id);
    let ctx = match update {
        Update::EncoderDecoder1 => Ctx::train(&store, 11).with_trainable(|id| !is_d2(id)),
        Update::Decoder2 => Ctx::train(&store, 11).with_trainable(is_d2),
    };
    let b = 4;
    let wv = ctx.input(Tensor::from_fn([b, config.window, dims], |i| {
        (i as f64 * 0.17).sin()
    }));
    let cv = ctx.input(Tensor::from_fn([b, config.context, dims], |i| {
        (i as f64 * 0.29).cos()
    }));
    let out = model.forward(&ctx, &wv, &cv);
    // Eq. 10 at epoch 1 (both terms weighted, as in every later epoch).
    let w = 0.5;
    let (o_mine, sign) = match update {
        Update::EncoderDecoder1 => (&out.o1, 1.0),
        Update::Decoder2 => (&out.o2, -1.0),
    };
    let loss = o_mine
        .mse(&wv)
        .scale(w)
        .add(&out.o2_hat.mse(&wv).scale(sign * (1.0 - w)));
    loss.backward();
    (ctx.tape().len(), ctx.tape().grad_count())
}

#[test]
fn update_backward_gradient_counts_are_pinned() {
    let config = tiny_config();
    let (len1, held1) = update_grad_count(config, 2, Update::EncoderDecoder1);
    let (len2, held2) = update_grad_count(config, 2, Update::Decoder2);
    // Same forward as the pin above, so the same 446 nodes either way.
    assert_eq!((len1, len2), (446, 446));
    // Update 1 keeps the trunk and decoder 1: every node on the path from
    // those parameters to the loss, but no input, mask or decoder-2 leaf.
    assert_eq!(held1, 427);
    // Update 2 keeps decoder 2 alone: its leaves, its nodes in both phases
    // and the loss arithmetic. With every parameter trainable the same loss
    // leaves 427 nodes holding a gradient.
    assert_eq!(held2, 13);
}
