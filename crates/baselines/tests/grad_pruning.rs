//! Gradient pruning parity for the adversarial baselines: USAD's decoder-2
//! update and MAD-GAN's generator and discriminator updates each train a
//! subset of the parameters through a trainable set on the context. Each
//! detector must stay bitwise identical to a reference that differentiates
//! every parameter and then filters the gradient list (how the updates ran
//! before the tape learned to prune).
//!
//! The references rebuild each detector from the public layers in the same
//! parameter order with the same seeds, so a bitwise match of the scores on
//! the training and a held-out series (every parameter feeds them) and of
//! USAD's per-epoch losses pins the pruned training to the full backward.

use std::collections::HashSet;
use std::sync::Arc;
use tranad_baselines::Detector;
use tranad_baselines::{
    flatten_windows, last_row_sq_error, score_windows, sgd_step, MadGan, NeuralConfig, Usad,
};
use tranad_data::{Normalizer, SignalRng, TimeSeries, Windows};
use tranad_nn::{
    optim::AdamW, Activation, Ctx, FeedForward, Fwd, InferCtx, Init, Linear, LstmCell, ParamId,
    ParamStore,
};
use tranad_telemetry::{MemorySink, Recorder};
use tranad_tensor::{Tensor, Var};

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| (t as f64 / (9.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn config() -> NeuralConfig {
    NeuralConfig {
        epochs: 3,
        hidden: 16,
        latent: 6,
        batch: 48,
        ..NeuralConfig::default()
    }
}

fn filtered(ctx: &Ctx, keep: impl Fn(ParamId) -> bool) -> Vec<(ParamId, Tensor)> {
    ctx.grads()
        .into_iter()
        .filter(|(id, _)| keep(*id))
        .collect()
}

fn shuffle(order: &mut [usize], rng: &mut SignalRng) {
    for i in (1..order.len()).rev() {
        let j = rng.index(0, i + 1);
        order.swap(i, j);
    }
}

fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (t, (ra, rb)) in a.iter().zip(b).enumerate() {
        let (ba, bb): (Vec<u64>, Vec<u64>) = (
            ra.iter().map(|v| v.to_bits()).collect(),
            rb.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(
            ba, bb,
            "{what}: row {t} differs from the full-backward reference"
        );
    }
}

/// USAD's forward: `(AE1(w), AE2(w), AE2(AE1(w)))`.
fn usad_forward<F: Fwd>(
    nets: &(FeedForward, FeedForward, FeedForward),
    ctx: &F,
    flat: &Var,
) -> (Var, Var, Var) {
    let (encoder, decoder1, decoder2) = nets;
    let z = encoder.forward(ctx, flat);
    let ae1 = decoder1.forward(ctx, &z);
    let ae2 = decoder2.forward(ctx, &z);
    let ae2_ae1 = decoder2.forward(ctx, &encoder.forward(ctx, &ae1));
    (ae1, ae2, ae2_ae1)
}

/// USAD trained with full backward passes; returns (train scores, test
/// scores, per-epoch losses).
fn usad_reference(
    cfg: NeuralConfig,
    train: &TimeSeries,
    test: &TimeSeries,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<f64>) {
    let normalizer = Normalizer::fit(train);
    let normalized = normalizer.transform(train);
    let dims = train.dims();
    let in_dim = cfg.window * dims;
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(cfg.seed);
    let (relu, sigmoid) = (Activation::Relu, Activation::Sigmoid);
    let (encode, decode) = (
        [in_dim, cfg.hidden, cfg.latent],
        [cfg.latent, cfg.hidden, in_dim],
    );
    let encoder = FeedForward::new(&mut store, &mut init, &encode, relu, relu, 0.0);
    let decoder1 = FeedForward::new(&mut store, &mut init, &decode, relu, sigmoid, 0.0);
    let d2_start = store.len();
    let decoder2 = FeedForward::new(&mut store, &mut init, &decode, relu, sigmoid, 0.0);
    let nets = (encoder, decoder1, decoder2);
    let d2: HashSet<usize> = store.ids().skip(d2_start).map(|p| p.index()).collect();

    let windows = Windows::borrowed(&normalized, cfg.window);
    let (mut opt1, mut opt2) = (AdamW::new(cfg.lr), AdamW::new(cfg.lr));
    let mut rng = SignalRng::new(cfg.seed);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut losses = Vec::new();
    for epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        let n = (epoch + 1) as f64;
        let (w_n, w_adv) = (1.0 / n, 1.0 - 1.0 / n);
        let (mut loss_sum, mut batches) = (0.0, 0usize);
        for batch in order[..order.len().min(cfg.max_windows)].chunks(cfg.batch) {
            let flat = flatten_windows(&windows.batch(batch));
            loss_sum += sgd_step(&mut store, &mut opt1, cfg.seed ^ epoch as u64, |ctx| {
                let (f, target) = (ctx.input(flat.clone()), ctx.input(flat.clone()));
                let (ae1, _, ae2_ae1) = usad_forward(&nets, ctx, &f);
                ae1.mse(&target)
                    .scale(w_n)
                    .add(&ae2_ae1.mse(&target).scale(w_adv))
            });
            let grads = {
                let ctx = Ctx::train(&store, cfg.seed ^ 0xD2 ^ epoch as u64);
                let (f, target) = (ctx.input(flat.clone()), ctx.input(flat.clone()));
                let (_, ae2, ae2_ae1) = usad_forward(&nets, &ctx, &f);
                ae2.mse(&target)
                    .scale(w_n)
                    .sub(&ae2_ae1.mse(&target).scale(w_adv))
                    .backward();
                filtered(&ctx, |id| d2.contains(&id.index()))
            };
            opt2.step(&mut store, &grads);
            batches += 1;
        }
        losses.push(loss_sum / batches.max(1) as f64);
    }

    let score = |series: &TimeSeries| {
        let normalized = normalizer.transform(series);
        let k = cfg.window;
        score_windows(&normalized, k, cfg.batch, |w| {
            let ctx = InferCtx::new(&store);
            let (ae1, _, ae2_ae1) = usad_forward(&nets, &ctx, &ctx.input(flatten_windows(w)));
            let b = w.shape().dim(0);
            let e1 = last_row_sq_error(&ae1.reshape([b, k, dims]).value(), w);
            let e2 = last_row_sq_error(&ae2_ae1.reshape([b, k, dims]).value(), w);
            e1.iter()
                .zip(&e2)
                .map(|(a, b)| a.iter().zip(b).map(|(x, y)| 0.5 * x + 0.5 * y).collect())
                .collect()
        })
    };
    (score(train), score(test), losses)
}

#[test]
fn usad_matches_full_backward() {
    let (train, test) = (toy_series(240, 2, 41), toy_series(120, 2, 42));
    let cfg = config();
    let (ref_train, ref_test, ref_losses) = usad_reference(cfg, &train, &test);

    // The installed scope also receives every span of the fit, so the ring
    // must hold far more than the epoch events.
    let sink = Arc::new(MemorySink::new(1 << 20));
    let mut det = Usad::new(cfg);
    {
        let _scope = Recorder::with_sink(sink.clone()).span_scope();
        det.fit(&train).unwrap();
    }
    let losses: Vec<u64> = sink
        .named("baseline.epoch")
        .iter()
        .map(|e| e.get_f64("loss").unwrap().to_bits())
        .collect();
    assert_eq!(
        losses,
        ref_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "losses"
    );
    assert_bits_eq(det.train_scores().unwrap(), &ref_train, "USAD train scores");
    assert_bits_eq(&det.score(&test).unwrap(), &ref_test, "USAD test scores");
}

struct GanNets {
    enc_lstm: LstmCell,
    dec: FeedForward,
    disc_lstm: LstmCell,
    disc_head: Linear,
}

fn last_hidden<F: Fwd>(lstm: &LstmCell, ctx: &F, w: &Var) -> Var {
    let d = w.shape();
    let (b, k, h) = (d.dim(0), d.dim(1), lstm.hidden_size());
    lstm.run(ctx, w)
        .reshape([b, k * h])
        .narrow_last((k - 1) * h, h)
}

fn reconstruct<F: Fwd>(nets: &GanNets, ctx: &F, w: &Var) -> Var {
    nets.dec.forward(ctx, &last_hidden(&nets.enc_lstm, ctx, w))
}

fn discriminate<F: Fwd>(nets: &GanNets, ctx: &F, w: &Var) -> Var {
    nets.disc_head
        .forward(ctx, &last_hidden(&nets.disc_lstm, ctx, w))
        .sigmoid()
}

/// MAD-GAN trained with full backward passes; returns (train scores, test
/// scores) for reconstruction weight `lambda`.
fn madgan_reference(
    cfg: NeuralConfig,
    lambda: f64,
    train: &TimeSeries,
    test: &TimeSeries,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let normalizer = Normalizer::fit(train);
    let normalized = normalizer.transform(train);
    let dims = train.dims();
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(cfg.seed);
    let enc_lstm = LstmCell::new(&mut store, &mut init, dims, cfg.hidden);
    let dec = FeedForward::new(
        &mut store,
        &mut init,
        &[cfg.hidden, cfg.hidden, cfg.window * dims],
        Activation::Relu,
        Activation::Sigmoid,
        0.0,
    );
    let disc_start = store.len();
    let disc_lstm = LstmCell::new(&mut store, &mut init, dims, cfg.hidden / 2);
    let disc_head = Linear::new(&mut store, &mut init, cfg.hidden / 2, 1);
    let nets = GanNets {
        enc_lstm,
        dec,
        disc_lstm,
        disc_head,
    };
    let disc: HashSet<usize> = store.ids().skip(disc_start).map(|p| p.index()).collect();
    let is_disc = |id: ParamId| disc.contains(&id.index());

    let windows = Windows::borrowed(&normalized, cfg.window);
    let (mut opt_g, mut opt_d) = (AdamW::new(cfg.lr), AdamW::new(cfg.lr));
    let mut rng = SignalRng::new(cfg.seed);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let k = cfg.window;
    for epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        for batch in order[..order.len().min(cfg.max_windows)].chunks(cfg.batch) {
            let w = windows.batch(batch);
            let b = batch.len();
            let grads = {
                let ctx = Ctx::train(&store, cfg.seed ^ epoch as u64);
                let wv = ctx.input(w.clone());
                let recon_flat = reconstruct(&nets, &ctx, &wv);
                let target = ctx.input(flatten_windows(&w));
                let recon_loss = recon_flat.mse(&target);
                let d_fake = discriminate(&nets, &ctx, &recon_flat.reshape([b, k, dims]));
                let fool = d_fake.neg().add_scalar(1.0).square().mean_all();
                recon_loss.add(&fool.scale(0.1)).backward();
                filtered(&ctx, |id| !is_disc(id))
            };
            opt_g.step(&mut store, &grads);
            let grads = {
                let ctx = Ctx::train(&store, cfg.seed ^ 0xD ^ epoch as u64);
                let wv = ctx.input(w.clone());
                let recon = ctx.input(reconstruct(&nets, &ctx, &wv).value().reshape([b, k, dims]));
                let d_real = discriminate(&nets, &ctx, &wv);
                let d_fake = discriminate(&nets, &ctx, &recon);
                let ones = ctx.input(Tensor::ones(d_real.shape()));
                let loss = d_real
                    .sub(&ones)
                    .square()
                    .mean_all()
                    .add(&d_fake.square().mean_all());
                loss.backward();
                filtered(&ctx, is_disc)
            };
            opt_d.step(&mut store, &grads);
        }
    }

    let score = |series: &TimeSeries| {
        let normalized = normalizer.transform(series);
        score_windows(&normalized, k, cfg.batch, |w| {
            let ctx = InferCtx::new(&store);
            let b = w.shape().dim(0);
            let wv = ctx.input(w.clone());
            let recon = reconstruct(&nets, &ctx, &wv).reshape([b, k, dims]);
            let d_out = discriminate(&nets, &ctx, &wv);
            last_row_sq_error(&recon.value(), w)
                .into_iter()
                .enumerate()
                .map(|(bi, e)| {
                    let suspicion = 1.0 - d_out.data()[bi];
                    e.iter()
                        .map(|&ed| lambda * ed + (1.0 - lambda) * suspicion / dims as f64)
                        .collect()
                })
                .collect()
        })
    };
    (score(train), score(test))
}

#[test]
fn madgan_matches_full_backward() {
    let (train, test) = (toy_series(200, 2, 43), toy_series(100, 2, 44));
    let cfg = config();
    let mut det = MadGan::new(cfg);
    let (ref_train, ref_test) = madgan_reference(cfg, det.lambda, &train, &test);
    det.fit(&train).unwrap();
    assert_bits_eq(
        det.train_scores().unwrap(),
        &ref_train,
        "MAD-GAN train scores",
    );
    assert_bits_eq(&det.score(&test).unwrap(), &ref_test, "MAD-GAN test scores");
}
