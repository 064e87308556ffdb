//! Gradient pruning parity: training with per-update trainable sets must
//! leave every parameter and every loss bitwise identical to the full
//! backward it replaces.
//!
//! `reference_train` below is Algorithm 1 exactly as `train` ran it before
//! the tape learned to prune: each update differentiates every parameter
//! (no trainable set on the context) and then filters the gradient list to
//! the parameters that update keeps. `train` instead asks the context for
//! only those parameters, so backward never visits the discarded work. The
//! two must agree bit for bit, signed zeros included, on every parameter
//! and on the train/validation loss history.

use std::collections::HashSet;
use tranad::model::TranadModel;
use tranad::{train, TranadConfig};
use tranad_data::{train_val_split, Normalizer, SignalRng, TimeSeries, Windows};
use tranad_nn::maml::{fomaml_step, MamlConfig};
use tranad_nn::optim::{AdamW, StepLr};
use tranad_nn::{Ctx, Fwd, InferCtx, Init, ParamId, ParamStore};
use tranad_tensor::Tensor;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| (t as f64 / (7.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn toy_config() -> TranadConfig {
    TranadConfig {
        epochs: 3,
        window: 6,
        context: 12,
        ff_hidden: 16,
        dropout: 0.1,
        batch_size: 32,
        patience: 10,
        ..TranadConfig::default()
    }
}

/// Keeps the gradients whose parameter satisfies `keep` (the old filter).
fn filtered(ctx: &Ctx, keep: impl Fn(ParamId) -> bool) -> Vec<(ParamId, Tensor)> {
    ctx.grads().into_iter().filter(|(id, _)| keep(*id)).collect()
}

struct Reference {
    params: Vec<Vec<u64>>,
    train_losses: Vec<f64>,
    val_losses: Vec<f64>,
}

/// Algorithm 1 with full backward passes and filtered gradient lists.
fn reference_train(series: &TimeSeries, config: TranadConfig) -> Reference {
    let normalizer = Normalizer::fit(series);
    let normalized = normalizer.transform(series);
    let (train_part, val_part) = train_val_split(&normalized, 0.8);
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(config.seed);
    let model = TranadModel::new(&mut store, &mut init, series.dims(), config);
    let d2: HashSet<usize> = model.decoder2_param_ids().iter().map(|p| p.index()).collect();
    let is_d2 = |id: ParamId| d2.contains(&id.index());

    let train_windows = Windows::new(train_part, config.window);
    let val_windows = Windows::new(val_part, config.window);
    let mut opt = AdamW::new(config.lr);
    let sched = StepLr::new(config.lr, config.lr_step, 0.5);
    let mut rng = SignalRng::new(config.seed ^ 0x5EED);
    let (mut train_losses, mut val_losses) = (Vec::new(), Vec::new());
    let mut best_val = f64::INFINITY;
    let mut best_snapshot = store.snapshot();
    let mut stale = 0usize;

    let mut order: Vec<usize> = (0..train_windows.len()).collect();
    for epoch in 0..config.epochs {
        sched.apply(&mut opt, epoch as u64);
        for i in (1..order.len()).rev() {
            let j = rng.index(0, i + 1);
            order.swap(i, j);
        }
        let visited = &order[..order.len().min(config.max_windows_per_epoch)];
        let w_recon = config.recon_weight(epoch);
        let (mut epoch_loss, mut batches) = (0.0, 0usize);
        for batch in visited.chunks(config.batch_size) {
            let w = train_windows.batch(batch);
            let c = train_windows.context_batch(batch, config.context);
            let step_seed = config.seed ^ ((epoch * 31 + batches) as u64);
            let (loss1, grads1) = {
                let ctx = Ctx::train(&store, step_seed);
                let (wv, cv) = (ctx.input(w.clone()), ctx.input(c.clone()));
                let out = model.forward(&ctx, &wv, &cv);
                let loss = if config.adversarial {
                    out.o1
                        .mse(&wv)
                        .scale(w_recon)
                        .add(&out.o2_hat.mse(&wv).scale(1.0 - w_recon))
                } else {
                    out.o1.mse(&wv).add(&out.o2.mse(&wv))
                };
                loss.backward();
                (loss.value().item(), filtered(&ctx, |id| !is_d2(id)))
            };
            opt.step(&mut store, &grads1);
            let grads2 = {
                let ctx = Ctx::train(&store, step_seed ^ 0xD2);
                let (wv, cv) = (ctx.input(w.clone()), ctx.input(c.clone()));
                if config.adversarial {
                    let out = model.forward(&ctx, &wv, &cv);
                    out.o2
                        .mse(&wv)
                        .scale(w_recon)
                        .sub(&out.o2_hat.mse(&wv).scale(1.0 - w_recon))
                        .backward();
                } else {
                    model.phase1(&ctx, &wv, &cv).1.mse(&wv).backward();
                }
                filtered(&ctx, is_d2)
            };
            opt.step(&mut store, &grads2);
            epoch_loss += loss1;
            batches += 1;
        }
        if config.maml && train_windows.len() > 1 {
            let mb: Vec<usize> = (0..config.batch_size.min(train_windows.len()))
                .map(|_| rng.index(0, train_windows.len()))
                .collect();
            let w = train_windows.batch(&mb);
            let c = train_windows.context_batch(&mb, config.context);
            let maml_cfg = MamlConfig { inner_lr: opt.lr, meta_lr: config.meta_lr };
            fomaml_step(&mut store, maml_cfg, |s| {
                let ctx = Ctx::train(s, config.seed ^ 0x3A31 ^ epoch as u64);
                let (wv, cv) = (ctx.input(w.clone()), ctx.input(c.clone()));
                let out = model.forward(&ctx, &wv, &cv);
                out.o1
                    .mse(&wv)
                    .scale(w_recon)
                    .add(&out.o2_hat.mse(&wv).scale(1.0 - w_recon))
                    .backward();
                filtered(&ctx, |id| !is_d2(id))
            });
        }
        let val_loss = validation_loss(&store, &model, &val_windows, config);
        train_losses.push(epoch_loss / batches.max(1) as f64);
        val_losses.push(val_loss);
        if val_loss < best_val - 1e-9 {
            best_val = val_loss;
            best_snapshot = store.snapshot();
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.patience {
                break;
            }
        }
    }
    store.restore(&best_snapshot);
    Reference { params: param_bits(&store), train_losses, val_losses }
}

fn validation_loss(
    store: &ParamStore,
    model: &TranadModel,
    windows: &Windows,
    config: TranadConfig,
) -> f64 {
    let (n, bs) = (windows.len(), config.batch_size.max(1));
    let mut total = 0.0;
    for start in (0..n).step_by(bs) {
        let end = (start + bs).min(n);
        let ctx = InferCtx::new(store);
        let w = ctx.input(windows.batch_range(start, end));
        let c = ctx.input(windows.context_batch_range(start, end, config.context));
        let out = model.forward(&ctx, &w, &c);
        let loss = out.o1.mse(&w).add(&out.o2_hat.mse(&w)).scale(0.5);
        total += loss.value().item() * (end - start) as f64;
    }
    total / n.max(1) as f64
}

fn param_bits(store: &ParamStore) -> Vec<Vec<u64>> {
    store.ids().map(|id| store.get(id).data().iter().map(|v| v.to_bits()).collect()).collect()
}

fn assert_pruned_matches_reference(config: TranadConfig, seed: u64) {
    let series = toy_series(260, 3, seed);
    let reference = reference_train(&series, config);
    let (trained, report) = train(&series, config).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(report.epochs_run, reference.train_losses.len(), "epochs run");
    assert_eq!(bits(&report.train_losses), bits(&reference.train_losses), "train losses");
    assert_eq!(bits(&report.val_losses), bits(&reference.val_losses), "val losses");
    let got = param_bits(&trained.store);
    assert_eq!(got.len(), reference.params.len());
    for (i, (g, r)) in got.iter().zip(&reference.params).enumerate() {
        assert!(g == r, "parameter {i} differs from the full-backward reference");
    }
}

#[test]
fn adversarial_with_maml_matches_full_backward() {
    assert_pruned_matches_reference(toy_config(), 31);
}

#[test]
fn non_adversarial_matches_full_backward() {
    assert_pruned_matches_reference(TranadConfig { adversarial: false, ..toy_config() }, 32);
}

#[test]
fn without_self_conditioning_matches_full_backward() {
    assert_pruned_matches_reference(TranadConfig { self_conditioning: false, ..toy_config() }, 33);
}

#[test]
fn feedforward_trunk_without_maml_matches_full_backward() {
    let config = TranadConfig { use_transformer: false, maml: false, ..toy_config() };
    assert_pruned_matches_reference(config, 34);
}
