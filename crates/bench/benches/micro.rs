//! Microbenchmarks for the substrate layers, including the DESIGN.md
//! ablation (tape-based autograd overhead vs. a hand-fused forward pass)
//! and the thread-pool matmul sizes.
//!
//! Timed through `tranad_bench::harness` (no `criterion` — the workspace
//! builds with zero external crates): each subject is warmed up, then timed
//! over 7 samples of adaptively chosen call counts, reporting the median
//! per-call time with its quartile band `[q1, q3]`.
//! Run with `cargo bench -p tranad-bench`; set `TRANAD_THREADS=1` to time
//! the serial baseline.

use std::hint::black_box;
use tranad_bench::harness;
use tranad_baselines::detector::Detector;
use tranad_baselines::{Merlin, MerlinConfig};
use tranad_data::{generate, DatasetKind, GenConfig, SignalRng, TimeSeries, Windows};
use tranad_evt::{PotConfig, Spot};
use tranad_nn::attention::{causal_mask, scaled_dot_attention};
use tranad_nn::{Ctx, Init, ParamStore};
use tranad_tensor::{pool, Tape, Tensor};

/// Times `f` through `tranad_bench::harness::solo`, printing the median
/// per-call wall-clock time with its quartile band.
fn bench(name: &str, f: impl FnMut()) {
    let s = harness::solo(7, f);
    let (scale, unit) = if s.median >= 1.0 {
        (1.0, "s")
    } else if s.median >= 1e-3 {
        (1e3, "ms")
    } else {
        (1e6, "µs")
    };
    let (median, q1, q3) = (s.median * scale, s.q1 * scale, s.q3 * scale);
    println!("{name:<44} {median:>9.3} {unit:<2} [{q1:.3}, {q3:.3}]");
}

fn bench_matmul() {
    let a = Tensor::from_fn([64, 64], |i| (i as f64 * 0.1).sin());
    let b = Tensor::from_fn([64, 64], |i| (i as f64 * 0.2).cos());
    bench("tensor/matmul_64x64", || {
        black_box(a.matmul(black_box(&b)));
    });
    let batched = Tensor::from_fn([32, 10, 64], |i| (i as f64 * 0.05).sin());
    bench("tensor/matmul_batched_32x10x64", || {
        black_box(batched.matmul(black_box(&b)));
    });
    // The thread-pool acceptance sizes: a large 2-D product and a batched
    // product with the same flop count, both far above MATMUL_CUTOFF.
    let big_a = Tensor::from_fn([256, 256], |i| (i as f64 * 0.01).sin());
    let big_b = Tensor::from_fn([256, 256], |i| (i as f64 * 0.02).cos());
    bench("tensor/matmul_256x256", || {
        black_box(big_a.matmul(black_box(&big_b)));
    });
    let big_batched = Tensor::from_fn([256, 256, 256], |i| ((i % 97) as f64) / 97.0);
    bench("tensor/matmul_batched_256x256x256", || {
        black_box(big_batched.matmul(black_box(&big_b)));
    });
}

fn bench_autograd_overhead() {
    // Ablation: the tape's bookkeeping cost vs. the raw fused computation.
    let x = Tensor::from_fn([32, 64], |i| (i as f64 * 0.01).sin());
    let w = Tensor::from_fn([64, 64], |i| (i as f64 * 0.02).cos());
    bench("autograd/fused_forward_only", || {
        let y = x.matmul(&w).map(|v| 1.0 / (1.0 + (-v).exp()));
        black_box(y.mean());
    });
    bench("autograd/tape_forward", || {
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w.clone());
        black_box(xv.matmul(&wv).sigmoid().mean_all().value().item());
    });
    bench("autograd/tape_forward_backward", || {
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w.clone());
        let loss = xv.matmul(&wv).sigmoid().mean_all();
        loss.backward();
        black_box(wv.grad().data()[0]);
    });
}

fn bench_attention() {
    let qt = Tensor::from_fn([16, 10, 32], |i| (i as f64 * 0.03).sin());
    let mask_t = causal_mask(10);
    // Fresh tape per iteration: a shared tape would accumulate every
    // iteration's nodes (and their tensors), so later samples would time
    // allocator growth instead of the attention forward.
    bench("nn/causal_self_attention_16x10x32", || {
        let tape = Tape::new();
        let q = tape.leaf(qt.clone());
        let mask = tape.leaf(mask_t.clone());
        black_box(scaled_dot_attention(&q, &q, &q, Some(&mask)).value());
    });
}

fn bench_pot() {
    let mut rng = SignalRng::new(7);
    let scores: Vec<f64> = (0..20_000).map(|_| rng.normal().abs()).collect();
    bench("evt/pot_fit_20k", || {
        black_box(Spot::try_init(&scores, PotConfig { q: 1e-4, level: 0.02 }).unwrap());
    });
}

fn bench_merlin() {
    let mut rng = SignalRng::new(8);
    let col: Vec<f64> =
        (0..600).map(|t| (t as f64 / 9.0).sin() + 0.05 * rng.normal()).collect();
    let series = TimeSeries::from_columns(&[col]);
    bench("merlin/profile_600_early_abandon", || {
        let mut det = Merlin::new(MerlinConfig::optimized(8, 16));
        black_box(det.fit(black_box(&series), &tranad_telemetry::Recorder::disabled()).unwrap());
    });
    bench("merlin/profile_600_exhaustive", || {
        let mut det = Merlin::new(MerlinConfig::reference(8, 16));
        black_box(det.fit(black_box(&series), &tranad_telemetry::Recorder::disabled()).unwrap());
    });
}

fn bench_windows() {
    let ds = generate(DatasetKind::Smd, GenConfig { scale: 0.001, min_len: 500, seed: 1 });
    let windows = Windows::new(ds.train.clone(), 10);
    let idx: Vec<usize> = (0..128).collect();
    bench("data/window_batch_128x10", || {
        black_box(windows.batch(black_box(&idx)));
    });
}

fn bench_tranad_step() {
    use tranad::{TranadConfig, TranadModel};
    let cfg = TranadConfig { dropout: 0.0, ..TranadConfig::default() };
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(0);
    let model = TranadModel::new(&mut store, &mut init, 8, cfg);
    let w = Tensor::from_fn([32, cfg.window, 8], |i| ((i % 13) as f64) / 13.0);
    let cx = Tensor::from_fn([32, cfg.context, 8], |i| ((i % 11) as f64) / 11.0);
    bench("tranad/two_phase_forward_backward_b32_m8", || {
        let ctx = Ctx::train(&store, 0);
        let wv = ctx.input(w.clone());
        let cv = ctx.input(cx.clone());
        let out = model.forward(&ctx, &wv, &cv);
        let loss = out.o1.mse(&wv).add(&out.o2_hat.mse(&wv));
        loss.backward();
        black_box(ctx.grad_norm_sq());
    });
}

fn main() {
    println!("threads: {}", pool::current_threads());
    bench_matmul();
    bench_autograd_overhead();
    bench_attention();
    bench_pot();
    bench_merlin();
    bench_windows();
    bench_tranad_step();
}
