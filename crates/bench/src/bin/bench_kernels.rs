//! Per-shape matmul kernel throughput: packed/register-tiled vs reference.
//!
//! Measures single-core GFLOP/s of the `tranad_tensor::kernels` family
//! against the naive reference kernels (`tests/support/reference.rs` of
//! `tranad-tensor`) on the shape classes the system actually runs:
//!
//! - `train`: the training step's `[batch * window, d] @ [d, ff]` products
//!   (packed + tiled; this is the shape the verify gate checks).
//! - `attention`: `q @ k^T` score products (the nt kernel).
//! - `grad`: the tape backward's `a^T @ g` products (the tn kernel).
//! - `serve`: the small batched-serving forward shapes.
//!
//! Kernels are invoked directly on slices — no thread pool — so the
//! numbers compare code generation and memory behavior, not scheduling.
//! The tiled timings include panel packing where the dispatch would pack.
//! Each shape runs [`PAIRS`] interleaved tiled/reference pairs through
//! `tranad_bench::harness`; the speedup is the median of the per-pair
//! ratios, with its quartile band.
//!
//! Usage:
//!   cargo run --release -p tranad-bench --bin bench-kernels -- \
//!     [--out BENCH_kernels.json] [--min-speedup 1.3]
//!
//! `--min-speedup` gates on the `train` shape's median speedup and exits
//! non-zero below it.

use tranad_bench::harness::{self, rounded, Flags};
use tranad_json::Json;
use tranad_tensor::kernels::{self, Epilogue};
use tranad_tensor::{Act, Rng};

#[allow(dead_code)]
#[path = "../../../tensor/tests/support/reference.rs"]
mod reference;

/// Interleaved tiled/reference pairs per shape.
const PAIRS: usize = 31;

/// Scale of the attention-scores product.
const SCALE: f64 = 0.125;

#[derive(Clone, Copy)]
enum Kernel {
    /// `a @ b` with the rhs packed on every call, as the dispatch does.
    Packed,
    /// `a @ b^T * scale`.
    Nt,
    /// `a^T @ g`.
    Tn,
    /// `a @ b` without packing (below the packing cutoff).
    Direct,
}

/// `(name, kernel, n, k, m, calls per sample)`.
const SHAPES: [(&str, Kernel, usize, usize, usize, usize); 4] = [
    // One epoch-batch of windows through a feed-forward weight —
    // [batch * window, d_model] @ [d_model, ff_hidden].
    ("train", Kernel::Packed, 1280, 64, 64, 4),
    // q @ k^T scores over a long sequence plane.
    ("attention", Kernel::Nt, 256, 64, 256, 4),
    // The tape backward's a^T @ g on the training activations.
    ("grad", Kernel::Tn, 1280, 64, 64, 4),
    // A cross-stream batched forward's stacked rows through a small
    // projection — far below the packing and parallel cutoffs.
    ("serve", Kernel::Direct, 96, 10, 24, 512),
];

/// One product of `kernel`, tiled or reference, into `out`.
#[allow(clippy::too_many_arguments)]
fn call(
    kernel: Kernel,
    tiled: bool,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    n: usize,
    k: usize,
    m: usize,
) {
    match (kernel, tiled) {
        (Kernel::Packed, true) => kernels::with_pack_scratch(k * m, |bp| {
            kernels::pack_rhs(b, k, m, bp);
            kernels::matmul_tiled_packed(a, bp, out, n, k, m, Epilogue::NONE);
        }),
        (Kernel::Direct, true) => kernels::matmul_tiled_direct(a, b, out, n, k, m, Epilogue::NONE),
        (Kernel::Nt, true) => kernels::matmul_nt_tiled(a, b, out, n, k, m, SCALE),
        (Kernel::Tn, true) => kernels::matmul_tn_tiled(a, k, b, out, n, k, m),
        (Kernel::Packed | Kernel::Direct, false) => {
            out.fill(0.0);
            reference::matmul(a, b, out, n, k, m);
        }
        (Kernel::Nt, false) => reference::matmul_nt(a, b, out, n, k, m, SCALE),
        (Kernel::Tn, false) => {
            out.fill(0.0);
            reference::matmul_tn(a, k, b, out, n, k, m);
        }
    }
}

fn filled(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.normal()).collect()
}

fn main() {
    let flags = Flags::parse(&["--out", "--min-speedup"]);
    let mut rng = Rng::new(42);
    let mut rows = Vec::new();
    let mut train_speedup = None;
    for (name, kernel, n, k, m, calls) in SHAPES {
        let a = filled(&mut rng, n * k);
        // The rhs is [k, m] (nn), [m, k] (nt) or the [n, m] gradient (tn).
        let b = filled(
            &mut rng,
            if let Kernel::Tn = kernel {
                n * m
            } else {
                k * m
            },
        );
        let out_len = if let Kernel::Tn = kernel {
            k * m
        } else {
            n * m
        };
        let (mut tiled_out, mut ref_out) = (vec![0.0; out_len], vec![0.0; out_len]);
        if let Kernel::Packed = kernel {
            assert!(
                kernels::should_pack(n, k, m),
                "{name} shape must exercise the packed path"
            );
        }
        let pairs = harness::paired(
            PAIRS,
            || (0..calls).for_each(|_| call(kernel, true, &a, &b, &mut tiled_out, n, k, m)),
            || (0..calls).for_each(|_| call(kernel, false, &a, &b, &mut ref_out, n, k, m)),
        );
        let speedup = pairs.per_pair(|tiled, reference| reference / tiled);
        let gflops =
            |secs: &[f64]| (2 * n * k * m * calls) as f64 / harness::Summary::of(secs).median / 1e9;
        let (tiled_gflops, reference_gflops) = (gflops(&pairs.a), gflops(&pairs.b));
        println!(
            "{name:<9} [{n:>4} x {k:>2} x {m:>3}]: tiled {tiled_gflops:6.2} GFLOP/s, reference {reference_gflops:6.2} GFLOP/s, speedup {speedup}x (median [q1, q3] of {PAIRS} pairs)"
        );
        if name == "train" {
            train_speedup = Some(speedup);
        }
        rows.push((
            name,
            Json::obj([
                ("n", Json::Num(n as f64)),
                ("k", Json::Num(k as f64)),
                ("m", Json::Num(m as f64)),
                ("tiled_gflops", rounded(tiled_gflops, 2)),
                ("reference_gflops", rounded(reference_gflops, 2)),
                ("speedup", speedup.to_json()),
            ]),
        ));
    }

    if let Some(path) = flags.value("--out") {
        harness::write_json(
            path,
            &format!("Single-core matmul kernel throughput, packed/register-tiled vs the reference kernels, from `bench-kernels`: {PAIRS} interleaved tiled/reference pairs per shape; GFLOP/s from each arm's median sample, speedup as the median and quartiles of the per-pair ratios. train/serve are NN products (train includes per-call panel packing), attention is the nt scores kernel, grad the tn grad-matmul kernel."),
            vec![("kernels", Json::obj(rows))],
        );
    }

    if let Some(min) = flags.number("--min-speedup") {
        let train = train_speedup.expect("train shape present");
        assert!(
            train.at_least(min),
            "tiled kernel too slow on the training shape: median speedup {train}x < required {min:.2}x"
        );
        println!("kernel gate OK: train median speedup {train}x >= {min:.2}x");
    }
}
