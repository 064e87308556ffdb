//! Taped vs tape-free parity gate.
//!
//! The tape-free `InferCtx` path must be a drop-in replacement for the
//! tape-backed `Ctx::eval` path: identical kernels applied in identical
//! order, so forward outputs and the anomaly scores derived from them are
//! **bitwise** equal — across random configurations, every ablation
//! variant, and any thread-pool size.

use tranad::{train, Ablation, OnlineState, PotConfig, TrainedTranad, TranadConfig};
use tranad_data::{SignalRng, TimeSeries, Windows};
use tranad_nn::{Ctx, Fwd, InferCtx};
use tranad_tensor::pool;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| ((t as f64) / (9.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

fn flat(scores: &[Vec<f64>]) -> Vec<f64> {
    scores.iter().flatten().copied().collect()
}

fn train_tiny(series: &TimeSeries, config: TranadConfig) -> TrainedTranad {
    train(series, config).expect("training failed").0
}

/// The pre-refactor reference: scores every window through the tape-backed
/// `Ctx::eval` path with the same batch boundaries as `score_normalized`.
fn taped_scores(trained: &TrainedTranad, series: &TimeSeries) -> Vec<Vec<f64>> {
    let normalized = trained.normalizer.transform(series);
    let config = *trained.model.config();
    let windows = Windows::borrowed(&normalized, config.window);
    let (k, m) = (config.window, normalized.dims());
    let n = windows.len();
    let bs = config.batch_size.max(1);
    let mut out = Vec::with_capacity(n);
    for start in (0..n).step_by(bs) {
        let end = (start + bs).min(n);
        let ctx = Ctx::eval(&trained.store);
        let w = ctx.input(windows.batch_range(start, end));
        let c = ctx.input(windows.context_batch_range(start, end, config.context));
        let fwd = trained.model.forward(&ctx, &w, &c);
        let (o1, o2h, wv) = (fwd.o1.value(), fwd.o2_hat.value(), w.value());
        for bi in 0..end - start {
            let base = (bi * k + (k - 1)) * m;
            out.push(
                (0..m)
                    .map(|d| {
                        let target = wv.data()[base + d];
                        let e1 = o1.data()[base + d] - target;
                        let e2 = o2h.data()[base + d] - target;
                        0.5 * e1 * e1 + 0.5 * e2 * e2
                    })
                    .collect(),
            );
        }
    }
    out
}

#[test]
fn forward_and_scores_bitwise_match_across_random_configs() {
    let mut rng = SignalRng::new(0xF0D);
    for trial in 0..4u64 {
        let window = 4 + rng.index(0, 5); // 4..=8
        let config = TranadConfig {
            epochs: 2,
            window,
            context: window * (1 + rng.index(0, 3)), // 1-3 windows of context
            ff_hidden: [8, 12, 16][rng.index(0, 3)],
            batch_size: 16 + rng.index(0, 48),
            dropout: 0.0,
            ..TranadConfig::default()
        };
        let dims = 1 + rng.index(0, 3);
        let series = toy_series(90, dims, 0xBEEF ^ trial);
        let trained = train_tiny(&series, config);

        // Raw forward outputs, full batch: taped vs tape-free.
        let normalized = trained.normalizer.transform(&series);
        let windows = Windows::borrowed(&normalized, config.window);
        let n = windows.len();
        let w_t = windows.batch_range(0, n);
        let c_t = windows.context_batch_range(0, n, config.context);

        let ctx = Ctx::eval(&trained.store);
        let taped = trained
            .model
            .forward(&ctx, &ctx.input(w_t.clone()), &ctx.input(c_t.clone()));
        let ictx = InferCtx::new(&trained.store);
        let free = trained
            .model
            .forward(&ictx, &ictx.input(w_t), &ictx.input(c_t));

        assert_bits_eq(taped.o1.value().data(), free.o1.data(), "o1");
        assert_bits_eq(taped.o2.value().data(), free.o2.data(), "o2");
        assert_bits_eq(taped.o2_hat.value().data(), free.o2_hat.data(), "o2_hat");
        assert_bits_eq(taped.focus.data(), free.focus.data(), "focus");

        // End-to-end anomaly scores through the public (tape-free) API.
        let tape_free = trained.score_series(&series);
        assert_bits_eq(
            &flat(&taped_scores(&trained, &series)),
            &flat(&tape_free),
            "scores",
        );
    }
}

#[test]
fn every_ablation_variant_scores_bitwise_match() {
    let base = TranadConfig {
        epochs: 2,
        window: 5,
        context: 10,
        ff_hidden: 8,
        batch_size: 32,
        dropout: 0.0,
        ..TranadConfig::default()
    };
    let series = toy_series(70, 2, 7);
    for ablation in [
        Ablation::Full,
        Ablation::NoTransformer,
        Ablation::NoSelfConditioning,
        Ablation::NoAdversarial,
        Ablation::NoMaml,
    ] {
        let trained = train_tiny(&series, ablation.apply(base));
        let tape_free = trained.score_series(&series);
        assert_bits_eq(
            &flat(&taped_scores(&trained, &series)),
            &flat(&tape_free),
            ablation.name(),
        );
    }
}

#[test]
fn thread_count_does_not_change_batch_or_online_scores() {
    let config = TranadConfig {
        epochs: 2,
        window: 6,
        context: 12,
        ff_hidden: 8,
        batch_size: 16, // several chunks, so the pool actually fans out
        dropout: 0.0,
        ..TranadConfig::default()
    };
    let series = toy_series(120, 2, 99);
    let trained = train_tiny(&series, config);

    let one = pool::with_threads(1, || trained.score_series(&series));
    let eight = pool::with_threads(8, || trained.score_series(&series));
    assert_bits_eq(&flat(&one), &flat(&eight), "batch scores 1 vs 8 threads");

    let stream = |_: usize| -> Vec<f64> {
        // Re-run the stream under a given pool size.
        let mut state = OnlineState::new(&trained, PotConfig::default()).unwrap();
        let mut scores = Vec::new();
        for t in 0..series.len() {
            let v = state.push(&trained, series.row(t)).unwrap();
            scores.extend(v.scores);
        }
        scores
    };
    let s1 = pool::with_threads(1, || stream(1));
    let s8 = pool::with_threads(8, || stream(8));
    assert_bits_eq(&s1, &s8, "online scores 1 vs 8 threads");

    // Streamed tail scores equal the batch path bitwise once the ring holds
    // a full window+context of real history.
    let tail = series.len() - 1;
    let batch_tail = &one[tail];
    let online_tail = &s1[tail * series.dims()..(tail + 1) * series.dims()];
    assert_bits_eq(batch_tail, online_tail, "online tail vs batch");
}
