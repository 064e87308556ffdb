//! Reports allocator traffic per TranAD training step and per online push.
//!
//! Build with the counting allocator: `cargo run --release -p tranad-bench
//! --features count-alloc --bin bench-alloc`. A first training run warms the
//! buffer pool; the second run is measured, so the numbers reflect the
//! steady state a long training job sits in. Budgets live in
//! `results/alloc_budget.json` so the gate and the recorded numbers evolve
//! together.

use tranad::{train, OnlineState, PotConfig, TranadConfig};
use tranad_bench::alloc_count::{self, CountingAlloc};
use tranad_bench::harness::toy_series;
use tranad_data::{TimeSeries, Windows};
use tranad_nn::Ctx;
use tranad_telemetry::{MemorySink, Recorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Trains once with `rec` installed and returns `(allocations, bytes,
/// steps)` where a step is one optimizer update (two per batch: phase-1 and
/// decoder-2).
fn measure(series: &TimeSeries, config: TranadConfig, rec: &Recorder) -> (u64, u64, u64) {
    let _scope = rec.span_scope();
    let before = alloc_count::counts();
    let (_, report) = train(series, config).expect("training");
    let (allocs, bytes) = alloc_count::delta(before);
    let batches = series.len().div_ceil(config.batch_size);
    let steps = (report.epochs_run * batches * 2).max(1) as u64;
    (allocs, bytes, steps)
}

/// Reads one integer budget out of `results/alloc_budget.json`.
fn budget(doc: &tranad_json::Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(|j| j.as_f64())
        .unwrap_or_else(|| panic!("results/alloc_budget.json is missing `{key}`")) as u64
}

fn main() {
    let budget_text = std::fs::read_to_string("results/alloc_budget.json")
        .expect("run from the workspace root: results/alloc_budget.json not found");
    let budgets = tranad_json::parse(&budget_text).expect("invalid alloc_budget.json");
    let train_budget = budget(&budgets, "train_allocs_per_step");
    let push_budget = budget(&budgets, "online_allocs_per_push");

    let series = toy_series(1500, 4, 1);
    let config = TranadConfig {
        epochs: 4,
        patience: 10,
        ..TranadConfig::default()
    };

    // Warm-up run: first-touch allocations fill the buffer pool.
    let _ = train(&series, config).expect("warm-up training");

    let (allocs, bytes, steps) = measure(&series, config, &Recorder::disabled());
    let stats = tranad_tensor::bufpool::stats();

    // Reference: same build with recycling switched off, so every tensor
    // buffer hits the system allocator (the pre-pool behavior).
    tranad_tensor::bufpool::set_enabled(false);
    tranad_tensor::bufpool::clear();
    let (allocs_off, bytes_off, steps_off) = measure(&series, config, &Recorder::disabled());
    tranad_tensor::bufpool::set_enabled(true);

    // Telemetry overhead: the disabled recorder must be invisible to the
    // allocator, and even a live in-memory sink should stay cheap.
    let (allocs_live, bytes_live, steps_live) =
        measure(&series, config, &Recorder::new(MemorySink::new(1 << 16)));

    println!(
        "series: len={} dims=4; {} optimizer updates per run",
        series.len(),
        steps
    );
    println!(
        "pool on:  {} allocations/step, {} bytes/step",
        allocs / steps,
        bytes / steps
    );
    println!(
        "pool off: {} allocations/step, {} bytes/step",
        allocs_off / steps_off,
        bytes_off / steps_off
    );
    println!(
        "reduction: {:.1}x allocations, {:.1}x bytes",
        allocs_off as f64 / allocs.max(1) as f64,
        bytes_off as f64 / bytes.max(1) as f64
    );
    println!(
        "pool (main thread): {} hits, {} misses, {} recycled, {} dropped",
        stats.hits, stats.misses, stats.recycled, stats.dropped
    );
    println!(
        "telemetry off: {} allocations/step; live memory sink: {} allocations/step, {} bytes/step",
        allocs / steps,
        allocs_live / steps_live,
        bytes_live / steps_live
    );
    // Regression gate: disabled telemetry must not add allocator traffic to
    // the training step (PR2 pinned the instrumented-free hot path at 486
    // allocations/step on this exact workload).
    assert!(
        allocs / steps <= train_budget,
        "disabled telemetry leaks allocations into the hot path: {} allocs/step (budget {})",
        allocs / steps,
        train_budget
    );

    // ---- Online serving: allocations per push on the tape-free path ----
    let online_series = toy_series(400, 4, 2);
    let online_config = TranadConfig {
        epochs: 2,
        patience: 10,
        ..TranadConfig::default()
    };
    let (trained, _) = train(&online_series, online_config).expect("online training");
    let stream = toy_series(576, 4, 3);

    let mut state = OnlineState::new(&trained, PotConfig::default()).expect("SPOT init");
    // Warm-up: fill the history ring and the thread-local buffer pool so
    // the measurement reflects the steady state a long-lived stream sits in.
    for t in 0..64 {
        state.push(&trained, stream.row(t)).expect("warm-up push");
    }
    let before = alloc_count::counts();
    for t in 64..stream.len() {
        state.push(&trained, stream.row(t)).expect("measured push");
    }
    let (push_allocs, push_bytes) = alloc_count::delta(before);
    let pushes = (stream.len() - 64) as u64;

    // Taped reference: the forward pass the pre-refactor push ran (tape
    // nodes, backward closures, a `Var` per op) on the same window shapes.
    let cfg = *trained.model.config();
    let normalized = trained.normalizer.transform(&stream);
    let windows = Windows::borrowed(&normalized, cfg.window);
    let n = windows.len();
    let w_t = windows.batch_range(n - 1, n);
    let c_t = windows.context_batch_range(n - 1, n, cfg.context);
    let before = alloc_count::counts();
    for _ in 0..pushes {
        let ctx = Ctx::eval(&trained.store);
        let w = ctx.input(w_t.clone());
        let c = ctx.input(c_t.clone());
        let out = trained.model.forward(&ctx, &w, &c);
        std::hint::black_box(out.o1.value().data()[0]);
    }
    let (taped_allocs, _) = alloc_count::delta(before);

    println!(
        "online push (tape-free): {} allocations/push, {} bytes/push; taped forward: {} allocations/push",
        push_allocs / pushes,
        push_bytes / pushes,
        taped_allocs / pushes
    );
    assert!(
        push_allocs / pushes <= push_budget,
        "tape-free online push regressed: {} allocs/push (budget {})",
        push_allocs / pushes,
        push_budget
    );
    assert!(
        push_allocs < taped_allocs,
        "tape-free push ({push_allocs} allocs) must stay below the taped forward ({taped_allocs} allocs)"
    );

    // ---- Serving engine: allocations per point on the batched path ----
    // Cross-stream batching amortizes the forward's allocator traffic over
    // every co-batched stream, and the push path copies into preallocated
    // row queues — so allocs/point must sit well below allocs/push.
    let serve_budget = budget(&budgets, "serve_allocs_per_point");
    let streams = 8usize;
    let rounds = 32usize;
    let mut engine = tranad_serve::Engine::new(
        trained,
        tranad_serve::EngineConfig::builder()
            .max_queue(rounds)
            .batch_max(rounds)
            .build()
            .unwrap(),
    )
    .expect("engine");
    let ids: Vec<_> = (0..streams)
        .map(|s| engine.stream_id(&format!("s{s}")).expect("stream id"))
        .collect();
    let feed = |engine: &mut tranad_serve::Engine, epoch: usize| {
        for t in 0..rounds {
            for (s, &id) in ids.iter().enumerate() {
                engine
                    .push_id(id, stream.row((epoch * rounds + t + s * 31) % stream.len()))
                    .expect("push");
            }
        }
        while engine.run_batch().expect("batch").processed > 0 {}
    };
    feed(&mut engine, 0); // warm-up: SPOT calibration, workspace growth
    let before = alloc_count::counts();
    feed(&mut engine, 1);
    let (serve_allocs, serve_bytes) = alloc_count::delta(before);
    let points = (streams * rounds) as u64;
    println!(
        "serve batched ({streams} streams): {} allocations/point, {} bytes/point",
        serve_allocs / points,
        serve_bytes / points
    );
    assert!(
        serve_allocs / points <= serve_budget,
        "batched serve path regressed: {} allocs/point (budget {})",
        serve_allocs / points,
        serve_budget
    );
}
