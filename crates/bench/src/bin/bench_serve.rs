//! Cross-stream batched vs per-stream serving throughput.
//!
//! Serves the same 32 deterministic streams two ways — one
//! [`OnlineState::push`] (a batch-1 forward) per point per stream, the
//! pre-batching design and the reference the batched path is
//! bitwise-gated against (`tests/batch_parity.rs`), and
//! [`Engine::run_batch`] (one stacked forward per cross-stream round) —
//! and reports points/sec for each. On a single core the win is pure
//! amortization: every per-op overhead (shape checks, pool dispatch,
//! workspace staging) is paid once per 32-row round instead of 32 times.
//!
//! A third engine runs the batched path with a live `tranad-obs` exporter
//! attached and a scraper thread hitting its `/metrics` endpoint every
//! millisecond mid-run — the "observed in production" configuration. Its
//! throughput is compared against the unobserved batched engine.
//!
//! Both comparisons run [`PAIRS`] interleaved cycle pairs through
//! `tranad_bench::harness`, so each pair's two cycles see the same host
//! speed; the gates read the median of the per-pair ratios. With `--out
//! <path>` the comparison is recorded as JSON (the committed copy lives at
//! `results/serve_throughput.json`); with `--min-speedup <x>` the run
//! fails (exit 1) if the median batched speedup over per-stream serving is
//! below `x` — scripts/verify.sh gates at 1.5x. With `--max-obs-overhead
//! <frac>` the run fails if the median fractional throughput loss of the
//! exporter-attached engine against the unobserved one exceeds `frac` —
//! scripts/verify.sh gates at 0.05 (5%).
//!
//! Usage: `cargo run --release -p tranad-bench --bin bench-serve [-- --out results/serve_throughput.json --min-speedup 1.5 --max-obs-overhead 0.05]`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tranad::{train, OnlineState, TrainedTranad, TranadConfig};
use tranad_bench::harness::{self, rounded, toy_series, Flags, Summary};
use tranad_json::Json;
use tranad_obs::Exporter;
use tranad_serve::{Engine, EngineConfig, StreamId};

/// Interleaved cycle pairs per comparison.
const PAIRS: usize = 21;
const DIMS: usize = 4;
const STREAMS: usize = 32;
const POINTS_PER_STREAM: usize = 64;

/// The `t`-th point of stream `s`: a pure function of its coordinates.
fn point(s: usize, t: usize, dst: &mut [f64]) {
    for (d, v) in dst.iter_mut().enumerate() {
        let x = t as f64 + s as f64 * 0.37;
        *v = (x / (10.0 + d as f64)).sin()
            + 0.05 * (((x * 12.9898 + d as f64 * 78.233).sin() * 43758.5453).fract() - 0.5);
    }
}

/// Builds a fresh engine over `STREAMS` interned streams.
fn build_engine(model_path: &std::path::Path) -> (Engine, Vec<StreamId>) {
    let trained = TrainedTranad::load(model_path).expect("load model");
    let config = EngineConfig::builder()
        .max_queue(POINTS_PER_STREAM)
        .batch_max(POINTS_PER_STREAM)
        .build()
        .expect("valid serve config");
    let mut engine = Engine::new(trained, config).expect("engine");
    let ids = (0..STREAMS)
        .map(|s| {
            engine
                .stream_id(&format!("stream-{s:02}"))
                .expect("stream id")
        })
        .collect();
    (engine, ids)
}

/// One batched cycle: push epoch `*epoch`'s `POINTS_PER_STREAM` points
/// into every stream, then drain them all through [`Engine::run_batch`];
/// asserts none was lost and advances the epoch.
fn cycle(engine: &mut Engine, ids: &[StreamId], epoch: &mut usize) {
    let mut row = [0.0; DIMS];
    for t in 0..POINTS_PER_STREAM {
        for (s, &id) in ids.iter().enumerate() {
            point(s, *epoch * POINTS_PER_STREAM + t, &mut row);
            assert!(
                matches!(
                    engine.push_id(id, &row).expect("push"),
                    tranad_serve::PushOutcome::Enqueued { .. }
                ),
                "bench must not shed"
            );
        }
    }
    let mut scored = 0;
    loop {
        let processed = engine.run_batch().expect("batch").processed;
        if processed == 0 {
            break;
        }
        scored += processed;
    }
    assert_eq!(
        scored,
        STREAMS * POINTS_PER_STREAM,
        "measured cycle lost points"
    );
    *epoch += 1;
}

/// One per-stream cycle: the same points, each stream's through its own
/// state, one batch-1 forward per point; advances the epoch.
fn per_stream_cycle(trained: &TrainedTranad, states: &mut [OnlineState], epoch: &mut usize) {
    let mut row = [0.0; DIMS];
    for (s, state) in states.iter_mut().enumerate() {
        for t in 0..POINTS_PER_STREAM {
            point(s, *epoch * POINTS_PER_STREAM + t, &mut row);
            state.push(trained, &row).expect("push");
        }
    }
    *epoch += 1;
}

/// Scrapes `/metrics` in a loop every ~1ms until told to stop — the
/// adversarial-but-realistic load the exporter-overhead gate measures
/// under. Each scrape is a full connect / request / read cycle.
fn spawn_scraper(
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut scrapes = 0u64;
        let mut buf = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            if let Ok(mut conn) = TcpStream::connect(addr) {
                let _ = conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                buf.clear();
                if conn.read_to_end(&mut buf).is_ok() && !buf.is_empty() {
                    scrapes += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        scrapes
    })
}

fn main() {
    let flags = Flags::parse(&["--out", "--min-speedup", "--max-obs-overhead"]);

    let train_series = toy_series(800, DIMS, 1);
    // A lean low-latency serving model (the paper's defaults are sized for
    // offline scoring; streaming deployments trade window/ff size for
    // latency). The smaller the per-row compute, the more the fixed per-op
    // overhead matters — exactly the regime cross-stream batching targets.
    let config = TranadConfig {
        epochs: 3,
        patience: 10,
        window: 3,
        context: 6,
        ff_hidden: 8,
        ..TranadConfig::default()
    };
    let (trained, _) = train(&train_series, config).expect("training");
    let model_path = std::env::temp_dir().join(format!(
        "tranad_bench_serve_model_{}.json",
        std::process::id()
    ));
    trained.save(&model_path).expect("save model");

    // TrainedTranad is not Clone: each path serves its own load of the
    // same saved model (identical parameters bit for bit).
    let per_stream_model = TrainedTranad::load(&model_path).expect("load model");
    let pot = EngineConfig::default().pot;
    let mut states: Vec<OnlineState> = (0..STREAMS)
        .map(|_| OnlineState::new(&per_stream_model, pot).expect("SPOT init"))
        .collect();
    // Each comparison gets its own unobserved engine: every arm of a
    // comparison then serves the same points from the same starting state,
    // and SPOT's per-point cost, which grows with stream age, stays equal.
    let (mut bat_engine, bat_ids) = build_engine(&model_path);
    let (mut base_engine, base_ids) = build_engine(&model_path);
    let (mut obs_engine, obs_ids) = build_engine(&model_path);
    std::fs::remove_file(&model_path).ok();

    // The observed engine serves a live exporter that a scraper thread
    // hammers for the whole measurement window.
    let exporter = Exporter::bind(
        "127.0.0.1:0",
        tranad_telemetry::global().clone(),
        Some(obs_engine.obs()),
    )
    .expect("bind exporter");
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = spawn_scraper(exporter.addr(), stop.clone());

    // Every call of an arm serves the next epoch of points.
    let (mut ps_epoch, mut bat_epoch, mut base_epoch, mut obs_epoch) = (0, 0, 0, 0);
    let speed_pairs = harness::paired(
        PAIRS,
        || per_stream_cycle(&per_stream_model, &mut states, &mut ps_epoch),
        || cycle(&mut bat_engine, &bat_ids, &mut bat_epoch),
    );
    let obs_pairs = harness::paired(
        PAIRS,
        || cycle(&mut base_engine, &base_ids, &mut base_epoch),
        || cycle(&mut obs_engine, &obs_ids, &mut obs_epoch),
    );
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    exporter.shutdown();
    assert!(
        scrapes > 0,
        "the scraper never completed a scrape — the overhead number is vacuous"
    );

    let speedup = speed_pairs.per_pair(|per_stream, batched| per_stream / batched);
    let overhead = obs_pairs.per_pair(|batched, observed| 1.0 - batched / observed);
    let points = (STREAMS * POINTS_PER_STREAM) as f64;
    let arm = |secs: &[f64]| {
        let s = Summary::of(secs).median;
        (points / s, 1e6 * s / points)
    };
    let (per_stream_pps, per_stream_us) = arm(&speed_pairs.a);
    let (batched_pps, batched_us) = arm(&speed_pairs.b);
    let (obs_pps, obs_us) = arm(&obs_pairs.b);
    let pct = |v: f64| format!("{:.1}%", 100.0 * v);
    println!("per-stream: {per_stream_pps:.0} points/s ({per_stream_us:.1} us/point)");
    println!(
        "batched:    {batched_pps:.0} points/s ({batched_us:.1} us/point) — speedup {speedup}x"
    );
    println!(
        "observed:   {obs_pps:.0} points/s ({obs_us:.1} us/point) — exporter overhead {} [{}, {}], {scrapes} scrapes",
        pct(overhead.median),
        pct(overhead.q1),
        pct(overhead.q3),
    );
    println!("(median [q1, q3] of {PAIRS} interleaved pairs per comparison)");

    if let Some(path) = flags.value("--out") {
        let rate = |pps: f64, us: f64| {
            vec![
                ("points_per_s", rounded(pps, 0)),
                ("us_per_point", rounded(us, 1)),
            ]
        };
        let mut observed = rate(obs_pps, obs_us);
        observed.push(("scrapes", Json::Num(scrapes as f64)));
        harness::write_json(
            path,
            &format!("Serving throughput, per-stream batch-1 forwards (OnlineState::push per point) vs cross-stream batched forwards (Engine::run_batch), from `bench-serve`: {PAIRS} interleaved cycle pairs per comparison; points/s from each arm's median cycle, `speedup` and `exporter_overhead` as the median and quartiles of the per-pair ratios ({STREAMS} streams x {POINTS_PER_STREAM} points, {DIMS} dims, single engine thread). Both paths produce bitwise-identical verdicts (tests/batch_parity.rs). `batched_with_exporter` is the batched path with a live tranad-obs exporter attached and /metrics scraped every ~1ms; `exporter_overhead` is its fractional throughput loss vs the unobserved batched engine."),
            vec![
                ("streams", Json::Num(STREAMS as f64)),
                ("points_per_stream", Json::Num(POINTS_PER_STREAM as f64)),
                ("per_stream", Json::obj(rate(per_stream_pps, per_stream_us))),
                ("batched", Json::obj(rate(batched_pps, batched_us))),
                ("batched_with_exporter", Json::obj(observed)),
                ("speedup", speedup.to_json()),
                ("exporter_overhead", overhead.to_json()),
            ],
        );
    }
    if let Some(min) = flags.number("--min-speedup") {
        if !speedup.at_least(min) {
            eprintln!(
                "FAIL: batched serving median speedup {speedup}x is below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("speedup gate OK (median {speedup}x >= {min:.2}x)");
    }
    if let Some(max) = flags.number("--max-obs-overhead") {
        if !overhead.at_most(max) {
            eprintln!(
                "FAIL: median exporter overhead {} exceeds the {} gate",
                pct(overhead.median),
                pct(max)
            );
            std::process::exit(1);
        }
        println!(
            "exporter overhead gate OK (median {} <= {})",
            pct(overhead.median),
            pct(max)
        );
    }
}
