//! The tentpole guarantee of cross-stream batched serving: at any stream
//! count, any (ragged) queue depths and any thread count, the batched path
//! ([`Engine::run_batch`]) produces verdicts bitwise-identical to the
//! per-stream reference: one independent [`OnlineState`] per stream, fed
//! the same points in queue order through [`OnlineState::push`].
//!
//! Every forward kernel reduces per row with a summation order that
//! depends only on the row, so stacking n streams into one `[n, window,
//! m]` forward must not move a single f64 bit — this test pins that
//! property instead of trusting it.

use std::path::PathBuf;
use std::sync::OnceLock;
use tranad::{train, OnlineState, OnlineVerdict, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;
use tranad_serve::{Engine, EngineConfig};
use tranad_tensor::pool;

const DIMS: usize = 2;

fn jitter(stream: usize, t: usize, d: usize) -> f64 {
    let x = t as f64 * 12.9898 + stream as f64 * 78.233 + d as f64 * 37.719;
    (x.sin() * 43758.5453).fract() - 0.5
}

fn point(stream: usize, t: usize) -> Vec<f64> {
    let x = t as f64;
    vec![
        (x / 11.0 + stream as f64).sin() + 0.05 * jitter(stream, t, 0),
        (x / 7.0).cos() * 0.5 + 0.04 * jitter(stream, t, 1),
    ]
}

fn model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let rows: Vec<f64> = (0..400).flat_map(|t| point(7, t)).collect();
        let series = TimeSeries::from_rows(rows, 400, DIMS);
        let config = TranadConfig::builder()
            .epochs(2)
            .window(6)
            .context(12)
            .ff_hidden(16)
            .dropout(0.0)
            .build()
            .unwrap();
        let (trained, _) = train(&series, config).unwrap();
        let path = std::env::temp_dir().join(format!(
            "tranad_batch_parity_model_{}.json",
            std::process::id()
        ));
        trained.save(&path).unwrap();
        path
    })
}

fn load_model() -> TrainedTranad {
    TrainedTranad::load(model_path()).unwrap()
}

/// Queue depth of stream `s` before batch cycle `round`: cycles through
/// 0..=4 with a stream- and round-dependent phase, so every cycle mixes
/// empty, shallow and deep streams (ragged rounds, idle streams).
fn depth(s: usize, round: usize) -> usize {
    (s * 7 + round * 3) % 5
}

/// Serves `rounds` batch cycles over `n` streams with ragged depths through
/// [`Engine::run_batch`] and returns every verdict per stream.
fn serve(n: usize, rounds: usize) -> Vec<Vec<OnlineVerdict>> {
    let mut engine = Engine::new(load_model(), EngineConfig::default()).unwrap();
    let names: Vec<String> = (0..n).map(|s| format!("stream-{s}")).collect();
    let ids: Vec<_> = names
        .iter()
        .map(|name| engine.stream_id(name).unwrap())
        .collect();
    let mut t = vec![0usize; n];
    let mut out = vec![Vec::new(); n];
    for round in 0..rounds {
        for s in 0..n {
            for _ in 0..depth(s, round) {
                engine.push_id(ids[s], &point(s, t[s])).unwrap();
                t[s] += 1;
            }
        }
        for sv in engine.run_batch().unwrap().verdicts {
            out[sv.stream.index()].extend(sv.verdicts);
        }
    }
    out
}

/// The per-stream reference for [`serve`]: the same schedule, each point
/// scored by its stream's own [`OnlineState::push`] (a batch-1 forward).
fn reference(n: usize, rounds: usize) -> Vec<Vec<OnlineVerdict>> {
    let trained = load_model();
    let pot = EngineConfig::default().pot;
    let mut states: Vec<_> = (0..n)
        .map(|_| OnlineState::new(&trained, pot).unwrap())
        .collect();
    let mut t = vec![0usize; n];
    let mut out = vec![Vec::new(); n];
    for round in 0..rounds {
        for s in 0..n {
            for _ in 0..depth(s, round) {
                out[s].push(states[s].push(&trained, &point(s, t[s])).unwrap());
                t[s] += 1;
            }
        }
    }
    out
}

fn assert_bitwise_eq(a: &[OnlineVerdict], b: &[OnlineVerdict], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: verdict counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.anomalous, y.anomalous, "{what}: verdict {i} diverged");
        assert_eq!(x.dim_labels, y.dim_labels, "{what}: labels {i} diverged");
        for (d, (p, q)) in x.scores.iter().zip(&y.scores).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: score {i} dim {d} diverged"
            );
        }
    }
}

#[test]
fn batched_equals_per_stream_bitwise_at_any_stream_and_thread_count() {
    for &n in &[1usize, 2, 7, 32] {
        // 32 streams is the throughput case; keep its round count small so
        // the debug-mode per-stream reference stays fast.
        let rounds = if n >= 32 { 4 } else { 8 };
        let batched_1 = pool::with_threads(1, || serve(n, rounds));
        let reference_1 = pool::with_threads(1, || reference(n, rounds));
        let batched_8 = pool::with_threads(8, || serve(n, rounds));
        let reference_8 = pool::with_threads(8, || reference(n, rounds));
        let total: usize = batched_1.iter().map(Vec::len).sum();
        assert!(total > 0, "n={n}: the schedule produced no work");
        for s in 0..n {
            let what = |mode: &str| format!("n={n} stream {s}: {mode}");
            assert_bitwise_eq(
                &batched_1[s],
                &reference_1[s],
                &what("batched vs per-stream, 1 thread"),
            );
            assert_bitwise_eq(
                &batched_1[s],
                &batched_8[s],
                &what("batched, 1 vs 8 threads"),
            );
            assert_bitwise_eq(
                &batched_1[s],
                &reference_8[s],
                &what("batched vs per-stream, 8 threads"),
            );
        }
    }
}
