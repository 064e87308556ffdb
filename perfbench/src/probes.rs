//! Per-layer numbers for the traced run. Each is timed from the benchmark's
//! own code around a public call into one crate; most are read back from
//! the spans the workload recorded, the rest come from short probes at the
//! workload's own model shapes.

use crate::clock::now;
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{layer_of, summarize, SpanId, Tracer};
use crate::Args;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use tranad::model::TranadModel;
use tranad::train::TrainedTranad;
use tranad::PotConfig;
use tranad_data::{TimeSeries, Windows};
use tranad_evt::Spot;
use tranad_nn::optim::AdamW;
use tranad_nn::{Ctx, Fwd, InferCtx, Init, ParamStore};
use tranad_obs::Exporter;
use tranad_serve::{Engine, EngineConfig, PushOutcome};
use tranad_tensor::{bufpool, Tensor};

/// Layers whose self time the traced run reports, with the metric names.
const SELF_TIME: [(&str, &str); 10] = [
    ("data", "self_ms.data"),
    ("persist", "self_ms.persist"),
    ("serve", "self_ms.serve"),
    ("tensor", "self_ms.tensor"),
    ("nn", "self_ms.nn"),
    ("tranad", "self_ms.tranad"),
    ("evt", "self_ms.evt"),
    ("loadgen", "self_ms.loadgen"),
    ("obs", "self_ms.obs"),
    ("host", "self_ms.host"),
];

/// Repetitions of each micro probe; its median is reported.
const PROBE_REPS: usize = 30;
/// A training step at the paper's shape costs a second on SMD.
const TRAIN_STEP_REPS: usize = 5;
/// Points the single-stream engine probe pushes, so its p99s have ten
/// samples beyond them.
const ENGINE_PROBE_POINTS: usize = 1100;
const PROBE_SCRAPES: usize = 60;

/// Per-layer figures that do not come straight from span durations.
pub struct Layers {
    pub epoch_ms: f64,
    pub spot_step: Vec<f64>,
    pub refits: u64,
    pub peaks: u64,
    pub points: u64,
    pub run_batch_calls: u64,
    pub queue_wait: Vec<f64>,
    pub lateness: Vec<f64>,
    gflops_train: f64,
    gflops_serve: f64,
    cpu_before: host::CpuTimes,
}

impl Layers {
    pub fn new(tr: &mut Tracer) -> Layers {
        let cpu_before = tr.time("host.proc_stat", SpanId::NONE, host::cpu_times);
        Layers {
            epoch_ms: f64::NAN,
            spot_step: Vec::new(),
            refits: 0,
            peaks: 0,
            points: 0,
            run_batch_calls: 0,
            queue_wait: Vec::new(),
            lateness: Vec::new(),
            gflops_train: f64::NAN,
            gflops_serve: f64::NAN,
            cpu_before,
        }
    }

    /// Replays score sequences through `Spot::try_init` + `Spot::step`,
    /// calibrated like the program's thresholders. `sequences` holds
    /// `(dimension, scores)`; returns, per sequence, each step's alarm label
    /// and whether the step re-fitted the tail.
    pub fn spot_replay(
        &mut self,
        tr: &mut Tracer,
        trained: &TrainedTranad,
        pot: PotConfig,
        sequences: &[Vec<f64>],
    ) -> Vec<Vec<(bool, bool)>> {
        let dims = trained.model.dims();
        let calib: Vec<Vec<f64>> = (0..dims)
            .map(|d| trained.train_scores.iter().map(|r| r[d]).collect())
            .collect();
        let mut out = Vec::with_capacity(sequences.len());
        for (i, scores) in sequences.iter().enumerate() {
            let span = tr.open("evt.spot_replay", SpanId::NONE);
            let Ok(mut spot) = Spot::try_init(&calib[i % dims], pot) else {
                tr.close(span);
                out.push(Vec::new());
                continue;
            };
            let mut steps = Vec::with_capacity(scores.len());
            for &s in scores {
                let before = spot.refits();
                let started = now();
                let alarm = spot.step(std::hint::black_box(s));
                self.spot_step.push(now() - started);
                steps.push((alarm, spot.refits() > before));
            }
            tr.close(span);
            self.refits += spot.refits();
            self.peaks += spot.n_peaks() as u64;
            out.push(steps);
        }
        out
    }

    /// Deploys a model as one engine stream: checkpoint load, engine and
    /// stream set-up, `points` pushes each drained by `run_batch`, then
    /// `/metrics` scrapes through an attached exporter.
    pub fn engine_probe(
        &mut self,
        tr: &mut Tracer,
        args: &Args,
        trained: &TrainedTranad,
        pot: PotConfig,
        series: &TimeSeries,
        out: &mut Outcome,
    ) {
        let path = args
            .state_dir
            .join(format!("probe-model-{}.json", std::process::id()));
        let saved = trained.save(&path);
        out.check("model checkpoint saves", saved.is_ok());
        let loaded = tr.time("persist.load", SpanId::NONE, || TrainedTranad::load(&path));
        std::fs::remove_file(&path).ok();
        let Ok(loaded) = loaded else {
            out.check("model checkpoint loads", false);
            return;
        };
        let config = EngineConfig::builder()
            .pot(pot)
            .build()
            .expect("valid engine config");
        let Ok(mut engine) = Engine::new(loaded, config) else {
            out.check("engine starts", false);
            return;
        };
        let id = tr.time("serve.register", SpanId::NONE, || engine.stream_id("probe"));
        let Ok(id) = id else {
            out.check("stream registers", false);
            return;
        };
        let mut failed = 0;
        for t in 0..ENGINE_PROBE_POINTS {
            let span = tr.open("serve.push", SpanId::NONE);
            let pushed = engine.push_id(id, series.row(t % series.len()));
            tr.close(span);
            let pushed_at = now();
            let span = tr.open("serve.run_batch", SpanId::NONE);
            self.queue_wait.push(now() - pushed_at);
            let report = engine.run_batch();
            tr.close(span);
            self.run_batch_calls += 1;
            match (pushed, report) {
                (Ok(PushOutcome::Enqueued { .. }), Ok(r)) if r.processed == 1 => self.points += 1,
                _ => failed += 1,
            }
        }
        out.count("engine probe points", ENGINE_PROBE_POINTS as u64, failed);
        scrape_probe(tr, &engine, out);
    }

    /// Times `Tensor::matmul`, one taped training step and tape-free
    /// forwards at this model's shapes: training batches of the paper's
    /// 128 windows, and serving rounds of `round_rows` streams.
    pub fn model_probes(
        &mut self,
        tr: &mut Tracer,
        trained: &TrainedTranad,
        train_series: &TimeSeries,
        round_rows: usize,
    ) {
        let config = *trained.model.config();
        let (k, m) = (config.window, trained.model.dims());
        let d = config.d_model(m);
        let ff = config.ff_hidden;
        self.gflops_train = matmul_gflops(tr, "tensor.matmul.train", 128 * k, d, ff);
        self.gflops_serve = matmul_gflops(tr, "tensor.matmul.serve", round_rows * k, d, ff);

        let normalized = trained.normalizer.transform(train_series);
        let windows = Windows::borrowed(&normalized, k);
        let batch: Vec<usize> = (0..128.min(windows.len())).collect();
        let (w, c) = (
            windows.batch(&batch),
            windows.context_batch(&batch, config.context),
        );
        let mut store = ParamStore::new();
        let model = TranadModel::new(&mut store, &mut Init::with_seed(config.seed), m, config);
        let mut opt = AdamW::new(config.lr);
        for rep in 0..TRAIN_STEP_REPS {
            let span = tr.open("nn.train_step", SpanId::NONE);
            let grads = {
                let ctx = Ctx::train(&store, rep as u64);
                let (wv, cv) = (ctx.input(w.clone()), ctx.input(c.clone()));
                let o = model.forward(&ctx, &wv, &cv);
                o.o1.mse(&wv)
                    .scale(0.5)
                    .add(&o.o2_hat.mse(&wv).scale(0.5))
                    .backward();
                ctx.grads()
            };
            opt.step(&mut store, &grads);
            tr.close(span);
        }

        for (name, rows) in [
            ("nn.infer_forward.batch", 128),
            ("nn.infer_forward.round", round_rows),
        ] {
            let rows: Vec<usize> = (0..rows).map(|r| r % windows.len()).collect();
            let (w, c) = (
                windows.batch(&rows),
                windows.context_batch(&rows, config.context),
            );
            for _ in 0..PROBE_REPS {
                let span = tr.open(name, SpanId::NONE);
                let ctx = InferCtx::new(&trained.store);
                let (wv, cv) = (ctx.input(w.clone()), ctx.input(c.clone()));
                std::hint::black_box(trained.model.forward(&ctx, &wv, &cv));
                tr.close(span);
            }
        }
    }

    /// Prints the span table and the latency noise guards, then pushes
    /// every per-layer metric.
    pub fn finish(self, args: &Args, tr: &mut Tracer, out: &mut Outcome, overhead_pct: f64) {
        let hwm = tr.time(
            "tensor.bufpool",
            SpanId::NONE,
            bufpool::high_watermark_bytes,
        );
        let cpu_after = tr.time("host.proc_stat", SpanId::NONE, host::cpu_times);
        let steal = host::steal_pct(self.cpu_before, cpu_after);
        let spans = tr.spans();
        let table = summarize(spans);
        println!(
            "{:<26} {:>9} {:>12} {:>12}",
            "span (layer.call)", "count", "total_ms", "self_ms"
        );
        for (name, s) in &table {
            println!(
                "{name:<26} {:>9} {:>12.3} {:>12.3}",
                s.count,
                1e3 * s.total,
                1e3 * s.self_time
            );
        }
        println!("spans recorded {}, dropped {}", spans.len(), tr.dropped());
        let path = args
            .state_dir
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("cannot write {}: {e}", path.display()),
        }
        let ms = |name: &str| 1e3 * median(&durations(tr, name)).unwrap_or(f64::NAN);
        let tail = |name: &str, scale: f64| {
            let d = sorted(&durations(tr, name));
            (
                scale * percentile(&d, 0.5).unwrap_or(f64::NAN),
                scale * tail_or_nan(&d),
            )
        };

        out.push("data.generate_ms", ms("data.generate"), "ms");
        out.push("persist.load_ms", ms("persist.load"), "ms");
        out.push("serve.register_ms", ms("serve.register"), "ms");
        out.push("tensor.matmul_gflops.train", self.gflops_train, "GFLOP/s");
        out.push("tensor.matmul_gflops.serve", self.gflops_serve, "GFLOP/s");
        out.push("tensor.pool_hwm_mb", hwm as f64 / (1 << 20) as f64, "MB");
        out.push("nn.train_step_ms", ms("nn.train_step"), "ms");
        out.push("tranad.epoch_ms", self.epoch_ms, "ms");
        out.push(
            "nn.infer_forward_ms.batch",
            ms("nn.infer_forward.batch"),
            "ms",
        );
        out.push(
            "nn.infer_forward_ms.round",
            ms("nn.infer_forward.round"),
            "ms",
        );
        out.push("tranad.score_ms", ms("tranad.score"), "ms");
        out.push("evt.pot_ms", ms("evt.pot"), "ms");
        let steps = sorted(&self.spot_step);
        out.push(
            "evt.spot_step_us.p50",
            1e6 * percentile(&steps, 0.5).unwrap_or(f64::NAN),
            "us",
        );
        out.push("evt.spot_step_us.p99", 1e6 * tail_or_nan(&steps), "us");
        out.push("evt.refits", self.refits as f64, "count");
        out.push("evt.peaks", self.peaks as f64, "count");
        let (p50, p99) = tail("serve.push", 1e6);
        out.push("serve.push_us.p50", p50, "us");
        out.push("serve.push_us.p99", p99, "us");
        let (p50, p99) = tail("serve.run_batch", 1e3);
        out.push("serve.run_batch_ms.p50", p50, "ms");
        out.push("serve.run_batch_ms.p99", p99, "ms");
        out.push(
            "serve.points_per_call",
            self.points as f64 / self.run_batch_calls.max(1) as f64,
            "count",
        );
        out.push(
            "serve.queue_wait_ms",
            1e3 * median(&self.queue_wait).unwrap_or(f64::NAN),
            "ms",
        );
        out.push(
            "loadgen.lateness_ms.p99",
            1e3 * tail_or_nan(&sorted(&self.lateness)),
            "ms",
        );
        out.push("obs.scrape_ms.p50", ms("obs.scrape"), "ms");
        out.push("host.steal_pct", steal, "%");
        out.push("trace.overhead_pct", overhead_pct, "%");
        for (layer, metric) in SELF_TIME {
            let self_time: f64 = table
                .iter()
                .filter(|(n, _)| layer_of(n) == layer)
                .map(|(_, s)| s.self_time)
                .sum();
            out.push(metric, 1e3 * self_time, "ms");
        }
        println!("tracing overhead {overhead_pct:.2}% against the untraced pass");
    }
}

fn tail_or_nan(sorted: &[f64]) -> f64 {
    tail_percentile(sorted, 0.99).unwrap_or(f64::NAN)
}

/// Durations of the closed spans called `name`.
pub fn durations(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name && s.end >= s.start)
        .map(|s| s.end - s.start)
        .collect()
}

/// GFLOP/s of `[n, k] x [k, m]` through `Tensor::matmul`, median of
/// `PROBE_REPS` calls.
fn matmul_gflops(tr: &mut Tracer, name: &'static str, n: usize, k: usize, m: usize) -> f64 {
    let a = Tensor::from_vec((0..n * k).map(|i| (i % 7) as f64 * 0.1).collect(), [n, k]);
    let b = Tensor::from_vec((0..k * m).map(|i| (i % 5) as f64 * 0.1).collect(), [k, m]);
    let mut secs = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let span = tr.open(name, SpanId::NONE);
        let started = now();
        std::hint::black_box(std::hint::black_box(&a).matmul(&b));
        secs.push(now() - started);
        tr.close(span);
    }
    2.0 * (n * k * m) as f64 / median(&secs).unwrap_or(f64::NAN) / 1e9
}

/// One `GET /metrics` over a fresh connection, as a scraper does it.
pub fn scrape(addr: SocketAddr) -> bool {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return false;
    };
    let mut buf = Vec::new();
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").is_ok()
        && conn.read_to_end(&mut buf).is_ok()
        && buf.starts_with(b"HTTP/1.0 200")
}

/// Attaches an exporter to `engine` and scrapes it `PROBE_SCRAPES` times.
pub fn scrape_probe(tr: &mut Tracer, engine: &Engine, out: &mut Outcome) {
    let exporter = match Exporter::bind(
        "127.0.0.1:0",
        tranad_telemetry::global().clone(),
        Some(engine.obs()),
    ) {
        Ok(e) => e,
        Err(e) => {
            println!("cannot bind exporter: {e}");
            out.check("exporter binds", false);
            return;
        }
    };
    let mut failed = 0;
    for _ in 0..PROBE_SCRAPES {
        let ok = tr.time("obs.scrape", SpanId::NONE, || scrape(exporter.addr()));
        failed += u64::from(!ok);
    }
    exporter.shutdown();
    out.count("scrapes", PROBE_SCRAPES as u64, failed);
}

/// Prints how late a load generator sent its work.
pub fn print_lateness(lateness: &[f64]) {
    let s = sorted(lateness);
    println!(
        "loadgen lateness: p50 {:.4} ms, p99 {:.4} ms over {} sends",
        1e3 * percentile(&s, 0.5).unwrap_or(f64::NAN),
        1e3 * tail_or_nan(&s),
        s.len()
    );
}
