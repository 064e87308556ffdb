//! The serving workloads, on a lean serving model (window 3, context 6,
//! feed-forward width 8) trained on MSDS-like data.
//!
//! A server runs one deployed model while its traffic varies, so the model
//! and the dataset it was trained on are the same for every seed; the seed
//! varies the traffic: where in the test split each stream starts and the
//! noise on every point. (A model per seed made SPOT's exceedance rate, and
//! with it the refit cost `serve-long` measures, vary 1.7x between seeds.)
//!
//! - `serve-burst`: 64 streams, closed loop. Each cycle pushes a burst into
//!   every stream, drains it with one `Engine::run_batch`, then scrapes
//!   `/metrics` from an attached exporter. Measures capacity.
//! - `serve-long`: 8 streams, open loop. One point per stream per tick on a
//!   fixed schedule under capacity, each tick drained by `run_batch`.
//!   SPOT's initial threshold sits at the 98% quantile (the SPOT paper's
//!   choice), so non-alarm exceedances keep arriving and every
//!   thresholder's peak set grows with stream age.

use crate::clock::now;
use crate::loadgen::{latency, lateness, Schedule};
use crate::probes::{self, Layers};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use std::path::PathBuf;
use tranad::config::TranadConfig;
use tranad::train::{train, TrainedTranad};
use tranad::PotConfig;
use tranad_data::{generate, Dataset, DatasetKind, GenConfig};
use tranad_metrics::{point_adjust, roc_auc, Confusion};
use tranad_obs::Exporter;
use tranad_serve::{Engine, EngineConfig, OnlineState, OnlineVerdict, PushOutcome, StreamId};

/// Share of MSDS's Table 1 lengths generated (train and test ~1.5k rows
/// each, 10 dims).
const SCALE: f64 = 0.01;
/// Seed of the deployed model and of its dataset.
const MODEL_SEED: u64 = 42;
/// Amplitude of the per-point traffic noise, as a share of each
/// dimension's training range.
const NOISE: f64 = 0.03;
/// Rows by which the seed moves each stream's start.
const JITTER: u64 = 16;

/// One serving regime.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    pub name: &'static str,
    streams: usize,
    /// Closed loop: points pushed into every stream per cycle.
    /// Open loop: points per stream per tick (always 1).
    burst: usize,
    /// Open loop only: seconds between ticks.
    period: Option<f64>,
    /// SPOT's initial-threshold quantile (`PotConfig::level`).
    pot_level: f64,
    exporter: bool,
    /// Every `sample_every`-th stream is replayed through
    /// `OnlineState::push` and must match bit for bit.
    sample_every: usize,
    /// Verdicts kept per stream for the checks: a fixed count, so memory
    /// does not follow throughput.
    keep: usize,
}

pub const BURST: Regime = Regime {
    name: "serve-burst",
    streams: 64,
    burst: 4,
    period: None,
    pot_level: 0.001,
    exporter: true,
    sample_every: 16,
    keep: 2000,
};

pub const LONG: Regime = Regime {
    name: "serve-long",
    streams: 8,
    burst: 1,
    period: Some(0.01),
    pot_level: 0.02,
    exporter: false,
    sample_every: 4,
    keep: usize::MAX,
};

fn model_config() -> TranadConfig {
    TranadConfig {
        epochs: 3,
        patience: 10,
        window: 3,
        context: 6,
        ff_hidden: 8,
        seed: MODEL_SEED,
        ..TranadConfig::default()
    }
}

fn dataset() -> Dataset {
    generate(
        DatasetKind::Msds,
        GenConfig {
            scale: SCALE,
            min_len: 400,
            seed: MODEL_SEED,
        },
    )
}

fn pot(regime: Regime) -> PotConfig {
    PotConfig::with_low_quantile(regime.pot_level)
}

pub fn checkpoint_path(args: &Args) -> PathBuf {
    args.state_dir.join("serve-model.json")
}

/// Trains the serving model and saves it: the checkpoint every serve run
/// restarts from. Not part of any timed run.
pub fn prepare(args: &Args) -> Result<(), String> {
    let path = checkpoint_path(args);
    if path.exists() {
        return Ok(());
    }
    let (trained, _) = train(&dataset().train, model_config()).map_err(|e| e.to_string())?;
    trained.save(&path).map_err(|e| e.to_string())
}

/// The inputs a load generator sends: stream `s`'s `t`-th point is the
/// test split's row at the stream's offset, plus seeded noise. Any point
/// can be regenerated from `(s, t)` alone.
struct Inputs {
    ds: Dataset,
    truth: Vec<bool>,
    ranges: Vec<f64>,
    offsets: Vec<usize>,
    seed: u64,
}

impl Inputs {
    fn new(ds: Dataset, ranges: Vec<f64>, regime: Regime, seed: u64) -> Inputs {
        let len = ds.test.len();
        // Streams start evenly spread over the split, each nudged by up to
        // `JITTER` rows: a tail made of coinciding refits then depends on
        // the workload's shape, not on where a seed happened to start each
        // stream.
        let offsets = (0..regime.streams)
            .map(|s| (s * len / regime.streams + (mix(seed, s as u64) % JITTER) as usize) % len)
            .collect();
        Inputs {
            truth: ds.point_labels(),
            ds,
            ranges,
            offsets,
            seed,
        }
    }

    fn index(&self, s: usize, t: u64) -> usize {
        (self.offsets[s] + t as usize) % self.ds.test.len()
    }

    fn point(&self, s: usize, t: u64, dst: &mut [f64]) {
        let row = self.ds.test.row(self.index(s, t));
        let key = mix(self.seed, ((s as u64) << 40) ^ t);
        for (d, ((v, &x), r)) in dst.iter_mut().zip(row).zip(&self.ranges).enumerate() {
            let u = (mix(key, d as u64) >> 11) as f64 / (1u64 << 53) as f64;
            *v = x + NOISE * (2.0 * u - 1.0) * r;
        }
    }

    fn label(&self, s: usize, t: u64) -> bool {
        self.truth[self.index(s, t)]
    }
}

/// SplitMix64 of `a` and `b`: a stateless hash, so a point's noise depends
/// on its coordinates only.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A started engine with its interned streams.
struct Server {
    engine: Engine,
    ids: Vec<StreamId>,
    /// Points pushed per stream so far (the next point's seq).
    seq: Vec<u64>,
    /// Verdicts received per stream so far.
    answered: Vec<u64>,
    /// The first `keep` verdicts per stream, in seq order.
    verdicts: Vec<Vec<OnlineVerdict>>,
    keep: usize,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    latency: Vec<f64>,
    /// `(stream, seq)` of each latency sample.
    sample_key: Vec<(usize, u64)>,
    lateness: Vec<f64>,
    points: u64,
    /// Closed loop: points per second of each cycle.
    cycle_rates: Vec<f64>,
    /// Points per second of each `run_batch` call.
    batch_rates: Vec<f64>,
    run_batch_calls: u64,
    queue_wait: Vec<f64>,
    elapsed: f64,
}

pub fn run(args: &Args, regime: Regime) -> Outcome {
    let mut out = Outcome::default();
    let trained = match TrainedTranad::load(checkpoint_path(args)) {
        Ok(t) => t,
        Err(e) => {
            println!("no serving checkpoint ({e}); run `prepare-serve` first");
            std::process::exit(1);
        }
    };
    let ranges = trained.normalizer.to_parts().1;
    let mut tr = Tracer::new(false);
    let inputs = Inputs::new(dataset(), ranges, regime, args.seed);

    if args.setup_only {
        let started = now();
        std::hint::black_box(start(args, regime, &inputs, &mut tr, &mut out));
        crate::report_setup(now() - started);
        return out;
    }
    let setup = crate::fresh_setups(args, &mut out);
    let mut server = start(args, regime, &inputs, &mut tr, &mut out);
    let pass = measure(args, regime, &inputs, &mut server, &mut tr, &mut out);
    let checked = check(regime, &trained, &inputs, &server, &mut out);
    crate::check_quality_repeats(args, checked.f1, checked.auc, &mut out);

    if !args.trace {
        let lat = sorted(&pass.latency);
        let tail = tail_percentile(&lat, 0.99);
        out.check("latency_p99_ms has ten samples beyond it", tail.is_some());
        out.push("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
        // Closed loop: capacity, the median cycle's rate. Open loop: the
        // achieved rate, which is the offered rate unless a backlog grows.
        let throughput = match regime.period {
            None => median(&pass.cycle_rates).unwrap_or(f64::NAN),
            Some(_) => pass.points as f64 / pass.elapsed,
        };
        out.push("throughput_per_s", throughput, "1/s");
        out.push(
            "latency_p50_ms",
            1e3 * percentile(&lat, 0.5).unwrap_or(f64::NAN),
            "ms",
        );
        out.push("latency_p99_ms", 1e3 * tail.unwrap_or(f64::NAN), "ms");
        out.push(
            "detect_windows_per_s",
            median(&pass.batch_rates).unwrap_or(f64::NAN),
            "1/s",
        );
        out.push("rss_mb", crate::host::peak_rss_mb(), "MB");
        println!(
            "{}: {} streams, {} points verdicted in {:.2} s, {} run_batch calls; {} points replayed; \
             F1 {:.4}, ROC-AUC {:.4}; set-up seconds {setup:?}",
            regime.name,
            regime.streams,
            pass.points,
            pass.elapsed,
            pass.run_batch_calls,
            checked.replayed,
            checked.f1,
            checked.auc,
        );
        probes::print_lateness(&pass.lateness);
        return out;
    }

    // Traced: the same pass again on a fresh engine with spans on; the
    // untraced pass above is the baseline for the tracing overhead.
    let base_rate = median(&pass.batch_rates).unwrap_or(f64::NAN);
    drop(server);
    tr = Tracer::new(true);
    let mut layers = Layers::new(&mut tr);
    tr.time("data.generate", SpanId::NONE, dataset);
    let mut server = start(args, regime, &inputs, &mut tr, &mut out);
    let traced = measure(args, regime, &inputs, &mut server, &mut tr, &mut out);
    let overhead = base_rate / median(&traced.batch_rates).unwrap_or(f64::NAN) - 1.0;
    probes::print_lateness(&traced.lateness);
    layers.points = traced.points;
    layers.run_batch_calls = traced.run_batch_calls;
    layers.queue_wait = traced.queue_wait;
    layers.lateness = traced.lateness;

    // Replay every stream's verdict scores through SPOT, one thresholder
    // per dimension: the per-step cost, refits and peaks of the tails the
    // engine keeps. The replay's alarms must equal the engine's labels.
    let dims = trained.model.dims();
    let sequences: Vec<Vec<f64>> = server
        .verdicts
        .iter()
        .flat_map(|vs| (0..dims).map(move |d| vs.iter().map(|v| v.scores[d]).collect()))
        .collect();
    let replay = layers.spot_replay(&mut tr, &trained, pot(regime), &sequences);
    let mut refit_at = vec![Vec::new(); regime.streams];
    let mut mismatched = 0u64;
    for (i, steps) in replay.iter().enumerate() {
        let (s, d) = (i / dims, i % dims);
        refit_at[s].resize(steps.len(), false);
        for (t, &(alarm, refit)) in steps.iter().enumerate() {
            refit_at[s][t] |= refit;
            mismatched +=
                u64::from(server.verdicts[s].get(t).map(|v| v.dim_labels[d]) != Some(alarm));
        }
    }
    out.count(
        "SPOT replay alarms equal engine labels",
        sequences.len() as u64,
        mismatched,
    );
    refit_guard(regime, &pass, &refit_at, &mut out);

    if !regime.exporter {
        probes::scrape_probe(&mut tr, &server.engine, &mut out);
    }
    let span = tr.open("tranad.train", SpanId::NONE);
    let trained_again = train(
        &inputs.ds.train,
        TranadConfig {
            epochs: 2,
            ..model_config()
        },
    );
    tr.close(span);
    layers.epoch_ms = trained_again.map_or(f64::NAN, |(_, r)| {
        1e3 * median(&r.epoch_seconds).unwrap_or(f64::NAN)
    });
    let scores = tr.time("tranad.score", SpanId::NONE, || {
        trained.score_series(&inputs.ds.test)
    });
    let pot_ok = tr.time("evt.pot", SpanId::NONE, || {
        tranad::detect_from_scores(&trained.train_scores, &scores, pot(regime)).is_ok()
    });
    out.check("detect_from_scores on the serving model", pot_ok);
    layers.model_probes(&mut tr, &trained, &inputs.ds.train, regime.streams);
    out.push("f1", checked.f1, "ratio");
    out.push("roc_auc", checked.auc, "ratio");
    layers.finish(args, &mut tr, &mut out, 100.0 * overhead);
    out
}

/// A server restart: checkpoint load, engine, stream registration (SPOT
/// calibration per stream) and a warm-up burst of one cycle.
fn start(
    args: &Args,
    regime: Regime,
    inputs: &Inputs,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Server {
    let root = tr.open("bench.setup", SpanId::NONE);
    let trained = tr.time("persist.load", root, || {
        TrainedTranad::load(checkpoint_path(args))
    });
    let trained = trained.unwrap_or_else(|e| {
        println!("checkpoint load failed: {e}");
        std::process::exit(1);
    });
    let depth = regime.burst.max(4);
    let config = EngineConfig::builder()
        .pot(pot(regime))
        .max_queue(depth)
        .batch_max(depth)
        .build()
        .expect("valid engine config");
    let mut engine = Engine::new(trained, config).unwrap_or_else(|e| {
        println!("engine start failed: {e}");
        std::process::exit(1);
    });
    let span = tr.open("serve.register", root);
    let ids: Vec<StreamId> = (0..regime.streams)
        .map(|s| {
            engine
                .stream_id(&format!("stream-{s:03}"))
                .expect("stream name is valid")
        })
        .collect();
    tr.close(span);
    let mut server = Server {
        engine,
        ids,
        seq: vec![0; regime.streams],
        answered: vec![0; regime.streams],
        verdicts: vec![Vec::new(); regime.streams],
        keep: regime.keep,
    };
    let span = tr.open("serve.warmup", root);
    let mut row = vec![0.0; inputs.ranges.len()];
    for _ in 0..regime.burst.max(4) {
        for s in 0..regime.streams {
            inputs.point(s, server.seq[s], &mut row);
            let pushed = server.engine.push_id(server.ids[s], &row);
            out.check(
                "warm-up push",
                matches!(pushed, Ok(PushOutcome::Enqueued { .. })),
            );
            server.seq[s] += 1;
        }
    }
    drain(&mut server, out);
    tr.close(span);
    tr.close(root);
    server
}

/// Runs `run_batch` until every pushed point has its verdict.
fn drain(server: &mut Server, out: &mut Outcome) {
    while server
        .answered
        .iter()
        .zip(&server.seq)
        .any(|(&a, &seq)| a < seq)
    {
        match server.engine.run_batch() {
            Ok(report) if report.processed > 0 => {
                collect(server, report, out);
            }
            Ok(_) => {
                out.check("run_batch returns every pushed point", false);
                break;
            }
            Err(e) => {
                println!("run_batch failed: {e}");
                out.check("run_batch", false);
                break;
            }
        }
    }
}

/// Files a batch's verdicts under their streams; a verdict out of seq
/// order is a failure.
fn collect(server: &mut Server, report: tranad_serve::BatchReport, out: &mut Outcome) -> usize {
    for sv in report.verdicts {
        let s = sv.stream.index();
        out.check(
            "verdicts arrive in seq order",
            server.answered[s] == sv.first_seq,
        );
        server.answered[s] += sv.verdicts.len() as u64;
        let room = server.keep.saturating_sub(server.verdicts[s].len());
        server.verdicts[s].extend(sv.verdicts.into_iter().take(room));
    }
    report.processed
}

/// The timed loop, for `args.seconds`.
fn measure(
    args: &Args,
    regime: Regime,
    inputs: &Inputs,
    server: &mut Server,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let exporter = regime.exporter.then(|| {
        Exporter::bind(
            "127.0.0.1:0",
            tranad_telemetry::global().clone(),
            Some(server.engine.obs()),
        )
        .unwrap_or_else(|e| {
            println!("cannot bind exporter: {e}");
            std::process::exit(1);
        })
    });
    let mut pass = Pass::default();
    let mut row = vec![0.0; inputs.ranges.len()];
    let n = regime.streams;
    // Per point of the current cycle or tick: (due, pushed, point span).
    let mut sent: Vec<(f64, f64, SpanId)> = vec![(0.0, 0.0, SpanId::NONE); n * regime.burst];
    let started = now();
    let schedule = regime.period.map(|period| Schedule {
        start: started,
        period,
    });
    let ticks = regime.period.map(|p| (args.seconds / p).floor() as u64);
    let mut due = started;
    let mut i = 0u64;
    loop {
        match (schedule, ticks) {
            (Some(sched), Some(ticks)) => {
                if i == ticks {
                    break;
                }
                tr.time("loadgen.wait", SpanId::NONE, || sched.wait(i));
                due = sched.due(i);
            }
            _ => {
                if now() - started >= args.seconds {
                    break;
                }
            }
        }
        let cycle = tr.open("serve.cycle", SpanId::NONE);
        let first = now();
        pass.lateness.push(lateness(due, first));
        let cycle_seq = server.seq.clone();
        for t in 0..regime.burst {
            for s in 0..n {
                let seq = server.seq[s];
                inputs.point(s, seq, &mut row);
                let point_due = if schedule.is_some() { due } else { now() };
                let point = tr.open_at(
                    "serve.point",
                    SpanId::NONE,
                    Some((s as u32, seq)),
                    point_due,
                );
                let push = tr.open("serve.push", point);
                let pushed = server.engine.push_id(server.ids[s], &row);
                tr.close(push);
                let enqueued = matches!(pushed, Ok(PushOutcome::Enqueued { .. }));
                out.check("push is enqueued, not shed", enqueued);
                sent[s * regime.burst + t] = (point_due, now(), point);
                server.seq[s] += 1;
            }
        }
        let span = tr.open("serve.run_batch", cycle);
        let batch_start = now();
        let report = server.engine.run_batch();
        let verdict_at = now();
        tr.close_at(span, verdict_at);
        pass.run_batch_calls += 1;
        match report {
            Ok(report) => {
                let points = collect(server, report, out);
                pass.points += points as u64;
                pass.batch_rates
                    .push(points as f64 / (verdict_at - batch_start));
            }
            Err(e) => {
                println!("run_batch failed: {e}");
                out.check("run_batch", false);
            }
        }
        for s in 0..n {
            for t in 0..regime.burst {
                let seq = cycle_seq[s] + t as u64;
                let (point_due, pushed, point) = sent[s * regime.burst + t];
                let answered = server.answered[s] > seq;
                tr.close_at(point, verdict_at);
                // A point without its verdict misses every latency limit.
                pass.latency.push(if answered {
                    latency(point_due, verdict_at)
                } else {
                    f64::INFINITY
                });
                pass.sample_key.push((s, seq));
                pass.queue_wait.push(batch_start - pushed);
            }
        }
        if let Some(exporter) = &exporter {
            let ok = tr.time("obs.scrape", cycle, || probes::scrape(exporter.addr()));
            out.check("/metrics scrape", ok);
        }
        tr.close(cycle);
        i += 1;
        if schedule.is_none() {
            due = now();
            pass.cycle_rates
                .push((n * regime.burst) as f64 / (due - first));
        }
    }
    pass.elapsed = now() - started;
    if let Some(exporter) = exporter {
        exporter.shutdown();
    }
    out.count(
        "points shed",
        pass.latency.len() as u64,
        server.engine.shed_total(),
    );
    pass
}

struct Checked {
    f1: f64,
    auc: f64,
    replayed: u64,
}

/// Correctness: every sampled stream's verdicts must equal a replay of
/// the same inputs through `OnlineState::push`, bit for bit. Quality: F1
/// (point-adjusted per stream) and ROC-AUC of the verdicts against the
/// labels, over the first test-split length of every stream, a prefix
/// every run reaches.
fn check(
    regime: Regime,
    trained: &TrainedTranad,
    inputs: &Inputs,
    server: &Server,
    out: &mut Outcome,
) -> Checked {
    let mut replayed = 0u64;
    let mut row = vec![0.0; inputs.ranges.len()];
    for s in (0..regime.streams).step_by(regime.sample_every) {
        let mut state = match OnlineState::new(trained, pot(regime)) {
            Ok(state) => state,
            Err(e) => {
                println!("OnlineState::new failed: {e}");
                out.check("reference state starts", false);
                continue;
            }
        };
        let mut mismatched = 0;
        for (t, served) in server.verdicts[s].iter().enumerate() {
            inputs.point(s, t as u64, &mut row);
            let same = state
                .push(trained, &row)
                .is_ok_and(|v| same_verdict(&v, served));
            mismatched += u64::from(!same);
        }
        out.count(
            "verdicts equal an OnlineState::push replay",
            server.verdicts[s].len() as u64,
            mismatched,
        );
        replayed += server.verdicts[s].len() as u64;
    }

    let horizon = inputs.ds.test.len();
    let mut confusion = Confusion::default();
    let mut scores = Vec::new();
    let mut truth_all = Vec::new();
    for (s, vs) in server.verdicts.iter().enumerate() {
        out.check("stream reached the quality horizon", vs.len() >= horizon);
        let vs = &vs[..horizon.min(vs.len())];
        let pred: Vec<bool> = vs.iter().map(|v| v.anomalous).collect();
        let truth: Vec<bool> = (0..vs.len() as u64).map(|t| inputs.label(s, t)).collect();
        let c = Confusion::from_labels(&point_adjust(&pred, &truth), &truth);
        confusion.tp += c.tp;
        confusion.fp += c.fp;
        confusion.tn += c.tn;
        confusion.fn_ += c.fn_;
        scores.extend(
            vs.iter()
                .map(|v| v.scores.iter().sum::<f64>() / v.scores.len() as f64),
        );
        truth_all.extend(truth);
    }
    Checked {
        f1: confusion.f1(),
        auc: roc_auc(&scores, &truth_all),
        replayed,
    }
}

fn same_verdict(a: &OnlineVerdict, b: &OnlineVerdict) -> bool {
    a.anomalous == b.anomalous
        && a.dim_labels == b.dim_labels
        && a.scores.len() == b.scores.len()
        && a.scores
            .iter()
            .zip(&b.scores)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Noise guard: prints the untraced pass's latency histogram split by
/// whether the sample's cycle or tick re-fitted a SPOT tail, and fails when
/// a reported percentile sits within `MARGIN` of the boundary between the
/// two modes, where a small shift in the refit share flips the figure.
fn refit_guard(regime: Regime, pass: &Pass, refit_at: &[Vec<bool>], out: &mut Outcome) {
    const MARGIN: f64 = 0.03;
    // A sample's fate is shared by everything its run_batch call did.
    let per_call = regime.streams * regime.burst;
    // Calls past the verdicts kept for the replay are left out.
    let (mut latency, mut refit) = (Vec::new(), Vec::new());
    for (keys, lat) in pass
        .sample_key
        .chunks(per_call)
        .zip(pass.latency.chunks(per_call))
    {
        let flags: Option<Vec<bool>> = keys
            .iter()
            .map(|&(s, seq)| refit_at[s].get(seq as usize).copied())
            .collect();
        if let Some(flags) = flags {
            let any = flags.contains(&true);
            latency.extend_from_slice(lat);
            refit.extend(std::iter::repeat_n(any, lat.len()));
        }
    }
    let share = refit.iter().filter(|&&r| r).count() as f64 / refit.len().max(1) as f64;
    print_histogram(regime.name, &latency, &refit);
    let boundary = 1.0 - share;
    for p in [0.5, 0.99] {
        let clear = (p - boundary).abs() >= MARGIN;
        println!(
            "{}: refit share {:.3}, mode boundary at p{:.1}; p{:.0} {}",
            regime.name,
            share,
            100.0 * boundary,
            100.0 * p,
            if clear {
                "clear of it"
            } else {
                "ON THE BOUNDARY"
            }
        );
        out.check("reported percentile clear of the refit boundary", clear);
    }
}

fn print_histogram(name: &str, latency: &[f64], refit: &[bool]) {
    // Log2 buckets of microseconds.
    let mut buckets = std::collections::BTreeMap::<i32, (u64, u64)>::new();
    for (&l, &r) in latency.iter().zip(refit) {
        let b = if l.is_finite() {
            (1e6 * l).max(1.0).log2().floor() as i32
        } else {
            i32::MAX
        };
        let e = buckets.entry(b).or_default();
        if r {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    println!("{name} latency histogram (us bucket: no-refit, refit samples)");
    for (b, (plain, refit)) in buckets {
        if b == i32::MAX {
            println!("  failed: {plain}, {refit}");
        } else {
            println!(
                "  [{:>8}, {:>8}): {plain:>8} {refit:>8}",
                1u64 << b,
                1u64 << (b + 1)
            );
        }
    }
}
