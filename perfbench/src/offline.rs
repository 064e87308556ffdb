//! `offline-smd`: the paper's own job on its Server Machine Dataset
//! stand-in. Algorithm 1 (training with the paper's config: window 10,
//! batch 128, a fixed epoch count with early stopping disabled), then
//! Algorithm 2 on the test split, offline (`score_series` +
//! `detect_from_scores` at SMD's POT low quantile) and online (one point
//! at a time through `OnlineState`, until the run's time is up).

use crate::clock::now;
use crate::report::Outcome;
use crate::stats::{median, sorted, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::{probes, Args};
use tranad::config::TranadConfig;
use tranad::train::{train, TrainedTranad};
use tranad::{detect_from_scores, OnlineState, PotConfig};
use tranad_data::{generate, Dataset, DatasetKind, GenConfig};
use tranad_metrics::{point_adjust, roc_auc, Confusion};
use tranad_nn::{Fwd, InferCtx, InferWorkspace};

/// Share of SMD's Table 1 lengths generated: ~2.1k rows per split, 38
/// dims.
const SCALE: f64 = 0.003;
const EPOCHS: usize = 5;
/// Training windows visited per epoch (a fresh subsample each epoch): one
/// training window costs ten times a scored one.
const WINDOWS_PER_EPOCH: usize = 384;
/// Whole-split Algorithm 2 runs per pass; their median sets
/// `detect_windows_per_s`.
const DETECT_REPS: usize = 3;
/// Points per online scoring request.
const REQUEST_POINTS: usize = 8;
/// Online requests at least, so that p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1100;

fn config(seed: u64) -> TranadConfig {
    TranadConfig {
        epochs: EPOCHS,
        patience: EPOCHS + 1,
        max_windows_per_epoch: WINDOWS_PER_EPOCH,
        seed,
        ..TranadConfig::default()
    }
}

fn dataset(seed: u64) -> Dataset {
    generate(
        DatasetKind::Smd,
        GenConfig {
            scale: SCALE,
            min_len: 400,
            seed,
        },
    )
}

/// What one pass of the workload measured.
struct Pass {
    epoch_seconds: Vec<f64>,
    train_windows: usize,
    detect_seconds: Vec<f64>,
    /// Per online point: push-to-verdict seconds.
    latency: Vec<f64>,
    lateness: Vec<f64>,
    f1: f64,
    auc: f64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    if args.setup_only {
        let started = now();
        std::hint::black_box(dataset(args.seed));
        crate::report_setup(now() - started);
        return out;
    }
    let setup = crate::fresh_setups(args, &mut out);
    let ds = dataset(args.seed);
    let truth = ds.point_labels();
    let (pass, trained) = measure(args, &ds, &truth, &mut tr, &mut out);
    crate::check_quality_repeats(args, pass.f1, pass.auc, &mut out);

    if !args.trace {
        let lat = sorted(&pass.latency);
        let tail = tail_percentile(&lat, 0.99);
        out.check("latency_p99_ms has ten samples beyond it", tail.is_some());
        let epoch = median(&pass.epoch_seconds).unwrap_or(f64::NAN);
        out.push("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
        out.push("throughput_per_s", pass.train_windows as f64 / epoch, "1/s");
        // No offline population has both a median and a p99 with ten
        // samples beyond it: p50 is the median epoch (Table 5's s/epoch),
        // p99 the tail of the online scoring requests.
        out.push("latency_p50_ms", 1e3 * epoch, "ms");
        out.push("latency_p99_ms", 1e3 * tail.unwrap_or(f64::NAN), "ms");
        let detect = median(&pass.detect_seconds).unwrap_or(f64::NAN);
        out.push("detect_windows_per_s", ds.test.len() as f64 / detect, "1/s");
        out.push("rss_mb", crate::host::peak_rss_mb(), "MB");
        println!(
            "offline-smd: {} train windows x {EPOCHS} epochs, median epoch {:.1} ms; \
             {} test windows, F1 {:.4}, ROC-AUC {:.4}; {} online requests of {REQUEST_POINTS} points",
            pass.train_windows,
            1e3 * epoch,
            ds.test.len(),
            pass.f1,
            pass.auc,
            pass.latency.len(),
        );
        println!(
            "epoch seconds {:?}, set-up seconds {setup:?}",
            pass.epoch_seconds
        );
        probes::print_lateness(&pass.lateness);
        return out;
    }

    // Traced: the same pass again with spans on; the untraced pass above
    // is the baseline for the tracing overhead.
    drop(trained);
    let base = median(&pass.latency).unwrap_or(f64::NAN);
    tr = Tracer::new(true);
    let mut layers = probes::Layers::new(&mut tr);
    let root = tr.open("bench.setup", SpanId::NONE);
    let ds = tr.time("data.generate", root, || dataset(args.seed));
    tr.close(root);
    let (traced, trained) = measure(args, &ds, &truth, &mut tr, &mut out);
    let overhead = median(&traced.latency).unwrap_or(f64::NAN) / base - 1.0;
    probes::print_lateness(&traced.lateness);

    layers.epoch_ms = 1e3 * median(&traced.epoch_seconds).unwrap_or(f64::NAN);
    layers.lateness = traced.lateness.clone();
    // Algorithm 2's SPOT walk, one thresholder per dimension, replayed step
    // by step from the test scores.
    let test_scores = tr.time("tranad.score", SpanId::NONE, || {
        trained.score_series(&ds.test)
    });
    let per_dim: Vec<Vec<f64>> = (0..ds.dims())
        .map(|d| test_scores.iter().map(|r| r[d]).collect())
        .collect();
    layers.spot_replay(&mut tr, &trained, pot(), &per_dim);
    layers.engine_probe(&mut tr, args, &trained, pot(), &ds.test, &mut out);
    layers.model_probes(&mut tr, &trained, &ds.train, 1);
    out.push("f1", traced.f1, "ratio");
    out.push("roc_auc", traced.auc, "ratio");
    layers.finish(args, &mut tr, &mut out, 100.0 * overhead);
    out
}

fn pot() -> PotConfig {
    PotConfig::with_low_quantile(DatasetKind::Smd.pot_low_quantile())
}

/// Trains, runs Algorithm 2 over the whole test split `DETECT_REPS` times,
/// then streams the test split through an online detector until
/// `args.seconds` after the pass started.
fn measure(
    args: &Args,
    ds: &Dataset,
    truth: &[bool],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Pass, TrainedTranad) {
    let deadline = now() + args.seconds;
    let span = tr.open("tranad.train", SpanId::NONE);
    let trained = train(&ds.train, config(args.seed));
    tr.close(span);
    let (trained, report) = trained.unwrap_or_else(|e| {
        println!("training failed: {e}");
        std::process::exit(1);
    });
    out.check("training ran every epoch", report.epochs_run == EPOCHS);
    // `train` holds out the last fifth of the series for validation.
    let train_windows = ((ds.train.len() as f64 * 0.8).round() as usize).min(WINDOWS_PER_EPOCH);

    let mut detect_seconds = Vec::new();
    let mut quality: Option<(f64, f64)> = None;
    let mut whole = Vec::new();
    for _ in 0..DETECT_REPS {
        let started = now();
        let span = tr.open("tranad.detect", SpanId::NONE);
        let scores = tr.time("tranad.score", span, || trained.score_series(&ds.test));
        let det = tr.time("evt.pot", span, || {
            detect_from_scores(&trained.train_scores, &scores, pot())
        });
        tr.close(span);
        detect_seconds.push(now() - started);
        let Ok(det) = det else {
            out.check("detect_from_scores", false);
            continue;
        };
        let f1 = Confusion::from_labels(&point_adjust(&det.labels, truth), truth).f1();
        let auc = roc_auc(&det.aggregate, truth);
        out.check("F1 and AUC are finite", f1.is_finite() && auc.is_finite());
        if let Some(prev) = quality {
            out.check(
                "F1 and AUC repeat within the run",
                bits(prev) == bits((f1, auc)),
            );
        }
        quality = Some((f1, auc));
        whole = scores;
    }

    // Online scoring, closed loop: each request scores the stream's next
    // `REQUEST_POINTS` points one at a time through the halves
    // `OnlineState::push` is made of. Its latency is the scoring half
    // (ingest, stage the window, tape-free forward); the SPOT step is timed
    // by the evt layer. One forward ran in 0.6 or 1.0 ms as the host's
    // contention came and went; the slow mode, which sets p99, repeats.
    // Over the first pass of the test split every score must equal the
    // whole-split score bit for bit; then the stream wraps round.
    let mut state = OnlineState::new(&trained, pot()).unwrap_or_else(|e| {
        println!("online state failed to start: {e}");
        std::process::exit(1);
    });
    let config = *trained.model.config();
    let mut stage = InferWorkspace::new();
    let mut latency = Vec::new();
    let mut lateness = Vec::new();
    let mut mismatched = 0u64;
    let mut due = now();
    let mut t = 0usize;
    while latency.len() < MIN_REQUESTS || now() < deadline {
        let sent = now();
        lateness.push(crate::loadgen::lateness(due, sent));
        let request = tr.open("tranad.online_request", SpanId::NONE);
        tr.set_key(request, (0, t as u64));
        let mut busy = 0.0;
        for _ in 0..REQUEST_POINTS {
            let started = now();
            let span = tr.open("tranad.online_score", request);
            let ingested = state.ingest(&trained, ds.test.row(t % ds.test.len()));
            let (w, c) = stage.stage(1, config.window, config.context, ds.dims());
            state.stage_tail(w, c);
            let ctx = InferCtx::new(&trained.store);
            let (wv, cv) = (
                ctx.input(stage.window().clone()),
                ctx.input(stage.context().clone()),
            );
            let scored = trained.model.forward(&ctx, &wv, &cv);
            tr.close(span);
            busy += now() - started;
            let span = tr.open("evt.spot_step", request);
            let verdict = state.apply_scores(wv.data(), scored.o1.data(), scored.o2_hat.data());
            tr.close(span);
            let same =
                ingested.is_ok() && (t >= whole.len() || same_bits(&verdict.scores, &whole[t]));
            mismatched += u64::from(!same);
            t += 1;
        }
        tr.close(request);
        due = now();
        latency.push(busy);
    }
    out.count(
        "online scores equal whole-split scores",
        t as u64,
        mismatched,
    );
    let (f1, auc) = quality.unwrap_or((f64::NAN, f64::NAN));
    let pass = Pass {
        epoch_seconds: report.epoch_seconds,
        train_windows,
        detect_seconds,
        latency,
        lateness,
        f1,
        auc,
    };
    (pass, trained)
}

fn bits((a, b): (f64, f64)) -> (u64, u64) {
    (a.to_bits(), b.to_bits())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
