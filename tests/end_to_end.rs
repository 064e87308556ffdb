//! End-to-end integration tests: generate a dataset, train TranAD, detect,
//! diagnose, and check the whole pipeline against ground truth.

use tranad::{train, Ablation, PotConfig, TranadConfig};
use tranad_data::{generate, DatasetKind, GenConfig, SignalRng, TimeSeries};
use tranad_metrics::{diagnose, evaluate, roc_auc};

fn test_config() -> TranadConfig {
    TranadConfig {
        epochs: 4,
        window: 8,
        context: 16,
        ff_hidden: 24,
        dropout: 0.0,
        patience: 10,
        ..TranadConfig::default()
    }
}

fn small_gen(seed: u64) -> GenConfig {
    GenConfig {
        scale: 0.001,
        min_len: 600,
        seed,
    }
}

#[test]
fn tranad_detects_on_nab_like_data() {
    let ds = generate(DatasetKind::Nab, small_gen(1));
    let (detector, report) = train(&ds.train, test_config()).unwrap();
    assert!(report.epochs_run >= 2);
    let detection = detector
        .detect(&ds.test, PotConfig::with_low_quantile(0.02))
        .unwrap();
    let truth = ds.point_labels();
    let m = evaluate(&detection.aggregate, &detection.labels, &truth);
    assert!(m.auc > 0.75, "AUC too low: {}", m.auc);
    assert!(m.f1 > 0.5, "F1 too low: {}", m.f1);
}

#[test]
fn tranad_beats_random_scorer_on_msds() {
    let ds = generate(DatasetKind::Msds, small_gen(2));
    let (detector, _) = train(&ds.train, test_config()).unwrap();
    let detection = detector
        .detect(&ds.test, PotConfig::with_low_quantile(0.01))
        .unwrap();
    let truth = ds.point_labels();
    let model_auc = roc_auc(&detection.aggregate, &truth);
    let mut rng = SignalRng::new(3);
    let random_scores: Vec<f64> = (0..truth.len()).map(|_| rng.uniform(0.0, 1.0)).collect();
    let random_auc = roc_auc(&random_scores, &truth);
    assert!(
        model_auc > random_auc + 0.2,
        "model {model_auc} vs random {random_auc}"
    );
}

#[test]
fn diagnosis_localizes_injected_dimension() {
    // Hand-built series: only dimension 2 of 4 carries the anomaly.
    let mut rng = SignalRng::new(4);
    let cols: Vec<Vec<f64>> = (0..4)
        .map(|d| {
            (0..700)
                .map(|t| (t as f64 / (10.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    let train_series = TimeSeries::from_columns(&cols);
    let mut test = train_series.clone();
    for t in 350..365 {
        let v = test.get(t, 2);
        test.set(t, 2, v + 2.5);
    }
    let (detector, _) = train(&train_series, test_config()).unwrap();
    let detection = detector.detect(&test, PotConfig::default()).unwrap();
    // The anomalous dimension must dominate the per-dimension scores.
    let mut dim_totals = vec![0.0; 4];
    for t in 350..365 {
        for (d, total) in dim_totals.iter_mut().enumerate() {
            *total += detection.scores[t][d];
        }
    }
    let top = (0..4)
        .max_by(|&a, &b| dim_totals[a].partial_cmp(&dim_totals[b]).unwrap())
        .unwrap();
    assert_eq!(top, 2, "dimension scores: {dim_totals:?}");

    // And the diagnosis metrics must reflect it.
    let truth_dims: Vec<Vec<bool>> = (0..test.len())
        .map(|t| (0..4).map(|d| d == 2 && (350..365).contains(&t)).collect())
        .collect();
    let diag = diagnose(&detection.scores, &truth_dims);
    // The dominant-dimension assertion above is the strong check; HitRate
    // additionally requires the injected dimension to rank first at every
    // anomalous timestamp individually, which is noisier.
    assert!(diag.hit100 > 0.4, "HitRate@100% {}", diag.hit100);
}

#[test]
fn ablations_degrade_or_match_the_full_model() {
    // On an adversarial-sensitive trace (mild anomalies), the full model
    // should be at least as good as the average ablated variant (§5.1).
    let ds = generate(DatasetKind::Smd, small_gen(5));
    let truth = ds.point_labels();
    let mut scores = Vec::new();
    for ablation in Ablation::all() {
        let config = ablation.apply(test_config());
        let (detector, _) = train(&ds.train, config).unwrap();
        let detection = detector
            .detect(&ds.test, PotConfig::with_low_quantile(0.01))
            .unwrap();
        let m = evaluate(&detection.aggregate, &detection.labels, &truth);
        scores.push((ablation.name(), m.f1));
    }
    let full = scores[0].1;
    let ablated_avg: f64 =
        scores[1..].iter().map(|(_, f1)| f1).sum::<f64>() / (scores.len() - 1) as f64;
    assert!(
        full + 0.1 >= ablated_avg,
        "full model {full} much worse than ablation average {ablated_avg}: {scores:?}"
    );
}

#[test]
fn detection_is_deterministic_across_runs() {
    let ds = generate(DatasetKind::Ucr, small_gen(6));
    let run = || {
        let (detector, _) = train(&ds.train, test_config()).unwrap();
        detector
            .detect(&ds.test, PotConfig::default())
            .unwrap()
            .aggregate
    };
    assert_eq!(run(), run());
}
