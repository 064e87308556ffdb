//! Property-based tests over the core invariants the paper's pipeline
//! depends on: autograd correctness, preprocessing bounds, thresholding
//! monotonicity, and evaluation-protocol laws.
//!
//! Cases are generated with the workspace's own seeded [`Rng`] (no
//! `proptest` dependency): each property runs over dozens of random
//! inputs, and assertion messages carry the case number / seed.

use tranad_data::{Normalizer, TimeSeries, Windows};
use tranad_evt::{PotConfig, Spot};
use tranad_metrics::{point_adjust, roc_auc, Confusion};
use tranad_tensor::check::check_gradients;
use tranad_tensor::{Rng, Tape, Tensor};

const CASES: u64 = 64;

fn random_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

fn random_bools(rng: &mut Rng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.chance(0.5)).collect()
}

// ---- autograd ---------------------------------------------------------

#[test]
fn autograd_matches_numeric_gradient() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let x = Tensor::from_vec(random_vec(&mut rng, 6, -2.0, 2.0), [2, 3]);
        let checks = check_gradients(&[x], 1e-5, |_t, v| {
            v[0].sigmoid().mul(&v[0]).add_scalar(0.3).square().mean_all()
        });
        assert!(
            checks[0].max_rel_diff < 1e-3 || checks[0].max_abs_diff < 1e-6,
            "case {case}"
        );
    }
}

#[test]
fn softmax_rows_always_sum_to_one() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let x = Tensor::from_vec(random_vec(&mut rng, 12, -50.0, 50.0), [3, 4]);
        let s = x.softmax_last();
        for r in 0..3 {
            let sum: f64 = (0..4).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case}: row {r} sums to {sum}");
        }
    }
}

#[test]
fn matmul_grad_shapes_match_inputs() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let (n, k, m) = (
            rng.range_usize(1, 4),
            rng.range_usize(1, 4),
            rng.range_usize(1, 4),
        );
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_fn([n, k], |i| (i as f64 * 0.31).sin()));
        let b = tape.leaf(Tensor::from_fn([k, m], |i| (i as f64 * 0.17).cos()));
        a.matmul(&b).sum_all().backward();
        assert_eq!(a.grad().shape().dims(), &[n, k], "case {case}");
        assert_eq!(b.grad().shape().dims(), &[k, m], "case {case}");
    }
}

// ---- preprocessing -----------------------------------------------------

#[test]
fn normalizer_maps_training_data_into_unit_band() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let series = TimeSeries::from_columns(&[random_vec(&mut rng, 30, -100.0, 100.0)]);
        let norm = Normalizer::fit(&series);
        let out = norm.transform(&series);
        assert!(
            out.data().iter().all(|&v| (0.0..1.0).contains(&v)),
            "case {case}"
        );
    }
}

#[test]
fn windows_tail_equals_series_row() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let values = random_vec(&mut rng, 40, -100.0, 100.0);
        let k = rng.range_usize(1, 12);
        let series = TimeSeries::from_columns(std::slice::from_ref(&values));
        let windows = Windows::new(series, k);
        for (t, &v) in values.iter().enumerate() {
            let w = windows.window(t);
            // The final row of window t is always x_t.
            assert_eq!(w.at(&[k - 1, 0]), v, "case {case}: t {t}");
        }
    }
}

#[test]
fn window_batch_is_concatenation() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let series = TimeSeries::from_columns(&[random_vec(&mut rng, 25, -100.0, 100.0)]);
        let windows = Windows::new(series, 5);
        let batch = windows.batch(&[3, 17]);
        let w3 = windows.window(3);
        let w17 = windows.window(17);
        assert_eq!(&batch.data()[..5], w3.data(), "case {case}");
        assert_eq!(&batch.data()[5..], w17.data(), "case {case}");
    }
}

// ---- thresholding ------------------------------------------------------

#[test]
fn pot_threshold_monotone_in_risk() {
    for seed in 0..50u64 {
        let mut rng = tranad_data::SignalRng::new(seed);
        let scores: Vec<f64> = (0..3000).map(|_| rng.normal().abs()).collect();
        let fit = |q| Spot::try_init(&scores, PotConfig { q, level: 0.05 }).unwrap().threshold;
        let (strict, loose) = (fit(1e-5), fit(1e-2));
        assert!(strict >= loose, "seed {seed}: strict {strict} < loose {loose}");
    }
}

#[test]
fn pot_flags_nothing_below_initial_threshold() {
    for seed in 0..50u64 {
        let mut rng = tranad_data::SignalRng::new(seed);
        let scores: Vec<f64> = (0..2000).map(|_| rng.uniform(0.0, 1.0)).collect();
        let spot = Spot::try_init(&scores, PotConfig { q: 1e-4, level: 0.05 }).unwrap();
        let below: Vec<f64> =
            scores.iter().cloned().filter(|&s| s < spot.initial_threshold).collect();
        // Static comparison with the fitted threshold: `step` would adapt it.
        assert!(below.iter().all(|&s| s < spot.threshold), "seed {seed}");
    }
}

// ---- evaluation protocol -----------------------------------------------

#[test]
fn point_adjust_never_removes_predictions() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let pred = random_bools(&mut rng, 30);
        let truth = random_bools(&mut rng, 30);
        let adjusted = point_adjust(&pred, &truth);
        for (p, a) in pred.iter().zip(&adjusted) {
            assert!(!p | a, "case {case}: adjustment removed a prediction");
        }
    }
}

#[test]
fn point_adjust_f1_at_least_raw_f1() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let pred = random_bools(&mut rng, 40);
        let truth = random_bools(&mut rng, 40);
        let raw = Confusion::from_labels(&pred, &truth).f1();
        let adj = Confusion::from_labels(&point_adjust(&pred, &truth), &truth).f1();
        assert!(adj + 1e-12 >= raw, "case {case}: adjusted {adj} < raw {raw}");
    }
}

#[test]
fn auc_is_invariant_to_monotone_transforms() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let scores = random_vec(&mut rng, 20, 0.0, 1.0);
        let truth = random_bools(&mut rng, 20);
        let a = roc_auc(&scores, &truth);
        let transformed: Vec<f64> = scores.iter().map(|&s| (s * 3.0).exp()).collect();
        let b = roc_auc(&transformed, &truth);
        assert!((a - b).abs() < 1e-9, "case {case}: {a} vs {b}");
    }
}

#[test]
fn auc_flips_under_negation() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Break ties so negation is exact.
        let scores: Vec<f64> = random_vec(&mut rng, 20, 0.0, 1.0)
            .iter()
            .enumerate()
            .map(|(i, &s)| s + i as f64 * 1e-9)
            .collect();
        let truth = random_bools(&mut rng, 20);
        let a = roc_auc(&scores, &truth);
        let negated: Vec<f64> = scores.iter().map(|&s| -s).collect();
        let b = roc_auc(&negated, &truth);
        assert!((a + b - 1.0).abs() < 1e-9, "case {case}: {a} + {b} != 1");
    }
}
