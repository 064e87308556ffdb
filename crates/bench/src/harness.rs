//! The one timing harness behind every wall-clock number the bench
//! binaries report (`bench-kernels`, `bench-serve`, `benches/micro.rs`).
//!
//! A timing gate compares two arms, A and B, of the same work. On a host
//! whose speed shifts every few seconds, each arm's best-of-N time mostly
//! records which speed the host ran at while that arm was being timed. So
//! [`paired`] runs the arms as interleaved pairs in one process: one sample
//! of each, back to back, with the first arm swapped from pair to pair.
//! Both samples of a pair see the same host speed, and the swap cancels any
//! first-or-second bias. Every statistic is then taken over the per-pair
//! ratios ([`Pairs::per_pair`]): their median with the quartile band
//! ([`Summary`]). A gate reads the median.
//!
//! The module also holds what the bench binaries share: the flag parser
//! ([`Flags`]), the JSON writer ([`write_json`]) and the synthetic training
//! series ([`toy_series`]).

use std::fmt;
use std::time::Instant;
use tranad_data::{SignalRng, TimeSeries};
use tranad_json::Json;

/// Target wall time of one [`solo`] sample.
const SAMPLE_SECS: f64 = 0.05;

/// Median and quartiles of a set of samples (linear interpolation between
/// the closest ranks, so an even count's median is the mean of the middle
/// two).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let pos = p * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Summary {
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            n: v.len(),
        }
    }

    /// Whether the median clears a lower bound (a speedup gate).
    pub fn at_least(&self, bound: f64) -> bool {
        self.median >= bound
    }

    /// Whether the median stays within an upper bound (an overhead gate).
    pub fn at_most(&self, bound: f64) -> bool {
        self.median <= bound
    }

    /// `{"median", "q1", "q3", "pairs"}`, rounded to 4 decimals.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", rounded(self.median, 4)),
            ("q1", rounded(self.q1, 4)),
            ("q3", rounded(self.q3, 4)),
            ("pairs", Json::Num(self.n as f64)),
        ])
    }
}

/// `median [q1, q3]`, each at the formatter's precision (default 2).
impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        write!(f, "{:.p$} [{:.p$}, {:.p$}]", self.median, self.q1, self.q3)
    }
}

/// Per-sample seconds of the two arms of a [`paired`] run: `a[i]` and
/// `b[i]` are pair `i`.
#[derive(Debug, Clone)]
pub struct Pairs {
    /// Arm A's samples.
    pub a: Vec<f64>,
    /// Arm B's samples.
    pub b: Vec<f64>,
}

impl Pairs {
    /// Summary of `f(a_i, b_i)` over the pairs; `|a, b| a / b` is B's
    /// speedup over A.
    pub fn per_pair(&self, f: impl Fn(f64, f64) -> f64) -> Summary {
        let values: Vec<f64> = self.a.iter().zip(&self.b).map(|(&a, &b)| f(a, b)).collect();
        Summary::of(&values)
    }
}

fn secs(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Times `pairs` interleaved samples of `a` and `b`, one call each per
/// sample, after one untimed warm-up call of each. Even pairs run `a`
/// first, odd pairs `b` first.
pub fn paired(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Pairs {
    a();
    b();
    let mut out = Pairs {
        a: Vec::with_capacity(pairs),
        b: Vec::with_capacity(pairs),
    };
    for i in 0..pairs {
        if i % 2 == 0 {
            out.a.push(secs(&mut a));
            out.b.push(secs(&mut b));
        } else {
            out.b.push(secs(&mut b));
            out.a.push(secs(&mut a));
        }
    }
    out
}

/// Per-call seconds of one subject too fast to time a call at a time:
/// after a warm-up call, each of `samples` samples repeats `f` for about
/// 50 ms (`SAMPLE_SECS`).
pub fn solo(samples: usize, mut f: impl FnMut()) -> Summary {
    let first = secs(&mut f).max(1e-9);
    let calls = ((SAMPLE_SECS / first) as usize).clamp(1, 10_000);
    let per_call: Vec<f64> = (0..samples)
        .map(|_| secs(&mut || (0..calls).for_each(|_| f())) / calls as f64)
        .collect();
    Summary::of(&per_call)
}

/// The bench binaries' command line: `--name value` pairs, each name from
/// the binary's own list. An unknown name, a missing value or a
/// non-number where a number is due exits with status 2.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses the process arguments against the `known` flag names.
    pub fn parse(known: &[&str]) -> Flags {
        let mut args = std::env::args().skip(1);
        let mut pairs = Vec::new();
        while let Some(name) = args.next() {
            if !known.contains(&name.as_str()) {
                usage_error(&format!(
                    "unknown argument {name:?}; expected one of {known:?}"
                ));
            }
            let value = args
                .next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")));
            pairs.push((name, value));
        }
        Flags(pairs)
    }

    /// The value of `--name`, if given (the last one wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` as a number, if given.
    pub fn number(&self, name: &str) -> Option<f64> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} requires a number, got {v:?}")))
        })
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// `v` rounded to `decimals` places, as a JSON number.
pub fn rounded(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

/// Writes `{"comment": comment, fields...}` to `path` as pretty JSON: the
/// one layout of the bench binaries' result files.
pub fn write_json(path: &str, comment: &str, fields: Vec<(&str, Json)>) {
    let doc = Json::obj(std::iter::once(("comment", Json::Str(comment.to_string()))).chain(fields));
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// A `dims`-wide sum of slow sines plus 5% seeded noise: the training
/// series of `bench-serve` and `bench-alloc`.
pub fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| ((t as f64) / (10.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn summary_of_an_odd_count() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        // Quartiles between ranks interpolate: 7 samples put q1 at rank 1.5.
        let s = Summary::of(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        let one = Summary::of(&[0.25]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (0.25, 0.25, 0.25, 1));
    }

    #[test]
    fn summary_of_an_even_count() {
        let s = Summary::of(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.75, 2.5, 3.25, 4));
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn per_pair_summarizes_the_ratio_of_each_pair() {
        let pairs = Pairs {
            a: vec![2.0, 9.0, 3.0],
            b: vec![1.0, 3.0, 2.0],
        };
        let speedup = pairs.per_pair(|a, b| a / b);
        assert_eq!((speedup.q1, speedup.median, speedup.q3), (1.75, 2.0, 2.5));
    }

    #[test]
    fn gates_read_the_median_at_and_around_the_bound() {
        let at = |median: f64| Summary {
            q1: median - 1.0,
            median,
            q3: median + 1.0,
            n: 3,
        };
        let bound = 1.3;
        let eps = 1e-9;
        assert!(at(bound).at_least(bound));
        assert!(at(bound + eps).at_least(bound));
        assert!(!at(bound - eps).at_least(bound));
        let bound = 0.05;
        assert!(at(bound).at_most(bound));
        assert!(at(bound - eps).at_most(bound));
        assert!(!at(bound + eps).at_most(bound));
        // The band does not decide: only the median is compared.
        let wide = Summary {
            q1: 0.0,
            median: 1.5,
            q3: 9.0,
            n: 21,
        };
        assert!(wide.at_least(1.5) && !wide.at_most(1.4));
    }

    #[test]
    fn paired_alternates_which_arm_runs_first() {
        let calls = RefCell::new(String::new());
        let pairs = paired(
            4,
            || calls.borrow_mut().push('a'),
            || calls.borrow_mut().push('b'),
        );
        // Warm-up (ab), then pairs 0..4: ab, ba, ab, ba.
        assert_eq!(calls.into_inner(), "ababbaabba");
        assert_eq!((pairs.a.len(), pairs.b.len()), (4, 4));
        assert!(pairs.a.iter().chain(&pairs.b).all(|&s| s >= 0.0));
    }
}
