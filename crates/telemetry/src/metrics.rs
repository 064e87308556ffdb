//! In-recorder metric aggregates: counters, gauges and log2-bucketed
//! histograms. Metrics live in a `BTreeMap` keyed by static name so
//! [`crate::Recorder::flush_metrics`] emits them in a deterministic order
//! and [`crate::Recorder::snapshot`] hands out a deterministic-ordered
//! [`MetricsSnapshot`] — the point-in-time view a live metrics exporter
//! (e.g. `tranad-obs`) renders without disturbing the sink.

use std::collections::BTreeMap;

/// Number of histogram buckets. Bucket `i` (for `i >= 1`) covers values in
/// `[2^(i-32), 2^(i-31))`; bucket 0 collects non-positive values and
/// underflow. Bucket 32 therefore covers `[1, 2)`.
pub const BUCKETS: usize = 64;

/// Offset added to `floor(log2 v)` to get a bucket index.
const BUCKET_BIAS: i32 = 32;

/// A log2-bucketed histogram: constant memory, one branch + one increment
/// per observation, good enough resolution (2x) for latency and magnitude
/// distributions.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Observations per power-of-two bucket (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Non-finite observations rejected by [`Histogram::record`]. A single
    /// NaN or infinity must not poison `sum`/`mean` for the rest of the
    /// run, so they are counted here instead of aggregated.
    pub dropped: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            dropped: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: `floor(log2 v) + 32`, clamped to the
    /// array; non-positive and non-finite values land in bucket 0.
    pub fn bucket_for(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        (v.log2().floor() as i32 + BUCKET_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
    }

    /// Upper boundary of bucket `i` (inclusive upper edge in the
    /// Prometheus `le` sense): bucket `i >= 1` covers `[2^(i-32), 2^(i-31))`
    /// so its boundary is `2^(i-31)`; bucket 0 (non-positive and underflow)
    /// reports `2^-31`; the last bucket also absorbs every overflowing
    /// value (see [`Histogram::bucket_for`]'s clamp), so its boundary is
    /// `+inf`. Boundaries are strictly increasing in `i`, which is exactly
    /// what a cumulative-bucket exposition needs.
    pub fn bucket_upper(i: usize) -> f64 {
        assert!(i < BUCKETS, "bucket index {i} out of range");
        if i == BUCKETS - 1 {
            return f64::INFINITY;
        }
        2f64.powi(i as i32 - BUCKET_BIAS + 1)
    }

    /// Records one observation. Non-finite values (NaN, ±inf) are counted
    /// in [`Histogram::dropped`] and otherwise ignored: folding them into
    /// `sum`/`min`/`max` would make `mean()` NaN forever after a single
    /// bad sample.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        self.buckets[Self::bucket_for(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Arithmetic mean of observations (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Quantile estimate from the log2 buckets (NaN when empty).
    ///
    /// Walks the cumulative bucket counts until `q * count` observations
    /// are covered and returns that bucket's upper edge, clamped to the
    /// observed `[min, max]` range — so the estimate is never coarser than
    /// one power of two and exact at the extremes (`q=0` → min, `q=1` →
    /// max up to bucket resolution). Bucket 0 (non-positive underflow)
    /// reports `min`. A `q` outside `[0, 1]` (including NaN) is not a
    /// quantile: the answer is NaN, never a silently clamped bucket walk.
    pub fn quantile(&self, q: f64) -> f64 {
        if !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return f64::NAN;
        }
        if self.count == 0 {
            return f64::NAN;
        }
        if q == 0.0 {
            return self.min;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                if i == 0 {
                    return self.min;
                }
                let upper = 2f64.powi(i as i32 - BUCKET_BIAS + 1);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-value gauge.
    Gauge(f64),
    /// Log2-bucketed histogram (boxed: the bucket array dominates).
    Histogram(Box<Histogram>),
}

/// The recorder's metric table — and, cloned out by
/// [`crate::Recorder::snapshot`], the point-in-time metrics view exporters
/// render from. Wrapped by the recorder behind a mutex; kept as its own
/// type so tests, `flush_metrics` and scrapers can walk it without holding
/// the recorder's lock. Iteration order is the `BTreeMap`'s name order, so
/// two snapshots of the same metrics render identically.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Metrics by name, sorted (BTreeMap) for deterministic emission.
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl MetricsSnapshot {
    /// Deterministic (name-ordered) iteration over every metric.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Metric)> {
        self.metrics.iter().map(|(&name, metric)| (name, metric))
    }

    /// Number of distinct metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when the snapshot holds no metrics (e.g. taken from a
    /// disabled recorder).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
    /// Adds `n` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if let Metric::Counter(c) = self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            *c += n;
        }
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        *self.metrics.entry(name).or_insert(Metric::Gauge(v)) = Metric::Gauge(v);
    }

    /// Records an observation in the named histogram.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        if let Metric::Histogram(h) =
            self.metrics.entry(name).or_insert_with(|| Metric::Histogram(Box::default()))
        {
            h.record(v);
        }
    }

    /// Current value of a counter, if one exists under that name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The named histogram, if one exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name)? {
            Metric::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }
}
