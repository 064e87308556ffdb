//! The [`Recorder`] handle and the process-global recorder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::EventBuilder;
use crate::metrics::{Metric, MetricsSnapshot};
use crate::sink::{EventSink, JsonlSink};

/// Event timestamp source. The fake variant stamps a monotonic counter
/// (one microsecond per read) instead of wall time, so golden-trace tests
/// can assert exact output. Selected by [`Recorder::with_sink_faketime`]
/// or the `TRANAD_TRACE_FAKETIME` environment variable.
enum Clock {
    Real(Instant),
    Fake(AtomicU64),
}

impl Clock {
    fn now_s(&self) -> f64 {
        match self {
            Clock::Real(start) => start.elapsed().as_secs_f64(),
            Clock::Fake(ticks) => ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6,
        }
    }
}

struct Inner {
    sink: Arc<dyn EventSink>,
    clock: Clock,
    /// Monotonic span-id sequence (per recorder, so parallel tests with
    /// their own recorders stay deterministic). Id 0 is reserved for "no
    /// parent" — the first span gets id 1.
    span_seq: AtomicU64,
    metrics: Mutex<MetricsSnapshot>,
}

/// A cheap, cloneable telemetry handle. A disabled recorder is a `None`:
/// every entry point checks one discriminant and returns, so instrumented
/// hot paths cost nothing when tracing is off — no allocation, no locking,
/// no event construction (the `emit` closure is never called).
///
/// Instrumentation never takes a recorder as a parameter: it records to
/// [`crate::current`], which resolves to the recorder installed on the
/// thread with [`Recorder::span_scope`], else [`global`] (and to the
/// disabled recorder inside pool tasks).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The zero-cost disabled recorder (same as `Recorder::default()`).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder feeding `sink`.
    pub fn new(sink: impl EventSink + 'static) -> Self {
        Self::with_sink(Arc::new(sink))
    }

    /// Like [`Recorder::new`] but shares an existing sink handle, so the
    /// caller can keep inspecting it (e.g. a `MemorySink` in a test).
    pub fn with_sink(sink: Arc<dyn EventSink>) -> Self {
        Self::build(sink, false)
    }

    /// Like [`Recorder::with_sink`] but with the deterministic fake clock:
    /// every timestamp read advances a counter by one microsecond instead
    /// of consulting `Instant`. Meant for golden-trace tests that assert
    /// exact output; runs stamped this way are reproducible bit for bit.
    pub fn with_sink_faketime(sink: Arc<dyn EventSink>) -> Self {
        Self::build(sink, true)
    }

    fn build(sink: Arc<dyn EventSink>, faketime: bool) -> Self {
        let clock = if faketime {
            Clock::Fake(AtomicU64::new(0))
        } else {
            Clock::Real(Instant::now())
        };
        Recorder {
            inner: Some(Arc::new(Inner {
                sink,
                clock,
                span_seq: AtomicU64::new(0),
                metrics: Mutex::new(MetricsSnapshot::default()),
            })),
        }
    }

    /// Builds the recorder the `TRANAD_TRACE` environment variable asks
    /// for: a JSONL recorder writing to that path, or disabled when the
    /// variable is unset/empty (or the file cannot be created). Setting
    /// `TRANAD_TRACE_FAKETIME=1` swaps in the deterministic clock.
    pub(crate) fn from_env() -> Self {
        match std::env::var(crate::TRACE_ENV) {
            Ok(path) if !path.is_empty() => match JsonlSink::create(&path) {
                Ok(sink) => {
                    let fake = std::env::var(crate::FAKETIME_ENV).is_ok_and(|v| v == "1");
                    Self::build(Arc::new(sink), fake)
                }
                Err(_) => Self::disabled(),
            },
            _ => Self::disabled(),
        }
    }

    /// `true` when events and metrics are actually collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs this recorder on the current thread for the returned
    /// scope's lifetime: every span, event and metric recorded below it
    /// through [`crate::current`] lands here. This is the one way to route
    /// instrumentation to a sink other than [`global`]. Installing a
    /// disabled recorder silences the scope; it does not fall back to
    /// [`global`].
    pub fn span_scope(&self) -> crate::span::SpanScope {
        crate::span::install(self)
    }

    /// Seconds since recorder start on this recorder's clock (0.0 when
    /// disabled). Fake clocks tick one microsecond per read.
    pub(crate) fn now_s(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.clock.now_s())
    }

    /// Next span id (1-based; 0 means "no parent"). 0 when disabled.
    pub(crate) fn next_span_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.span_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records one event. The closure receives an [`EventBuilder`] to fill
    /// in fields; it is **only called when the recorder is enabled**, so
    /// callers may compute expensive fields inside it for free on the
    /// disabled path.
    #[inline]
    pub fn emit(&self, name: &'static str, fill: impl FnOnce(&mut EventBuilder)) {
        let Some(inner) = &self.inner else { return };
        let mut b = EventBuilder::new(name, inner.clock.now_s());
        fill(&mut b);
        inner.sink.record(b.finish());
    }

    /// Adds `n` to a monotonic counter.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        let Some(inner) = &self.inner else { return };
        crate::lock(&inner.metrics).add(name, n);
    }

    /// Sets a last-value gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, v: f64) {
        let Some(inner) = &self.inner else { return };
        crate::lock(&inner.metrics).gauge(name, v);
    }

    /// Records one observation in a log2-bucketed histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, v: f64) {
        let Some(inner) = &self.inner else { return };
        crate::lock(&inner.metrics).observe(name, v);
    }

    /// A point-in-time copy of the current metric table (empty when
    /// disabled). This is the read path for live exporters: it holds the
    /// metrics mutex only for the clone, never touches the sink, and on a
    /// disabled recorder it returns the (allocation-free) empty snapshot —
    /// so scraping a serving process perturbs neither the event stream nor
    /// the disabled-path alloc budget.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => crate::lock(&inner.metrics).clone(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Emits every metric as a summary event (`metric.counter`,
    /// `metric.gauge`, `metric.histogram`) in name order. Metrics keep
    /// accumulating afterwards; call at natural boundaries (end of
    /// training, end of a bench cell).
    pub fn flush_metrics(&self) {
        let Some(inner) = &self.inner else { return };
        let snap = crate::lock(&inner.metrics).clone();
        for (name, metric) in &snap.metrics {
            let t = inner.clock.now_s();
            let b = match metric {
                Metric::Counter(c) => {
                    let mut b = EventBuilder::new("metric.counter", t);
                    b.str("metric", *name).u64("value", *c);
                    b
                }
                Metric::Gauge(g) => {
                    let mut b = EventBuilder::new("metric.gauge", t);
                    b.str("metric", *name).f64("value", *g);
                    b
                }
                Metric::Histogram(h) => {
                    let mut b = EventBuilder::new("metric.histogram", t);
                    b.str("metric", *name)
                        .u64("count", h.count)
                        .f64("sum", h.sum)
                        .f64("min", h.min)
                        .f64("max", h.max)
                        .f64("mean", h.mean());
                    if h.dropped > 0 {
                        b.u64("dropped", h.dropped);
                    }
                    // Only non-empty buckets, as "b<index>" fields.
                    for (i, &n) in h.buckets.iter().enumerate() {
                        if n > 0 {
                            b.u64(BUCKET_KEYS[i], n);
                        }
                    }
                    b
                }
            };
            inner.sink.record(b.finish());
        }
    }

    /// Flushes the sink (file sinks write through to disk).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// Static field keys `"b0"`..`"b63"` so histogram emission needs no
/// allocation-per-key and keys stay `&'static str`.
static BUCKET_KEYS: [&str; crate::metrics::BUCKETS] = [
    "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10", "b11", "b12", "b13", "b14",
    "b15", "b16", "b17", "b18", "b19", "b20", "b21", "b22", "b23", "b24", "b25", "b26", "b27",
    "b28", "b29", "b30", "b31", "b32", "b33", "b34", "b35", "b36", "b37", "b38", "b39", "b40",
    "b41", "b42", "b43", "b44", "b45", "b46", "b47", "b48", "b49", "b50", "b51", "b52", "b53",
    "b54", "b55", "b56", "b57", "b58", "b59", "b60", "b61", "b62", "b63",
];

/// The process-wide recorder, configured once from `TRANAD_TRACE` on first
/// use. [`crate::current`] falls back to it on threads with no recorder
/// installed.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn metrics_survive_a_poisoned_lock() {
        let rec = Recorder::new(MemorySink::new(8));
        rec.add("before", 1);
        let holder = rec.clone();
        let poisoned = std::thread::spawn(move || {
            let _guard = holder.inner.as_ref().unwrap().metrics.lock().unwrap();
            panic!("poison the metric table");
        })
        .join();
        assert!(poisoned.is_err());
        rec.add("after", 2);
        rec.gauge("g", 1.5);
        rec.observe("h", 3.0);
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.len(), 4);
        rec.flush_metrics();
    }
}
