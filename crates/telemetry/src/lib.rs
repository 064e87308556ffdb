//! # tranad-telemetry
//!
//! Event tracing and metrics for the whole workspace, with no external
//! dependencies. The design goal is a telemetry layer that costs nothing
//! when disabled: every instrumentation point goes through a [`Recorder`]
//! handle whose disabled form is a `None` — one branch, zero allocations,
//! zero atomics on the hot path.
//!
//! ## Model
//!
//! - **Events** are timestamped `(name, fields)` records ([`Event`]) pushed
//!   to an [`EventSink`]. Field values are numbers, booleans or strings.
//! - **Metrics** are named aggregates kept inside the recorder: monotonic
//!   counters ([`Recorder::add`]), last-value gauges ([`Recorder::gauge`])
//!   and log2-bucketed histograms ([`Recorder::observe`]). They are emitted
//!   as summary events by [`Recorder::flush_metrics`].
//! - **Spans** ([`span`]) are hierarchical timed regions with static
//!   names, kept on an implicit thread-local stack by RAII guards and
//!   emitted as `"span"` complete-events.
//!
//! ## Sinks
//!
//! - [`MemorySink`]: bounded ring buffer, for tests and programmatic
//!   inspection.
//! - [`JsonlSink`]: one JSON object per line, written through `tranad-json`
//!   so traces round-trip with the rest of the workspace's persistence.
//!
//! [`Recorder::disabled`] is the one disabled recorder: a `None`, not a
//! sink that drops data.
//!
//! ## Activation
//!
//! Every instrumentation point — spans, events, metrics — records to
//! [`current()`], resolved per thread by one rule:
//!
//! 1. inside a pool task ([`span::suppressed`]): nothing records;
//! 2. else the recorder installed with [`Recorder::span_scope`], if any —
//!    an installed *disabled* recorder silences its scope rather than
//!    falling back;
//! 3. else [`global()`], configured from the `TRANAD_TRACE` environment
//!    variable: a file path gives a JSONL trace, unset gives the disabled
//!    recorder.
//!
//! So a program gets a trace by setting `TRANAD_TRACE`, and a test or
//! bench routes a call to its own sink by installing it around the call:
//!
//! ```
//! use std::sync::Arc;
//! use tranad_telemetry::{MemorySink, Recorder};
//!
//! let sink = Arc::new(MemorySink::new(64));
//! let rec = Recorder::with_sink(sink.clone());
//! {
//!     let _scope = rec.span_scope();
//!     tranad_telemetry::current().emit("example", |_| {});
//! }
//! assert_eq!(sink.named("example").len(), 1);
//! ```
//!
//! ## Overhead guarantee
//!
//! With the recorder disabled, [`Recorder::emit`] never runs its closure
//! and none of the metric helpers touch memory beyond the `Option`
//! discriminant check. The bench harness pins this: `bench-alloc` asserts
//! zero additional allocations per optimizer update with telemetry
//! disabled, and `crates/tranad/tests/determinism.rs` asserts that a *live*
//! JSONL sink does not perturb bitwise determinism.

mod event;
mod metrics;
mod recorder;
mod sink;
// Every instrumented crate names `span::enter`; `tranad-tensor`'s pool
// names `span::suppressed`.
pub mod span;

pub use event::{Event, EventBuilder, Value};
pub use metrics::{Histogram, Metric, MetricsSnapshot, BUCKETS};
pub use recorder::{global, Recorder};
pub use sink::{EventSink, JsonlSink, MemorySink};
pub use span::current;

/// Locks `m`, recovering the guard if a panicking thread poisoned it. The
/// metric table and the sinks' buffers stay consistent across a panic (each
/// update is a single insert or write), and telemetry must never take the
/// process down, so a poisoned lock is used as is.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Name of the environment variable that activates the global JSONL trace.
pub const TRACE_ENV: &str = "TRANAD_TRACE";

/// Setting this environment variable to `1` (alongside `TRANAD_TRACE`)
/// swaps the global recorder's clock for a deterministic counter: every
/// timestamp read advances one microsecond. Trace timings stop meaning
/// wall time and start meaning "event sequence", which is exactly what
/// golden-trace tests want.
pub(crate) const FAKETIME_ENV: &str = "TRANAD_TRACE_FAKETIME";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_never_runs_closure() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.emit("never", |_| panic!("closure must not run when disabled"));
        rec.add("c", 1);
        rec.gauge("g", 1.0);
        rec.observe("h", 1.0);
        rec.flush_metrics();
        rec.flush();
    }

    #[test]
    fn memory_sink_captures_events_in_order() {
        let sink = Arc::new(MemorySink::new(16));
        let rec = Recorder::with_sink(sink.clone());
        assert!(rec.enabled());
        rec.emit("a", |e| {
            e.f64("x", 1.5)
                .u64("n", 3)
                .bool("ok", true)
                .str("tag", "first");
        });
        rec.emit("b", |e| {
            e.f64("y", -2.0);
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].get_f64("x"), Some(1.5));
        assert_eq!(events[0].get_u64("n"), Some(3));
        assert_eq!(events[0].get_str("tag"), Some("first"));
        assert_eq!(events[1].name, "b");
        assert!(events[0].time_s >= 0.0);
    }

    #[test]
    fn memory_sink_ring_evicts_oldest() {
        let sink = Arc::new(MemorySink::new(2));
        let rec = Recorder::with_sink(sink.clone());
        rec.emit("e1", |_| {});
        rec.emit("e2", |_| {});
        rec.emit("e3", |_| {});
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "e2");
        assert_eq!(events[1].name, "e3");
    }

    #[test]
    fn counters_accumulate_and_flush() {
        let sink = Arc::new(MemorySink::new(64));
        let rec = Recorder::with_sink(sink.clone());
        rec.add("pool.hits", 3);
        rec.add("pool.hits", 4);
        rec.gauge("lr", 0.1);
        rec.gauge("lr", 0.05);
        rec.observe("lat", 1.0);
        rec.observe("lat", 2.0);
        rec.observe("lat", 1000.0);
        rec.flush_metrics();
        let events = sink.events();
        let counter = events.iter().find(|e| e.name == "metric.counter").unwrap();
        assert_eq!(counter.get_str("metric"), Some("pool.hits"));
        assert_eq!(counter.get_u64("value"), Some(7));
        let gauge = events.iter().find(|e| e.name == "metric.gauge").unwrap();
        assert_eq!(gauge.get_f64("value"), Some(0.05));
        let hist = events
            .iter()
            .find(|e| e.name == "metric.histogram")
            .unwrap();
        assert_eq!(hist.get_u64("count"), Some(3));
        assert_eq!(hist.get_f64("sum"), Some(1003.0));
        assert_eq!(hist.get_f64("max"), Some(1000.0));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.record(1.0); // 2^0 -> bucket 32
        h.record(2.0); // 2^1 -> bucket 33
        h.record(3.9); // still 2^1 -> bucket 33
        h.record(0.25); // 2^-2 -> bucket 30
        h.record(0.0); // non-positive -> bucket 0
        h.record(-5.0); // non-positive -> bucket 0
        assert_eq!(h.buckets[32], 1);
        assert_eq!(h.buckets[33], 2);
        assert_eq!(h.buckets[30], 1);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.count, 6);
        assert_eq!(h.min, -5.0);
        assert_eq!(h.max, 3.9);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "tranad-telemetry-test-{}.jsonl",
            std::process::id()
        ));
        {
            let rec = Recorder::new(JsonlSink::create(&path).unwrap());
            rec.emit("train.epoch", |e| {
                e.u64("epoch", 1)
                    .f64("loss", 0.5)
                    .bool("improved", true)
                    .str("phase", "train");
            });
            rec.add("steps", 10);
            rec.flush_metrics();
            rec.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = tranad_json::parse(lines[0]).unwrap();
        assert_eq!(first.get("event").unwrap().as_str(), Some("train.epoch"));
        assert_eq!(first.get("epoch").unwrap().as_f64(), Some(1.0));
        assert_eq!(first.get("loss").unwrap().as_f64(), Some(0.5));
        let second = tranad_json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("event").unwrap().as_str(),
            Some("metric.counter")
        );
    }

    #[test]
    fn event_round_trips_through_json() {
        let mut b = EventBuilder::new("roundtrip", 1.25);
        b.f64("x", 3.5)
            .u64("n", 42)
            .bool("flag", false)
            .str("s", "hi");
        let ev = b.finish();
        let json = ev.to_json();
        let parsed = tranad_json::parse(&json.to_string()).unwrap();
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("roundtrip"));
        assert_eq!(parsed.get("t").unwrap().as_f64(), Some(1.25));
        assert_eq!(parsed.get("x").unwrap().as_f64(), Some(3.5));
        assert_eq!(parsed.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(parsed.get("s").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn histogram_drops_non_finite_instead_of_poisoning_aggregates() {
        let mut h = Histogram::default();
        h.record(2.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(4.0);
        assert_eq!(h.count, 2, "non-finite samples must not count");
        assert_eq!(h.dropped, 3);
        assert_eq!(h.sum, 6.0);
        assert_eq!(h.mean(), 3.0, "one NaN must not poison the mean forever");
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert_eq!(h.buckets[0], 0, "dropped samples must not land in bucket 0");
        // Finite negatives still aggregate (bucket 0 is for them).
        h.record(-5.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.min, -5.0);
    }

    #[test]
    fn histogram_dropped_count_flushes_when_present() {
        let sink = Arc::new(MemorySink::new(8));
        let rec = Recorder::with_sink(sink.clone());
        rec.observe("lat", 1.0);
        rec.observe("lat", f64::NAN);
        rec.flush_metrics();
        let hist = &sink.named("metric.histogram")[0];
        assert_eq!(hist.get_u64("count"), Some(1));
        assert_eq!(hist.get_u64("dropped"), Some(1));
        assert_eq!(hist.get_f64("mean"), Some(1.0));
    }

    #[test]
    fn histogram_quantiles_track_log2_buckets() {
        let mut h = Histogram::default();
        assert!(h.quantile(0.5).is_nan());
        for _ in 0..98 {
            h.record(1.5); // bucket 32, upper edge 2
        }
        h.record(100.0); // bucket 38
        h.record(1000.0); // bucket 41
        assert_eq!(h.quantile(0.0), 1.5, "q=0 clamps to min");
        assert_eq!(h.quantile(0.5), 2.0, "median is bucket 32's upper edge");
        assert_eq!(h.quantile(0.99), 128.0, "p99 lands in the 100.0 bucket");
        assert_eq!(h.quantile(1.0), 1000.0, "q=1 clamps to max");
        // A single observation: every quantile is that value.
        let mut one = Histogram::default();
        one.record(3.0);
        assert_eq!(one.quantile(0.5), 3.0);
    }

    #[test]
    fn quantile_rejects_non_finite_and_out_of_range_q() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        // A q that is not a probability is answered with NaN, never with a
        // silently clamped bucket walk.
        assert!(h.quantile(f64::NAN).is_nan());
        assert!(h.quantile(-0.1).is_nan());
        assert!(h.quantile(1.1).is_nan());
        assert!(h.quantile(f64::INFINITY).is_nan());
        assert!(h.quantile(f64::NEG_INFINITY).is_nan());
        // Valid extremes still work exactly as before.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 8.0);
        // An empty histogram is NaN for every q, valid or not.
        let empty = Histogram::default();
        assert!(empty.quantile(0.5).is_nan());
        assert!(empty.quantile(-0.1).is_nan());
    }

    #[test]
    fn bucket_boundaries_are_increasing_and_cover_the_clamp() {
        use crate::metrics::BUCKETS;
        assert_eq!(Histogram::bucket_upper(32), 2.0, "bucket 32 covers [1, 2)");
        assert_eq!(Histogram::bucket_upper(33), 4.0);
        assert_eq!(Histogram::bucket_upper(BUCKETS - 1), f64::INFINITY);
        for i in 1..BUCKETS {
            assert!(
                Histogram::bucket_upper(i - 1) < Histogram::bucket_upper(i),
                "boundaries must be strictly increasing at {i}"
            );
        }
        // Every recorded value lands in a bucket whose boundary covers it.
        for v in [1e-12, 0.3, 1.0, 1.9999, 1e9, 1e300] {
            let b = Histogram::bucket_for(v);
            assert!(
                v <= Histogram::bucket_upper(b),
                "v={v} above its bucket {b} boundary"
            );
        }
    }

    #[test]
    fn snapshot_iterates_in_deterministic_name_order() {
        let rec = Recorder::with_sink(Arc::new(MemorySink::new(4)));
        rec.add("zeta", 1);
        rec.gauge("alpha", 2.0);
        rec.observe("mid", 3.0);
        let snap = rec.snapshot();
        assert_eq!(snap.iter().count(), 3);
        assert!(!snap.is_empty());
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        // A disabled recorder's snapshot is the empty table.
        assert!(Recorder::disabled().snapshot().is_empty());
    }

    #[test]
    fn jsonl_sink_explicit_flush_persists_tail_before_kill() {
        let path = std::env::temp_dir().join(format!(
            "tranad-telemetry-flush-{}.jsonl",
            std::process::id()
        ));
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let rec = Recorder::with_sink(sink.clone());
        rec.emit("serve.batch", |e| {
            e.u64("points", 3);
        });
        rec.emit("serve.batch", |e| {
            e.u64("points", 4);
        });
        // The pre-kill flush: everything recorded so far must already be
        // readable on disk while the sink is still alive (no reliance on
        // Drop — a SIGKILL'd process never runs it).
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "tail events lost without drop");
        for line in text.lines() {
            tranad_json::parse(line).expect("flushed line is whole, not torn");
        }
        drop(rec);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_zero_cap_clamps_to_one_and_wraps() {
        let sink = Arc::new(MemorySink::new(0));
        let rec = Recorder::with_sink(sink.clone());
        rec.emit("first", |_| {});
        assert_eq!(sink.len(), 1, "cap 0 must clamp to 1, not retain nothing");
        rec.emit("second", |_| {});
        rec.emit("third", |_| {});
        let events = sink.events();
        assert_eq!(events.len(), 1, "ring must never exceed the clamped cap");
        assert_eq!(events[0].name, "third", "oldest events must be evicted");
    }

    #[test]
    fn memory_sink_ring_wraps_many_times() {
        let sink = Arc::new(MemorySink::new(3));
        let rec = Recorder::with_sink(sink.clone());
        for i in 0..10 {
            rec.emit("e", |e| {
                e.u64("i", i);
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        let kept: Vec<u64> = events.iter().map(|e| e.get_u64("i").unwrap()).collect();
        assert_eq!(
            kept,
            vec![7, 8, 9],
            "ring must keep exactly the newest events in order"
        );
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let sink = Arc::new(MemorySink::new(16));
        let rec = Recorder::with_sink_faketime(sink.clone());
        {
            let _scope = rec.span_scope();
            let _outer = span::enter("outer");
            {
                let _inner = span::enter("inner");
            }
            let _sibling = span::enter("sibling");
        }
        let spans = sink.named("span");
        assert_eq!(spans.len(), 3);
        // Drop order: inner closes first, then sibling, then outer.
        let inner = &spans[0];
        let sibling = &spans[1];
        let outer = &spans[2];
        assert_eq!(inner.get_str("name"), Some("inner"));
        assert_eq!(outer.get_str("name"), Some("outer"));
        assert_eq!(outer.get_u64("parent"), Some(0), "outer is a root span");
        assert_eq!(outer.get_u64("depth"), Some(0));
        assert_eq!(inner.get_u64("parent"), outer.get_u64("id"));
        assert_eq!(inner.get_u64("depth"), Some(1));
        assert_eq!(sibling.get_u64("parent"), outer.get_u64("id"));
        assert!(
            inner.get_f64("dur_us").unwrap() > 0.0,
            "faketime still orders start < end"
        );
    }

    #[test]
    fn spans_without_installed_recorder_are_inert() {
        // With nothing installed, spans go to `global()`: inert unless
        // TRANAD_TRACE is set.
        let g = span::enter("nothing");
        assert_eq!(g.is_recording(), global().enabled());
        drop(g);
        // A disabled recorder's scope records nothing, whatever `global()` is.
        let rec = Recorder::disabled();
        let _scope = rec.span_scope();
        assert!(!span::active());
        assert!(!span::enter("still.nothing").is_recording());
    }

    #[test]
    fn current_is_the_installed_recorder_else_global() {
        assert_eq!(current().enabled(), global().enabled());
        let sink = Arc::new(MemorySink::new(16));
        let rec = Recorder::with_sink(sink.clone());
        {
            let _scope = rec.span_scope();
            current().emit("installed", |_| {});
            {
                // An installed disabled recorder silences its scope instead
                // of falling back to the outer one or to `global()`.
                let _off = Recorder::disabled().span_scope();
                assert!(!current().enabled());
                current().emit("silenced", |_| {});
            }
            // Pool tasks run suppressed: nothing records inside them.
            span::suppressed(|| current().emit("in.task", |_| {}));
            current().emit("restored", |_| {});
        }
        assert_eq!(current().enabled(), global().enabled());
        let names: Vec<&str> = sink.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["installed", "restored"]);
    }

    #[test]
    fn span_scope_restores_previous_recorder() {
        let sink_a = Arc::new(MemorySink::new(8));
        let sink_b = Arc::new(MemorySink::new(8));
        let rec_a = Recorder::with_sink(sink_a.clone());
        let rec_b = Recorder::with_sink(sink_b.clone());
        let _outer = rec_a.span_scope();
        {
            let _inner = rec_b.span_scope();
            drop(span::enter("to.b"));
        }
        drop(span::enter("to.a"));
        assert_eq!(sink_b.named("span").len(), 1);
        assert_eq!(sink_a.named("span").len(), 1);
        assert_eq!(sink_a.named("span")[0].get_str("name"), Some("to.a"));
    }

    #[test]
    fn suppressed_spans_emit_nothing() {
        let sink = Arc::new(MemorySink::new(8));
        let rec = Recorder::with_sink(sink.clone());
        let _scope = rec.span_scope();
        let out = span::suppressed(|| {
            assert!(!span::active());
            drop(span::enter("silent"));
            span::suppressed(|| drop(span::enter("nested.silent")));
            7
        });
        assert_eq!(out, 7);
        assert!(span::active(), "suppression must end with the closure");
        assert!(sink.named("span").is_empty());
    }

    #[test]
    fn faketime_clock_is_deterministic() {
        let run = || {
            let sink = Arc::new(MemorySink::new(16));
            let rec = Recorder::with_sink_faketime(sink.clone());
            let _scope = rec.span_scope();
            drop(span::enter("a"));
            rec.emit("plain", |_| {});
            drop(span::enter("b"));
            sink.events()
                .iter()
                .map(|e| (e.name, e.time_s, e.get_f64("dur_us")))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(
            first,
            run(),
            "fake clocks must make identical runs byte-identical"
        );
        assert!(
            first.windows(2).all(|w| w[0].1 < w[1].1),
            "fake time is strictly monotonic"
        );
    }

    #[test]
    fn snapshot_exposes_metrics_programmatically() {
        let rec = Recorder::with_sink(Arc::new(MemorySink::new(4)));
        rec.add("jobs", 2);
        rec.observe("ms", 8.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("jobs"), Some(2));
        let h = snap.histogram("ms").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 8.0);
    }
}
