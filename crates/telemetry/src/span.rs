//! Hierarchical spans: RAII guards over an implicit thread-local stack.
//!
//! A span is one timed region with a static name. Nesting is implicit:
//! [`enter`] reads the current `(span id, depth)` from a thread-local
//! cell, stamps the new span's parent from it, and the returned
//! [`SpanGuard`] restores it on drop — so the "stack" is the Rust scope
//! structure itself, with no `Vec`, no allocation, and no bookkeeping
//! beyond one `Cell` swap per span.
//!
//! ## Wiring
//!
//! Spans, like every other event and metric, report to [`current`]: the
//! recorder installed on this thread by [`Recorder::span_scope`], else the
//! process-global one. No signature threads a `&Recorder` through. With a
//! disabled recorder, [`enter`] is a few thread-local reads and a branch:
//! zero allocation, zero events, which is what keeps the bench-alloc
//! budget green.
//!
//! ## Determinism under the thread pool
//!
//! Nothing records inside a pool task: workers run their whole loop under
//! [`suppressed`], and the submitting thread wraps its share of the tasks
//! in it too, so [`current`] is the disabled recorder there. Every span is
//! therefore emitted serially from the orchestrating thread, in an order
//! fixed by program structure — a trace taken at `TRANAD_THREADS=8`
//! contains the same spans as one taken at 1 thread, preserving the pool's
//! bitwise-determinism guarantee (asserted in
//! `crates/tranad/tests/determinism.rs`).
//!
//! ## Event shape
//!
//! Each completed span is one `"span"` event: `name`, `id` (1-based,
//! per-recorder), `parent` (0 for roots), `depth`, `start` (seconds on the
//! recorder clock) and `dur_us`. Complete-events (rather than begin/end
//! pairs) halve trace volume and make every line self-contained for
//! `trace-report`.

use std::cell::{Cell, RefCell};

use crate::recorder::{global, Recorder};

thread_local! {
    /// The recorder installed on this thread by [`SpanScope`]. `None` (the
    /// default) means nothing is installed and [`current`] falls back to
    /// [`global`]; an installed disabled recorder silences the scope.
    static INSTALLED: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Head of the implicit span stack: (current span id, depth).
    /// `(0, 0)` means "at the root".
    static CURRENT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    /// Non-zero while span emission is suppressed (inside pool tasks).
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// Installs `rec` on the current thread; [`SpanScope`] restores the
/// previous one. Reached through [`Recorder::span_scope`].
pub(crate) fn install(rec: &Recorder) -> SpanScope {
    let prev = INSTALLED.with(|r| r.replace(Some(rec.clone())));
    SpanScope { prev }
}

/// RAII handle for an installed recorder (see [`Recorder::span_scope`]).
/// Restores the previously installed recorder when dropped, so scopes
/// nest.
pub struct SpanScope {
    prev: Option<Recorder>,
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        INSTALLED.with(|r| *r.borrow_mut() = prev);
    }
}

/// The recorder instrumentation on this thread reports to: the disabled
/// recorder inside [`suppressed`] (pool tasks), else the one installed by
/// [`Recorder::span_scope`] — even a disabled one — else [`global`].
pub fn current() -> Recorder {
    if SUPPRESS.with(|s| s.get()) != 0 {
        return Recorder::disabled();
    }
    INSTALLED.with(|r| r.borrow().as_ref().unwrap_or_else(|| global()).clone())
}

/// `true` when a span entered right now would actually be recorded. Lets
/// callers skip work that only feeds span fields (e.g. gauge reads).
pub fn active() -> bool {
    current().enabled()
}

/// Opens a span named `name` on [`current`]. The returned guard emits one
/// `"span"` event when dropped; nested [`enter`] calls in between become
/// its children. When the current recorder is disabled — or inside
/// [`suppressed`] — this is a branch and returns an inert guard.
pub fn enter(name: &'static str) -> SpanGuard {
    let rec = current();
    if !rec.enabled() {
        return SpanGuard { live: None };
    }
    let (parent, depth) = CURRENT.with(|c| c.get());
    let id = rec.next_span_id();
    CURRENT.with(|c| c.set((id, depth + 1)));
    let start_s = rec.now_s();
    SpanGuard {
        live: Some(LiveSpan {
            rec,
            name,
            id,
            parent,
            depth,
            start_s,
        }),
    }
}

/// Runs `f` with all recording suppressed on this thread: [`current`] is
/// the disabled recorder until `f` returns. The thread pool runs every task
/// this way: per-task events would differ between serial and parallel
/// schedules (and race on emission), so tasks run silent and the
/// submitting thread reports one span per region.
pub fn suppressed<R>(f: impl FnOnce() -> R) -> R {
    struct Undo;
    impl Drop for Undo {
        fn drop(&mut self) {
            SUPPRESS.with(|s| s.set(s.get() - 1));
        }
    }
    SUPPRESS.with(|s| s.set(s.get() + 1));
    let _undo = Undo;
    f()
}

struct LiveSpan {
    rec: Recorder,
    name: &'static str,
    id: u64,
    parent: u64,
    depth: u32,
    start_s: f64,
}

/// RAII span handle from [`enter`]. Dropping it closes the span: the
/// thread's stack head is restored and one complete-event is emitted.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// `true` when this guard will emit an event on drop.
    #[cfg(test)]
    pub(crate) fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        CURRENT.with(|c| c.set((live.parent, live.depth)));
        let dur_us = (live.rec.now_s() - live.start_s) * 1e6;
        live.rec.emit("span", |e| {
            e.str("name", live.name)
                .u64("id", live.id)
                .u64("parent", live.parent)
                .u64("depth", live.depth as u64)
                .f64("start", live.start_s)
                .f64("dur_us", dur_us);
        });
    }
}
