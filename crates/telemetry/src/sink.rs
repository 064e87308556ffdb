//! Event sinks: where finished [`Event`]s go.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;

/// Receives finished events. Implementations must be `Send + Sync`: one
/// recorder serves every thread that installs it or falls back to
/// [`crate::global`].
pub trait EventSink: Send + Sync {
    /// Accepts one event. Must not panic on I/O trouble (drop instead):
    /// telemetry failures must never take down a training run.
    fn record(&self, event: Event);

    /// Flushes any buffered output. Default: nothing to do.
    fn flush(&self) {}
}

/// Bounded in-memory ring buffer. When full, the oldest event is evicted.
/// Intended for tests and interactive inspection.
pub struct MemorySink {
    cap: usize,
    events: Mutex<VecDeque<Event>>,
}

impl MemorySink {
    /// A ring that retains at most `cap` events (`cap` is clamped to 1+).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        MemorySink {
            cap,
            events: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        crate::lock(&self.events).iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        crate::lock(&self.events).len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained events with the given name, oldest first.
    pub fn named(&self, name: &str) -> Vec<Event> {
        crate::lock(&self.events)
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: Event) {
        let mut q = crate::lock(&self.events);
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(event);
    }
}

/// Writes one JSON object per line through `tranad-json`. Each line is
/// flushed as it is written: the process-global recorder is a static that
/// never drops, so buffering would silently lose the tail of every
/// `TRANAD_TRACE` run that forgets to flush. The cost is one small write
/// syscall per event — acceptable even at span rates (per tape-op),
/// because tracing is an opt-in diagnostic mode, never the default path.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Explicitly flushes buffered lines to disk. Callers that own the
    /// sink (rather than going through a `dyn EventSink`) can call this at
    /// durability boundaries — e.g. a serving engine flushes between
    /// batches so a kill right after a batch loses no tail events. The
    /// sink also flushes per record and on drop, so this is the belt to
    /// those suspenders: it stays correct even if per-record flushing is
    /// ever relaxed for throughput.
    pub(crate) fn flush(&self) {
        let _ = crate::lock(&self.writer).flush();
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: Event) {
        let line = event.to_json().to_string();
        let mut w = crate::lock(&self.writer);
        // Telemetry never aborts the run: I/O errors drop the event.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    fn flush(&self) {
        JsonlSink::flush(self);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = crate::lock(&self.writer).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memory_sink_recovers_a_poisoned_lock() {
        let sink = Arc::new(MemorySink::new(4));
        let holder = sink.clone();
        let poisoned = std::thread::spawn(move || {
            let _guard = holder.events.lock().unwrap();
            panic!("poison the event ring");
        })
        .join();
        assert!(poisoned.is_err() && sink.events.is_poisoned());
        sink.record(crate::EventBuilder::new("after", 0.0).finish());
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.named("after").len(), 1);
    }
}
