//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates. Nothing inside the program is instrumented: a span
//! times one public call (or a group of them) from the outside.
//!
//! A span has a name, a start, an end, the span that caused it and, for
//! spans that belong to one pushed point, the point's `(stream, seq)` key.
//! Spans stay in memory and are summarised when the run ends.

use crate::clock::now;
use std::collections::BTreeMap;

/// Index of a recorded span. `SpanId::NONE` is returned while tracing is
/// off and is accepted (and ignored) everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span: a root's parent, or every id while tracing is off.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded interval, in seconds since the process clock's base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name: the text before the first `.` is the layer.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: SpanId,
    /// `(stream, seq)` of the pushed point the span belongs to.
    pub key: Option<(u32, u64)>,
}

/// Upper bound on retained spans, so a long traced run stays small;
/// spans past it are counted but not kept.
const MAX_SPANS: usize = 2_000_000;

/// Span recorder. Disabled, every call is a branch and nothing more.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.open_at(name, parent, None, now())
    }

    /// Opens a span with an explicit start (an open-loop point starts when
    /// it was due, not when the generator got round to it).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        key: Option<(u32, u64)>,
        start: f64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            key,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, now());
    }

    pub fn close_at(&mut self, id: SpanId, end: f64) {
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end = end;
        }
    }

    /// Sets the key of an open span.
    pub fn set_key(&mut self, id: SpanId, key: (u32, u64)) {
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.key = Some(key);
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as one tab-separated line: id, name, start and
    /// end in seconds, parent id (empty for a root), stream and seq (empty
    /// without a key).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_s\tend_s\tparent\tstream\tseq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                String::new()
            } else {
                s.parent.0.to_string()
            };
            let (stream, seq) = s.key.map_or((String::new(), String::new()), |(a, b)| {
                (a.to_string(), b.to_string())
            });
            writeln!(
                w,
                "{i}\t{}\t{:.9}\t{:.9}\t{parent}\t{stream}\t{seq}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total: f64,
    pub self_time: f64,
}

/// Per-name count, total and self time of closed spans. A span's self time
/// is its duration minus the part of it that its children cover (the union
/// of their intervals, clipped to the span, so overlapping children are not
/// subtracted twice).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(list) = children.get_mut(s.parent.0 as usize) {
            list.push(i);
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end.is_nan() || s.end < s.start {
            continue; // never closed
        }
        let intervals: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| &spans[c])
            .filter(|c| c.end >= c.start)
            .map(|c| (c.start, c.end))
            .collect();
        let duration = s.end - s.start;
        let stats = out.entry(s.name).or_default();
        stats.count += 1;
        stats.total += duration;
        stats.self_time += duration - covered(s.start, s.end, intervals);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The layer a span name belongs to: the text before its first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            key: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("a.root", 0.0, 10.0, SpanId::NONE),
            span("b.child", 1.0, 3.0, SpanId(0)),
            span("b.child", 5.0, 6.0, SpanId(0)),
            span("c.grandchild", 1.5, 2.5, SpanId(1)),
        ];
        let s = summarize(&spans);
        assert_eq!(
            s["a.root"],
            SpanStats {
                count: 1,
                total: 10.0,
                self_time: 7.0
            }
        );
        assert_eq!(
            s["b.child"],
            SpanStats {
                count: 2,
                total: 3.0,
                self_time: 2.0
            }
        );
        assert_eq!(
            s["c.grandchild"],
            SpanStats {
                count: 1,
                total: 1.0,
                self_time: 1.0
            }
        );
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("a.root", 0.0, 10.0, SpanId::NONE),
            span("b.x", 2.0, 6.0, SpanId(0)),
            span("b.y", 4.0, 8.0, SpanId(0)),
            // A child running past its parent's end is clipped.
            span("b.z", 9.0, 12.0, SpanId(0)),
        ];
        assert_eq!(summarize(&spans)["a.root"].self_time, 10.0 - 6.0 - 1.0);
        assert_eq!(covered(0.0, 10.0, vec![(2.0, 6.0), (4.0, 8.0)]), 6.0);
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
    }

    #[test]
    fn unclosed_spans_are_skipped() {
        let spans = vec![span("a.open", 1.0, f64::NAN, SpanId::NONE)];
        assert!(summarize(&spans).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a.x", SpanId::NONE);
        assert_eq!(id, SpanId::NONE);
        t.close(id);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let id = t.open("a.x", SpanId::NONE);
        t.close(id);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(layer_of("serve.push"), "serve");
    }
}
