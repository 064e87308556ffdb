//! Trace analysis for span-instrumented JSONL traces: per-phase/per-op
//! attribution tables, Chrome trace-event (Perfetto) export, self-contained
//! flamegraph SVGs, and perf-budget gating for CI.
//!
//! The input is the JSONL a [`tranad_telemetry::JsonlSink`] writes with
//! spans enabled: every `"span"` event is one completed region with `name`,
//! `id`, `parent` (0 for roots), `depth`, `start` (seconds) and `dur_us`.
//! Spans are emitted on guard *drop*, so children precede their parents in
//! the file; analysis therefore indexes the whole trace before attributing
//! time.
//!
//! Everything here is pure string/number processing on already-recorded
//! traces — no timers, no recorder, no filesystem access (the `trace-report`
//! binary owns I/O), so it is deterministic and unit-testable on fixtures.

use std::collections::BTreeMap;

use tranad_json::{Json, JsonError};
use tranad_telemetry::Histogram;

/// One completed span parsed back from a trace line.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Static span name (`op.matmul`, `train.step`, ...).
    pub name: String,
    /// 1-based per-recorder span id.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Nesting depth (0 for roots).
    pub depth: u64,
    /// Start time, seconds on the recorder clock.
    pub start_s: f64,
    /// Wall-clock duration in microseconds.
    pub dur_us: f64,
}

/// A parsed trace: the spans plus a count of every non-span event family
/// (kept so reports can mention how much other telemetry rode along).
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans in file (i.e. completion) order.
    pub spans: Vec<SpanRec>,
    /// Non-span event counts keyed by event name.
    pub other_events: BTreeMap<String, usize>,
}

/// Parses a JSONL trace. Fails on the first malformed line or span event
/// with missing fields; a trace that cannot be parsed completely should not
/// gate CI silently.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = tranad_json::parse(line)
            .map_err(|e| format!("line {}: malformed JSON: {e:?}", lineno + 1))?;
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing event name", lineno + 1))?;
        if event != "span" {
            *trace.other_events.entry(event.to_string()).or_insert(0) += 1;
            continue;
        }
        let field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("line {}: span missing numeric {key:?}", lineno + 1))
        };
        trace.spans.push(SpanRec {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: span missing name", lineno + 1))?
                .to_string(),
            id: field("id")? as u64,
            parent: field("parent")? as u64,
            depth: field("depth")? as u64,
            start_s: field("start")?,
            dur_us: field("dur_us")?,
        });
    }
    Ok(trace)
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total (cumulative) time across all spans, microseconds.
    pub total_us: f64,
    /// Self time: cumulative minus time spent in direct children.
    pub self_us: f64,
    /// Mean span duration, microseconds.
    pub mean_us: f64,
    /// Median span duration (log2-bucket estimate), microseconds.
    pub p50_us: f64,
    /// 99th-percentile span duration (log2-bucket estimate), microseconds.
    pub p99_us: f64,
}

/// Per-phase rollup: a phase is a *root* span name, and its row aggregates
/// the cumulative time of all root spans with that name.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Root span name (`train.run`, `detect.run`, ...).
    pub name: String,
    /// Number of root spans with this name.
    pub count: u64,
    /// Total time under these roots, microseconds.
    pub total_us: f64,
    /// Number of descendant spans (the roots themselves excluded).
    pub spans: u64,
}

/// The full analysis of one trace.
#[derive(Debug)]
pub struct Report {
    /// Per-op rows, sorted by total time descending.
    pub ops: Vec<OpStats>,
    /// Per-phase rows (root spans), sorted by total time descending.
    pub phases: Vec<PhaseStats>,
    /// Total span count.
    pub span_count: usize,
    /// Non-span event count.
    pub other_event_count: usize,
}

/// Analyzes a parsed trace: computes self time from the parent links, then
/// aggregates per name (ops) and per root name (phases).
pub fn analyze(trace: &Trace) -> Report {
    // id -> index, then subtract each span's duration from its parent's
    // remaining self time.
    let mut by_id = BTreeMap::<u64, usize>::new();
    for (i, s) in trace.spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut self_us: Vec<f64> = trace.spans.iter().map(|s| s.dur_us).collect();
    let mut root_of: Vec<usize> = (0..trace.spans.len()).collect();
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent != 0 {
            if let Some(&p) = by_id.get(&s.parent) {
                self_us[p] -= s.dur_us;
            }
        }
        // Resolve the root ancestor; parents complete after children, so
        // chains can be walked through the id map in one pass per span.
        let mut cur = i;
        while trace.spans[cur].parent != 0 {
            match by_id.get(&trace.spans[cur].parent) {
                Some(&p) => cur = p,
                None => break, // orphan: its opener outlived the trace
            }
        }
        root_of[i] = cur;
    }

    struct Acc {
        count: u64,
        total_us: f64,
        self_us: f64,
        hist: Histogram,
    }
    let mut ops = BTreeMap::<&str, Acc>::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let acc = ops.entry(&s.name).or_insert_with(|| Acc {
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
            hist: Histogram::default(),
        });
        acc.count += 1;
        acc.total_us += s.dur_us;
        // Clamped at zero: overlapping child spans (which the span model
        // does not produce) or clock quantization must not go negative.
        acc.self_us += self_us[i].max(0.0);
        acc.hist.record(s.dur_us);
    }
    let mut op_rows: Vec<OpStats> = ops
        .into_iter()
        .map(|(name, a)| OpStats {
            name: name.to_string(),
            count: a.count,
            total_us: a.total_us,
            self_us: a.self_us,
            mean_us: a.total_us / a.count.max(1) as f64,
            p50_us: a.hist.quantile(0.5),
            p99_us: a.hist.quantile(0.99),
        })
        .collect();
    op_rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.name.cmp(&b.name)));

    let mut phases = BTreeMap::<&str, PhaseStats>::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let root = &trace.spans[root_of[i]];
        let row = phases.entry(&root.name).or_insert_with(|| PhaseStats {
            name: root.name.clone(),
            count: 0,
            total_us: 0.0,
            spans: 0,
        });
        if root_of[i] == i {
            row.count += 1;
            row.total_us += s.dur_us;
        } else {
            row.spans += 1;
        }
    }
    let mut phase_rows: Vec<PhaseStats> = phases.into_values().collect();
    phase_rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.name.cmp(&b.name)));

    Report {
        ops: op_rows,
        phases: phase_rows,
        span_count: trace.spans.len(),
        other_event_count: trace.other_events.values().sum(),
    }
}

/// Renders the report as a fixed-width text table (per-phase summary, then
/// the per-op attribution table).
pub fn render_table(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} spans, {} other events\n\n",
        report.span_count, report.other_event_count
    ));
    out.push_str("phases (root spans)\n");
    out.push_str(&format!(
        "{:<24} {:>8} {:>12} {:>10}\n",
        "phase", "count", "total_ms", "spans"
    ));
    for p in &report.phases {
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.3} {:>10}\n",
            p.name,
            p.count,
            p.total_us / 1e3,
            p.spans
        ));
    }
    out.push_str("\nper-op attribution\n");
    out.push_str(&format!(
        "{:<24} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
        "span", "count", "total_ms", "self_ms", "mean_us", "p50_us", "p99_us"
    ));
    for o in &report.ops {
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>10.1} {:>10.1}\n",
            o.name,
            o.count,
            o.total_us / 1e3,
            o.self_us / 1e3,
            o.mean_us,
            o.p50_us,
            o.p99_us
        ));
    }
    out
}

/// Converts the trace to Chrome trace-event JSON (the `traceEvents` array
/// form), loadable in Perfetto / `chrome://tracing`. Every span becomes one
/// complete (`"ph": "X"`) event with microsecond `ts`/`dur`.
pub fn to_chrome_trace(trace: &Trace) -> Json {
    let events: Vec<Json> = trace
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start_s * 1e6)),
                ("dur", Json::Num(s.dur_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("depth", Json::Num(s.depth as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

/// A node of the merged flamegraph call tree: spans sharing the same
/// name-path are folded together.
struct FlameNode {
    total_us: f64,
    count: u64,
    children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    fn new() -> Self {
        FlameNode {
            total_us: 0.0,
            count: 0,
            children: BTreeMap::new(),
        }
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Renders the trace as a self-contained flamegraph SVG: one rect per
/// name-path in the merged call tree, width proportional to cumulative
/// time, `<title>` tooltips with exact numbers. No external scripts or
/// fonts, so the file works offline in any browser.
pub fn to_flamegraph_svg(trace: &Trace) -> String {
    // Build each span's name-path by walking the parent chain, then fold
    // identical paths into one tree.
    let mut by_id = BTreeMap::<u64, usize>::new();
    for (i, s) in trace.spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut root = FlameNode::new();
    for s in &trace.spans {
        let mut path = vec![s.name.as_str()];
        let mut cur = s;
        while cur.parent != 0 {
            match by_id.get(&cur.parent) {
                Some(&p) => {
                    cur = &trace.spans[p];
                    path.push(cur.name.as_str());
                }
                None => break,
            }
        }
        path.reverse();
        let mut node = &mut root;
        for name in path {
            node = node
                .children
                .entry(name.to_string())
                .or_insert_with(FlameNode::new);
        }
        node.total_us += s.dur_us;
        node.count += 1;
    }
    // Only leaf contributions widen a node; propagate so every parent is at
    // least as wide as its children (folded spans keep their own time too).
    fn rollup(node: &mut FlameNode) -> f64 {
        let child_sum: f64 = node.children.values_mut().map(rollup).sum();
        node.total_us = node.total_us.max(child_sum);
        node.total_us
    }
    let grand_total: f64 = root
        .children
        .values_mut()
        .map(rollup)
        .sum::<f64>()
        .max(1e-9);

    const WIDTH: f64 = 1200.0;
    const ROW: f64 = 18.0;
    const PAD: f64 = 2.0;
    let levels = root.depth().saturating_sub(1).max(1);
    let height = ROW * levels as f64 + 2.0 * PAD + 20.0;

    let mut rects = String::new();
    fn color(name: &str) -> String {
        // Deterministic warm palette from a simple string hash.
        let mut h = 2166136261u32;
        for b in name.bytes() {
            h = (h ^ b as u32).wrapping_mul(16777619);
        }
        let r = 200 + h % 56;
        let g = 80 + (h >> 8) % 120;
        let b = 30 + (h >> 16) % 50;
        format!("rgb({r},{g},{b})")
    }
    fn escape(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
    }
    #[allow(clippy::too_many_arguments)]
    fn draw(
        node: &FlameNode,
        name: &str,
        x: f64,
        y: f64,
        width: f64,
        out: &mut String,
        scale: f64,
    ) {
        if width < 0.5 {
            return;
        }
        let label = if width > 60.0 {
            escape(name)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "<g><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" height=\"16\" \
             fill=\"{}\" rx=\"2\"><title>{}: {:.1} us ({} spans)</title></rect>\
             <text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" font-family=\"monospace\" \
             fill=\"#000\">{label}</text></g>\n",
            color(name),
            escape(name),
            node.total_us,
            node.count,
            x + 3.0,
            y + 12.0,
        ));
        let mut cx = x;
        for (cname, child) in &node.children {
            let cw = child.total_us * scale;
            draw(
                child,
                cname,
                cx,
                y + 18.0,
                cw.min(x + width - cx),
                out,
                scale,
            );
            cx += cw;
        }
    }
    let scale = (WIDTH - 2.0 * PAD) / grand_total;
    let mut x = PAD;
    for (name, node) in &root.children {
        let w = node.total_us * scale;
        draw(node, name, x, PAD + 20.0, w, &mut rects, scale);
        x += w;
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6e3\"/>\n\
         <text x=\"{PAD}\" y=\"14\" font-size=\"12\" font-family=\"monospace\">\
         flamegraph: {} spans, {:.1} ms total</text>\n{rects}</svg>\n",
        trace.spans.len(),
        grand_total / 1e3,
    )
}

/// One per-span perf-budget rule.
#[derive(Debug, Clone)]
pub struct BudgetRule {
    /// Span name the rule applies to.
    pub span: String,
    /// Minimum completed-span count: catches silently missing
    /// instrumentation, so the gate cannot pass vacuously.
    pub min_count: u64,
    /// Ceiling on the mean span duration, microseconds (absent = unchecked).
    pub max_mean_us: Option<f64>,
    /// Ceiling on the cumulative time, seconds (absent = unchecked).
    pub max_total_s: Option<f64>,
}

/// Parses `results/perf_budget.json`: `{"budgets": [{"span": ...,
/// "min_count": ..., "max_mean_us": ..., "max_total_s": ...}, ...]}`.
pub fn parse_budget(text: &str) -> Result<Vec<BudgetRule>, JsonError> {
    let v = tranad_json::parse(text)?;
    let rules = v
        .req("budgets")?
        .as_array()
        .ok_or_else(|| JsonError::new("budgets must be an array"))?;
    rules
        .iter()
        .map(|r| {
            Ok(BudgetRule {
                span: r
                    .req("span")?
                    .as_str()
                    .ok_or_else(|| JsonError::new("span must be a string"))?
                    .to_string(),
                min_count: r.get("min_count").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                max_mean_us: r.get("max_mean_us").and_then(Json::as_f64),
                max_total_s: r.get("max_total_s").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Checks the report against the budget. Returns one human-readable
/// violation per broken rule; empty means the gate passes.
pub fn check_budget(report: &Report, rules: &[BudgetRule]) -> Vec<String> {
    let mut violations = Vec::new();
    for rule in rules {
        let Some(op) = report.ops.iter().find(|o| o.name == rule.span) else {
            if rule.min_count > 0 {
                violations.push(format!(
                    "{}: no spans recorded (budget requires >= {})",
                    rule.span, rule.min_count
                ));
            }
            continue;
        };
        if op.count < rule.min_count {
            violations.push(format!(
                "{}: {} spans recorded, budget requires >= {}",
                rule.span, op.count, rule.min_count
            ));
        }
        if let Some(max) = rule.max_mean_us {
            if op.mean_us > max {
                violations.push(format!(
                    "{}: mean {:.1} us exceeds budget {:.1} us",
                    rule.span, op.mean_us, max
                ));
            }
        }
        if let Some(max) = rule.max_total_s {
            let total_s = op.total_us / 1e6;
            if total_s > max {
                violations.push(format!(
                    "{}: total {:.3} s exceeds budget {:.3} s",
                    rule.span, total_s, max
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, id: u64, parent: u64, depth: u64, start: f64, dur: f64) -> String {
        format!(
            r#"{{"t":{start},"event":"span","name":"{name}","id":{id},"parent":{parent},"depth":{depth},"start":{start},"dur_us":{dur}}}"#
        )
    }

    fn fixture() -> Trace {
        // train.run(1000us) -> train.step(600us) -> op.matmul(2 x 100us)
        // plus an unrelated root detect.run(300us).
        let lines = [
            span_line("op.matmul", 3, 2, 2, 0.0001, 100.0),
            span_line("op.matmul", 4, 2, 2, 0.0003, 100.0),
            span_line("train.step", 2, 1, 1, 0.0001, 600.0),
            span_line("train.run", 1, 0, 0, 0.0, 1000.0),
            span_line("detect.run", 5, 0, 0, 0.002, 300.0),
            r#"{"t":1.0,"event":"train.epoch","epoch":0}"#.to_string(),
        ]
        .join("\n");
        parse_trace(&lines).unwrap()
    }

    #[test]
    fn parse_splits_spans_from_other_events() {
        let t = fixture();
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.other_events.get("train.epoch"), Some(&1));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let r = analyze(&fixture());
        let step = r.ops.iter().find(|o| o.name == "train.step").unwrap();
        assert_eq!(step.total_us, 600.0);
        assert_eq!(step.self_us, 400.0); // 600 - 2 x 100
        let run = r.ops.iter().find(|o| o.name == "train.run").unwrap();
        assert_eq!(run.self_us, 400.0); // 1000 - 600
        let mm = r.ops.iter().find(|o| o.name == "op.matmul").unwrap();
        assert_eq!(mm.count, 2);
        assert_eq!(mm.self_us, 200.0);
    }

    #[test]
    fn phases_aggregate_by_root() {
        let r = analyze(&fixture());
        assert_eq!(r.phases[0].name, "train.run");
        assert_eq!(r.phases[0].total_us, 1000.0);
        assert_eq!(r.phases[0].spans, 3); // step + 2 matmuls
        assert!(r
            .phases
            .iter()
            .any(|p| p.name == "detect.run" && p.spans == 0));
    }

    #[test]
    fn budget_catches_missing_and_slow_spans() {
        let r = analyze(&fixture());
        let rules = parse_budget(
            r#"{"budgets": [
                {"span": "op.matmul", "min_count": 2, "max_mean_us": 1000.0},
                {"span": "train.step", "min_count": 1, "max_mean_us": 10.0},
                {"span": "op.missing", "min_count": 1}
            ]}"#,
        )
        .unwrap();
        let violations = check_budget(&r, &rules);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("train.step")));
        assert!(violations.iter().any(|v| v.contains("op.missing")));
    }
}
