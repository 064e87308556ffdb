//! `trace-report`: analyzes a span-instrumented JSONL trace.
//!
//! ```text
//! trace-report <trace.jsonl> [--table <out|->] [--chrome <out.json>]
//!              [--flamegraph <out.svg>] [--check <budget.json>]
//! ```
//!
//! With no output flags the per-phase/per-op table prints to stdout.
//! `--chrome` writes Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing`), `--flamegraph` a self-contained SVG. `--check`
//! verifies the trace against a perf-budget file and exits non-zero on any
//! violation, which is how `scripts/verify.sh` gates regressions.

use tranad_bench::trace_report::{
    analyze, check_budget, parse_budget, parse_trace, render_table, to_chrome_trace,
    to_flamegraph_svg,
};

fn usage() -> ! {
    eprintln!(
        "usage: trace-report <trace.jsonl> [--table <out|->] [--chrome <out.json>] \
         [--flamegraph <out.svg>] [--check <budget.json>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut table_out = None;
    let mut chrome_out = None;
    let mut flame_out = None;
    let mut budget_path = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--table" => table_out = Some(value("--table")),
            "--chrome" => chrome_out = Some(value("--chrome")),
            "--flamegraph" => flame_out = Some(value("--flamegraph")),
            "--check" => budget_path = Some(value("--check")),
            "--help" | "-h" => usage(),
            _ if trace_path.is_none() && !arg.starts_with("--") => {
                trace_path = Some(arg.clone());
            }
            _ => usage(),
        }
    }
    let Some(trace_path) = trace_path else {
        usage()
    };

    let text = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        eprintln!("cannot read {trace_path}: {e}");
        std::process::exit(2);
    });
    let trace = parse_trace(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {trace_path}: {e}");
        std::process::exit(2);
    });
    if trace.spans.is_empty() {
        eprintln!("{trace_path} contains no span events — was the run traced with spans enabled?");
        std::process::exit(2);
    }
    let report = analyze(&trace);

    // Default action: table to stdout.
    if table_out.is_none() && chrome_out.is_none() && flame_out.is_none() && budget_path.is_none() {
        table_out = Some("-".to_string());
    }
    if let Some(out) = table_out {
        let table = render_table(&report);
        if out == "-" {
            print!("{table}");
        } else {
            write_file(&out, &table);
        }
    }
    if let Some(out) = chrome_out {
        write_file(&out, &to_chrome_trace(&trace).to_string());
    }
    if let Some(out) = flame_out {
        write_file(&out, &to_flamegraph_svg(&trace));
    }
    if let Some(path) = budget_path {
        let budget_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read budget {path}: {e}");
            std::process::exit(2);
        });
        let rules = parse_budget(&budget_text).unwrap_or_else(|e| {
            eprintln!("cannot parse budget {path}: {e:?}");
            std::process::exit(2);
        });
        let violations = check_budget(&report, &rules);
        if violations.is_empty() {
            println!(
                "perf budget OK: {} rules checked against {} spans",
                rules.len(),
                report.span_count
            );
        } else {
            eprintln!("perf budget violations:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {path}");
}
