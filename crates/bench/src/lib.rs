//! # tranad-bench
//!
//! The benchmark harness regenerating every table and figure of the TranAD
//! paper's evaluation. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured numbers.
//!
//! Binaries:
//! - `tables --table N [--scale S] [--dataset D]...` — Tables 1–7;
//! - `figures --figure N [--scale S]` — Figures 2–7 (CSV series + summary).
//!
//! Every timing bench (`bench-kernels`, `bench-serve`, `benches/micro.rs`)
//! measures through [`harness`]: interleaved A/B pairs, read as the median
//! of the per-pair ratios with its quartile band.

// `bench-alloc` names `alloc_count::{CountingAlloc, counts, delta}`.
#[cfg(feature = "count-alloc")]
pub mod alloc_count;
// The `figures` binary names `figures::figure2`..`figure7`.
pub mod figures;
// Every timing bench names `harness::{paired, solo, Flags, ...}`.
pub mod harness;
mod methods;
// The `tables` binary names `results::load` (Table 5 reuses Table 2's rows).
pub mod results;
mod runner;
// The `tables` binary and `tests/pipeline.rs` name `tables::table1`..`table7`.
pub mod tables;
// The `trace-report` binary and `tests/trace_report.rs` name
// `trace_report::{parse_trace, analyze, ...}`.
pub mod trace_report;

pub use methods::Method;
pub use runner::{evaluate_fitted, HarnessConfig, RunResult};
