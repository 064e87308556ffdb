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

#[cfg(feature = "count-alloc")]
pub mod alloc_count;
pub mod figures;
pub mod harness;
pub mod methods;
pub mod results;
pub mod runner;
pub mod tables;
pub mod trace_report;

pub use methods::Method;
pub use runner::{evaluate_method, HarnessConfig, RunResult};
