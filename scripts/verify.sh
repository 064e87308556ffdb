#!/usr/bin/env bash
# Full offline verification: build, test, lint. This is the gate every
# change must pass; it runs with the network forbidden to prove the
# workspace has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release (offline)"
cargo build --release --workspace

# The benchmark is a separate package that calls only the public API, so a
# public-API change that breaks it fails here rather than at benchmark time.
echo "==> perfbench build + unit tests"
CARGO_TARGET_DIR=.bench_build cargo test --release --locked --manifest-path perfbench/Cargo.toml

# Serial and parallel: a pool bug (e.g. a poisoned lock after a task
# panic) only shows on the parallel path, which a 1-CPU host never takes
# unless the pool size is forced.
echo "==> cargo test (offline; TRANAD_THREADS=1 and 2)"
TRANAD_THREADS=1 cargo test --workspace -q
TRANAD_THREADS=2 cargo test --workspace -q

# Modules are private and each crate re-exports only what callers outside
# it use, so `dead_code` sees every uncalled item; `--all-features` covers
# the `count-alloc` code too.
echo "==> cargo clippy -D warnings (all targets, all features)"
cargo clippy --workspace --all-targets --all-features -q -- -D warnings

# A narrowed or deleted item must not leave a dangling link in public docs.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> determinism across thread counts (TRANAD_THREADS=1 vs 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad --test determinism
TRANAD_THREADS=8 cargo test --release -q -p tranad --test determinism

# Nothing records inside a pool task: only matters once pool workers exist.
echo "==> telemetry routing: installed-or-global recorder, silent pool tasks (TRANAD_THREADS=1 and 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad --test telemetry_routing
TRANAD_THREADS=8 cargo test --release -q -p tranad --test telemetry_routing

echo "==> taped vs tape-free inference parity (bitwise; TRANAD_THREADS=1 vs 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad --test infer_parity
TRANAD_THREADS=8 cargo test --release -q -p tranad --test infer_parity
TRANAD_THREADS=8 cargo test --release -q -p tranad-baselines --test infer_parity

echo "==> pruned backward vs full-backward reference (bitwise; TRANAD_THREADS=1 vs 8)"
for threads in 1 8; do
  TRANAD_THREADS=$threads cargo test --release -q -p tranad-tensor --test op_properties
  TRANAD_THREADS=$threads cargo test --release -q -p tranad --test grad_pruning
  TRANAD_THREADS=$threads cargo test --release -q -p tranad-baselines --test grad_pruning
done

echo "==> certified GPD root search vs exact Grimshaw reference (bitwise; TRANAD_THREADS=1 vs 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad-evt --test gpd_parity
TRANAD_THREADS=8 cargo test --release -q -p tranad-evt --test gpd_parity

echo "==> serve kill-and-resume (bitwise verdict equality, 1 and 8 threads)"
TRANAD_THREADS=1 cargo test --release -q -p tranad-serve --test kill_resume
TRANAD_THREADS=8 cargo test --release -q -p tranad-serve --test kill_resume

echo "==> cross-stream batched vs per-stream serving parity (bitwise; TRANAD_THREADS=1 vs 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad-serve --test batch_parity
TRANAD_THREADS=8 cargo test --release -q -p tranad-serve --test batch_parity

echo "==> tiled-kernel parity vs reference kernels (bitwise; TRANAD_THREADS=1 vs 8)"
TRANAD_THREADS=1 cargo test --release -q -p tranad-tensor --test kernel_parity
TRANAD_THREADS=8 cargo test --release -q -p tranad-tensor --test kernel_parity

# The timing gates write their JSON to a scratch directory: a gate run
# must not rewrite the committed results (see results/README.md for the
# regeneration commands).
BENCH_TMP="$(mktemp -d /tmp/tranad_bench.XXXXXX)"

echo "==> kernel throughput gate (tiled >= 1.3x reference on the training shape; median of paired runs)"
cargo run --release -q -p tranad-bench --bin bench-kernels -- \
  --out "$BENCH_TMP/kernels.json" --min-speedup 1.3

echo "==> observability smoke (exporter endpoints over a live engine)"
cargo run --release -q -p tranad-bench --bin obs-smoke

echo "==> batched serving throughput gate (>= 1.5x per-stream; exporter overhead < 5% while scraped; medians of paired runs)"
TRANAD_THREADS=1 cargo run --release -q -p tranad-bench --bin bench-serve -- \
  --out "$BENCH_TMP/serve.json" --min-speedup 1.5 --max-obs-overhead 0.05
test -s "$BENCH_TMP/kernels.json"
test -s "$BENCH_TMP/serve.json"
rm -rf "$BENCH_TMP"

echo "==> trace smoke-run (TRANAD_TRACE JSONL well-formedness)"
TRACE_TMP="$(mktemp /tmp/tranad_trace.XXXXXX.jsonl)"
TRANAD_TRACE="$TRACE_TMP" cargo run --release -q -p tranad-bench --bin trace-smoke

echo "==> trace-report artifacts + perf-budget gate on the smoke trace"
REPORT_TMP="$(mktemp -d /tmp/tranad_trace_report.XXXXXX)"
cargo run --release -q -p tranad-bench --bin trace-report -- "$TRACE_TMP" \
  --table "$REPORT_TMP/report.txt" \
  --chrome "$REPORT_TMP/trace.chrome.json" \
  --flamegraph "$REPORT_TMP/flame.svg" \
  --check results/perf_budget.json
test -s "$REPORT_TMP/report.txt"
test -s "$REPORT_TMP/trace.chrome.json"
test -s "$REPORT_TMP/flame.svg"
rm -rf "$REPORT_TMP" "$TRACE_TMP"

echo "==> allocation budgets (count-alloc; training step + online push + batched serve, results/alloc_budget.json)"
cargo run --release -q -p tranad-bench --features count-alloc --bin bench-alloc

echo "==> verify OK"
