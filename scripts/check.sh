#!/usr/bin/env bash
# Full offline verification: build, test, lint. The workspace has no
# registry dependencies (everything external lives in vendor/), so this
# runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is its own package (outside the workspace) but is built against
# the library's public API, so an API change must not break it unnoticed.
echo "== perfbench tests (repository benchmark builds against the library API) =="
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== sim smoke (differential oracle, fixed seed) =="
cargo run --release -q -p cosplit-bench --bin sim_smoke

echo "== audit smoke (effect-trace sanitizer + corpus lint sweep) =="
cargo run --release -q -p cosplit-bench --bin audit_smoke

echo "== matrix smoke (corpus-wide conflict-matrix derivation + pair verdicts) =="
cargo run --release -q -p cosplit-bench --bin matrix_smoke

echo "== state smoke (CoW snapshot/fork cost flat as state grows, per-tx cost flat in batch length) =="
cargo run --release -q -p cosplit-bench --bin state_smoke

echo "== trace smoke (exports parse, lifecycle coverage 100%, overhead < 1.5x) =="
cargo run --release -q -p cosplit-bench --bin trace_smoke

echo "== xshard smoke (cross-shard 2PC differential + DS share < 10%) =="
cargo run --release -q -p cosplit-bench --bin xshard_smoke

echo "== callgraph smoke (corpus call graph + composed-dispatch differential) =="
cargo run --release -q -p cosplit-bench --bin callgraph_smoke

echo "== precision smoke (no global ⊤, blame sweep, refined dispatch gate) =="
cargo run --release -q -p cosplit-bench --bin precision_smoke

echo "== hotpath smoke (compiled dispatch wins, 0 hot clones over a committing serial batch) =="
cargo run --release -q -p cosplit-bench --bin hotpath_smoke

# Perf-regression gate against the committed BENCH_baseline.json: fails on
# >20% wall-clock regression or any deterministic dispatch-fraction drift.
# Opt out on hosts unrelated to the baseline's with COSPLIT_SKIP_BENCH_GATE=1;
# refresh the baseline with scripts/bench_baseline.sh.
if [ "${COSPLIT_SKIP_BENCH_GATE:-0}" = "1" ]; then
  echo "== bench baseline gate skipped (COSPLIT_SKIP_BENCH_GATE=1) =="
else
  echo "== bench baseline gate (20% regression budget vs BENCH_baseline.json) =="
  cargo run --release -q -p cosplit-bench --bin bench_baseline -- check BENCH_baseline.json
fi

echo "All checks passed."
