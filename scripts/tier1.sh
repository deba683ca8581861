#!/usr/bin/env bash
# Tier-1 gate: release build, lint wall, test suite (including a
# debug-assert run of the engine-vs-oracle property tests), and the
# benchmark artifacts.
#
# Usage: scripts/tier1.sh
# Emits BENCH_engine.json (scalar data path baseline), BENCH_simd.json
# (vectorized data path vs that baseline), BENCH_serve.json (serving
# layer, smoke shape), BENCH_fused.json (fused GCN pipeline vs unfused,
# smoke shape), BENCH_widedim.json (wide-feature-dim layer pipeline vs
# the pre-revision data path, smoke shape), BENCH_spgemm.json (CSR x CSR
# engine vs the sequential oracle, smoke shape), BENCH_batch.json
# (block-diagonal mega-batching vs per-request serving, smoke shape),
# and BENCH_shard.json (multi-shard scale-out vs one engine, smoke
# shape) in the repository root, then validates their common schema.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q
cargo test --workspace -q
# Debug build (debug_assertions on): overflow checks and the engine's
# internal invariant asserts are live while the oracle property tests run —
# once on the default (vectorized) path and once with the data path pinned
# to the scalar oracle via the force-scalar feature.
cargo test -q -p mpspmm-core --test engine_oracle
cargo test -q -p mpspmm-core --features force-scalar
# Auto's routing (inline, static pooled, column-striped) keeps each
# route's output contract, and the SpGEMM engine and the block-diagonal
# mega-batch path promise bit-identical output at any worker count: pin
# the resolved count to a matrix of values and re-run their property
# tests (debug build, invariant asserts live). batch_oracle sweeps
# packed-vs-sequential across DataPath x SchedPolicy, including empty
# graphs and single-graph windows.
for w in 1 2 8; do
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test engine_oracle
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test spgemm_oracle
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test batch_oracle
done
# The fused layer pipeline promises fused == unfused at every worker
# count; re-run its oracle property suite across the same matrix.
for w in 1 2 8; do
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-gcn --test fused_oracle
done
# The sharded scatter/gather path promises bit-identity to the
# sequential reference at every shard x worker combination; sweep the
# full matrix with each cell in its own process (MPSPMM_SHARDS pins the
# shard count, MPSPMM_WORKERS the total worker count the engine splits).
for w in 1 2 8; do
  for s in 1 2 4; do
    MPSPMM_WORKERS=$w MPSPMM_SHARDS=$s \
      cargo test -q -p mpspmm-core --test shard_oracle
  done
done
cargo run --release -p mpspmm-bench --bin bench_engine
cargo run --release -p mpspmm-bench --bin bench_simd
cargo run --release -p mpspmm-bench --bin bench_serve -- --smoke
cargo run --release -p mpspmm-bench --bin bench_fused -- --smoke
cargo run --release -p mpspmm-bench --bin bench_widedim -- --smoke
cargo run --release -p mpspmm-bench --bin bench_spgemm -- --smoke
# Mega-batch bench, smoke shape: exercises the packed serving pipeline
# end to end (bulk admission, block-diagonal assembly, scatter) and its
# untimed bit-identity spot check against the sequential oracle.
cargo run --release -p mpspmm-bench --bin bench_batch -- --smoke
# Sharded scale-out bench, smoke shape: real bit-identity of every
# shard x worker cell against the sequential oracle plus the modeled
# bandwidth-domain scaling curve (the 2.5x floor is full-mode only).
cargo run --release -p mpspmm-bench --bin bench_shard -- --smoke
scripts/check_bench_schema.sh
