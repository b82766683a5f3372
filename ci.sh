#!/usr/bin/env bash
# CI gate: static analysis first (cheap, catches graph/source problems
# before any training step), then the full build + test suite with
# warnings denied, then the memory-plan and training-throughput
# regression gates.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== [1/12] source lints (dgnn-analysis lint harness) ==="
cargo run -q -p dgnn-analysis --bin lint .

echo "=== [2/12] compute-graph audit (ShapeTracer over DGNN + baselines) ==="
cargo test -q -p dgnn-analysis
cargo test -q -p dgnn-integration-tests --test ablation_shape static_analysis

echo "=== [3/12] release build (warnings denied) + benchmark build ==="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace
# perfbench/ is its own workspace, so --workspace never compiles it; build
# it here so a serving- or training-API change cannot silently break the
# benchmark.
cargo build --offline --release --manifest-path perfbench/Cargo.toml

echo "=== [4/12] full test suite (serial and 4-thread kernel pool) ==="
DGNN_THREADS=1 cargo test -q --workspace
DGNN_THREADS=4 cargo test -q --workspace

echo "=== [5/12] full test suite per GEMM backend (forced scalar, then auto) ==="
# DGNN_GEMM=scalar pins every matmul to the legacy cache-blocked loops
# (the historical bit-exact numerics); DGNN_GEMM=auto re-runs the same
# suite on the detected packed backend so both halves of the dispatcher
# stay green on every host.
DGNN_GEMM=scalar cargo test -q --workspace
DGNN_GEMM=auto cargo test -q --workspace

echo "=== [6/12] full test suite under the graph optimizer ==="
# DGNN_GRAPH_OPT=1 forces every traced model through the optimize ->
# check_rewrites -> proven-harness path, so the whole suite doubles as a
# bit-identity certificate for optimized execution.
DGNN_GRAPH_OPT=1 cargo test -q --workspace

echo "=== [7/12] memory-plan peak-live-bytes regression gate ==="
cargo run -q --release -p dgnn-bench --bin memplan -- --check analysis-baseline.json

echo "=== [8/12] training steps/sec regression gate (profiled) ==="
cargo run -q --release -p dgnn-bench --bin profile -- --check BENCH_profile.json

echo "=== [9/12] race sanitizer (shadow-access proof + schedule fuzzer + contract gate) ==="
# DGNN_SANITIZE=1 turns on shadow-access tracking; the suite proves every
# pooled kernel's partition disjointness, runs the malicious-kernel typed
# failures, and certifies bit-identity under fuzzed worker schedules. The
# bench gate then re-proves the full contract table at 4 threads.
DGNN_THREADS=4 DGNN_SANITIZE=1 cargo test -q -p dgnn-integration-tests --test race_sanitizer
DGNN_THREADS=4 cargo run -q --release -p dgnn-bench --bin sanitize -- --check

echo "=== [10/12] telemetry gate (percentile/prometheus properties + live scrape + flight dump) ==="
cargo test -q -p dgnn-integration-tests --test telemetry

echo "=== [11/12] serving gate (checkpoint + HTTP load + live /metrics scrape + qps and obs-overhead regression) ==="
cargo run -q --release -p dgnn-bench --bin loadgen -- --check BENCH_serve.json

echo "=== [12/12] scale gate (streaming gen + segmented store + lazy Zipf load + RSS/residency bounds) ==="
# --scale runs the million-user-architecture tier on the CI-sized preset:
# streams a sharded world to disk, opens it lazily, proves multi-shard
# scoring bit-identical to the checkpoint-loaded engine at 1 and 4
# threads, then drives 64 closed-loop Zipf clients and gates on laziness
# (touched shards < total), residency and RSS ceilings, and qps against
# the committed baseline.
cargo run -q --release -p dgnn-bench --bin loadgen -- --scale --check BENCH_scale.json

echo "CI_OK"
