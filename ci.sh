#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
#   ./ci.sh
#
# Everything runs against the vendored shims under shims/ — no network
# access required.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (every workspace member: default-members in Cargo.toml)"
cargo test -q

echo "==> lint_kernels --deny-warnings (static verification of the kernel zoo)"
cargo run --release -q -p mpsoc-bench --bin lint_kernels -- --deny-warnings

echo "==> forbid(unsafe_code) gate (every workspace crate must carry the attribute)"
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "missing #![forbid(unsafe_code)] in $lib"; exit 1; }
done

echo "==> rustdoc -D warnings (mpsoc-lint API docs must stay clean)"
RUSTDOCFLAGS="-D warnings" cargo doc -q -p mpsoc-lint --no-deps

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> offload_profile smoke test (trace schema self-validated)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release -q -p mpsoc-bench --bin offload_profile -- \
    --n 256 --m 2 --clusters 4 \
    --trace "$trace_dir/smoke.trace.json" --json "$trace_dir/smoke.json"
# The binary already schema-validates the trace it wrote and checks the
# phase-sum invariant; make sure the artifacts actually landed on disk.
test -s "$trace_dir/smoke.trace.json"
test -s "$trace_dir/smoke.json"

echo "==> committed artifacts (results/ must regenerate byte for byte)"
# The contract that makes changes to the cycle-exact core safe: every
# study artifact under results/ is a pure function of the code. Runs
# all_experiments and the seven extension studies at full scale from a
# temporary directory, so neither results/ nor the BENCH_*.json sidecars in
# the tree are rewritten, and fails on any byte difference.
bin_dir="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"
artifact_dir="$trace_dir/artifacts"
mkdir -p "$artifact_dir"
(
    cd "$artifact_dir"
    "$bin_dir/all_experiments" > /dev/null
    for study in sched_study interference fault_sweep serve_study cost_study chaos_study; do
        "$bin_dir/$study" --json "results/$study.json" > /dev/null
    done
    "$bin_dir/throughput_study" --json results/throughput.json > /dev/null
)
diff -r results "$artifact_dir/results"

echo "==> interference smoke test (determinism-checked co-simulation)"
# The binary asserts its own headline claims (emergent co-resident
# slowdown, contention-accounted); two seed-equal runs must serialize
# byte-identically or the shared-SoC session has lost determinism.
cargo run --release -q -p mpsoc-bench --bin interference -- \
    --smoke --json "$trace_dir/interference_a.json"
cargo run --release -q -p mpsoc-bench --bin interference -- \
    --smoke --json "$trace_dir/interference_b.json"
test -s "$trace_dir/interference_a.json"
cmp "$trace_dir/interference_a.json" "$trace_dir/interference_b.json"

echo "==> fault_sweep smoke test (self-healing offload under injected faults)"
# The binary asserts the robustness claims itself (100% single-transient
# recovery, verified-or-typed outcomes, smooth quarantine degradation);
# two runs must serialize byte-identically — fault injection is a pure
# function of (seed, site, occurrence), so determinism must survive it.
cargo run --release -q -p mpsoc-bench --bin fault_sweep -- \
    --smoke --json "$trace_dir/fault_a.json"
cargo run --release -q -p mpsoc-bench --bin fault_sweep -- \
    --smoke --json "$trace_dir/fault_b.json"
test -s "$trace_dir/fault_a.json"
cmp "$trace_dir/fault_a.json" "$trace_dir/fault_b.json"

echo "==> serve_study smoke test (fleet serving front-end, determinism-gated)"
# The binary asserts the serving claims itself (load-aware placement
# beating round-robin on p99 at overload, backpressure firing, stealing
# firing, cosim witness retries, in-process replay equality); two runs
# must serialize byte-identically — the whole serving path, wire frames
# included, is a pure function of the seed.
cargo run --release -q -p mpsoc-bench --bin serve_study -- \
    --smoke --json "$trace_dir/serve_a.json"
cargo run --release -q -p mpsoc-bench --bin serve_study -- \
    --smoke --json "$trace_dir/serve_b.json"
test -s "$trace_dir/serve_a.json"
cmp "$trace_dir/serve_a.json" "$trace_dir/serve_b.json"

echo "==> throughput_study smoke test (self-profiler + cycles/sec meter)"
# The binary asserts the observability claims itself (profile tree
# reconciling with wall time within 10%, live interpreter/engine hot
# sites, profiling-off byte-identity, nonzero per-backend rates, daemon
# GetStats == FleetSlo); two runs must serialize byte-identically — the
# cycle-domain report carries no wall-clock state.
cargo run --release -q -p mpsoc-bench --bin throughput_study -- \
    --smoke --json "$trace_dir/throughput_a.json" \
    --flamegraph "$trace_dir/throughput.folded" \
    --chrome "$trace_dir/throughput.trace.json"
cargo run --release -q -p mpsoc-bench --bin throughput_study -- \
    --smoke --json "$trace_dir/throughput_b.json"
test -s "$trace_dir/throughput_a.json"
test -s "$trace_dir/throughput.folded"
test -s "$trace_dir/throughput.trace.json"
cmp "$trace_dir/throughput_a.json" "$trace_dir/throughput_b.json"

echo "==> lint_kernels smoke test (determinism-gated like the other studies)"
cargo run --release -q -p mpsoc-bench --bin lint_kernels -- \
    --smoke --deny-warnings --json "$trace_dir/lint_a.json"
cargo run --release -q -p mpsoc-bench --bin lint_kernels -- \
    --smoke --deny-warnings --json "$trace_dir/lint_b.json"
test -s "$trace_dir/lint_a.json"
cmp "$trace_dir/lint_a.json" "$trace_dir/lint_b.json"

echo "==> cost_study smoke test (static bounds soundness, determinism-gated)"
# The binary asserts soundness itself: simulator-measured cycles and all
# five phase milestones inside the static [best, worst] in every zoo ×
# size × strategy cell, host path included, plus a co-simulated
# two-tenant witness under the contention-widened worst bound. Two runs
# must serialize byte-identically, and the replay sanitizer re-checks
# the recorded phase breakdowns against freshly computed bounds.
cargo run --release -q -p mpsoc-bench --bin cost_study -- \
    --smoke --json "$trace_dir/cost_a.json"
cargo run --release -q -p mpsoc-bench --bin cost_study -- \
    --smoke --json "$trace_dir/cost_b.json"
test -s "$trace_dir/cost_a.json"
cmp "$trace_dir/cost_a.json" "$trace_dir/cost_b.json"
cargo run --release -q -p mpsoc-bench --bin cost_study -- \
    --replay "$trace_dir/cost_a.json"

echo "==> chaos_study smoke test (fleet self-healing, determinism-gated)"
# The binary asserts the self-healing claims itself: auto-quarantine
# fires mid-stream with no explicit quarantine call, zero-fault plans
# reproduce the no-plan fleet byte-for-byte, and at the overloaded
# witness cell quarantine+failover+redirect attainment beats
# no-recovery by >= 15%. Two runs must serialize byte-identically —
# fault injection, strikes, and evacuation are all pure functions of
# the seed — and the replay sanitizer re-computes the recorded grid
# from its own scale stamp and demands the same bytes.
cargo run --release -q -p mpsoc-bench --bin chaos_study -- \
    --smoke --json "$trace_dir/chaos_a.json"
cargo run --release -q -p mpsoc-bench --bin chaos_study -- \
    --smoke --json "$trace_dir/chaos_b.json"
test -s "$trace_dir/chaos_a.json"
cmp "$trace_dir/chaos_a.json" "$trace_dir/chaos_b.json"
cargo run --release -q -p mpsoc-bench --bin chaos_study -- \
    --replay "$trace_dir/chaos_a.json"

echo "==> profiling-off byte-identity (MPSOC_PROFILE=0 must not change results)"
# The profiler's disabled path is a single branch per scope; proving it
# cannot leak into cycle-domain output: profiled and unprofiled smoke
# runs of the study binaries must serialize byte-identically.
MPSOC_PROFILE=0 cargo run --release -q -p mpsoc-bench --bin sched_study -- \
    --smoke --json "$trace_dir/sched_off.json"
cargo run --release -q -p mpsoc-bench --bin sched_study -- \
    --smoke --json "$trace_dir/sched_on.json"
cmp "$trace_dir/sched_off.json" "$trace_dir/sched_on.json"
MPSOC_PROFILE=0 cargo run --release -q -p mpsoc-bench --bin serve_study -- \
    --smoke --json "$trace_dir/serve_off.json"
cmp "$trace_dir/serve_off.json" "$trace_dir/serve_a.json"

echo "==> perf/run.sh --smoke (benchmark workloads, determinism-gated)"
# Runs the four benchmark workloads at a hundredth of their size,
# untraced and traced, in two invocations; fails unless every run checks
# correct and the simulated results and per-layer work counts (policy
# picks, queue entries scanned, session advances, interpreter calls) are
# identical across all four.
perf/run.sh --smoke

echo "==> perf package: tests, clippy -D warnings, fmt --check"
# The benchmark is its own package (perf/Cargo.toml with an empty
# [workspace]), so the workspace gates above never build its checkers
# and metric table; gate them here.
cargo test --release -q --offline --manifest-path perf/Cargo.toml
cargo clippy --offline --manifest-path perf/Cargo.toml -- -D warnings
cargo fmt --check --manifest-path perf/Cargo.toml

echo "==> ci green"
