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

echo "==> rustdoc -D warnings (mpsoc-lint, serde shims, mpsoc-sched and mpsoc-serve API docs must stay clean)"
RUSTDOCFLAGS="-D warnings" cargo doc -q -p mpsoc-lint -p serde -p serde_json -p mpsoc-sched -p mpsoc-serve --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings (tests, examples and benches too)"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> study smoke tests (self-asserting, determinism-gated, replayed)"
# Each binary asserts its own claims:
# - interference: emergent co-resident slowdown, contention accounted;
# - fault_sweep: 100% single-transient recovery, verified-or-typed
#   outcomes, smooth quarantine degradation;
# - serve_study: load-aware placement beating round-robin on p99 at
#   overload, backpressure and stealing firing, cosim witness retries,
#   in-process replay equality;
# - cost_study: simulator-measured cycles and all five phase milestones
#   inside the static [best, worst] in every zoo × size × strategy cell,
#   host path included, plus a co-simulated two-tenant witness under the
#   contention-widened worst bound;
# - chaos_study: auto-quarantine firing mid-stream with no explicit
#   quarantine call, zero-fault plans reproducing the no-plan fleet
#   byte-for-byte, and quarantine+failover+redirect attainment beating
#   no-recovery by >= 15% at the overloaded witness cell.
# Two smoke runs of each must serialize byte-identically: the shared SoC
# session, fault injection, strikes, evacuation and the serving path's
# wire frames are all pure functions of the seed. cost_study's replay
# re-checks the recorded phase breakdowns against freshly computed
# bounds; chaos_study's re-computes the recorded grid from its own scale
# stamp and demands the same bytes. serve_a.json is also the reference
# of the profiling-off gate below.
for study in interference fault_sweep serve_study cost_study chaos_study; do
    echo "==> $study smoke test"
    out="$trace_dir/${study%%_*}"
    for run in a b; do
        cargo run --release -q -p mpsoc-bench --bin "$study" -- \
            --smoke --json "${out}_$run.json"
    done
    test -s "${out}_a.json"
    cmp "${out}_a.json" "${out}_b.json"
    case "$study" in
        cost_study | chaos_study)
            cargo run --release -q -p mpsoc-bench --bin "$study" -- \
                --replay "${out}_a.json"
            ;;
    esac
done

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
