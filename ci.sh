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

echo "==> cargo test --release (the interpreter, SoC, offload runtime, co-simulated backend and serving oracles on optimized code)"
# The benchmark and results/ run release builds, so the proptests that
# hold the loop replay, compiled programs and the SoC event loop's fast
# paths (inline events, closed-form bursts, lockstep folds) to their
# per-op, fresh-program and per-event oracles run on release code too;
# so do the offload runtime's pinned event and heap-pop counts and its
# session tests, the co-simulated backend's verified submits, the only
# check of the data a compiled run computes in a co-simulated job, and
# the serving daemon's pinned wire bytes (golden_wire) and its streamed
# response order against the end-of-run sort.
cargo test --release -q -p mpsoc-isa -p mpsoc-soc -p mpsoc-offload -p mpsoc-sched -p mpsoc-serve

echo "==> forbid(unsafe_code) gate (every workspace crate, the meta-crate and the shims must carry the attribute)"
# perf/ stays out: it is benchmark code, and its clock_gettime call is
# unsafe.
for lib in src/lib.rs crates/*/src/lib.rs shims/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "missing #![forbid(unsafe_code)] in $lib"; exit 1; }
done

echo "==> rustdoc -D warnings (every workspace crate's API docs must stay clean)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings (tests, examples and benches too)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT

bin_dir="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"

echo "==> committed artifacts (results/ must regenerate byte for byte)"
# The contract that makes changes to the cycle-exact core safe: every
# artifact under results/ is a pure function of the code.
# all_experiments walks the experiment registry (mpsoc_bench::study) at
# full scale: the paper's figures and tables, the four extension sweeps
# (pipelined offloads, SoC-config variants, codegen and banked-TCDM
# ablations), one traced offload (offload_profile: two interleaved DMA
# chains, so its Chrome trace pins the SoC's own telemetry, HBM queueing
# instants included) and the eight studies. Every entry checks its own
# claims, and a false one fails the run:
# - the paper entries: Fig. 1's shapes and the >300-cycle gap at M=32,
#   MAPE < 1%, every Eq. 3 decision confirmed, and the ablation,
#   kernel-sweep, break-even and energy claims; the extensions likewise;
# - offload_profile: a schema-valid trace whose phases sum to the run;
# - sched_study: model-guided beating FIFO on miss rate, contention
#   visible only to the co-simulated backend;
# - interference: emergent co-resident slowdown, contention accounted;
# - fault_sweep: 100% single-transient recovery, verified-or-typed
#   outcomes, smooth quarantine degradation;
# - serve_study: load-aware placement beating round-robin on p99 at
#   overload, backpressure and stealing firing, cosim witness retries;
# - cost_study: simulator-measured cycles and all five phase milestones
#   inside the static [best, worst] in every zoo x size x strategy cell,
#   host path included, plus a co-simulated two-tenant witness under the
#   contention-widened worst bound;
# - chaos_study: auto-quarantine firing mid-stream, zero-fault plans
#   reproducing the no-plan fleet byte for byte, and recovery beating
#   no-recovery attainment by >= 15% at the overloaded witness cell;
# - throughput_study: the profile tree reconciling with wall time,
#   live interpreter/engine hot sites, profiling-off byte identity,
#   nonzero per-backend rates, daemon GetStats == FleetSlo;
# - lint_kernels: the whole kernel zoo and the JSON fixtures lint clean,
#   warnings included.
# It runs from a temporary directory (so neither results/ nor the
# BENCH_*.json sidecars in the tree are rewritten), and the diff fails
# on any byte difference.
artifact_dir="$trace_dir/artifacts"
mkdir -p "$artifact_dir"
(cd "$artifact_dir" && "$bin_dir/all_experiments" > /dev/null)
diff -r results "$artifact_dir/results"

echo "==> smoke run, replayed with profiling off"
# Every entry runs its smoke grid (an entry without one runs as it is)
# and writes its files, then the replay re-runs every entry with the
# self-profiler off and requires the same bytes. That one replay is the
# determinism gate (the shared SoC session, fault injection, strikes,
# evacuation and the serving path's wire frames are pure functions of
# the seed), the replay gate and the profiling-off gate (a disabled
# profiler scope is a single branch and must not leak into cycle-domain
# output).
"$bin_dir/all_experiments" --smoke --out "$trace_dir/smoke" \
    --flamegraph "$trace_dir/throughput.folded" \
    --chrome "$trace_dir/throughput.trace.json" > /dev/null
MPSOC_PROFILE=0 "$bin_dir/all_experiments" --smoke --replay "$trace_dir/smoke" > /dev/null
test -z "$(find "$trace_dir/smoke" -type f -empty)"
test -s "$trace_dir/throughput.folded"
test -s "$trace_dir/throughput.trace.json"

echo "==> perf/run.sh --smoke (benchmark workloads, determinism-gated, work counts pinned)"
# Runs the four benchmark workloads at a hundredth of their size,
# untraced and traced, in two invocations; fails unless every run checks
# correct and the simulated results and per-layer work counts (policy
# picks, queue entries scanned, session advances, interpreter calls) are
# identical across all four. Those counts are deterministic, so they are
# also pinned: the traced runs' `count` and `bytes` lines must equal
# ci/perf-smoke-counts.txt (ci/perf-smoke-counts.sh says how a change
# that moves a count on purpose regenerates it).
perf/run.sh --smoke | tee "$trace_dir/perf-smoke.txt"
ci/perf-smoke-counts.sh < "$trace_dir/perf-smoke.txt" | diff ci/perf-smoke-counts.txt -

echo "==> perf package: tests, clippy -D warnings, fmt --check"
# The benchmark is its own package (perf/Cargo.toml with an empty
# [workspace]), so the workspace gates above never build its checkers
# and metric table; gate them here.
cargo test --release -q --offline --manifest-path perf/Cargo.toml
cargo clippy --offline --manifest-path perf/Cargo.toml -- -D warnings
cargo fmt --check --manifest-path perf/Cargo.toml

echo "==> ci green"
