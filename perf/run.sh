#!/usr/bin/env bash
# The benchmark's one command. Builds the `perf` binary, runs every
# workload untraced and then traced, twice over, printing every metric by
# name and unit; then checks that the simulated metrics and per-layer
# counts are identical across the two passes and the two invocations.
#
#   perf/run.sh             default sizes, 10 s per run (about 5 minutes)
#   perf/run.sh --smoke     tiny sizes, three repetitions per run (< 20 s)
#   perf/run.sh --baseline  rewrites perf/baseline/: two sets of ten seeds
#                           per workload, untraced, plus one traced run
#                           per workload, at BENCHMARK.json's 25 s run
#                           length (about 40 minutes)
#
# Run records are appended to perf/out/pass{1,2}.jsonl; judge a change
# against its parent with
#
#   perf/target/release/perf compare PARENT.jsonl CHANGE.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
    "" | --smoke | --baseline) ;;
    *)
        echo "usage: perf/run.sh [--smoke | --baseline]" >&2
        exit 2
        ;;
esac

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-perf/target}
cargo build --release --quiet --offline --manifest-path perf/Cargo.toml
perf=$CARGO_TARGET_DIR/release/perf
workloads=(closed-fifo shard-overload serve-wire cosim-soc)

if [ "$mode" = --baseline ]; then
    dir=perf/baseline
    mkdir -p "$dir"
    rm -f "$dir"/set1.jsonl "$dir"/set2.jsonl "$dir"/traced.jsonl
    for set in 1 2; do
        for seed in $(seq 1 10); do
            for w in "${workloads[@]}"; do
                "$perf" --workload "$w" --seed "$seed" --seconds 25 --trace 0 \
                    --json "$dir/set$set.jsonl" | sed -n 1p
            done
        done
    done
    for w in "${workloads[@]}"; do
        "$perf" --workload "$w" --seed 1 --seconds 25 --trace 1 \
            --json "$dir/traced.jsonl" | sed -n 1p
    done
    "$perf" determinism "$dir"/set1.jsonl "$dir"/set2.jsonl "$dir"/traced.jsonl
    "$perf" compare "$dir"/set1.jsonl "$dir"/set2.jsonl
    exit
fi

if [ "$mode" = --smoke ]; then
    args=(--seconds 0 --smoke)
else
    args=(--seconds 10)
fi
mkdir -p perf/out
rm -f perf/out/pass1.jsonl perf/out/pass2.jsonl
for pass in 1 2; do
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            run=("$perf" --workload "$w" --seed 1 --trace "$trace" "${args[@]}"
                --json "perf/out/pass$pass.jsonl")
            if [ "$pass" = 1 ]; then
                # Every metric by name and unit; the closing JSON line is
                # for machines.
                "${run[@]}" | sed '$d'
            else
                "${run[@]}" | sed -n 1p
            fi
        done
    done
done
"$perf" determinism perf/out/pass1.jsonl perf/out/pass2.jsonl
