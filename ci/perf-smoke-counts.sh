#!/usr/bin/env bash
# Reads the output of `perf/run.sh --smoke` on stdin and prints the
# deterministic work counts of its traced runs: every per-layer metric
# in `count` or `bytes`, one line each, prefixed with its workload.
# ci.sh diffs these lines against ci/perf-smoke-counts.txt. A change
# that moves a count on purpose regenerates that file with
#
#   perf/run.sh --smoke | ci/perf-smoke-counts.sh > ci/perf-smoke-counts.txt
#
# and gives each moved count, old -> new, in CHANGES.md.
set -euo pipefail
awk '
    $1 == "perf" { workload = ($4 == "traced") ? $2 : ""; next }
    workload != "" && ($NF == "count" || $NF == "bytes") { print workload, $1, $2, $3 }
'
