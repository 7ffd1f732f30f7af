#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ offline and runs its workloads, each
# run in a process of its own. README.md explains every name printed.
#
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                         one run; its last line is the result as JSON
#   benchmark/run.sh --runs 5 --out DIR   a set of back-to-back runs for `compare`
#   benchmark/run.sh --smoke              2 s windows, exit status only
#   benchmark/run.sh compare DIR_A DIR_B  per (workload, metric): medians, delta, bound, verdict
#   benchmark/run.sh expected             regenerate expected/ from the reference evaluator
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export KIT_BENCHMARK_DIR="$here"
# The driver names the target directory; otherwise build beside the root
# workspace's own output, which .gitignore already covers.
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/kit-benchmark"

workloads=(batch_dispatch batch_memory serve_hot serve_miss)
workload="" runs=1 smoke=0 trace="" pass=()
case "${1:-}" in
compare | expected) exec "$bin" "$@" ;;
esac
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --seed | --seconds | --out) pass+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --trace "${trace:-0}" "${pass[@]}"
fi
if [ "$smoke" = 1 ]; then
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seconds 2 --trace 0 "${pass[@]}" >/dev/null
    done
    "$bin" --workload serve_hot --seconds 2 --trace 1 "${pass[@]}" >/dev/null
    exit 0
fi
for w in "${workloads[@]}"; do
    for t in ${trace:-0 1}; do
        for ((r = 0; r < runs; r++)); do
            append=()
            [ "$r" -gt 0 ] && append=(--append)
            "$bin" --workload "$w" --trace "$t" "${pass[@]}" "${append[@]}"
        done
    done
done
