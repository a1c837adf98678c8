#!/usr/bin/env bash
# Runs the whole set twice on this checkout and holds the two against
# each other: every end-to-end metric within its bound from BENCHMARK.json,
# every count metric equal. Exits non-zero on any disagreement.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(hook_fire lock_profiled des_figures des_explore fleet_churn)
mkdir -p "$here/out"

for pass in 1 2; do
    : > "$here/out/repeat-$pass.jsonl"
    for w in "${workloads[@]}"; do
        for t in 0 1; do
            echo "pass $pass: $w --trace $t" >&2
            "$here/run.sh" --workload "$w" --trace "$t" "$@" | tail -n 1 |
                sed "s/^{/{\"workload\": \"$w\", \"trace\": $t, /" \
                    >> "$here/out/repeat-$pass.jsonl"
        done
    done
done

python3 "$here/compare.py" "$here/../BENCHMARK.json" \
    "$here/out/repeat-1.jsonl" "$here/out/repeat-2.jsonl"
