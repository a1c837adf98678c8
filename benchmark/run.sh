#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       (this is the form BENCHMARK.json's command takes)
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload in a fresh process each, end to end and then traced
#
# --quick measures one second per run: a smoke test whose numbers are not
# comparable with anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(hook_fire lock_profiled des_figures des_explore fleet_churn)

workload="" seed=1 seconds="" trace="" quick=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --quick) quick=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[ "$quick" = 1 ] && seconds=1

# The program sees only the inputs the benchmark generates: drop every
# C3_* knob the crates read from the environment.
for var in $(compgen -e); do
    case "$var" in C3_*) unset "$var" ;; esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/c3-benchmark"

# Every workload generates its load from one thread. Left alone, the
# kernel moves that thread between CPUs, each move costs it its caches,
# and whole runs come out tens of percent apart; pin it to the last CPU
# this process is allowed on when the tool to do so is there.
pin=()
if command -v taskset >/dev/null; then
    pin=(taskset -c "$(taskset -cp $$ | sed 's/.*[^0-9]\([0-9][0-9]*\)$/\1/')")
fi

run() { # workload trace
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$1" --seed "$seed" --trace "$2" --out "$here/out" \
        ${seconds:+--seconds "$seconds"}
}

if [ -n "$workload" ]; then
    run "$workload" "${trace:-0}"
    exit
fi

[ "$quick" = 1 ] && echo '"comparable": false (--quick: one second per run)'
for w in "${workloads[@]}"; do
    for t in ${trace:-0 1}; do
        echo "== $w --trace $t"
        run "$w" "$t"
    done
done
