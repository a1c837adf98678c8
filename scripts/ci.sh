#!/usr/bin/env bash
# Full CI pass: a formatting check, release build, the whole test suite,
# clippy with warnings denied, the reachability gate, the gate bins, the benchmark's harness
# tests and a one-second pass over its workloads, then the smoke run (one
# sweep point per figure, including the containment-overhead ablation and
# the table1 watchdog column, both of which assert their budgets).
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting of the root workspace only: benchmark/ is its own package
# and keeps its own layout.
echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# All targets, so the tests, benches and gate bins are linted too.
echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# Every public item has a caller outside its own tests (or a reason in
# scripts/unreached.allow), and every env var the code reads is in
# README.md's knob table.
echo "== scripts/unreached.py =="
python3 scripts/unreached.py

# The compiled tier reads context fields without a run-time check of its
# own; what holds that to the two interpreters is one differential
# proptest (generated cases are a fixed stream per test name, so this is
# the same 1 024 programs every time, about a second). `cargo test` above
# ran it unoptimized; this is the build the locks and the benchmark run.
echo "== ctx_differential, release build =="
cargo test -q --release -p cbpf --test ctx_differential

# `PreparedProgram::run` takes the compiled tier, always. The hot-count
# threshold that used to pick a tier went when the compiled tier stopped
# losing on the NUMA policy (bench_gate's numa_policy row holds that);
# the prepare-time optimizer and its pass switches went when the compiled
# tier took over the one rewrite it still needed from them: the compiler
# is the one optimizer.
# Neither comes back unnoticed.
# (The brackets keep this file from matching its own pattern.)
echo "== no tier-selection knob, no second optimizer =="
if grep -rn "Jit[M]ode\|C3_JIT_[T]HRESHOLD\|Opt[C]onfig\|prepare_[w]ith\|cbpf::op[t]\b" \
    crates tests scripts; then
    echo "ci: a tier-selection mode, its env var or the prepare-time optimizer is back (see above)" >&2
    exit 1
fi

# The compiled tier keeps a generic mirror of every slot and the two
# specializations measured programs compile to: the lookup-and-branch
# step (its key fully resolved, `fast` not optional) and the fused 8-byte
# counter update. The value load/store/any-width RMW steps and the
# un-branched lookup and update steps went because no measured program
# compiled to them; one comes back with the measurement that needs it.
echo "== compiled tier: no unmeasured map-step specializations =="
if grep -rnwE "M[a]pValLd|M[a]pValSt|M[a]pValRmw|M[a]pLookupFast|M[a]pUpdateFast|f[a]st_update" \
    crates tests scripts || grep -n "fast: O[p]tion<" crates/cbpf/src/jit.rs; then
    echo "ci: an unmeasured compiled-tier map specialization is back (see above)" >&2
    exit 1
fi

# The real-thread lock crate holds only the locks Concord attaches to
# (ShflLock, spinning or blocking, the neutral rwlock and BRAVO); the
# baselines live in simlocks alone, and the blocking flavour is not a
# second shuffle lock. Nothing needs a tenant arbiter or a manual clock
# mode either, nor a real-thread watchdog (`watchdog::detect` is the
# classifier), a rollout window sampler, a `trace_printk` buffer, a
# real-thread priority table or an env override of a gate's seeds.
# A word match, so the simlocks names (SimTasLock) pass.
echo "== no unreached real-thread locks, tenant arbiter, manual clock or watchdog wrapper =="
if grep -rnwE "C[l]hLock|C[n]aLock|S[e]qLock|T[a]sLock|T[i]cketLock|M[c]sLock|P[h]aseFairRwLock|T[e]nantManager|s[e]t_manual|L[o]ckWatchdog|E[n]forceOutcome|W[i]ndowSampler|t[a]ke_traces|s[e]t_task_priority|s[e]eds_from_env|S[h]flMutex|s[h]fl_block|r[e]gister_shfl_mutex" \
    crates tests examples scripts; then
    echo "ci: a deleted lock (or a second shuffle lock), the tenant arbiter, the manual clock or a deleted watchdog/knob item is back (see above)" >&2
    exit 1
fi

# Real locks and the DES fire policies through one dispatcher
# (`Dispatch::fire` in concord::policy), so the figures run the
# containment code the safety tests run. A second call into the engine
# would be a second dispatcher.
echo "== one hook dispatcher =="
if [ "$(grep -rn "run_with_faults(" crates/concord/src | wc -l)" -ne 1 ]; then
    grep -rn "run_with_faults(" crates/concord/src >&2 || true
    echo "ci: crates/concord/src must call run_with_faults exactly once" >&2
    exit 1
fi

# Every policy put on a real lock (attach, contained, class or many,
# native event, profiler session, rollout wave, fleet delivery) goes
# through one tagged livepatch transaction (`Concord::attach_tagged`),
# which names each patch `{tag}{lock}/{hook}`. A second transaction call
# in `concord/src` would be a second attach path; so would the old
# patch-manager accessor or rollout name helper, and the shadow store
# nothing used stays gone. A sim lock's policy goes through the same
# transaction (`SimPatches::attach_tagged`, patches `{tag}{lock}/policy`),
# whose swap op is the one `set_policy` call in `concord/src`; the sim
# target's hand-written unwind and the FIFO-overwriting detach stay gone.
echo "== one attach path =="
if [ "$(grep -rn "apply_transaction(" crates/concord/src | wc -l)" -ne 1 ]; then
    grep -rn "apply_transaction(" crates/concord/src >&2 || true
    echo "ci: crates/concord/src must call apply_transaction exactly once" >&2
    exit 1
fi
if [ "$(grep -rn "set_policy(" crates/concord/src | wc -l)" -ne 1 ]; then
    grep -rn "set_policy(" crates/concord/src >&2 || true
    echo "ci: crates/concord/src must call set_policy exactly once (the sim swap op)" >&2
    exit 1
fi
if grep -rn "patch_[m]anager()\|rollout_[p]atch_name\|S[h]adowStore" \
    crates tests examples scripts; then
    echo "ci: a second attach path or the shadow store is back (see above)" >&2
    exit 1
fi
if grep -rn "fail_[a]pply_on\|A[p]pliedSimPolicies\|d[e]tach_sim" crates tests examples; then
    echo "ci: a sim attach path outside the transaction is back (see above)" >&2
    exit 1
fi

# The DES's own bookkeeping (ksim, the sim locks, the explorer's tables,
# the sim policy set's per-hook programs) is ordered or indexed by dense
# ids: a std hash map there is SipHash on every event and an iteration
# order drawn from `RandomState`, so what an oracle reports could differ
# from one run of the same seed to the next.
echo "== no RandomState maps in the DES =="
if grep -rnwE "HashMap|HashSet" crates/ksim/src crates/simlocks/src crates/concord/src/explore.rs \
    crates/concord/src/policy.rs; then
    echo "ci: a HashMap/HashSet is in the DES (see above): its bookkeeping stays seed-deterministic and off SipHash; use an ordered or dense table" >&2
    exit 1
fi

# Data-plane regression gate: the prepared map_mix speedup over legacy
# and the compiled tier's over the prepared interpreter stay above their
# floors, and on the paper's NUMA policy the compiled tier is not slower
# than the prepared interpreter. Each is a ratio of two timings taken in
# alternating rounds of one loop; the cost of entering and leaving the
# tier on an exit-only program (no frame) and on one that spills to its
# frame is printed beside the last, with no floor. Skip on
# noisy builders with C3_BENCH_GATE=0; its DES rows still run then,
# because what they assert is a count (the share of a lock2 figure
# point's events that ksim delivers in place).
echo "== bench_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin bench_gate

# Telemetry-overhead gate: the fig2c no-op worst case must stay >= 0.95
# normalized with the trace plane compiled in — and since armed emission
# charges zero virtual time, disarmed and armed runs must agree exactly
# (the committed figure CSVs stay byte-identical either way). Shares the
# C3_BENCH_GATE=0 skip knob.
echo "== telemetry_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin telemetry_gate

# Contention-analysis gate: blame conservation must hold exactly (and
# byte-identically run-to-run) on a lossless fixed-seed ksim trace, and
# arming the continuous analyzer must stay >= 0.95 normalized on the
# fig2c no-op worst case without moving virtual throughput at all.
# Shares the C3_BENCH_GATE=0 skip knob, except for its first row: analysing
# a record of an uncontended profiled batch may cost at most 4x draining
# it, both timed in one loop, so a busy host moves neither side alone.
echo "== profile_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin profile_gate

# Rollout chaos gate: crash-sweeps a staged rollout over seeds 3, 7 and
# 42, asserting every crash point converges and that replays are
# deterministic.
echo "== chaos_gate =="
cargo run -p c3-bench --release --bin chaos_gate

# Schedule-exploration gate: every strategy must find all three planted
# bugs in simlocks::broken within a fixed schedule budget, shrink each to
# a minimal injection list, and replay it bit-identically — while the
# correct zoo stays violation-free under the same adversarial schedules.
# Base seeds 3, 7 and 42.
echo "== schedule_gate =="
cargo run -p c3-bench --release --bin schedule_gate

# Fleet control-plane gate: crash-sweeps the simulated fleet over seeds
# 3, 7 and 42 — the daemon is killed at every protocol step on a lossy,
# partitioning network, and every run must converge all hosts to the
# store head with zero torn applies and bit-identical replays. It also
# times a one-binding publish at 100k and at 1M tenants in its own
# process and fails if the second costs more than 4x the first; that
# wall-clock row shares the C3_BENCH_GATE=0 skip knob.
echo "== fleet_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin fleet_gate

# The fleet tables EXPERIMENTS.md quotes (propagation over the gate seeds,
# store throughput at 100k and 1M tenants) come from this run. Its numbers
# are wall-clock and have no floor; what fails it is a seed that does not
# converge or a resolve sweep that misses a bound tenant.
echo "== fleet_gate --bench =="
cargo run -p c3-bench --release --bin fleet_gate -- --bench

# The benchmark (BENCHMARK.json, benchmark/): its harness's own unit tests,
# then every workload for one second, end to end and traced. The numbers
# of a one-second run mean nothing; what is held here is each run's result
# line, which carries the workload's correctness oracle.
echo "== benchmark harness tests =="
(cd benchmark && cargo test --offline -q)

echo "== benchmark/run.sh --quick =="
quick_out="$(benchmark/run.sh --quick)"
# A run's result is its last line: the one before the next "== " header.
results="$(awk '/^== /{ if (runs++) print last; next } { last = $0 } END { print last }' <<< "$quick_out")"
if [ "$(wc -l <<< "$results")" -ne 10 ] ||
    grep -qv '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<< "$results"; then
    echo "benchmark --quick FAILED: want 10 result lines, all correct with 0 failed ops:" >&2
    echo "$results" >&2
    exit 1
fi

echo "== scripts/smoke.sh =="
./scripts/smoke.sh

echo "ci ok"
