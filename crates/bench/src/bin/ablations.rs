//! Sensitivity ablations for the design choices DESIGN.md calls out:
//!
//! 1. interconnect cost (`cross_socket`) vs the NUMA policy's win —
//!    the policy should matter more as the machine gets "wider";
//! 2. patched-entry cost vs Fig. 2(c) worst-case overhead — the
//!    calibration knob behind `CostModel::SEED.entry_ns`;
//! 3. the `MAX_BATCH` fairness bound vs throughput and fairness —
//!    the cost of the §4.2 starvation guard;
//! 4. armed fault containment (breaker check + inert fault injector on
//!    every hook invocation) vs the Fig. 2(c) no-op worst case — the
//!    price of the runtime safety net when nothing ever faults;
//! 5. the trace plane, disarmed vs armed, on the same worst case — armed
//!    emission happens on the host and charges zero virtual time, so the
//!    two columns must agree exactly (the budget is ≥0.95 normalized);
//! 6. a rollout-applied policy vs the same policy attached directly, on
//!    the same worst case — the staged-rollout control plane (intent
//!    log, health gates, generation tags) must stay entirely off the
//!    lock hot path, so the two columns must agree exactly as well.
//!
//! Each ablation's configurations are independent simulations, fanned out
//! across the sweep worker pool; rows print in configuration order. The
//! simulations run the workload loops of `c3_bench::workloads`: the
//! contended-lock loop (1 and 3) and the Fig. 2(c) hash table (2, 4–6).

use std::rc::Rc;

use c3_bench::run_window_ms;
use c3_bench::sweep::run_points;
use c3_bench::workloads::{contended_counts, hashtable_with, run_hashtable, HtSeries, SimMutex};
use concord::policy::AttachedNoopPolicy;
use ksim::{LatencyModel, SimBuilder};
use simlocks::{NativePolicy, SimMcsLock, SimShflLock};

const THREADS: u32 = 60;

fn lat(cross: u64) -> LatencyModel {
    LatencyModel {
        cross_socket: cross,
        ..LatencyModel::default()
    }
}

fn sweep_cross_socket(window: u64) {
    let window_ms = window as f64 / 1e6;
    println!("### Ablation 1: interconnect cost vs NUMA-policy win (60 threads)");
    println!("| cross-socket ns | MCS ops/ms | Shfl-NUMA ops/ms | ratio |");
    println!("|---|---|---|---|");
    let run = |cross: u64, numa: bool| {
        let sim = SimBuilder::new().seed(42).latency(lat(cross)).build();
        let lock = if numa {
            let l = SimShflLock::new(&sim);
            l.set_policy(Rc::new(NativePolicy::numa_aware()));
            SimMutex::Shfl(l)
        } else {
            SimMutex::Mcs(SimMcsLock::new(&sim))
        };
        let ops: u64 = contended_counts(&sim, lock, THREADS, window).iter().sum();
        ops as f64 / window_ms
    };
    let crosses = [110u64, 220, 440, 880];
    let points: Vec<(u64, bool)> = crosses
        .iter()
        .flat_map(|&c| [(c, false), (c, true)])
        .collect();
    let vals = run_points(&points, |&(c, numa)| run(c, numa));
    for (i, &cross) in crosses.iter().enumerate() {
        let (mcs, shfl) = (vals[2 * i], vals[2 * i + 1]);
        println!("| {cross} | {mcs:.0} | {shfl:.0} | {:.2}× |", shfl / mcs);
    }
    println!();
}

fn sweep_patched_entry(window: u64) {
    use concord::policy::PatchedEntryPolicy;

    println!("### Ablation 2: patched-entry cost vs Fig. 2(c) overhead (8 threads)");
    println!("| entry cost ns | normalized throughput |");
    println!("|---|---|");
    let base = run_hashtable(8, HtSeries::Baseline, window, 42);
    let run = |cost: u64| {
        hashtable_with(8, window, 42, |_, lock| {
            lock.set_policy(Rc::new(PatchedEntryPolicy(cost)));
        })
        .0
    };
    let costs = [0u64, 15, 45, 90, 180];
    let vals = run_points(&costs, |&c| run(c));
    for (cost, tp) in costs.iter().zip(vals) {
        println!("| {cost} | {:.3} |", tp / base);
    }
    println!();
}

fn sweep_max_batch(window: u64) {
    let window_ms = window as f64 / 1e6;
    println!("### Ablation 3: MAX_BATCH fairness bound (40 threads, 4 sockets)");
    println!("| max batch | ops/ms | per-task min..max |");
    println!("|---|---|---|");
    let run = |batch: u32| {
        let sim = SimBuilder::new().seed(42).build();
        let lock = SimShflLock::new(&sim);
        lock.set_policy(Rc::new(NativePolicy::numa_aware()));
        lock.set_max_batch(batch);
        let pt = contended_counts(&sim, SimMutex::Shfl(lock), 40, window);
        let total: u64 = pt.iter().sum();
        (total, *pt.iter().min().unwrap(), *pt.iter().max().unwrap())
    };
    let batches = [1u32, 8, 32, 128, 100_000];
    let vals = run_points(&batches, |&b| run(b));
    for (batch, (total, min, max)) in batches.iter().zip(vals) {
        println!(
            "| {batch} | {:.0} | {min}..{max} |",
            total as f64 / window_ms
        );
    }
    println!();
}

fn sweep_containment(window: u64) {
    println!("### Ablation 4: armed-containment overhead on the Fig. 2(c) worst case");
    println!("| threads | no-op ops/ms | contained ops/ms | contained/no-op |");
    println!("|---|---|---|---|");
    let threads = [1u32, 4, 8, 16, 28];
    let points: Vec<(u32, HtSeries)> = threads
        .iter()
        .flat_map(|&n| {
            [
                (n, HtSeries::ConcordNoop),
                (n, HtSeries::ConcordNoopContained),
            ]
        })
        .collect();
    let vals = run_points(&points, |&(n, s)| run_hashtable(n, s, window, 42));
    let mut worst = f64::INFINITY;
    for (i, &n) in threads.iter().enumerate() {
        let (noop, contained) = (vals[2 * i], vals[2 * i + 1]);
        let norm = contained / noop;
        worst = worst.min(norm);
        println!("| {n} | {noop:.0} | {contained:.0} | {norm:.3} |");
    }
    println!("\nworst-case armed-containment throughput: {worst:.3} (budget: ≥0.95)");
    assert!(
        worst >= 0.95,
        "armed-containment overhead exceeds the 5% budget: {worst:.3}"
    );
    println!();
}

fn sweep_telemetry(window: u64) {
    println!("### Ablation 5: trace-plane cost on the Fig. 2(c) worst case");
    println!("| threads | disarmed ops/ms | armed ops/ms | armed/disarmed |");
    println!("|---|---|---|---|");
    let threads = [1u32, 4, 8, 16, 28];
    // The armed flag is process-global, so the disarmed and armed batches
    // must not overlap on the sweep worker pool: run one fully, flip,
    // run the other.
    telemetry::set_armed(false);
    let off = run_points(&threads, |&n| {
        run_hashtable(n, HtSeries::ConcordNoop, window, 42)
    });
    telemetry::set_armed(true);
    let on = run_points(&threads, |&n| {
        run_hashtable(n, HtSeries::ConcordNoop, window, 42)
    });
    telemetry::set_armed(false);
    telemetry::drain();
    let mut worst = f64::INFINITY;
    for (i, &n) in threads.iter().enumerate() {
        let norm = on[i] / off[i];
        worst = worst.min(norm);
        println!("| {n} | {:.0} | {:.0} | {norm:.3} |", off[i], on[i]);
    }
    println!("\nworst-case armed-tracing throughput: {worst:.3} (budget: ≥0.95, expected: 1.000)");
    assert!(
        worst >= 0.95,
        "armed tracing exceeds the 5% virtual-time budget: {worst:.3}"
    );
    println!();
}

fn sweep_rollout(window: u64) {
    use concord::rollout::{
        AlwaysGreen, ChaosInjector, Rollout, RolloutLog, RolloutOutcome, RolloutPlan, SimTarget,
    };
    use concord::SimPatches;
    use locks::hooks::HookKind;
    use simlocks::policy::SimPolicy;

    println!("### Ablation 6: armed-rollout overhead on the Fig. 2(c) worst case");
    println!("| threads | direct ops/ms | rollout ops/ms | rollout/direct |");
    println!("|---|---|---|---|");
    // Both columns run the exact Fig. 2(c) worst-case loop with the no-op
    // policy attached; they differ only in how the policy got there —
    // `set_policy` directly, or a committed staged rollout.
    let run = |threads: u32, via_rollout: bool| {
        hashtable_with(threads, window, 42, |sim, lock| {
            if via_rollout {
                let target = SimTarget::new(
                    Rc::new(SimPatches::new(sim)),
                    vec![("ht".to_string(), Rc::clone(lock))],
                    |_| Ok(Rc::new(AttachedNoopPolicy) as Rc<dyn SimPolicy>),
                );
                let plan =
                    RolloutPlan::staged(1, "noop", HookKind::CmpNode, &["ht".to_string()], &[]);
                let log = RolloutLog::new();
                let out = Rollout::run(
                    plan,
                    &log,
                    &target,
                    &mut AlwaysGreen,
                    &ChaosInjector::inert(),
                )
                .expect("rollout ran");
                assert_eq!(out, RolloutOutcome::Committed, "rollout must commit");
            } else {
                lock.set_policy(Rc::new(AttachedNoopPolicy));
            }
        })
        .0
    };
    let threads = [1u32, 4, 8, 16, 28];
    let points: Vec<(u32, bool)> = threads
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let vals = run_points(&points, |&(n, v)| run(n, v));
    let mut worst = f64::INFINITY;
    for (i, &n) in threads.iter().enumerate() {
        let (direct, rolled) = (vals[2 * i], vals[2 * i + 1]);
        let norm = rolled / direct;
        worst = worst.min(norm);
        println!("| {n} | {direct:.0} | {rolled:.0} | {norm:.3} |");
    }
    println!(
        "\nworst-case rollout-applied throughput: {worst:.3} (budget: ≥0.95, expected: 1.000)"
    );
    assert!(
        worst >= 0.95,
        "rollout-applied policy exceeds the 5% hot-path budget: {worst:.3}"
    );
    println!();
}

fn main() {
    let window = run_window_ms() * 1_000_000;
    sweep_cross_socket(window);
    sweep_patched_entry(window);
    sweep_max_batch(window);
    sweep_containment(window);
    sweep_telemetry(window);
    sweep_rollout(window);
}
