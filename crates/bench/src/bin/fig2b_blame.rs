//! Fig. 2(b) companion: contention *attribution* for the `lock2`
//! workload, printed as the blame-concentration table in
//! EXPERIMENTS.md.
//!
//! Runs the ShflLock series (compiled-in NUMA policy, then the same
//! policy as verified bytecode through Concord) with the trace plane
//! armed, analyzes the drained virtual-time trace, and reports where
//! the waiting nanoseconds came from: per-socket caused shares, the
//! handoff share, convoy pressure, and — for the Concord series —
//! the attributed hook-dispatch cost. The stock MCS series emits no
//! trace events (only the ShflLock slow path is instrumented), which
//! is itself the point: attribution needs the instrumented lock.
//!
//! The window is sized so the whole trace fits the rings losslessly
//! (the bin fails if the drop counter moves), so attribution is exact.

use c3_bench::workloads::{run_lock2, SpinSeries};
use telemetry::analyze::{analyze, HANDOFF_TENANT};
use telemetry::AnalyzeConfig;

const THREADS: u32 = 40;
const WINDOW_NS: u64 = 100_000;
const SEED: u64 = 42;

fn main() {
    for (name, series) in [
        ("ShflLock (native NUMA)", SpinSeries::ShflNuma),
        (
            "Concord-ShflLock (bytecode NUMA)",
            SpinSeries::ConcordShflNuma,
        ),
    ] {
        telemetry::drain();
        let dropped_before = telemetry::dropped();
        telemetry::set_armed(true);
        let tp = run_lock2(THREADS, series, WINDOW_NS, SEED);
        telemetry::set_armed(false);
        let events = telemetry::drain();
        assert_eq!(
            telemetry::dropped() - dropped_before,
            0,
            "fig2b_blame overflowed the rings; shrink WINDOW_NS"
        );
        let r = analyze(&events, AnalyzeConfig::default());
        assert!(r.conservation_holds(), "conservation violated");

        println!(
            "{name}: {tp:.0} ops/ms, {} events, attribution={}",
            r.events,
            if r.exact() { "exact" } else { "lower-bound" }
        );
        for (id, l) in &r.locks {
            if l.wait_ns == 0 {
                continue;
            }
            println!(
                "  lock{id}: wait={}ns over {} completed waits, convoys={} peak_waiters={}",
                l.wait_ns, l.completed_waits, l.convoy_windows, l.peak_waiters
            );
            let mut caused: Vec<_> = l.caused.iter().collect();
            caused.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for ((tenant, policy), ns) in caused {
                let share = ns.saturating_mul(1000).checked_div(l.wait_ns).unwrap_or(0);
                let who = if *tenant == HANDOFF_TENANT {
                    "handoff ".to_string()
                } else {
                    format!("socket {tenant}")
                };
                println!("    caused by {who} policy={policy}: {ns}ns ({share}‰)");
            }
        }
        for ((lock, bit, policy), c) in &r.hook_costs {
            println!(
                "  hook cost lock{lock} bit={bit} policy={policy}: {} calls, {} insns, est {}ns",
                c.calls, c.insns, c.est_ns
            );
        }
    }
}
