//! Contention-analysis regression gate, run by `scripts/ci.sh`.
//!
//! Guards the two contracts of `telemetry::analyze`:
//!
//! * **Conservation, exactly** — on a fixed-seed ksim trace (DES virtual
//!   time, no ring overwrite) the blame partition must be *exact*: per
//!   lock, `sum(caused) == measured wait == sum(suffered)`, with zero seq
//!   gaps, anomalies, or truncation. The analysis must also be
//!   byte-identical run-to-run for the same seed — the gate runs the
//!   scenario twice and compares [`telemetry::Report::stable_hash`].
//! * **Continuous mode is free until stepped** — arming the continuous
//!   analyzer (plus the trace plane) on the Fig. 2(c) no-op worst case
//!   must not move virtual throughput at all (DES determinism) and must
//!   stay within the 5% normalized budget, same shape as
//!   `telemetry_gate`. The armed run ends with one `step()` so the gate
//!   also proves a window actually flows into the metrics registry.
//!
//! Skip with `C3_BENCH_GATE=0` (the knob shared with the other gates).
//!
//! A third row is a ratio of two timings taken in one loop, so it runs
//! even then: on a recorded batch of uncontended profiled operations,
//! analysing a record may cost at most [`ANALYZE_TO_DRAIN_CEILING`] times
//! what draining it costs. Reading a trace is then never the expensive
//! part of profiling a lock.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use c3_bench::workloads::{run_hashtable, HtSeries};
use concord::{policies, Concord};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};
use telemetry::{AnalyzeConfig, Analyzer};

/// The committed figures' window (`run_window_ms()` default × 1e6).
const WINDOW_NS: u64 = 3_000_000;
const THREADS: u32 = 8;
/// The figure binaries' seed-averaging set (for the overhead half).
const SEEDS: [u64; 3] = [42, 43, 44];
/// Minimum armed/disarmed normalized throughput (the ISSUE budget).
const FLOOR: f64 = 0.95;
/// Fixed seed for the conservation scenario.
const SIM_SEED: u64 = 42;
/// Shorter window for the conservation half so the whole trace fits the
/// rings without overwrite — exactness requires a lossless trace. (At
/// 8 threads this scenario emits ~2.3k events; ring-prefix overwrite
/// starts near 4.1k.)
const CONSERVATION_WINDOW_NS: u64 = 100_000;

/// Most that analysing one record may cost, in drains of one record
/// (1.2 to 1.4 measured; 1.5 to 1.7 while the analyzer walked B-trees per
/// record, 6.6 to 7.1 while it resolved the policy label of every record).
const ANALYZE_TO_DRAIN_CEILING: f64 = 4.0;
/// Operations in the recorded batch: six records each, below one ring.
const BATCH_OPS: usize = 80;
/// Replays of the batch; their hold segments stay below the analyzer's
/// default per-lock cap.
const REPLAYS: u32 = 512;

/// Records one batch of uncontended operations on a lock that counts on
/// all four event hooks, then replays it [`REPLAYS`] times through the
/// plane, timing the drain and the analysis of each replay back to back —
/// a slow stretch of the host lengthens both. Returns ns per record of
/// each, `(analyze, drain)`.
fn analyze_and_drain_ns_per_record() -> (f64, f64) {
    const LOCK: &str = "profile_gate";
    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl(LOCK, Arc::clone(&lock));
    let counter = policies::counter_map("events");
    for hook in [
        HookKind::LockAcquire,
        HookKind::LockContended,
        HookKind::LockAcquired,
        HookKind::LockRelease,
    ] {
        let loaded = concord
            .load(policies::event_counter(hook, Arc::clone(&counter)))
            .expect("prebuilt policy verifies");
        concord.attach(LOCK, &loaded).expect("lock is registered");
    }
    telemetry::drain();
    telemetry::set_armed(true);
    for _ in 0..BATCH_OPS {
        drop(black_box(lock.lock()));
    }
    telemetry::set_armed(false);
    let batch = telemetry::drain();
    assert_eq!(batch.len(), 6 * BATCH_OPS, "recorded batch is incomplete");

    let mut cfg = AnalyzeConfig::default();
    cfg.lock_names.insert(lock.id(), LOCK.to_string());
    let mut analyzer = Analyzer::new(cfg);
    let (mut analyze_ns, mut drain_ns) = (0u128, 0u128);
    for _ in 0..REPLAYS {
        for ev in &batch {
            telemetry::plane().emit(*ev);
        }
        let t = Instant::now();
        let events = telemetry::drain();
        drain_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        analyzer.observe_all(black_box(&events));
        analyze_ns += t.elapsed().as_nanos();
    }
    let report = analyzer.finish();
    let records = u64::from(REPLAYS) * batch.len() as u64;
    assert!(
        report.exact() && report.events == records,
        "replayed batches must analyze exactly"
    );
    (
        analyze_ns as f64 / records as f64,
        drain_ns as f64 / records as f64,
    )
}

/// Runs the fixed-seed ksim contention scenario with the plane armed and
/// returns the analysis of the complete drained trace. Per-ring seq-gap
/// detection cannot see a ring losing its *prefix* (the first record seen
/// sets the baseline), so the gate independently asserts the plane's drop
/// counter did not move — only then is "exact" trustworthy.
fn analyzed_sim_trace() -> telemetry::Report {
    telemetry::drain(); // Start from empty rings.
    let dropped_before = telemetry::dropped();
    telemetry::set_armed(true);
    run_hashtable(
        THREADS,
        HtSeries::ConcordNoop,
        CONSERVATION_WINDOW_NS,
        SIM_SEED,
    );
    telemetry::set_armed(false);
    let events = telemetry::drain();
    let dropped = telemetry::dropped() - dropped_before;
    if dropped != 0 {
        eprintln!(
            "profile_gate: FAIL — the conservation scenario overflowed the rings ({dropped} \
             records dropped); shrink CONSERVATION_WINDOW_NS so the trace is lossless"
        );
        std::process::exit(1);
    }
    telemetry::analyze::analyze(&events, telemetry::AnalyzeConfig::default())
}

/// Seed-averaged virtual throughput (ops/ms) of the no-op worst case.
fn run_noop_worst_case() -> f64 {
    let mut total = 0.0;
    for sd in SEEDS {
        total += run_hashtable(THREADS, HtSeries::ConcordNoop, WINDOW_NS, sd);
    }
    total / SEEDS.len() as f64
}

fn main() {
    let (analyze_ns, drain_ns) = analyze_and_drain_ns_per_record();
    let ratio = analyze_ns / drain_ns;
    println!(
        "profile_gate: uncontended profiled batch — analyze {analyze_ns:.1} ns/record, drain \
         {drain_ns:.1} ns/record, ratio {ratio:.2} (ceiling {ANALYZE_TO_DRAIN_CEILING})"
    );
    if ratio > ANALYZE_TO_DRAIN_CEILING {
        eprintln!(
            "profile_gate: FAIL — analysing a record costs {ratio:.2}x draining it; the \
             analyzer is doing per-record work that belongs to a patch or a lock"
        );
        std::process::exit(1);
    }

    if std::env::var("C3_BENCH_GATE").as_deref() == Ok("0") {
        println!("profile_gate: remaining gates skipped (C3_BENCH_GATE=0)");
        return;
    }

    // (a) Exact conservation + deterministic analysis on the sim trace.
    let r1 = analyzed_sim_trace();
    let r2 = analyzed_sim_trace();
    println!(
        "profile_gate: ksim seed {SIM_SEED} — {} events, {} locks, wait={}ns, \
         attribution={}, hash {:#x}",
        r1.events,
        r1.locks.len(),
        r1.total_wait_ns(),
        if r1.exact() { "exact" } else { "lower-bound" },
        r1.stable_hash()
    );
    if r1.events == 0 || r1.total_wait_ns() == 0 {
        eprintln!(
            "profile_gate: FAIL — the fixed-seed scenario produced no contention to analyze \
             ({} events, {}ns wait)",
            r1.events,
            r1.total_wait_ns()
        );
        std::process::exit(1);
    }
    if !r1.exact() {
        eprintln!(
            "profile_gate: FAIL — sim-trace analysis is not exact (seq_gaps={} anomalies={} \
             truncated={}); a lossless virtual-time trace must reconstruct exactly",
            r1.seq_gaps, r1.anomalies, r1.truncated
        );
        std::process::exit(1);
    }
    if !r1.conservation_holds() {
        eprintln!(
            "profile_gate: FAIL — blame conservation violated: per-lock caused/suffered sums \
             do not equal measured wait"
        );
        std::process::exit(1);
    }
    if r1.stable_hash() != r2.stable_hash() {
        eprintln!(
            "profile_gate: FAIL — same-seed analysis is not byte-identical ({:#x} vs {:#x}); \
             something nondeterministic leaked into the report",
            r1.stable_hash(),
            r2.stable_hash()
        );
        std::process::exit(1);
    }

    // (b) Continuous-analyzer armed overhead on the fig2c worst case.
    telemetry::set_armed(false);
    telemetry::analyze::set_continuous_armed(false);
    let tp_off = run_noop_worst_case();
    telemetry::set_armed(true);
    telemetry::analyze::set_continuous_armed(true);
    let tp_on = run_noop_worst_case();
    let window = telemetry::analyze::continuous()
        .step()
        .expect("armed continuous analyzer must produce a window");
    telemetry::analyze::set_continuous_armed(false);
    telemetry::set_armed(false);

    let norm = tp_off / tp_on.max(f64::MIN_POSITIVE);
    println!(
        "profile_gate: fig2c no-op worst case ({THREADS} threads) — analyzer disarmed \
         {tp_off:.4} ops/ms, armed {tp_on:.4} ops/ms, normalized {norm:.4} (floor {FLOOR}); \
         window saw {} events across {} locks",
        window.events,
        window.locks.len()
    );
    if tp_off != tp_on {
        eprintln!(
            "profile_gate: FAIL — arming the continuous analyzer moved virtual throughput \
             ({tp_off:.4} vs {tp_on:.4}); analysis must never charge simulated time"
        );
        std::process::exit(1);
    }
    if norm < FLOOR {
        eprintln!("profile_gate: FAIL — normalized throughput {norm:.4} below floor {FLOOR}");
        std::process::exit(1);
    }
    if window.events == 0 {
        eprintln!("profile_gate: FAIL — the continuous window drained no events while armed");
        std::process::exit(1);
    }
    println!("profile_gate: OK");
}
