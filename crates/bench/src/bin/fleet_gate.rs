//! Fleet control-plane gate, run by `scripts/ci.sh`.
//!
//! For every seed in `SEEDS` (3, 7 and 42), crash-sweeps the simulated
//! fleet world: the control-plane daemon is killed at every protocol
//! step boundary (publish broadcast, lease expiry, reconcile) while the
//! network drops, duplicates, reorders and partitions, and every run
//! must still converge all hosts to the store head with zero torn
//! applies. Each seed's sweep then runs a second time and the two
//! reports must be bit-identical, pinning the deterministic-replay
//! contract at the CI gate. The inert run must additionally exercise
//! the degraded-mode path: a partitioned host keeps serving its
//! last-known-good snapshot. The gate also holds the store to O(delta)
//! publishes, as a ratio of two costs measured in this process: a
//! one-binding publish at 1 M tenants against the same publish at
//! 100 k. That row is wall-clock, so like every other timing row it is
//! skipped with `C3_BENCH_GATE=0`.
//!
//! With `--bench`, regenerates the EXPERIMENTS.md propagation table
//! instead: p50/p99 propagation latency (virtual time, commit →
//! host-applied) over the gate seeds, plus control-plane store
//! throughput at 100 k and 1 M tenants and what one host change costs
//! (apply a version to 8 locks, revert the one beneath it).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use concord::fleet::{
    fleet_sweep, run_fleet, seal_demo_artifact, DeliverOutcome, Delta, FleetConfig, PolicyStore,
    RealFleetHost,
};
use concord::rollout::chaos::SweepReport;
use concord::rollout::ChaosPlan;
use concord::Concord;
use locks::hooks::HookKind;
use locks::ShflLock;

const SEEDS: &[u64] = &[3, 7, 42];

fn print_report(r: &SweepReport) {
    println!(
        "fleet_gate: seed {} — {} crash points, {} converged run(s), \
         baseline fingerprint {:#018x}",
        r.seed, r.crash_points, r.applied_runs, r.baseline_fingerprint
    );
}

/// One seed's gate: the inert run must converge torn-free while
/// exercising the whole failure surface, the crash sweep must converge
/// at every step, and the sweep must replay bit-identically.
fn gate_seed(seed: u64) -> bool {
    let cfg = FleetConfig::small(seed, seal_demo_artifact());

    let inert = run_fleet(&cfg, ChaosPlan::inert(seed));
    if !inert.converged || inert.torn > 0 {
        eprintln!(
            "fleet_gate: FAIL — seed {seed} inert run: converged={} torn={} \
             (head {} vs hosts {:?})",
            inert.converged, inert.torn, inert.head, inert.host_versions
        );
        return false;
    }
    if inert.degraded_serves == 0 {
        eprintln!(
            "fleet_gate: FAIL — seed {seed} inert run never served degraded \
             (partition window did not bite)"
        );
        return false;
    }

    let first = match fleet_sweep(seed, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet_gate: FAIL — seed {seed}: {e}");
            return false;
        }
    };
    print_report(&first);
    if first.applied_runs != first.crash_points + 1 {
        eprintln!(
            "fleet_gate: FAIL — seed {seed}: {} of {} runs converged",
            first.applied_runs,
            first.crash_points + 1
        );
        return false;
    }
    match fleet_sweep(seed, &cfg) {
        Ok(second) if second == first => true,
        Ok(second) => {
            eprintln!("fleet_gate: FAIL — seed {seed} replay diverged: {first:?} vs {second:?}");
            false
        }
        Err(e) => {
            eprintln!("fleet_gate: FAIL — seed {seed} replay: {e}");
            false
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// What [`bench_store`] measured at one fleet size.
struct StoreCosts {
    bulk_binds_per_s: f64,
    /// Median wall time of a one-binding publish, milliseconds.
    incr_publish_ms: f64,
    resolves_per_s: f64,
}

/// Store costs at `tenants` scale: one bulk publish binding every
/// tenant (the initial fleet bring-up), a run of one-binding publishes
/// on top (each rebuilds one chunk of the head and shares the rest),
/// and a resolve sweep across the whole table.
fn bench_store(tenants: usize) -> StoreCosts {
    let artifact = seal_demo_artifact();
    let store = PolicyStore::new(tenants);
    let all: Vec<u64> = (0..tenants as u64).collect();

    let t = Instant::now();
    store
        .publish(&Delta::bind_all(&all, 1000, Arc::clone(&artifact)))
        .expect("bulk publish");
    let bulk = t.elapsed();

    // Enough publishes that the median holds still run to run. They
    // cycle through `POLICIES` ids: every publish copies the head's
    // artifact table, so with a new id each the median would time that
    // copy at thousands of policies rather than the one-binding publish.
    const INCREMENTAL: u64 = 4_096;
    const POLICIES: u64 = 64;
    let mut incr: Vec<u64> = (0..INCREMENTAL)
        .map(|i| {
            let policy = 2000 + i % POLICIES;
            let delta = Delta::bind_all(&[i * 17 % tenants as u64], policy, Arc::clone(&artifact));
            let t = Instant::now();
            store.publish(&delta).expect("incremental publish");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    incr.sort_unstable();

    const RESOLVES: usize = 1_000_000;
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..RESOLVES as u64 {
        // Splitmix-striped probes so the sweep touches every chunk.
        let tenant = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % tenants as u64;
        hits += usize::from(store.resolve(tenant).is_some());
    }
    let resolve = t.elapsed();
    assert_eq!(hits, RESOLVES, "resolve sweep missed bound tenants");

    StoreCosts {
        bulk_binds_per_s: tenants as f64 / bulk.as_secs_f64(),
        incr_publish_ms: percentile(&incr, 0.5) as f64 / 1e6,
        resolves_per_s: RESOLVES as f64 / resolve.as_secs_f64(),
    }
}

/// Median wall time, microseconds, of a [`RealFleetHost`]'s two steps
/// in one change on 8 locks: `apply` of version `v` (open and verify
/// the artifact, build and attach 8 policies) and `revert` of version
/// `v - 1` from under it, over `RUNS` changes.
fn bench_host() -> (f64, f64) {
    const LOCKS: u64 = 8;
    const RUNS: u64 = 512;
    let concord = Concord::new();
    let mut lock_of = BTreeMap::new();
    for tenant in 0..LOCKS {
        let name = format!("host_lock_{tenant}");
        concord
            .registry()
            .register_shfl(&name, Arc::new(ShflLock::new()));
        lock_of.insert(tenant, name);
    }
    let host = RealFleetHost::new(&concord, HookKind::CmpNode, lock_of);
    let store = PolicyStore::new(LOCKS as usize);
    let tenants: Vec<u64> = (0..LOCKS).collect();
    store
        .publish(&Delta::bind_all(&tenants, 1, seal_demo_artifact()))
        .expect("host bind publishes");
    let snap = store.head_snapshot();
    assert_eq!(host.apply(1, &snap), Ok(DeliverOutcome::Applied));
    let (mut apply, mut revert) = (Vec::new(), Vec::new());
    for v in 2..RUNS + 2 {
        let t = Instant::now();
        assert_eq!(host.apply(v, &snap), Ok(DeliverOutcome::Applied));
        apply.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        host.revert(v - 1).expect("host reverts");
        revert.push(t.elapsed().as_nanos() as u64);
    }
    apply.sort_unstable();
    revert.sort_unstable();
    (
        percentile(&apply, 0.5) as f64 / 1e3,
        percentile(&revert, 0.5) as f64 / 1e3,
    )
}

/// A one-binding publish must not grow with the fleet: at most
/// [`PUBLISH_SCALING_BOUND`]× from 100 k to 1 M tenants, both measured
/// here, in one process, under the same host noise. (Copying the table
/// per publish, as the store once did, is 178× on this pair.)
fn gate_publish_scaling() -> bool {
    const PUBLISH_SCALING_BOUND: f64 = 4.0;
    if std::env::var("C3_BENCH_GATE").as_deref() == Ok("0") {
        println!("fleet_gate: publish scaling skipped (C3_BENCH_GATE=0)");
        return true;
    }
    let small = bench_store(100_000).incr_publish_ms;
    let large = bench_store(1_000_000).incr_publish_ms;
    let ratio = large / small;
    println!(
        "fleet_gate: one-binding publish {small:.4} ms at 100k tenants, {large:.4} ms at 1M \
         ({ratio:.2}x, bound {PUBLISH_SCALING_BOUND}x)"
    );
    if ratio > PUBLISH_SCALING_BOUND {
        eprintln!("fleet_gate: FAIL — publish cost grows with fleet size");
        return false;
    }
    true
}

/// `--bench`: the EXPERIMENTS.md propagation, store-throughput and
/// host-change tables.
fn bench() {
    let mut samples: Vec<u64> = Vec::new();
    let mut retries = 0u64;
    let mut dedups = 0u64;
    for &seed in SEEDS {
        let cfg = FleetConfig::small(seed, seal_demo_artifact());
        let r = run_fleet(&cfg, ChaosPlan::inert(seed));
        assert!(r.converged, "seed {seed} did not converge");
        samples.extend_from_slice(&r.propagation_ns);
        retries += r.retries;
        dedups += r.dedup_drops;
    }
    samples.sort_unstable();
    println!(
        "propagation (lossy net, {} samples over seeds {SEEDS:?}): \
         p50 {:.1} µs, p99 {:.1} µs, {} retransmits, {} dedup drops",
        samples.len(),
        percentile(&samples, 0.50) as f64 / 1e3,
        percentile(&samples, 0.99) as f64 / 1e3,
        retries,
        dedups,
    );
    println!();
    println!("| tenants | bulk bind (M/s) | incr publish (ms) | resolve (M/s) |");
    println!("|---|---|---|---|");
    for tenants in [100_000, 1_000_000] {
        let c = bench_store(tenants);
        println!(
            "| {tenants} | {:.1} | {:.3} | {:.1} |",
            c.bulk_binds_per_s / 1e6,
            c.incr_publish_ms,
            c.resolves_per_s / 1e6,
        );
    }
    let (apply_us, revert_us) = bench_host();
    println!();
    println!("| host change, 8 locks | median (µs) |");
    println!("|---|---|");
    println!("| `RealFleetHost::apply` | {apply_us:.1} |");
    println!("| `revert` of the version beneath | {revert_us:.1} |");
}

fn main() {
    if std::env::args().any(|a| a == "--bench") {
        bench();
        return;
    }
    println!("fleet_gate: sweeping seeds {SEEDS:?}");
    let mut failed = !gate_publish_scaling();
    for &seed in SEEDS {
        if !gate_seed(seed) {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("fleet_gate: OK");
}
