//! End-to-end fault containment: a policy that faults at runtime must
//! degrade to the unpatched lock's behavior, trip its circuit breaker,
//! get quarantined by a livepatch revert — and none of it may cost the
//! lock its invariants (mutual exclusion, queue-node preservation) or
//! the simulator its bit-for-bit determinism.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use cbpf::fault::{FaultInjector, FaultPlan};
use cbpf::FaultKind;
use concord::{Breaker, BreakerConfig, BreakerState, Concord, ContainedPolicy};
use ksim::{CpuId, SimBuilder, SimStats};
use locks::hooks::{CmpNodeCtx, HookKind, NodeView};
use locks::{RawLock, ShflLock};
use proptest::prelude::*;
use simlocks::SimShflLock;

fn view(cpu: u32) -> NodeView {
    NodeView {
        tid: u64::from(cpu) + 1,
        cpu,
        socket: cpu / 10,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    }
}

/// Outcome of one simulated containment run, everything that must be
/// bit-identical across replays of the same seed.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ChainOutcome {
    stats: SimStats,
    moves: u64,
    trips: u64,
    faults: [u64; 4],
    quarantined_at: u64,
    quarantines: usize,
}

/// The full chain under the DES: healthy policy → injected faults →
/// fail-safe decisions → breaker trip → quarantine (revert to FIFO) →
/// recovery, with a supervisor task playing `sweep_breakers` in virtual
/// time.
fn chain_run(seed: u64) -> ChainOutcome {
    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let concord = Concord::new();
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let breaker = Arc::new(Breaker::new(BreakerConfig {
        threshold: 3,
        cooldown_ns: None,
    }));
    let injector = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
        60,
        FaultKind::Helper,
    )));
    let policy = concord
        .make_sim_policy(&sim, &[&loaded])
        .with_containment(Arc::clone(&breaker), Some(injector));
    concord.attach_sim(&lock, Rc::new(policy));

    for i in 0..16u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId((i % 8) * 10 + i / 8), move |t| async move {
            for _ in 0..25 {
                l.acquire(&t).await;
                t.advance(200 + t.rng_u64() % 100).await;
                l.release(&t).await;
                t.advance(t.rng_u64() % 400).await;
            }
        });
    }
    // The supervisor: polls the breaker on a virtual-time cadence and
    // quarantines the tripped policy, exactly what `sweep_breakers` does
    // for real locks.
    let quarantined_at = Rc::new(Cell::new(0u64));
    {
        let (l, b, q) = (
            Rc::clone(&lock),
            Arc::clone(&breaker),
            Rc::clone(&quarantined_at),
        );
        let concord = Concord::new();
        let registry_probe = concord; // Records quarantines; owned by the task.
        sim.spawn_on(CpuId(79), move |t| async move {
            for _ in 0..400 {
                t.advance(1_000).await;
                if b.wants_quarantine() {
                    let rec = registry_probe.quarantine_sim(
                        &l,
                        "sim_lock",
                        HookKind::CmpNode,
                        "numa_aware",
                        b.reason(),
                        t.now(),
                    );
                    assert!(rec.reason.contains("helper"));
                    q.set(t.now());
                    break;
                }
            }
        });
    }
    let stats = sim.run();
    ChainOutcome {
        stats,
        moves: lock.move_count(),
        trips: breaker.trips(),
        faults: breaker.faults_by_kind(),
        quarantined_at: quarantined_at.get(),
        quarantines: 1, // asserted below via quarantined_at != 0
    }
}

#[test]
fn sim_chain_faults_trip_quarantine_and_recover() {
    let out = chain_run(7);
    assert!(out.moves > 0, "healthy phase shuffled before the faults");
    assert_eq!(out.trips, 1, "breaker tripped exactly once");
    assert!(
        out.faults[FaultKind::Helper.index()] >= 3,
        "threshold-many consecutive injected faults were recorded"
    );
    assert!(
        out.quarantined_at > 0,
        "the supervisor quarantined the tripped policy in virtual time"
    );
    // Recovery: every task still finished every acquisition (16 workers +
    // 1 supervisor), on fail-safe decisions and then on plain FIFO.
    assert_eq!(out.stats.tasks_completed, 17);
}

/// The chain's outcome for two seeds, recorded before the real and the
/// simulated hook paths shared one dispatcher. Replaying a run against
/// itself cannot see a refactor that moves the sim's containment path
/// (a charge, a breaker check, the fault position); these constants can.
#[test]
fn sim_chain_matches_recorded_pins() {
    for (seed, trace_hash) in [(7, 0x0b53_8942_b789_12e7), (42, 0xffd4_304b_77e7_65c4)] {
        let out = chain_run(seed);
        assert_eq!(out.stats.trace_hash, trace_hash, "seed {seed}: trace hash");
        assert_eq!(out.moves, 1, "seed {seed}: shuffle moves");
        assert_eq!(out.trips, 1, "seed {seed}: breaker trips");
        assert_eq!(out.faults, [0, 0, 3, 0], "seed {seed}: faults by kind");
        assert_eq!(out.quarantined_at, 26_000, "seed {seed}: quarantine time");
    }
}

#[test]
fn sim_chain_replays_bit_identically() {
    let a = chain_run(42);
    let b = chain_run(42);
    assert_eq!(a, b, "same seed ⇒ identical trace, faults and quarantine");
    let c = chain_run(43);
    assert_ne!(
        a.stats.trace_hash, c.stats.trace_hash,
        "different seed ⇒ different trace"
    );
}

#[test]
fn sim_breaker_with_cooldown_rearms_after_transient_fault() {
    let sim = SimBuilder::new().seed(9).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let concord = Concord::new();
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let breaker = Arc::new(Breaker::new(BreakerConfig {
        threshold: 1,
        cooldown_ns: Some(20_000),
    }));
    // One transient fault: trips the breaker, then the half-open probe
    // succeeds and the policy resumes.
    let injector = Arc::new(FaultInjector::new(FaultPlan::on_invocation(
        10,
        FaultKind::Trap,
    )));
    let policy = concord
        .make_sim_policy(&sim, &[&loaded])
        .with_containment(Arc::clone(&breaker), Some(injector));
    concord.attach_sim(&lock, Rc::new(policy));
    for i in 0..8u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId(i * 10), move |t| async move {
            for _ in 0..60 {
                l.acquire(&t).await;
                t.advance(300).await;
                l.release(&t).await;
                t.advance(100).await;
            }
        });
    }
    sim.run();
    assert_eq!(breaker.trips(), 1, "the transient fault tripped once");
    assert_eq!(
        breaker.state(),
        BreakerState::Closed,
        "cooldown elapsed and the probe re-armed the breaker"
    );
    assert!(!breaker.wants_quarantine());
}

#[test]
fn real_lock_stays_mutually_exclusive_while_policy_faults() {
    // A counter that would corrupt under racing increments; the guard is
    // the lock under test with an always-faulting policy attached.
    struct Racy(std::cell::UnsafeCell<u64>);
    // SAFETY: only accessed under the ShflLock guard, which is exactly
    // the property the test asserts.
    unsafe impl Sync for Racy {}

    let c = Concord::new();
    let lock = Arc::new(ShflLock::new());
    c.registry().register_shfl("hot", Arc::clone(&lock));
    let loaded = c.load(concord::policies::numa_aware()).unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
        1,
        FaultKind::Trap,
    )));
    let (_h, breaker) = c
        .attach_contained(
            "hot",
            &loaded,
            BreakerConfig {
                threshold: 1_000_000, // Never trips: faults keep flowing.
                cooldown_ns: None,
            },
            Some(inj),
        )
        .unwrap();

    const THREADS: u32 = 4;
    const ITERS: u64 = 2_000;
    let counter = Arc::new(Racy(std::cell::UnsafeCell::new(0)));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let (l, ctr) = (Arc::clone(&lock), Arc::clone(&counter));
        handles.push(std::thread::spawn(move || {
            locks::topo::pin_thread((t * 10) % 80);
            for _ in 0..ITERS {
                let _g = l.lock();
                // SAFETY: under the guard (the assertion of this test).
                unsafe { *ctr.0.get() += 1 };
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Queue-node preservation is asserted by shuffle()'s debug invariants
    // while this contended workload runs; the count proves exclusion.
    assert_eq!(
        unsafe { *counter.0.get() },
        u64::from(THREADS) * ITERS,
        "no lost increments despite every policy invocation faulting"
    );
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(c.sweep_breakers().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fault injected at an arbitrary invocation with an arbitrary
    /// kind never breaks the DES: all tasks complete all acquisitions
    /// and the trace replays bit-identically.
    #[test]
    fn sim_fault_at_arbitrary_invocation_keeps_determinism(
        seed in any::<u64>(),
        fault_at in 1u64..120,
        kind_ix in 0usize..4,
    ) {
        let kind = FaultKind::ALL[kind_ix];
        let run = || {
            let sim = SimBuilder::new().seed(seed).build();
            let lock = Rc::new(SimShflLock::new(&sim));
            let concord = Concord::new();
            let loaded = concord.load(concord::policies::numa_aware()).unwrap();
            let breaker = Arc::new(Breaker::new(BreakerConfig::default()));
            let injector = Arc::new(FaultInjector::new(
                FaultPlan::from_invocation(fault_at, kind),
            ));
            let policy = concord
                .make_sim_policy(&sim, &[&loaded])
                .with_containment(Arc::clone(&breaker), Some(injector));
            concord.attach_sim(&lock, Rc::new(policy));
            let in_cs = Rc::new(Cell::new(false));
            for i in 0..8u32 {
                let (l, flag) = (Rc::clone(&lock), Rc::clone(&in_cs));
                sim.spawn_on(CpuId(i * 10), move |t| async move {
                    for _ in 0..10 {
                        l.acquire(&t).await;
                        assert!(!flag.get(), "two tasks inside the critical section");
                        flag.set(true);
                        t.advance(150 + t.rng_u64() % 50).await;
                        flag.set(false);
                        l.release(&t).await;
                        t.advance(t.rng_u64() % 200).await;
                    }
                });
            }
            let stats = sim.run();
            prop_assert_eq!(stats.tasks_completed, 8, "every task finished");
            Ok((stats, breaker.trips(), breaker.faults_by_kind()))
        };
        let a = run()?;
        let b = run()?;
        prop_assert_eq!(a, b, "same seed and plan ⇒ identical replay");
    }

    /// Whenever enough consecutive faults trip a breaker on a real lock,
    /// the quarantine sweep always ends with the patch reverted, the hook
    /// vacant, and a record explaining why.
    #[test]
    fn tripped_breaker_always_ends_in_a_reverted_patch(
        fault_at in 1u64..8,
        threshold in 1u32..5,
        kind_ix in 0usize..4,
    ) {
        let kind = FaultKind::ALL[kind_ix];
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("l", Arc::clone(&lock));
        let loaded = c.load(concord::policies::numa_aware()).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(fault_at, kind)));
        let (_h, breaker) = c
            .attach_contained(
                "l",
                &loaded,
                BreakerConfig { threshold, cooldown_ns: None },
                Some(inj),
            )
            .unwrap();
        // Drive the hook as the shuffle phase would, enough times to pass
        // the fault onset plus the trip threshold.
        let ctx = CmpNodeCtx { lock_id: lock.id(), shuffler: view(0), curr: view(10) };
        for _ in 0..(fault_at + u64::from(threshold) + 2) {
            lock.hooks().eval_cmp_node(&ctx);
        }
        prop_assert_eq!(breaker.state(), BreakerState::Open);
        let records = c.sweep_breakers();
        prop_assert_eq!(records.len(), 1);
        prop_assert!(records[0].reason.contains("breaker tripped"));
        prop_assert!(c.live_patches().is_empty(), "patch reverted");
        prop_assert!(!lock.hooks().is_active(HookKind::CmpNode), "hook vacant");
        prop_assert_eq!(c.registry().quarantines("l").len(), 1);
        // Once quarantined, the lock serves vacant-slot decisions.
        prop_assert!(!lock.hooks().eval_cmp_node(&ctx));
    }
}

/// The `ContainedPolicy` wrapper (sim-side containment without bytecode)
/// degrades each hook class to its vacant-slot default once open.
#[test]
fn contained_wrapper_serves_fail_safe_defaults_when_open() {
    let sim = SimBuilder::new().build();
    let breaker = Arc::new(Breaker::new(BreakerConfig {
        threshold: 1,
        cooldown_ns: None,
    }));
    let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
        1,
        FaultKind::Map,
    )));
    let p = ContainedPolicy::new(
        &sim,
        Rc::new(simlocks::NativePolicy::numa_aware()),
        Arc::clone(&breaker),
        Some(inj),
    );
    use simlocks::policy::SimPolicy;
    let ctx = CmpNodeCtx {
        lock_id: 1,
        shuffler: view(0),
        curr: view(0),
    };
    let (d, _) = p.cmp_node(&ctx); // Faults → fail-safe "no reorder".
    assert!(!d, "NUMA policy would have said true; fail-safe says false");
    assert_eq!(breaker.state(), BreakerState::Open);
    assert!(breaker.wants_quarantine());
    assert!(breaker.reason().contains("map"));
}
