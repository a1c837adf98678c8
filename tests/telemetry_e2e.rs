//! End-to-end telemetry: the single ordered stream the trace plane
//! promises, exercised through every event class at once.
//!
//! A bytecode policy that calls `trace_emit` is attached to a contended
//! ShflLock; the drained stream must interleave lock-slow-path
//! transitions, hook-dispatch spans, and the policy's own emitted
//! records, in timestamp order. The same scenario on the simulated
//! machine must produce a deterministic, seed-stable sequence stamped in
//! DES virtual time.
//!
//! The armed flag is process-global, so every test here serializes on
//! one mutex and drains leftovers before measuring.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use concord::{Concord, PolicySpec, SimPatches};
use ksim::SimBuilder;
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};
use simlocks::SimShflLock;
use telemetry::{EventKind, TraceEvent};

/// One-byte `trace_emit` payload (`b"A"`), valid on every hook.
const EMITTER_ASM: &str =
    "stb [r10-1], 65\n mov r1, r10\n add r1, -1\n mov r2, 1\n call trace_emit\n mov r0, 0\n exit";

static TRACE_GUARD: Mutex<()> = Mutex::new(());

/// Serializes armed-plane tests and starts from an empty, disarmed plane.
fn trace_session() -> MutexGuard<'static, ()> {
    let guard = TRACE_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_armed(false);
    telemetry::drain();
    guard
}

#[test]
fn real_lock_stream_interleaves_all_three_event_classes() {
    let _session = trace_session();

    let c = Concord::new();
    let lock = Arc::new(ShflLock::new());
    c.registry().register_shfl("traced", Arc::clone(&lock));
    let loaded = c
        .load(PolicySpec::from_asm(
            "emitter",
            HookKind::LockAcquired,
            EMITTER_ASM,
        ))
        .unwrap();
    let handle = c.attach("traced", &loaded).unwrap();

    telemetry::set_armed(true);
    // Guarantee contention regardless of core count: one holder sleeps
    // inside the critical section while the waiters pile up, then
    // everyone hammers for volume.
    let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let holder = {
        let l = Arc::clone(&lock);
        let h = Arc::clone(&held);
        std::thread::spawn(move || {
            locks::topo::pin_thread(0);
            let g = l.lock();
            h.store(true, std::sync::atomic::Ordering::Release);
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(g);
            for _ in 0..200 {
                let g = l.lock();
                std::hint::black_box(&g);
                drop(g);
            }
        })
    };
    while !held.load(std::sync::atomic::Ordering::Acquire) {
        std::hint::spin_loop();
    }
    let mut workers = Vec::new();
    for i in 1..4u32 {
        let l = Arc::clone(&lock);
        workers.push(std::thread::spawn(move || {
            locks::topo::pin_thread(i * 10);
            for _ in 0..200 {
                let g = l.lock();
                std::hint::black_box(&g);
                drop(g);
            }
        }));
    }
    holder.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    telemetry::set_armed(false);
    let events = telemetry::drain();
    c.detach(handle).unwrap();

    let lock_id = c.registry().get("traced").unwrap().id();
    let stream: Vec<&TraceEvent> = events.iter().filter(|e| e.a == lock_id).collect();
    assert!(!stream.is_empty(), "no events for the traced lock");

    // Merged drain order is the stream's contract: nondecreasing time.
    assert!(
        stream.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "drained stream is not in timestamp order"
    );

    let count = |k: EventKind| stream.iter().filter(|e| e.kind == k).count();
    assert!(count(EventKind::LockAcquire) > 0, "no acquire transitions");
    assert!(
        count(EventKind::LockAcquired) > 0,
        "no acquired transitions"
    );
    assert!(count(EventKind::LockRelease) > 0, "no release transitions");
    assert!(
        count(EventKind::LockContended) > 0,
        "4-thread hammer produced no contention"
    );
    assert!(count(EventKind::HookSpan) > 0, "no hook-dispatch spans");
    assert!(count(EventKind::PolicyEmit) > 0, "no policy-emitted events");

    // Interleaving: policy emissions happen *among* the transitions, not
    // batched before or after them.
    let first = |k: EventKind| stream.iter().position(|e| e.kind == k).unwrap();
    let last = |k: EventKind| stream.iter().rposition(|e| e.kind == k).unwrap();
    assert!(
        first(EventKind::PolicyEmit) < last(EventKind::LockRelease),
        "policy emissions all trail the transitions"
    );
    assert!(
        first(EventKind::LockAcquire) < last(EventKind::PolicyEmit),
        "transitions all trail the policy emissions"
    );

    for ev in stream.iter().filter(|e| e.kind == EventKind::HookSpan) {
        assert_eq!(
            ev.b,
            u64::from(HookKind::LockAcquired.bit()),
            "hook span carries the wrong hook bit"
        );
        assert!(ev.c > 0, "hook span executed zero instructions");
        assert_eq!(
            ev.c + ev.d,
            1 << 16,
            "insns + budget-remaining must equal the hook budget"
        );
    }
    for ev in stream.iter().filter(|e| e.kind == EventKind::PolicyEmit) {
        assert_eq!(ev.payload_bytes(), b"A", "trace_emit payload mangled");
        assert!(ev.b > 0, "policy emit lost the emitting tid");
    }

    // A span is stamped with its hook's entry time, which for an event
    // hook is the timestamp the site put on the transition record. On its
    // ring (one per pinned thread here) the span follows that record with
    // only the policy's own emissions between; in the merged stream it
    // sorts directly after it; and it never runs ahead of the ring's next
    // record.
    let mut rings: BTreeMap<u16, Vec<(usize, &TraceEvent)>> = BTreeMap::new();
    for (at, ev) in stream.iter().enumerate() {
        rings.entry(ev.cpu).or_default().push((at, ev));
    }
    for ring in rings.values_mut() {
        ring.sort_by_key(|(_, e)| e.seq);
        for (i, (at, span)) in ring.iter().enumerate() {
            if span.kind != EventKind::HookSpan {
                continue;
            }
            let site = ring[..i]
                .iter()
                .rev()
                .find(|(_, e)| e.kind != EventKind::PolicyEmit);
            // A ring that wrapped may have lost the first span's site.
            if let Some((site_at, site)) = site {
                assert_eq!(site.kind, EventKind::LockAcquired, "span follows {site:?}");
                assert_eq!(span.ts_ns, site.ts_ns, "span is not stamped at hook entry");
                assert_eq!(
                    *at,
                    site_at + 1,
                    "span does not sort directly after its site"
                );
            }
            assert!(
                ring.get(i + 1)
                    .is_none_or(|(_, next)| span.ts_ns <= next.ts_ns),
                "span runs ahead of the next record on its ring"
            );
        }
    }
    // Entry stamps put a span ahead of the records its policy emitted
    // during the run, so one ring's records reach the analyzer out of seq
    // order; that must not read as loss (a wrapped ring loses a prefix,
    // never the middle).
    let report = telemetry::analyze::analyze(&events, telemetry::AnalyzeConfig::default());
    assert_eq!(report.seq_gaps, 0, "reordered records counted as drops");
}

/// One `RealEnv` serves every policy a `Concord` attaches, so the lock a
/// `policy_emit` record names has to come from the thread that fired the
/// hook, not from whichever thread fired last. Two threads hammer two
/// locks with the same emitter attached to both; every record each one
/// emits must carry its own lock.
#[test]
fn policy_emits_carry_the_firing_threads_lock() {
    let _session = trace_session();

    let c = Concord::new();
    let loaded = c
        .load(PolicySpec::from_asm(
            "emitter",
            HookKind::LockAcquired,
            EMITTER_ASM,
        ))
        .unwrap();
    let pair: Vec<Arc<ShflLock>> = ["left", "right"]
        .into_iter()
        .map(|name| {
            let lock = Arc::new(ShflLock::new());
            c.registry().register_shfl(name, Arc::clone(&lock));
            c.attach(name, &loaded).unwrap();
            lock
        })
        .collect();

    telemetry::set_armed(true);
    let running = Arc::new(AtomicUsize::new(pair.len()));
    let start = Arc::new(Barrier::new(pair.len()));
    let workers: Vec<_> = pair
        .iter()
        .zip([0u32, 10])
        .map(|(lock, cpu)| {
            let (l, running, start) = (Arc::clone(lock), Arc::clone(&running), Arc::clone(&start));
            std::thread::spawn(move || {
                locks::topo::pin_thread(cpu);
                start.wait();
                for _ in 0..20_000 {
                    drop(l.lock());
                }
                running.fetch_sub(1, Ordering::Release);
                (locks::topo::current_tid(), l.id())
            })
        })
        .collect();
    // A ring keeps its newest 512 records, so drain while the workers run.
    let mut emits = Vec::new();
    let mut collect = || {
        let drained = telemetry::drain();
        emits.extend(
            drained
                .into_iter()
                .filter(|e| e.kind == EventKind::PolicyEmit),
        );
    };
    while running.load(Ordering::Acquire) > 0 {
        collect();
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    telemetry::set_armed(false);
    collect();

    let lock_of: BTreeMap<u64, u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let mislabelled = emits
        .iter()
        .filter(|e| lock_of.get(&e.b) != Some(&e.a))
        .count();
    assert!(
        emits.len() >= 1_000,
        "only {} policy_emit records drained",
        emits.len()
    );
    assert_eq!(
        mislabelled,
        0,
        "{mislabelled} of {} policy_emit records carry the other thread's lock",
        emits.len()
    );
}

/// Runs the contended-sim scenario and returns its drained, seq-normalized
/// event stream. Caller holds the session guard with the plane armed.
fn sim_trace(seed: u64) -> Vec<TraceEvent> {
    telemetry::drain();
    let c = Concord::new();
    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let loaded = c
        .load(PolicySpec::from_asm(
            "emitter",
            HookKind::CmpNode,
            EMITTER_ASM,
        ))
        .unwrap();
    let policy = c.make_sim_policy(&sim, &[&loaded]);
    SimPatches::new(&sim).attach("lock", &lock, Rc::new(policy));

    // Two waiters per socket keeps the queue deep enough that the
    // shuffler scans successors (and so consults `cmp_node`) every phase.
    for i in 0..16u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(ksim::CpuId((i % 8) * 10 + i / 8), move |t| async move {
            for _ in 0..25 {
                l.acquire(&t).await;
                t.advance(200 + t.rng_u64() % 100).await;
                l.release(&t).await;
                t.advance(t.rng_u64() % 400).await;
            }
        });
    }
    sim.run();

    let lock_id = lock.id();
    let mut events = telemetry::drain();
    events.retain(|e| e.a == lock_id);
    // Ring sequence numbers are process-global and monotonic, so two
    // identical runs differ only there; normalize them away.
    for e in &mut events {
        e.seq = 0;
    }
    events
}

#[test]
fn sim_trace_is_deterministic_and_seed_stable() {
    let _session = trace_session();
    telemetry::set_armed(true);
    let first = sim_trace(7);
    let second = sim_trace(7);
    let other_seed = sim_trace(8);
    telemetry::set_armed(false);
    telemetry::drain();

    assert!(!first.is_empty(), "sim scenario produced no events");
    assert!(
        first.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "sim stream is not in virtual-timestamp order"
    );
    let has = |k: EventKind| first.iter().any(|e| e.kind == k);
    assert!(has(EventKind::LockAcquire), "no sim acquire transitions");
    assert!(has(EventKind::LockContended), "no sim contention");
    assert!(has(EventKind::CmpNode), "shuffler consulted no policy");
    assert!(has(EventKind::HookSpan), "no sim hook spans");
    assert!(has(EventKind::PolicyEmit), "no sim policy emissions");

    assert_eq!(
        first, second,
        "same seed must replay a bit-identical event sequence"
    );
    assert_ne!(
        first, other_seed,
        "different seeds should not collide on the full stream"
    );
}

/// A sim attach and its revert emit `PatchApply`/`PatchRevert` stamped in
/// the simulator's virtual time and named by the patch, so two identical
/// runs drain identical records.
#[test]
fn sim_patch_records_carry_virtual_time() {
    let _session = trace_session();
    telemetry::set_armed(true);
    let name_hash = telemetry::event::fnv64("traced/policy");
    let run = || {
        telemetry::drain();
        let sim = SimBuilder::new().seed(3).build();
        let lock = Rc::new(SimShflLock::new(&sim));
        let patches = Rc::new(SimPatches::new(&sim));
        let stamps = Rc::new(std::cell::Cell::new((0, 0)));
        let (l, p, s) = (Rc::clone(&lock), Rc::clone(&patches), Rc::clone(&stamps));
        sim.spawn_on(ksim::CpuId(0), move |t| async move {
            t.advance(1_000).await;
            p.attach("traced", &l, Rc::new(simlocks::FifoPolicy));
            let applied_at = t.now();
            t.advance(5_000).await;
            assert_eq!(p.revert_tagged("", ["traced"]).unwrap(), vec!["traced"]);
            s.set((applied_at, t.now()));
        });
        sim.run();
        let mut records: Vec<TraceEvent> = telemetry::drain()
            .into_iter()
            .filter(|e| e.a == name_hash)
            .collect();
        for e in &mut records {
            e.seq = 0;
        }
        (records, stamps.get())
    };
    let (records, (applied_at, reverted_at)) = run();
    assert!(applied_at > 0 && reverted_at > applied_at);
    let seen: Vec<(EventKind, u64, &[u8])> = records
        .iter()
        .map(|e| (e.kind, e.ts_ns, e.payload_bytes()))
        .collect();
    assert_eq!(
        seen,
        vec![
            (EventKind::PatchApply, applied_at, &b"traced/policy"[..]),
            (EventKind::PatchRevert, reverted_at, &b"traced/policy"[..]),
        ]
    );
    assert_eq!(run().0, records, "a second run drains the same records");
    telemetry::set_armed(false);
}

/// A blocking lock records every acquisition: N uncontended
/// `lock()`/`unlock()` pairs and one `try_acquire` leave N + 1
/// `lock_acquired` records, and the analyzer pairs every release with
/// its hold.
#[test]
fn blocking_lock_trace_is_exact() {
    const N: usize = 100;
    let _session = trace_session();
    let lock = ShflLock::blocking();
    telemetry::set_armed(true);
    for _ in 0..N {
        drop(lock.lock());
    }
    drop(lock.try_lock().expect("uncontended try_lock succeeds"));
    telemetry::set_armed(false);
    let events = telemetry::drain();
    let acquired = events
        .iter()
        .filter(|e| e.a == lock.id() && e.kind == EventKind::LockAcquired)
        .count();
    let report = telemetry::analyze::analyze(&events, telemetry::AnalyzeConfig::default());
    assert_eq!(
        acquired,
        N + 1,
        "an acquisition left no lock_acquired record"
    );
    assert_eq!(report.anomalies, 0);
    assert!(report.exact(), "{}", report.render());
}

/// `cmp_node` attached to a blocking lock runs: a holder sleeps while six
/// waiters from two sockets queue behind it, each of them then holds for a
/// while, and every queue head shuffles the waiters behind it.
#[test]
fn blocking_lock_runs_cmp_node() {
    let _session = trace_session();
    let c = Concord::new();
    let lock = Arc::new(ShflLock::blocking());
    c.registry().register_shfl("blocking", Arc::clone(&lock));
    let loaded = c.load(concord::policies::numa_aware()).unwrap();
    let handle = c.attach("blocking", &loaded).unwrap();

    telemetry::set_armed(true);
    let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let holder = {
        let (l, h) = (Arc::clone(&lock), Arc::clone(&held));
        std::thread::spawn(move || {
            locks::topo::pin_thread(0);
            let _g = l.lock();
            h.store(true, Ordering::Release);
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
    };
    while !held.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    let mut waiters = Vec::new();
    for i in 1..7u32 {
        let l = Arc::clone(&lock);
        waiters.push(std::thread::spawn(move || {
            locks::topo::pin_thread((i % 2) * 10 + i);
            let _g = l.lock();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }));
    }
    holder.join().unwrap();
    for w in waiters {
        w.join().unwrap();
    }
    telemetry::set_armed(false);
    let events = telemetry::drain();
    c.detach(handle).unwrap();

    let cmp_nodes = events
        .iter()
        .filter(|e| e.a == lock.id() && e.kind == EventKind::CmpNode)
        .count();
    assert!(cmp_nodes > 0, "no cmp_node ran on the blocking lock");
}
