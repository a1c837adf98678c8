//! End-to-end test of the Concord workflow (paper Fig. 1).
//!
//! specify → compile → verify → notify → store → patch → run → revert,
//! including the rejection path and the simulated-machine attach.

use std::rc::Rc;
use std::sync::Arc;

use concord::{Concord, ConcordError, PolicySpec, SimPatches};
use ksim::{CpuId, SimBuilder};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};
use simlocks::SimShflLock;

/// The user's policy, written as the assembly a C-style frontend would
/// emit: NUMA-aware cmp_node (same socket ⇒ move forward).
fn numa_asm() -> String {
    let layout = concord::hookctx::cmp_node_layout();
    let sh = layout.field("shuffler_socket").unwrap().offset;
    let cu = layout.field("curr_socket").unwrap().offset;
    format!(
        r#"
        ; cmp_node(lock, shuffler, curr) -> curr.socket == shuffler.socket
        ldxw r2, [r1+{sh}]
        ldxw r3, [r1+{cu}]
        mov  r0, 0
        jne  r2, r3, out
        mov  r0, 1
    out:
        exit
        "#
    )
}

#[test]
fn fig1_full_pipeline_real_lock() {
    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord
        .registry()
        .register_shfl("mmap_sem", Arc::clone(&lock));

    // Step 1: specify.
    let spec = PolicySpec::from_asm("numa", HookKind::CmpNode, &numa_asm());
    // Steps 2-5: compile, verify, store.
    let loaded = concord.load(spec).expect("valid policy must verify");
    assert!(
        concord
            .store()
            .get_program("policies/numa/cmp_node")
            .is_some(),
        "verified policy must be pinned in the store"
    );
    // Step 6: patch.
    let handle = concord.attach("mmap_sem", &loaded).expect("attach");
    assert!(lock.hooks().is_active(HookKind::CmpNode));
    assert_eq!(concord.live_patches(), vec!["mmap_sem/cmp_node"]);

    // The patched lock still provides mutual exclusion under load.
    let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..6u32 {
        let (l, c) = (Arc::clone(&lock), Arc::clone(&counter));
        handles.push(std::thread::spawn(move || {
            locks::topo::pin_thread(t * 10);
            for _ in 0..1_000 {
                let _g = l.lock();
                c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 6_000);

    // Revert.
    concord.detach(handle).expect("detach");
    assert!(!lock.hooks().is_active(HookKind::CmpNode));
    assert!(concord.live_patches().is_empty());
}

#[test]
fn fig1_rejection_path_notifies_user() {
    let concord = Concord::new();
    // Unbounded loop: the verifier must reject and report the reason.
    let spec = PolicySpec::from_asm(
        "evil",
        HookKind::CmpNode,
        "spin:\n  mov r0, 1\n  ja spin\n  exit",
    );
    match concord.load(spec) {
        Err(ConcordError::Verify(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("backward"), "unexpected reason: {msg}");
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("an unbounded loop must not verify"),
    }
    // Nothing was stored.
    assert!(concord.store().list_programs("policies/evil").is_empty());
}

fn sim_moves(attach_numa: bool) -> u64 {
    let sim = SimBuilder::new().seed(5).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    if attach_numa {
        let concord = Concord::new();
        let loaded = concord.load(concord::policies::numa_aware()).unwrap();
        let policy = concord.make_sim_policy(&sim, &[&loaded]);
        SimPatches::new(&sim).attach("lock", &lock, Rc::new(policy));
    }
    for i in 0..24u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId((i % 4) * 10 + i / 4), move |t| async move {
            for _ in 0..25 {
                l.acquire(&t).await;
                t.advance(300).await;
                l.release(&t).await;
            }
        });
    }
    let stats = sim.run();
    assert!(stats.stuck_tasks.is_empty());
    lock.move_count()
}

#[test]
fn sim_attach_changes_behavior() {
    assert_eq!(sim_moves(false), 0, "unpatched lock never reorders");
    assert!(sim_moves(true) > 0, "NUMA policy must reorder the queue");
}

#[test]
fn sim_detach_restores_fifo() {
    let concord = Concord::new();
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let sim = SimBuilder::new().build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let policy = concord.make_sim_policy(&sim, &[&loaded]);
    let patches = SimPatches::new(&sim);
    patches.attach("lock", &lock, Rc::new(policy));
    assert_eq!(patches.revert_tagged("", ["lock"]).unwrap(), vec!["lock"]);
    assert!(patches.live().is_empty());
    for i in 0..8u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId(i * 10), move |t| async move {
            for _ in 0..10 {
                l.acquire(&t).await;
                t.advance(100).await;
                l.release(&t).await;
            }
        });
    }
    let stats = sim.run();
    assert!(stats.stuck_tasks.is_empty());
    assert_eq!(lock.move_count(), 0, "detached lock must be FIFO again");
}

#[test]
fn store_supports_reattach_without_recompile() {
    // A policy pinned in the store can be fetched and attached later
    // without recompiling (the point of Fig. 1 step 5).
    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("l", Arc::clone(&lock));
    concord
        .load(PolicySpec::from_asm(
            "keep",
            HookKind::LockAcquired,
            "mov r0, 0\nexit",
        ))
        .unwrap();

    let fetched = concord
        .store()
        .get_program("policies/keep/lock_acquired")
        .expect("pinned");
    let loaded = concord::LoadedPolicy {
        name: "keep".into(),
        hook: HookKind::LockAcquired,
        prog: fetched,
    };
    let h = concord.attach("l", &loaded).unwrap();
    {
        let _g = lock.lock();
    }
    concord.detach(h).unwrap();
}

#[test]
fn c_style_policy_end_to_end() {
    // The paper's §4.2 authoring surface: the user writes restricted C,
    // Concord compiles, verifies, stores and patches it.
    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("inode", Arc::clone(&lock));

    let spec = PolicySpec::from_c(
        "numa_c",
        HookKind::CmpNode,
        r#"
        // Group waiters from the shuffler's socket; break ties toward
        // higher-priority waiters.
        if (curr_socket == shuffler_socket)
            return 1;
        if (curr_prio > shuffler_prio)
            return 1;
        return 0;
        "#,
    );
    let loaded = concord.load(spec).expect("C policy compiles and verifies");
    let h = concord.attach("inode", &loaded).unwrap();

    // Probe decisions through the hook table.
    let mk = |cpu: u32, prio: i64| locks::hooks::NodeView {
        tid: 1,
        cpu,
        socket: cpu / 10,
        prio,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    let same_socket = locks::hooks::CmpNodeCtx {
        lock_id: lock.id(),
        shuffler: mk(5, 0),
        curr: mk(7, 0),
    };
    let remote_high_prio = locks::hooks::CmpNodeCtx {
        lock_id: lock.id(),
        shuffler: mk(5, 0),
        curr: mk(45, 3),
    };
    let remote_low_prio = locks::hooks::CmpNodeCtx {
        lock_id: lock.id(),
        shuffler: mk(5, 0),
        curr: mk(45, -1),
    };
    assert!(lock.hooks().eval_cmp_node(&same_socket));
    assert!(lock.hooks().eval_cmp_node(&remote_high_prio));
    assert!(!lock.hooks().eval_cmp_node(&remote_low_prio));

    concord.detach(h).unwrap();

    // The rejection path speaks C too: unknown fields are caught at
    // compile time, before the verifier even runs.
    let bad = PolicySpec::from_c("oops", HookKind::CmpNode, "return not_a_field;");
    match concord.load(bad) {
        Err(ConcordError::Asm(e)) => assert!(e.msg.contains("unknown identifier"), "{e}"),
        _ => panic!("expected a compile error"),
    }
}

#[test]
fn attach_class_patches_every_lock_or_none() {
    use concord::{LockClass, LockHandle};
    use locks::{Bravo, NeutralRwLock};

    // The paper's attach granularity "one lock instance up to every
    // lock": one call patches every lock registered in a class.
    let concord = Concord::new();
    let inode = || LockClass("inode".into());
    let locks: Vec<Arc<ShflLock>> = (0..3).map(|_| Arc::new(ShflLock::new())).collect();
    for (name, lock) in ["inode_a", "inode_b", "inode_c"].iter().zip(&locks) {
        concord
            .registry()
            .register(name, LockHandle::Shfl(Arc::clone(lock)), inode());
    }
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let handles = concord
        .attach_class("inode", &loaded)
        .expect("attach class");
    assert_eq!(
        concord.live_patches(),
        vec!["inode_a/cmp_node", "inode_b/cmp_node", "inode_c/cmp_node"]
    );
    assert!(locks.iter().all(|l| l.hooks().is_active(HookKind::CmpNode)));
    // Patches revert LIFO: the last lock of the class was patched last.
    for h in handles.into_iter().rev() {
        concord.detach(h).expect("detach");
    }
    assert!(concord.live_patches().is_empty());
    assert!(locks
        .iter()
        .all(|l| !l.hooks().is_active(HookKind::CmpNode)));

    // A BRAVO lock has no hook table. It sorts last in the class, so the
    // attach fails only after the three shuffle locks are patched, and
    // the transaction must unwind them.
    concord.registry().register(
        "inode_z",
        LockHandle::Bravo(Arc::new(Bravo::new(NeutralRwLock::new()))),
        inode(),
    );
    match concord.attach_class("inode", &loaded) {
        Err(ConcordError::NotHookable(name)) => assert_eq!(name, "inode_z"),
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("a class with an unhookable lock must not attach"),
    }
    assert!(concord.live_patches().is_empty());
    assert!(locks
        .iter()
        .all(|l| !l.hooks().is_active(HookKind::CmpNode)));
}

#[test]
fn event_subscribers_chain_and_revert_from_the_top() {
    use std::sync::atomic::{AtomicU64, Ordering};

    // Event hooks are observers: a bytecode subscriber attached over a
    // native one runs after it instead of replacing it, whether it comes
    // through `attach` or through an `attach_many` transaction, and a
    // detach pulls only the top subscriber.
    let concord = Concord::new();
    let locks: Vec<Arc<ShflLock>> = (0..2).map(|_| Arc::new(ShflLock::new())).collect();
    let native: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for ((name, lock), count) in ["one", "two"].iter().zip(&locks).zip(&native) {
        concord.registry().register_shfl(name, Arc::clone(lock));
        let count = Arc::clone(count);
        concord
            .attach_native_event(
                name,
                HookKind::LockAcquired,
                Arc::new(move |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .expect("native subscriber");
    }
    let map = concord::policies::counter_map("acq");
    let loaded = concord
        .load(concord::policies::event_counter(
            HookKind::LockAcquired,
            Arc::clone(&map),
        ))
        .unwrap();
    let first = concord.attach("one", &loaded).expect("attach");
    let second = concord.attach_many(&["two"], &loaded).expect("attach_many");
    assert_eq!(
        concord.live_patches(),
        vec![
            "one/lock_acquired",
            "two/lock_acquired",
            "one/lock_acquired",
            "two/lock_acquired"
        ]
    );

    let bytecode = || map.percpu_sum(&0u32.to_le_bytes());
    let acquire_each = || {
        for (lock, count) in locks.iter().zip(&native) {
            let before = count.load(Ordering::Relaxed);
            drop(lock.lock());
            assert_eq!(count.load(Ordering::Relaxed), before + 1);
        }
    };
    for round in 1..=3 {
        acquire_each();
        assert_eq!(bytecode(), 2 * round, "both bytecode subscribers fire");
    }

    for h in second {
        concord.detach(h).expect("detach the top patch");
    }
    concord.detach(first).expect("detach");
    assert_eq!(
        concord.live_patches(),
        vec!["one/lock_acquired", "two/lock_acquired"]
    );
    acquire_each();
    assert_eq!(bytecode(), 6, "detached subscribers stay silent");
    assert!(locks
        .iter()
        .all(|l| l.hooks().is_active(HookKind::LockAcquired)));
}

/// A profiling session over a registered and an unknown lock fails as a
/// whole: nothing of it is left on the patch stack, and the patch that
/// was there before stays.
#[test]
fn profiler_attach_to_an_unknown_lock_leaves_the_stack_as_it_was() {
    use concord::profiler::Profiler;

    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("known", Arc::clone(&lock));
    let loaded = concord
        .load(PolicySpec::from_asm(
            "first",
            HookKind::LockAcquired,
            "mov r0, 0\nexit",
        ))
        .unwrap();
    let _h = concord.attach("known", &loaded).unwrap();
    let before = concord.live_patches();
    assert_eq!(before, vec!["known/lock_acquired"]);

    match Profiler::attach(&concord, &["known", "ghost"]) {
        Err(ConcordError::UnknownLock(name)) => assert_eq!(name, "ghost"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("profiling an unknown lock succeeded"),
    }
    assert_eq!(concord.live_patches(), before);
    assert!(lock.hooks().is_active(HookKind::LockAcquired));
    assert!(!lock.hooks().is_active(HookKind::LockRelease));
}
