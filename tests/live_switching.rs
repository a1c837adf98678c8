//! Live policy switching under load: the core C3 promise — "modify kernel
//! locks on the fly without re-compiling" — exercised while worker threads
//! hammer the locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use concord::{Concord, PolicySpec};
use locks::hooks::HookKind;
use locks::{Bravo, NeutralRwLock, RawLock, RawRwLock, ShflLock};

#[test]
fn attach_detach_while_lock_is_hot() {
    let concord = Arc::new(Concord::new());
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("hot", Arc::clone(&lock));

    let stop = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for t in 0..4u32 {
        let (l, s, tot) = (Arc::clone(&lock), Arc::clone(&stop), Arc::clone(&total));
        workers.push(std::thread::spawn(move || {
            locks::topo::pin_thread(t * 20);
            while s.load(Ordering::Relaxed) == 0 {
                let _g = l.lock();
                tot.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Control plane: repeatedly load, attach, detach different policies
    // while the workers run.
    let loaded_numa = concord.load(concord::policies::numa_aware()).unwrap();
    let loaded_prio = concord.load(concord::policies::priority_boost()).unwrap();
    for _ in 0..50 {
        let h1 = concord.attach("hot", &loaded_numa).unwrap();
        std::thread::yield_now();
        let h2 = concord.attach("hot", &loaded_prio).unwrap();
        std::thread::yield_now();
        concord.detach(h2).unwrap();
        concord.detach(h1).unwrap();
    }
    assert!(concord.live_patches().is_empty());

    stop.store(1, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    assert!(total.load(Ordering::Relaxed) > 0);
    // After all switching, the lock still works.
    let _g = lock.lock();
}

#[test]
fn profiling_toggles_while_hot() {
    use concord::profiler::Profiler;

    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord
        .registry()
        .register_shfl("observed", Arc::clone(&lock));

    let stop = Arc::new(AtomicU64::new(0));
    let worker = {
        let (l, s) = (Arc::clone(&lock), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut n = 0u64;
            while s.load(Ordering::Relaxed) == 0 {
                let _g = l.lock();
                n += 1;
            }
            n
        })
    };

    let mut observed_total = 0;
    for _ in 0..10 {
        let mut prof = Profiler::attach(&concord, &["observed"]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let profiles = prof.detach(&concord).unwrap();
        observed_total += profiles[0].1.counters().0;
    }
    stop.store(1, Ordering::Relaxed);
    let worker_count = worker.join().unwrap();
    assert!(observed_total > 0, "profiler saw nothing");
    assert!(
        observed_total <= worker_count,
        "profiler cannot see more acquisitions than happened"
    );
}

#[test]
fn bravo_switching_shifts_read_paths_under_load() {
    let concord = Concord::new();
    let lock = Arc::new(Bravo::new(NeutralRwLock::new()));
    concord
        .registry()
        .register_bravo("file_table", Arc::clone(&lock));

    // Warm up with biased reads.
    for _ in 0..100 {
        let _r = lock.read();
    }
    let (fast_before, _, _) = lock.stats();
    assert!(fast_before > 0);

    // Switch off: all reads take the underlying lock.
    concord.switch_bravo_bias("file_table", false).unwrap();
    let (fast_mid, slow_mid, _) = lock.stats();
    for _ in 0..100 {
        let _r = lock.read();
    }
    let (fast_after, slow_after, _) = lock.stats();
    assert_eq!(fast_after, fast_mid, "no fast reads while disabled");
    assert_eq!(slow_after - slow_mid, 100);

    // Switch back on: bias returns after a slow read re-enables it.
    concord.switch_bravo_bias("file_table", true).unwrap();
    for _ in 0..10 {
        let _r = lock.read();
    }
    let (fast_final, _, _) = lock.stats();
    assert!(fast_final > fast_after, "bias did not come back");
}

#[test]
fn policy_asm_hot_swap_changes_decisions() {
    // Two policies with opposite answers, swapped live; a probe via the
    // hook table must observe the swap.
    let concord = Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("l", Arc::clone(&lock));

    let yes = concord
        .load(PolicySpec::from_asm(
            "yes",
            HookKind::CmpNode,
            "mov r0, 1\nexit",
        ))
        .unwrap();
    let no = concord
        .load(PolicySpec::from_asm(
            "no",
            HookKind::CmpNode,
            "mov r0, 0\nexit",
        ))
        .unwrap();

    let probe_ctx = locks::hooks::CmpNodeCtx {
        lock_id: lock.id(),
        shuffler: locks::hooks::NodeView {
            tid: 1,
            cpu: 0,
            socket: 0,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        },
        curr: locks::hooks::NodeView {
            tid: 2,
            cpu: 40,
            socket: 4,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        },
    };

    let h_yes = concord.attach("l", &yes).unwrap();
    assert!(lock.hooks().eval_cmp_node(&probe_ctx));
    let h_no = concord.attach("l", &no).unwrap();
    assert!(!lock.hooks().eval_cmp_node(&probe_ctx));
    concord.detach(h_no).unwrap();
    assert!(
        lock.hooks().eval_cmp_node(&probe_ctx),
        "revert restores `yes`"
    );
    concord.detach(h_yes).unwrap();
    assert!(
        !lock.hooks().eval_cmp_node(&probe_ctx),
        "vacant hook = FIFO"
    );
}

#[test]
fn rename_style_lock_chains_with_inheritance_policy() {
    // The paper's lock-inheritance motivation: a rename-like operation
    // "can acquire up to 12 locks". Build a 12-lock chain, attach the
    // inheritance policy to every lock, and verify the chain completes
    // correctly under competing single-lock traffic.
    use std::sync::atomic::AtomicBool;

    let concord = Arc::new(Concord::new());
    let chain: Vec<Arc<ShflLock>> = (0..12)
        .map(|i| {
            let l = Arc::new(ShflLock::new());
            concord
                .registry()
                .register_shfl(&format!("vfs{i}"), Arc::clone(&l));
            l
        })
        .collect();
    let loaded = concord.load(concord::policies::lock_inheritance()).unwrap();
    let mut patches = Vec::new();
    for i in 0..12 {
        patches.push(concord.attach(&format!("vfs{i}"), &loaded).unwrap());
    }

    let stop = Arc::new(AtomicBool::new(false));
    // Competing single-lock traffic on half the chain members (a single
    // host CPU serializes everything; keep the schedule pressure bounded).
    let mut noise = Vec::new();
    for (i, l) in chain.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        let (l, s) = (Arc::clone(l), Arc::clone(&stop));
        noise.push(std::thread::spawn(move || {
            locks::topo::pin_thread((i as u32 * 7) % 80);
            while !s.load(Ordering::Relaxed) {
                let _g = l.lock();
            }
        }));
    }
    // The renamer: acquires the whole chain in order, declaring held
    // counts — the context the inheritance policy consumes.
    let renamer = {
        let chain: Vec<_> = chain.iter().map(Arc::clone).collect();
        std::thread::spawn(move || {
            locks::topo::pin_thread(0);
            for _ in 0..100 {
                let mut guards = Vec::new();
                for l in &chain {
                    guards.push(l.lock());
                    locks::topo::note_lock_acquired();
                }
                // All 12 held: the composite op.
                std::hint::spin_loop();
                while guards.pop().is_some() {
                    locks::topo::note_lock_released();
                }
            }
        })
    };
    renamer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for n in noise {
        n.join().unwrap();
    }
    // LIFO revert of all 12 patches.
    while let Some(p) = patches.pop() {
        concord.detach(p).unwrap();
    }
    assert!(concord.live_patches().is_empty());
}
