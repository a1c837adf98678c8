//! Cross-crate mutual-exclusion stress for the real-thread locks, with
//! and without policies attached.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use locks::hooks::CmpNodeCtx;
use locks::{Bravo, NeutralRwLock, RawLock, RawRwLock, ShflLock};

const THREADS: usize = 8;
const ITERS: usize = 3_000;

struct Shared<L> {
    lock: L,
    counter: UnsafeCell<u64>,
    inside: AtomicU32,
}

// SAFETY: `counter` is only touched while `lock` is held; the test asserts
// exactly that via `inside`.
unsafe impl<L: RawLock> Sync for Shared<L> {}

fn stress<L: RawLock + 'static>(lock: L) {
    stress_holding(lock, |_| {});
}

/// Runs the stress with `hold(i)` inside the `i`-th critical section of
/// each thread; returns the shared state for the caller's checks.
fn stress_holding<L: RawLock + 'static>(lock: L, hold: fn(usize)) -> Arc<Shared<L>> {
    let shared = Arc::new(Shared {
        lock,
        counter: UnsafeCell::new(0),
        inside: AtomicU32::new(0),
    });
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let s = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            locks::topo::pin_thread((t as u32 * 13) % 80);
            for i in 0..ITERS {
                let _g = s.lock.lock();
                // Relaxed: the holder count adds no ordering of its own
                // (see `mutex_stress` in `locks/src/raw.rs`), so only the
                // lock under test orders one holder after the last.
                assert_eq!(s.inside.fetch_add(1, Ordering::Relaxed), 0);
                // SAFETY: protected by the lock under test.
                unsafe {
                    *s.counter.get() += 1;
                }
                hold(i);
                s.inside.fetch_sub(1, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all threads joined.
    assert_eq!(unsafe { *shared.counter.get() }, (THREADS * ITERS) as u64);
    shared
}

#[test]
fn shfl_lock_fifo() {
    stress(ShflLock::new());
}

#[test]
fn shfl_lock_numa() {
    stress(ShflLock::with_numa_policy());
}

#[test]
fn shfl_mutex() {
    stress(ShflLock::blocking());
}

/// A blocking lock under a `cmp_node` policy: every 64th critical section
/// sleeps, so waiters behind the head park, and the head's shuffle phases
/// move parked nodes. Exclusion and the count must survive both.
#[test]
fn shfl_lock_blocking_parks_under_shuffling() {
    let lock = ShflLock::blocking();
    lock.hooks().install_cmp_node(Arc::new(|c: &CmpNodeCtx| {
        c.curr.socket == c.shuffler.socket
    }));
    let shared = stress_holding(lock, |i| {
        if i % 64 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    });
    assert!(shared.lock.park_count() > 0, "no waiter parked");
    assert!(shared.lock.shuffle_count() > 0, "no shuffle phase ran");
}

#[test]
fn shfl_lock_with_every_prebuilt_policy() {
    use concord::Concord;

    for spec in [
        concord::policies::numa_aware(),
        concord::policies::priority_boost(),
        concord::policies::lock_inheritance(),
        concord::policies::scheduler_cooperative(5_000),
        concord::policies::amp_aware(40),
    ] {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("under_test", Arc::clone(&lock));
        let name = spec.name.clone();
        let loaded = c.load(spec).unwrap();
        let h = c.attach("under_test", &loaded).unwrap();

        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..6u32 {
            let (l, cnt) = (Arc::clone(&lock), Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                locks::topo::pin_thread(t * 11 % 80);
                locks::topo::set_priority(t as i64 - 3);
                locks::topo::set_cs_hint(u64::from(t) * 1_000);
                for _ in 0..1_000 {
                    let _g = l.lock();
                    cnt.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for hdl in handles {
            hdl.join().unwrap();
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            6_000,
            "policy `{name}` lost acquisitions"
        );
        c.detach(h).unwrap();
    }
}

#[test]
fn rwlock_consistency() {
    struct RwShared {
        lock: NeutralRwLock,
        pair: UnsafeCell<(u64, u64)>,
    }
    // SAFETY: pair written under write lock, read under read lock.
    unsafe impl Sync for RwShared {}

    let s = Arc::new(RwShared {
        lock: NeutralRwLock::new(),
        pair: UnsafeCell::new((0, 0)),
    });
    let mut handles = Vec::new();
    for t in 0..6 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                if t < 2 {
                    let _g = s.lock.write();
                    // SAFETY: exclusive.
                    unsafe {
                        let p = &mut *s.pair.get();
                        p.0 += 1;
                        p.1 += 1;
                    }
                } else {
                    let _g = s.lock.read();
                    // SAFETY: shared, writers excluded.
                    let p = unsafe { *s.pair.get() };
                    assert_eq!(p.0, p.1);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: joined.
    assert_eq!(unsafe { *s.pair.get() }.0, 4_000);
}

#[test]
fn bravo_consistency_under_switching() {
    struct BrShared {
        lock: Bravo<NeutralRwLock>,
        pair: UnsafeCell<(u64, u64)>,
    }
    // SAFETY: as above.
    unsafe impl Sync for BrShared {}

    let s = Arc::new(BrShared {
        lock: Bravo::new(NeutralRwLock::new()),
        pair: UnsafeCell::new((0, 0)),
    });
    let stop = Arc::new(AtomicU32::new(0));
    // A control-plane thread toggling the bias while readers/writers run.
    let toggler = {
        let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut on = false;
            while stop.load(Ordering::Relaxed) == 0 {
                s.lock.set_bias_enabled(on);
                on = !on;
                std::thread::yield_now();
            }
            s.lock.set_bias_enabled(true);
        })
    };
    let mut handles = Vec::new();
    for t in 0..5 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                if t == 0 {
                    let _g = s.lock.write();
                    // SAFETY: exclusive.
                    unsafe {
                        let p = &mut *s.pair.get();
                        p.0 += 1;
                        p.1 += 1;
                    }
                } else {
                    let _g = s.lock.read();
                    // SAFETY: shared.
                    let p = unsafe { *s.pair.get() };
                    assert_eq!(p.0, p.1, "writer overlapped a reader");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    toggler.join().unwrap();
    // SAFETY: joined.
    assert_eq!(unsafe { *s.pair.get() }.0, 2_000);
}

#[test]
fn sim_zoo_sweep_under_schedule_explorer() {
    // The simulated zoo, swept by the schedule explorer's random strategy:
    // adversarial delay/preempt injection at every hook site must never
    // produce a mutual-exclusion, lock-order, deadlock or starvation
    // violation on a correct lock (the planted-bug fixtures prove the
    // same oracles do fire on broken ones — tests/schedule_explore.rs).
    use concord::{explore, ExploreConfig, Fixture, StrategySpec, ZooLock};

    let spec = StrategySpec::from_name("random").unwrap();
    for zoo in ZooLock::ALL {
        let cfg = ExploreConfig {
            schedules: 12,
            base_seed: 0xa11,
        };
        let report = explore(Fixture::Zoo(zoo), &spec, &cfg).unwrap();
        assert!(
            report.violation.is_none(),
            "zoo_{} flagged under injection: {:?}",
            zoo.name(),
            report.violation
        );
        assert_eq!(report.schedules_run, 12, "sweep ended early");
    }
}
