//! Ablations for the paper's §3 use cases: each experiment compares the
//! unpatched lock against the corresponding Concord policy and reports the
//! metric the use case is about.

use std::cell::Cell;
use std::rc::Rc;

use concord::{Concord, SimPatches};
use ksim::{CpuId, Sim, SimBuilder};
use simlocks::SimShflLock;

const WINDOW: u64 = 3_000_000;

fn sim() -> Sim {
    SimBuilder::new().seed(11).build()
}

fn attach(concord: &Concord, sim: &Sim, lock: &SimShflLock, spec: concord::PolicySpec) {
    let loaded = concord.load(spec).expect("prebuilt policy verifies");
    let policy = concord.make_sim_policy(sim, &[&loaded]);
    SimPatches::new(sim).attach("lock", lock, Rc::new(policy));
}

/// §3.1.1 Lock inheritance: task A holds L1 while queueing for L2; tasks
/// B* contend on L2 only. FIFO strands A (and therefore every L1 waiter)
/// at the back of L2's queue; the inheritance policy boosts holders.
/// Metric: mean time A needs for the L1+L2 composite operation.
fn lock_inheritance(with_policy: bool) -> f64 {
    let s = sim();
    let concord = Concord::new();
    let l1 = Rc::new(SimShflLock::new(&s));
    let l2 = Rc::new(SimShflLock::new(&s));
    if with_policy {
        attach(&concord, &s, &l2, concord::policies::lock_inheritance());
    }
    let composite_ns = Rc::new(Cell::new((0u64, 0u64))); // (sum, count)
                                                         // Task A: acquire L1, then L2, modeling `rename`-style chains.
    {
        let (a, b, c) = (Rc::clone(&l1), Rc::clone(&l2), Rc::clone(&composite_ns));
        s.spawn_on(CpuId(0), move |t| async move {
            while t.now() < WINDOW {
                let start = t.now();
                a.acquire_ctx(&t, 0, 0, 0).await;
                t.advance(200).await;
                b.acquire_ctx(&t, 0, 0, 1).await; // Declares: already holds one.
                t.advance(200).await;
                b.release(&t).await;
                a.release(&t).await;
                let (sum, n) = c.get();
                c.set((sum + (t.now() - start), n + 1));
                t.advance(500).await;
            }
        });
    }
    // Competitors hammer L2.
    for i in 1..24u32 {
        let b = Rc::clone(&l2);
        s.spawn_on(CpuId((i * 3) % 80), move |t| async move {
            while t.now() < WINDOW {
                b.acquire_ctx(&t, 0, 0, 0).await;
                t.advance(400).await;
                b.release(&t).await;
                t.advance(100 + t.rng_u64() % 400).await;
            }
        });
    }
    let stats = s.run();
    assert!(stats.stuck_tasks.is_empty());
    let (sum, n) = composite_ns.get();
    sum as f64 / n.max(1) as f64
}

/// §3.1.1 Lock priority boosting: two annotated high-priority tasks among
/// 30; metric: their mean wait per acquisition.
fn priority_boost(with_policy: bool) -> (f64, f64) {
    let s = sim();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&s));
    if with_policy {
        attach(&concord, &s, &lock, concord::policies::priority_boost());
    }
    let hi_wait = Rc::new(Cell::new((0u64, 0u64)));
    let lo_wait = Rc::new(Cell::new((0u64, 0u64)));
    for i in 0..30u32 {
        let l = Rc::clone(&lock);
        let prio = if i < 2 { 5 } else { 0 };
        let acc = if i < 2 {
            Rc::clone(&hi_wait)
        } else {
            Rc::clone(&lo_wait)
        };
        s.spawn_on(CpuId((i * 7) % 80), move |t| async move {
            while t.now() < WINDOW {
                let start = t.now();
                l.acquire_with(&t, prio, 0).await;
                acc.set((acc.get().0 + (t.now() - start), acc.get().1 + 1));
                t.advance(300).await;
                l.release(&t).await;
                t.advance(200 + t.rng_u64() % 500).await;
            }
        });
    }
    let stats = s.run();
    assert!(stats.stuck_tasks.is_empty());
    let mean = |c: &Rc<Cell<(u64, u64)>>| c.get().0 as f64 / c.get().1.max(1) as f64;
    (mean(&hi_wait), mean(&lo_wait))
}

/// §3.1.2 Scheduler subversion (SCL): half the tasks hold 8× longer.
/// Metric: throughput of the short-CS class with/without the
/// scheduler-cooperative policy.
fn scheduler_subversion(with_policy: bool) -> (u64, u64) {
    let s = sim();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&s));
    if with_policy {
        attach(
            &concord,
            &s,
            &lock,
            concord::policies::scheduler_cooperative(1_000),
        );
    }
    let short_ops = Rc::new(Cell::new(0u64));
    let long_ops = Rc::new(Cell::new(0u64));
    for i in 0..24u32 {
        let l = Rc::clone(&lock);
        let long = i % 2 == 0;
        let acc = if long {
            Rc::clone(&long_ops)
        } else {
            Rc::clone(&short_ops)
        };
        s.spawn_on(CpuId((i * 5) % 80), move |t| async move {
            let cs: u64 = if long { 2_400 } else { 300 };
            while t.now() < WINDOW {
                l.acquire_with(&t, 0, cs).await;
                t.advance(cs).await;
                l.release(&t).await;
                acc.set(acc.get() + 1);
                t.advance(150 + t.rng_u64() % 300).await;
            }
        });
    }
    let stats = s.run();
    assert!(stats.stuck_tasks.is_empty());
    (short_ops.get(), long_ops.get())
}

/// §3.1.2 AMP-aware locks: cores ≥ 40 are "efficiency" cores with 3× the
/// critical-section time. Metric: total throughput.
fn amp(with_policy: bool) -> u64 {
    let s = sim();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&s));
    if with_policy {
        attach(&concord, &s, &lock, concord::policies::amp_aware(40));
    }
    let ops = Rc::new(Cell::new(0u64));
    for i in 0..40u32 {
        let l = Rc::clone(&lock);
        let o = Rc::clone(&ops);
        let cpu = i * 2; // Half fast (cpu < 40), half slow.
        s.spawn_on(CpuId(cpu), move |t| async move {
            let cs: u64 = if cpu < 40 { 300 } else { 900 };
            while t.now() < WINDOW {
                l.acquire(&t).await;
                t.advance(cs).await;
                l.release(&t).await;
                o.set(o.get() + 1);
                t.advance(200 + t.rng_u64() % 400).await;
            }
        });
    }
    let stats = s.run();
    assert!(stats.stuck_tasks.is_empty());
    ops.get()
}

/// §3.1.1 Adaptable parking (real blocking mutex): the developer knows the
/// critical sections run ~100 µs, so a spin budget sized above that avoids
/// the park/unpark round trips entirely. Metric: park count.
fn adaptive_parking(with_policy: bool) -> u64 {
    use locks::RawLock;
    use std::sync::Arc;

    let concord = Concord::new();
    let lock = Arc::new(locks::ShflLock::blocking());
    concord.registry().register_shfl("m", Arc::clone(&lock));
    let handle = if with_policy {
        // Spin budget above the known CS length: never park.
        let loaded = concord
            .load(concord::policies::adaptive_parking(50_000_000))
            .unwrap();
        Some(concord.attach("m", &loaded).unwrap())
    } else {
        None
    };
    let mut handles = Vec::new();
    for _ in 0..3 {
        let l = Arc::clone(&lock);
        handles.push(std::thread::spawn(move || {
            for _ in 0..40 {
                let _g = l.lock();
                // ~100 µs critical section (declared via the CS hint on a
                // real deployment; fixed here).
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    if let Some(h) = handle {
        concord.detach(h).unwrap();
    }
    lock.park_count()
}

/// §3.2 Dynamic profiling granularity: profile one lock out of three and
/// show the others stay unobserved (zero overhead on them).
fn profiling_granularity() -> String {
    use concord::profiler::Profiler;
    use locks::RawLock;
    use std::sync::Arc;

    let concord = Concord::new();
    let locks: Vec<Arc<locks::ShflLock>> =
        (0..3).map(|_| Arc::new(locks::ShflLock::new())).collect();
    for (i, l) in locks.iter().enumerate() {
        concord
            .registry()
            .register_shfl(&format!("lock{i}"), Arc::clone(l));
    }
    let mut prof = Profiler::attach(&concord, &["lock1"]).unwrap();
    for _ in 0..1_000 {
        for l in &locks {
            let _g = l.lock();
        }
    }
    let report = prof.report();
    let seen = prof.profile("lock1").unwrap().counters().0;
    prof.detach(&concord).expect("profiler detaches");
    format!("profiled only lock1: saw {seen} acquisitions there, locks 0/2 unobserved\n{report}")
}

/// §3.1.2 Realtime scheduling: reader tail latency under a continuous
/// writer stream — the neutral (writer-preference) rwlock makes readers
/// wait out the whole writer queue; the phase-fair lock bounds the wait
/// to ~one writer phase. Returns (max reader wait neutral, phase-fair).
fn realtime_phase_fair() -> (u64, u64) {
    use simlocks::{SimNeutralRwLock, SimPhaseFairRwLock};

    fn run(phase_fair: bool) -> u64 {
        let s = SimBuilder::new().seed(21).build();
        enum Rw {
            Neutral(SimNeutralRwLock),
            Pf(SimPhaseFairRwLock),
        }
        let lock = Rc::new(if phase_fair {
            Rw::Pf(SimPhaseFairRwLock::new(&s))
        } else {
            Rw::Neutral(SimNeutralRwLock::new(&s))
        });
        const HOLD: u64 = 8_000;
        for i in 0..6u32 {
            let l = Rc::clone(&lock);
            s.spawn_on(CpuId(i * 10), move |t| async move {
                while t.now() < WINDOW {
                    match &*l {
                        Rw::Neutral(n) => {
                            n.write_acquire(&t).await;
                            t.advance(HOLD).await;
                            n.write_release(&t).await;
                        }
                        Rw::Pf(p) => {
                            p.write_acquire(&t).await;
                            t.advance(HOLD).await;
                            p.write_release(&t).await;
                        }
                    }
                    t.advance(500 + t.rng_u64() % 1_000).await;
                }
            });
        }
        let max_wait = Rc::new(Cell::new(0u64));
        {
            let (l, mw) = (Rc::clone(&lock), Rc::clone(&max_wait));
            s.spawn_on(CpuId(79), move |t| async move {
                while t.now() < WINDOW {
                    t.advance(12_000).await;
                    let start = t.now();
                    match &*l {
                        Rw::Neutral(n) => {
                            n.read_acquire(&t).await;
                            mw.set(mw.get().max(t.now() - start));
                            n.read_release(&t).await;
                        }
                        Rw::Pf(p) => {
                            p.read_acquire(&t).await;
                            mw.set(mw.get().max(t.now() - start));
                            p.read_release(&t).await;
                        }
                    }
                }
            });
        }
        let stats = s.run();
        assert!(stats.stuck_tasks.is_empty());
        max_wait.get()
    }
    (run(false), run(true))
}

/// §3.1.1 Exposing scheduler semantics (double scheduling): a hypervisor
/// keeps preempting vCPUs; granting the lock to a waiter on a preempted
/// vCPU stalls everyone behind it. The policy (written in C, using the
/// `cpu_online` scheduler-context helper) sinks preempted-vCPU waiters.
fn double_scheduling(with_policy: bool) -> u64 {
    let s = sim();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&s));
    if with_policy {
        attach(
            &concord,
            &s,
            &lock,
            concord::PolicySpec::from_c(
                "vcpu_aware",
                locks::hooks::HookKind::CmpNode,
                "return cpu_online(curr_cpu);",
            ),
        );
    }
    // A "hypervisor" task preempts a rotating set of vCPUs.
    {
        let hv = s.clone();
        s.spawn_on(CpuId(79), move |t| async move {
            let mut which = 0u32;
            while t.now() < WINDOW {
                // Take two vCPUs offline for 40 µs each.
                hv.preempt_cpu(CpuId(which % 24), t.now() + 40_000);
                hv.preempt_cpu(CpuId((which + 7) % 24), t.now() + 40_000);
                which += 3;
                t.advance(60_000).await;
            }
        });
    }
    let ops = Rc::new(Cell::new(0u64));
    for i in 0..24u32 {
        let (l, o) = (Rc::clone(&lock), Rc::clone(&ops));
        s.spawn_on(CpuId(i), move |t| async move {
            while t.now() < WINDOW {
                l.acquire(&t).await;
                t.advance(400).await;
                l.release(&t).await;
                o.set(o.get() + 1);
                t.advance(200 + t.rng_u64() % 400).await;
            }
        });
    }
    let stats = s.run();
    assert!(stats.stuck_tasks.is_empty());
    ops.get()
}

fn main() {
    println!("### §3 use-case ablations (simulated machine unless noted)\n");

    let base = lock_inheritance(false);
    let pol = lock_inheritance(true);
    println!("**Lock inheritance** — mean L1+L2 composite op latency:");
    println!(
        "  FIFO: {base:.0} ns   inheritance policy: {pol:.0} ns   ({:.2}× faster)\n",
        base / pol
    );

    let (hi_b, lo_b) = priority_boost(false);
    let (hi_p, lo_p) = priority_boost(true);
    println!("**Priority boosting** — mean wait per acquisition (ns):");
    println!("  FIFO:   high-prio {hi_b:.0}, normal {lo_b:.0}");
    println!(
        "  policy: high-prio {hi_p:.0}, normal {lo_p:.0}   (high-prio {:.2}× faster)\n",
        hi_b / hi_p
    );

    let (short_b, long_b) = scheduler_subversion(false);
    let (short_p, long_p) = scheduler_subversion(true);
    println!("**Scheduler subversion (SCL)** — ops by class:");
    println!("  FIFO:   short-CS {short_b}, long-CS {long_b}");
    println!(
        "  policy: short-CS {short_p}, long-CS {long_p}   (short-CS {:.2}×)\n",
        short_p as f64 / short_b as f64
    );

    let amp_b = amp(false);
    let amp_p = amp(true);
    println!("**AMP-aware locks** — total ops (half the cores 3× slower):");
    println!(
        "  FIFO: {amp_b}   fast-core-first policy: {amp_p}   ({:.2}×)\n",
        amp_p as f64 / amp_b as f64
    );

    let parks_b = adaptive_parking(false);
    let parks_p = adaptive_parking(true);
    println!("**Adaptable parking** (real threads) — parks during 120 ops with ~100 µs holds:");
    println!("  default spin-then-park: {parks_b}   tuned spin budget: {parks_p}\n");

    let ds_b = double_scheduling(false);
    let ds_p = double_scheduling(true);
    println!("**Exposing scheduler semantics (double scheduling)** — ops with a hypervisor preempting vCPUs:");
    println!(
        "  FIFO: {ds_b}   vCPU-aware policy (C source, cpu_online helper): {ds_p}   ({:.2}×)\n",
        ds_p as f64 / ds_b as f64
    );

    let (neutral_wait, pf_wait) = realtime_phase_fair();
    println!("**Realtime scheduling (phase-fair)** — max reader wait under a 6-writer stream:");
    println!(
        "  neutral rwlock: {neutral_wait} ns   phase-fair: {pf_wait} ns   ({:.1}× tighter tail)\n",
        neutral_wait as f64 / pf_wait as f64
    );

    println!("**Dynamic profiling granularity** (real threads):");
    println!("{}", profiling_granularity());
}
