//! Workload generators reproducing the locking patterns of the paper's
//! three benchmarks (§5) on the simulated machine.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use concord::policy::AttachedNoopPolicy;
use concord::{Concord, SimPatches};
use ksim::{Sim, SimBuilder, SimStats, TaskCtx};
use simlocks::{
    NativePolicy, SimBravo, SimMcsLock, SimNeutralRwLock, SimShflLock, SimTasLock, SimTicketLock,
};
use telemetry::CostModel;

use crate::hashtable::HashTable;

/// Work per simulated page fault (µs-scale, as on real hardware).
pub const FAULT_NS: u64 = 1_200;
/// Read-side faults between address-space updates (mmap/munmap take the
/// lock exclusively; on will-it-scale's 128 MB mappings writes are ~3e-5
/// of operations — rare but present).
pub const FAULTS_PER_MAP: u64 = 4_096;
/// Work under the write lock (munmap + mmap bookkeeping).
pub const REMAP_NS: u64 = 4_000;

/// Critical-section compute of the `lock2` pattern (tiny, write-heavy).
pub const LOCK2_CS_NS: u64 = 120;
/// Shared lines written inside the `lock2` critical section (the
/// lock-protected state whose locality NUMA batching preserves).
pub const LOCK2_DATA_WORDS: usize = 3;
/// Base think time between `lock2` acquisitions; the actual gap adds
/// jitter up to [`LOCK2_JITTER_NS`] so that re-arrival order decorrelates
/// from completion order (on hardware, wake-up and pipeline noise does
/// this; a deterministic simulator must inject it explicitly or FIFO
/// locks inherit same-socket runs for free).
pub const LOCK2_THINK_NS: u64 = 150;
/// Upper bound of the think-time jitter.
pub const LOCK2_JITTER_NS: u64 = 1_200;

/// Hash-table keyspace (load factor ≈ 4 over 1024 buckets).
pub const HT_KEYS: u64 = 4_096;
/// Hash-table bucket count.
pub const HT_BUCKETS: usize = 1_024;
/// Think time between hash-table operations.
pub const HT_THINK_NS: u64 = 250;

/// [`CostModel::switched_entry_ns`] of the seed model, under the name the
/// benchmark harness's replica of Fig. 2(a) imports.
pub const SWITCHED_ENTRY_NS: u64 = CostModel::SEED.switched_entry_ns;

/// Series of Fig. 2(a).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RwSeries {
    /// Neutral readers-writer lock (`rwsem`/`qrwlock` analog).
    Stock,
    /// BRAVO compiled in.
    Bravo,
    /// BRAVO installed at run time through Concord's lock switching.
    ConcordBravo,
}

/// Series of Fig. 2(b).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpinSeries {
    /// MCS (`qspinlock` analog).
    StockMcs,
    /// ShflLock with the NUMA policy compiled in.
    ShflNuma,
    /// ShflLock with the NUMA policy as verified Concord bytecode.
    ConcordShflNuma,
}

/// Series of Fig. 2(c).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HtSeries {
    /// Plain ShflLock, nothing attached.
    Baseline,
    /// ShflLock patched by Concord with a policy that runs no user code —
    /// the paper's worst case.
    ConcordNoop,
    /// The worst case with fault containment armed: the no-op policy
    /// behind a circuit breaker and an inert (never-firing) fault
    /// injector, so every hook invocation pays the breaker check and the
    /// injector sample on top of the trampoline.
    ConcordNoopContained,
}

fn sim_for(seed: u64) -> Sim {
    SimBuilder::new().seed(seed).build()
}

fn placement(sim: &Sim, n: u32) -> Vec<ksim::CpuId> {
    sim.topology().compact_placement(n as usize)
}

/// The simulated mutexes the lock loops drive.
pub enum SimMutex {
    /// Test-and-set.
    Tas(SimTasLock),
    /// Ticket.
    Ticket(SimTicketLock),
    /// MCS (`qspinlock` analog).
    Mcs(SimMcsLock),
    /// ShflLock, with whatever policy its slot holds.
    Shfl(SimShflLock),
}

impl SimMutex {
    async fn acquire(&self, t: &TaskCtx) {
        match self {
            SimMutex::Tas(l) => l.acquire(t).await,
            SimMutex::Ticket(l) => l.acquire(t).await,
            SimMutex::Mcs(l) => l.acquire(t).await,
            SimMutex::Shfl(l) => l.acquire(t).await,
        }
    }

    async fn release(&self, t: &TaskCtx) {
        match self {
            SimMutex::Tas(l) => l.release(t).await,
            SimMutex::Ticket(l) => l.release(t).await,
            SimMutex::Mcs(l) => l.release(t).await,
            SimMutex::Shfl(l) => l.release(t).await,
        }
    }
}

/// One operation of the contended-lock loop, in virtual ns.
#[derive(Clone, Copy, Debug)]
pub struct LockOp {
    /// The task's index in placement order.
    pub task: usize,
    /// When the task began to acquire.
    pub start_ns: u64,
    /// When it held the lock.
    pub acquired_ns: u64,
    /// When its release returned.
    pub released_ns: u64,
}

/// The contended-lock loop of the ablations, the lock zoo and Table 1:
/// `threads` tasks placed compactly on `sim` each acquire `lock`, hold
/// it 300 ns, release it and think 150 ns plus up to 600 ns of seeded
/// jitter, until `window_ns`. `on_op` sees every operation on the host:
/// it charges no virtual time and draws no random number, so what it
/// records cannot change the run.
pub fn run_contended(
    sim: &Sim,
    lock: SimMutex,
    threads: u32,
    window_ns: u64,
    on_op: impl Fn(LockOp) + 'static,
) -> SimStats {
    let (lock, on_op) = (Rc::new(lock), Rc::new(on_op));
    for (task, cpu) in placement(sim, threads).into_iter().enumerate() {
        let (l, f) = (Rc::clone(&lock), Rc::clone(&on_op));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < window_ns {
                let start_ns = t.now();
                l.acquire(&t).await;
                let acquired_ns = t.now();
                t.advance(300).await;
                l.release(&t).await;
                f(LockOp {
                    task,
                    start_ns,
                    acquired_ns,
                    released_ns: t.now(),
                });
                t.advance(150 + t.rng_u64() % 600).await;
            }
        });
    }
    let stats = sim.run();
    assert!(
        stats.stuck_tasks.is_empty(),
        "deadlock in the contended-lock loop"
    );
    stats
}

/// [`run_contended`]'s acquisitions, per task in placement order.
pub fn contended_counts(sim: &Sim, lock: SimMutex, threads: u32, window_ns: u64) -> Vec<u64> {
    let counts = Rc::new(RefCell::new(vec![0u64; threads as usize]));
    let c = Rc::clone(&counts);
    run_contended(sim, lock, threads, window_ns, move |op| {
        c.borrow_mut()[op.task] += 1;
    });
    counts.take()
}

/// Runs `sim` to completion; returns operations per virtual millisecond
/// and the run's statistics.
fn finish(sim: &Sim, ops: &Cell<u64>, window_ns: u64, what: &str) -> (f64, SimStats) {
    let stats = sim.run();
    assert!(stats.stuck_tasks.is_empty(), "deadlock in {what}");
    (ops.get() as f64 / (window_ns as f64 / 1e6), stats)
}

enum RwLockImpl {
    Stock(SimNeutralRwLock),
    Bravo(SimBravo, u64),
}

impl RwLockImpl {
    async fn read_acquire(&self, t: &TaskCtx) {
        match self {
            RwLockImpl::Stock(l) => l.read_acquire(t).await,
            RwLockImpl::Bravo(l, extra) => {
                if *extra > 0 {
                    t.advance(*extra).await;
                }
                l.read_acquire(t).await;
            }
        }
    }

    async fn read_release(&self, t: &TaskCtx) {
        match self {
            RwLockImpl::Stock(l) => l.read_release(t).await,
            RwLockImpl::Bravo(l, extra) => {
                if *extra > 0 {
                    t.advance(*extra).await;
                }
                l.read_release(t).await;
            }
        }
    }

    async fn write_acquire(&self, t: &TaskCtx) {
        match self {
            RwLockImpl::Stock(l) => l.write_acquire(t).await,
            RwLockImpl::Bravo(l, extra) => {
                if *extra > 0 {
                    t.advance(*extra).await;
                }
                l.write_acquire(t).await;
            }
        }
    }

    async fn write_release(&self, t: &TaskCtx) {
        match self {
            RwLockImpl::Stock(l) => l.write_release(t).await,
            RwLockImpl::Bravo(l, extra) => {
                if *extra > 0 {
                    t.advance(*extra).await;
                }
                l.write_release(t).await;
            }
        }
    }
}

/// Runs the `page_fault2` pattern (Fig. 2(a)); returns faults per virtual
/// millisecond.
pub fn run_page_fault2(threads: u32, series: RwSeries, window_ns: u64, seed: u64) -> f64 {
    page_fault2_point(threads, series, window_ns, seed).0
}

/// [`run_page_fault2`] with the simulator's own account of the run.
pub fn page_fault2_point(
    threads: u32,
    series: RwSeries,
    window_ns: u64,
    seed: u64,
) -> (f64, SimStats) {
    let sim = sim_for(seed);
    let lock = Rc::new(match series {
        RwSeries::Stock => RwLockImpl::Stock(SimNeutralRwLock::new(&sim)),
        RwSeries::Bravo => RwLockImpl::Bravo(SimBravo::new(&sim), 0),
        // Live-switched BRAVO pays the patched-entry indirection.
        RwSeries::ConcordBravo => {
            RwLockImpl::Bravo(SimBravo::new(&sim), CostModel::SEED.switched_entry_ns)
        }
    });
    let ops = Rc::new(Cell::new(0u64));
    for cpu in placement(&sim, threads) {
        let (l, o) = (Rc::clone(&lock), Rc::clone(&ops));
        sim.spawn_on(cpu, move |t| async move {
            'outer: loop {
                for _ in 0..FAULTS_PER_MAP {
                    if t.now() >= window_ns {
                        break 'outer;
                    }
                    l.read_acquire(&t).await;
                    t.advance(FAULT_NS).await;
                    l.read_release(&t).await;
                    o.set(o.get() + 1);
                }
                // Address-space update: exclusive.
                l.write_acquire(&t).await;
                t.advance(REMAP_NS).await;
                l.write_release(&t).await;
            }
        });
    }
    finish(&sim, &ops, window_ns, "page_fault2")
}

/// Runs the `lock2` pattern (Fig. 2(b)); returns acquisitions per virtual
/// millisecond.
pub fn run_lock2(threads: u32, series: SpinSeries, window_ns: u64, seed: u64) -> f64 {
    lock2_point(threads, series, window_ns, seed).0
}

/// [`run_lock2`] with the simulator's own account of the run.
pub fn lock2_point(threads: u32, series: SpinSeries, window_ns: u64, seed: u64) -> (f64, SimStats) {
    let sim = sim_for(seed);
    let ops = Rc::new(Cell::new(0u64));
    let data: Rc<Vec<ksim::SimWord>> = Rc::new(
        (0..LOCK2_DATA_WORDS)
            .map(|_| ksim::SimWord::new(&sim, 0))
            .collect(),
    );

    let lock = Rc::new(match series {
        SpinSeries::StockMcs => SimMutex::Mcs(SimMcsLock::new(&sim)),
        SpinSeries::ShflNuma => {
            let l = SimShflLock::new(&sim);
            l.set_policy(Rc::new(NativePolicy::numa_aware()));
            SimMutex::Shfl(l)
        }
        SpinSeries::ConcordShflNuma => {
            let l = SimShflLock::new(&sim);
            let concord = Concord::new();
            let loaded = concord
                .load(concord::policies::numa_aware())
                .expect("prebuilt policy verifies");
            let policy = concord.make_sim_policy(&sim, &[&loaded]);
            SimPatches::new(&sim).attach("lock2", &l, Rc::new(policy));
            SimMutex::Shfl(l)
        }
    });

    for cpu in placement(&sim, threads) {
        let (l, o, d) = (Rc::clone(&lock), Rc::clone(&ops), Rc::clone(&data));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < window_ns {
                l.acquire(&t).await;
                for w in d.iter() {
                    w.fetch_add(&t, 1).await;
                }
                t.advance(LOCK2_CS_NS).await;
                l.release(&t).await;
                o.set(o.get() + 1);
                t.advance(LOCK2_THINK_NS + t.rng_u64() % LOCK2_JITTER_NS)
                    .await;
            }
        });
    }
    finish(&sim, &ops, window_ns, "lock2")
}

/// Runs the global-lock hash-table pattern (Fig. 2(c)); returns operations
/// per virtual millisecond.
pub fn run_hashtable(threads: u32, series: HtSeries, window_ns: u64, seed: u64) -> f64 {
    hashtable_point(threads, series, window_ns, seed).0
}

/// [`run_hashtable`] with the simulator's own account of the run.
pub fn hashtable_point(
    threads: u32,
    series: HtSeries,
    window_ns: u64,
    seed: u64,
) -> (f64, SimStats) {
    hashtable_with(threads, window_ns, seed, |sim, lock| match series {
        HtSeries::Baseline => {}
        HtSeries::ConcordNoop => lock.set_policy(Rc::new(AttachedNoopPolicy)),
        HtSeries::ConcordNoopContained => {
            use cbpf::fault::{FaultInjector, FaultPlan};
            use concord::containment::{Breaker, BreakerConfig, ContainedPolicy};
            use std::sync::Arc;
            let breaker = Arc::new(Breaker::new(BreakerConfig::default()));
            let injector = Arc::new(FaultInjector::new(FaultPlan::inert(seed)));
            lock.set_policy(Rc::new(ContainedPolicy::new(
                sim,
                Rc::new(AttachedNoopPolicy),
                breaker,
                Some(injector),
            )));
        }
    })
}

/// The Fig. 2(c) hash-table loop on a ShflLock that `attach` sets up
/// (it gets the machine and the lock before any task runs); returns
/// operations per virtual millisecond and the run's statistics.
pub fn hashtable_with(
    threads: u32,
    window_ns: u64,
    seed: u64,
    attach: impl FnOnce(&Sim, &Rc<SimShflLock>),
) -> (f64, SimStats) {
    let sim = sim_for(seed);
    let lock = Rc::new(SimShflLock::new(&sim));
    attach(&sim, &lock);
    let table = Rc::new(RefCell::new(HashTable::new(HT_BUCKETS)));
    // Pre-populate to the steady-state load factor.
    {
        let mut t = table.borrow_mut();
        for k in 0..HT_KEYS {
            t.insert(k, k);
        }
    }
    let ops = Rc::new(Cell::new(0u64));
    for cpu in placement(&sim, threads) {
        let (l, tb, o) = (Rc::clone(&lock), Rc::clone(&table), Rc::clone(&ops));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < window_ns {
                let r = t.rng_u64();
                let key = r % HT_KEYS;
                l.acquire(&t).await;
                // The operation mix of the resizable-hash-table benchmark:
                // read-mostly with a write tail.
                let cost = match r % 10 {
                    0 => tb.borrow_mut().insert(key, r).0,
                    1 => tb.borrow_mut().remove(key).0,
                    _ => tb.borrow().lookup(key).0,
                };
                t.advance(cost).await;
                l.release(&t).await;
                o.set(o.get() + 1);
                t.advance(HT_THINK_NS).await;
            }
        });
    }
    finish(&sim, &ops, window_ns, "hashtable")
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 300_000; // 0.3 ms keeps unit tests fast.

    #[test]
    fn page_fault2_all_series_run() {
        for series in [RwSeries::Stock, RwSeries::Bravo, RwSeries::ConcordBravo] {
            let tp = run_page_fault2(4, series, W, 1);
            assert!(tp > 0.0, "{series:?} produced no throughput");
        }
    }

    #[test]
    fn lock2_all_series_run() {
        for series in [
            SpinSeries::StockMcs,
            SpinSeries::ShflNuma,
            SpinSeries::ConcordShflNuma,
        ] {
            let tp = run_lock2(4, series, W, 1);
            assert!(tp > 0.0, "{series:?} produced no throughput");
        }
    }

    #[test]
    fn hashtable_all_series_run() {
        for series in [
            HtSeries::Baseline,
            HtSeries::ConcordNoop,
            HtSeries::ConcordNoopContained,
        ] {
            let tp = run_hashtable(4, series, W, 1);
            assert!(tp > 0.0, "{series:?} produced no throughput");
        }
    }

    #[test]
    fn patched_entry_at_the_seed_cost_is_the_noop_series() {
        use concord::policy::PatchedEntryPolicy;
        let entry = CostModel::SEED.entry_ns;
        let (tp, stats) = hashtable_with(8, W, 3, |_, lock| {
            lock.set_policy(Rc::new(PatchedEntryPolicy(entry)));
        });
        let (want_tp, want) = hashtable_point(8, HtSeries::ConcordNoop, W, 3);
        assert_eq!((tp, stats.events), (want_tp, want.events));
    }

    #[test]
    fn armed_containment_stays_within_five_percent_of_bare_noop() {
        let noop = run_hashtable(8, HtSeries::ConcordNoop, W, 3);
        let contained = run_hashtable(8, HtSeries::ConcordNoopContained, W, 3);
        let norm = contained / noop;
        assert!(
            (0.95..=1.02).contains(&norm),
            "armed containment overhead out of budget: {norm:.3}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_lock2(8, SpinSeries::ShflNuma, W, 7);
        let b = run_lock2(8, SpinSeries::ShflNuma, W, 7);
        assert_eq!(a, b);
    }

    /// `(events, trace_hash, final_time_ns, transfers)` of three figure
    /// points at seed 42 over the figures' 3 ms window, recorded at the
    /// commit before timers were delivered in place. How an event reaches
    /// its task is not part of the run: none of these may move.
    #[test]
    fn figure_points_repeat_their_recorded_runs() {
        const WINDOW: u64 = 3_000_000;
        let pins = [
            (
                "lock2 ShflNuma 80",
                lock2_point(80, SpinSeries::ShflNuma, WINDOW, 42).1,
                (202_201, 0xa6e0_9379_b781_8834, 3_030_272, 22_345),
            ),
            (
                "hashtable ConcordNoop 40",
                hashtable_point(40, HtSeries::ConcordNoop, WINDOW, 42).1,
                (107_000, 0xf71a_15e5_961c_8c12, 3_019_393, 18_414),
            ),
            (
                "page_fault2 Bravo 8",
                page_fault2_point(8, RwSeries::Bravo, WINDOW, 42).1,
                (97_408, 0xb920_feb2_9ec2_aa0a, 3_000_150, 9),
            ),
        ];
        for (name, s, want) in pins {
            let got = (s.events, s.trace_hash, s.final_time_ns, s.transfers);
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn bravo_beats_stock_on_read_heavy_at_scale() {
        let stock = run_page_fault2(40, RwSeries::Stock, W, 2);
        let bravo = run_page_fault2(40, RwSeries::Bravo, W, 2);
        assert!(
            bravo > stock * 1.5,
            "expected BRAVO ≫ Stock at 40 readers: bravo={bravo:.0} stock={stock:.0}"
        );
    }

    #[test]
    fn concord_noop_costs_something_but_not_everything() {
        let base = run_hashtable(8, HtSeries::Baseline, W, 3);
        let noop = run_hashtable(8, HtSeries::ConcordNoop, W, 3);
        let norm = noop / base;
        assert!(
            norm > 0.5 && norm <= 1.02,
            "normalized Concord throughput out of range: {norm:.3}"
        );
    }
}
