//! The harness's own copies of `c3_bench::workloads::run_*`.
//!
//! The originals return only the virtual throughput and drop the
//! simulator's `SimStats`, so the per-layer `ksim` counts (events, line
//! transfers) cannot be read through them. These replicas rebuild the
//! same three workloads from the same constants over the public `ksim` and
//! `simlocks` API and return both; `des_figures` asserts that every value
//! is bit-equal to the original's, so the counts describe the same runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use c3_bench::hashtable::HashTable;
use c3_bench::workloads::{
    HtSeries, RwSeries, SpinSeries, FAULTS_PER_MAP, FAULT_NS, HT_BUCKETS, HT_KEYS, HT_THINK_NS,
    LOCK2_CS_NS, LOCK2_DATA_WORDS, LOCK2_JITTER_NS, LOCK2_THINK_NS, REMAP_NS, SWITCHED_ENTRY_NS,
};
use concord::Concord;
use ksim::{Sim, SimBuilder, SimStats, SimWord, TaskCtx};
use simlocks::{NativePolicy, SimBravo, SimMcsLock, SimNeutralRwLock, SimShflLock};

fn finish(sim: &Sim, ops: &Cell<u64>, window_ns: u64) -> (f64, SimStats) {
    let stats = sim.run();
    (ops.get() as f64 / (window_ns as f64 / 1e6), stats)
}

pub fn lock2(threads: u32, series: SpinSeries, window_ns: u64, seed: u64) -> (f64, SimStats) {
    enum Spin {
        Mcs(SimMcsLock),
        Shfl(SimShflLock),
    }
    let sim = SimBuilder::new().seed(seed).build();
    let ops = Rc::new(Cell::new(0u64));
    let data: Rc<Vec<SimWord>> = Rc::new(
        (0..LOCK2_DATA_WORDS)
            .map(|_| SimWord::new(&sim, 0))
            .collect(),
    );
    let lock = Rc::new(match series {
        SpinSeries::StockMcs => Spin::Mcs(SimMcsLock::new(&sim)),
        SpinSeries::ShflNuma => {
            let l = SimShflLock::new(&sim);
            l.set_policy(Rc::new(NativePolicy::numa_aware()));
            Spin::Shfl(l)
        }
        SpinSeries::ConcordShflNuma => {
            let l = SimShflLock::new(&sim);
            let concord = Concord::new();
            let loaded = concord
                .load(concord::policies::numa_aware())
                .expect("prebuilt policy verifies");
            let policy = concord.make_sim_policy(&sim, &[&loaded]);
            concord.attach_sim(&l, Rc::new(policy));
            Spin::Shfl(l)
        }
    });
    for cpu in sim.topology().compact_placement(threads as usize) {
        let (l, o, d) = (Rc::clone(&lock), Rc::clone(&ops), Rc::clone(&data));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < window_ns {
                match &*l {
                    Spin::Mcs(m) => m.acquire(&t).await,
                    Spin::Shfl(s) => s.acquire(&t).await,
                }
                for w in d.iter() {
                    w.fetch_add(&t, 1).await;
                }
                t.advance(LOCK2_CS_NS).await;
                match &*l {
                    Spin::Mcs(m) => m.release(&t).await,
                    Spin::Shfl(s) => s.release(&t).await,
                }
                o.set(o.get() + 1);
                t.advance(LOCK2_THINK_NS + t.rng_u64() % LOCK2_JITTER_NS)
                    .await;
            }
        });
    }
    finish(&sim, &ops, window_ns)
}

pub fn hashtable(threads: u32, series: HtSeries, window_ns: u64, seed: u64) -> (f64, SimStats) {
    use cbpf::fault::{FaultInjector, FaultPlan};
    use concord::containment::{Breaker, BreakerConfig, ContainedPolicy};
    use concord::policy::AttachedNoopPolicy;

    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    match series {
        HtSeries::Baseline => {}
        HtSeries::ConcordNoop => lock.set_policy(Rc::new(AttachedNoopPolicy)),
        HtSeries::ConcordNoopContained => lock.set_policy(Rc::new(ContainedPolicy::new(
            &sim,
            Rc::new(AttachedNoopPolicy),
            Arc::new(Breaker::new(BreakerConfig::default())),
            Some(Arc::new(FaultInjector::new(FaultPlan::inert(seed)))),
        ))),
    }
    let table = Rc::new(RefCell::new(HashTable::new(HT_BUCKETS)));
    for k in 0..HT_KEYS {
        table.borrow_mut().insert(k, k);
    }
    let ops = Rc::new(Cell::new(0u64));
    for cpu in sim.topology().compact_placement(threads as usize) {
        let (l, tb, o) = (Rc::clone(&lock), Rc::clone(&table), Rc::clone(&ops));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < window_ns {
                let r = t.rng_u64();
                let key = r % HT_KEYS;
                l.acquire(&t).await;
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
    finish(&sim, &ops, window_ns)
}

enum Rw {
    Stock(SimNeutralRwLock),
    /// BRAVO, plus the patched-entry cost a live-switched lock pays on
    /// every entry point.
    Bravo(SimBravo, u64),
}

impl Rw {
    async fn entry(&self, t: &TaskCtx) {
        if let Rw::Bravo(_, extra) = self {
            if *extra > 0 {
                t.advance(*extra).await;
            }
        }
    }
}

pub fn page_fault2(threads: u32, series: RwSeries, window_ns: u64, seed: u64) -> (f64, SimStats) {
    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(match series {
        RwSeries::Stock => Rw::Stock(SimNeutralRwLock::new(&sim)),
        RwSeries::Bravo => Rw::Bravo(SimBravo::new(&sim), 0),
        RwSeries::ConcordBravo => Rw::Bravo(SimBravo::new(&sim), SWITCHED_ENTRY_NS),
    });
    let ops = Rc::new(Cell::new(0u64));
    for cpu in sim.topology().compact_placement(threads as usize) {
        let (l, o) = (Rc::clone(&lock), Rc::clone(&ops));
        sim.spawn_on(cpu, move |t| async move {
            'outer: loop {
                for _ in 0..FAULTS_PER_MAP {
                    if t.now() >= window_ns {
                        break 'outer;
                    }
                    l.entry(&t).await;
                    match &*l {
                        Rw::Stock(s) => s.read_acquire(&t).await,
                        Rw::Bravo(b, _) => b.read_acquire(&t).await,
                    }
                    t.advance(FAULT_NS).await;
                    l.entry(&t).await;
                    match &*l {
                        Rw::Stock(s) => s.read_release(&t).await,
                        Rw::Bravo(b, _) => b.read_release(&t).await,
                    }
                    o.set(o.get() + 1);
                }
                l.entry(&t).await;
                match &*l {
                    Rw::Stock(s) => s.write_acquire(&t).await,
                    Rw::Bravo(b, _) => b.write_acquire(&t).await,
                }
                t.advance(REMAP_NS).await;
                l.entry(&t).await;
                match &*l {
                    Rw::Stock(s) => s.write_release(&t).await,
                    Rw::Bravo(b, _) => b.write_release(&t).await,
                }
            }
        });
    }
    finish(&sim, &ops, window_ns)
}
