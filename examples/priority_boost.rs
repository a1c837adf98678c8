//! Priority boosting (§3.1.1) on the simulated 8-socket machine: two
//! latency-critical tasks among thirty contenders get their annotated
//! priority honored by a verified bytecode policy.
//!
//!     cargo run --release --example priority_boost

use std::cell::Cell;
use std::rc::Rc;

use concord::{Concord, SimPatches};
use ksim::{CpuId, SimBuilder};
use simlocks::SimShflLock;

fn run(with_policy: bool) -> (f64, f64) {
    let sim = SimBuilder::new().seed(3).build();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&sim));
    if with_policy {
        let loaded = concord.load(concord::policies::priority_boost()).unwrap();
        let policy = concord.make_sim_policy(&sim, &[&loaded]);
        SimPatches::new(&sim).attach("lock", &lock, Rc::new(policy));
    }
    let hi = Rc::new(Cell::new((0u64, 0u64)));
    let lo = Rc::new(Cell::new((0u64, 0u64)));
    for i in 0..30u32 {
        let l = Rc::clone(&lock);
        let critical = i < 2;
        let acc = if critical {
            Rc::clone(&hi)
        } else {
            Rc::clone(&lo)
        };
        sim.spawn_on(CpuId((i * 7) % 80), move |t| async move {
            while t.now() < 3_000_000 {
                let start = t.now();
                // The C3 context channel: annotate this task's priority.
                l.acquire_with(&t, if critical { 5 } else { 0 }, 0).await;
                acc.set((acc.get().0 + (t.now() - start), acc.get().1 + 1));
                t.advance(300).await;
                l.release(&t).await;
                t.advance(200 + t.rng_u64() % 500).await;
            }
        });
    }
    sim.run();
    let mean = |c: &Rc<Cell<(u64, u64)>>| c.get().0 as f64 / c.get().1.max(1) as f64;
    (mean(&hi), mean(&lo))
}

fn main() {
    let (hi_fifo, lo_fifo) = run(false);
    let (hi_pol, lo_pol) = run(true);
    println!("mean lock-wait per acquisition (ns), 2 critical + 28 normal tasks:");
    println!("  FIFO lock:       critical {hi_fifo:>8.0}   normal {lo_fifo:>8.0}");
    println!("  priority policy: critical {hi_pol:>8.0}   normal {lo_pol:>8.0}");
    println!(
        "  critical tasks wait {:.2}× less; normal tasks pay {:.1}%",
        hi_fifo / hi_pol,
        (lo_pol / lo_fifo - 1.0) * 100.0
    );
}
