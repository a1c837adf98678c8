//! Scheduler subversion (§3.1.2): tasks with long critical sections
//! subvert the scheduling goal; the scheduler-cooperative policy favors
//! declared-short critical sections — "only when needed", as the paper
//! puts it, because it is attached (and detached) at run time.
//!
//!     cargo run --release --example scheduler_subversion

use std::cell::Cell;
use std::rc::Rc;

use concord::{Concord, SimPatches};
use ksim::{CpuId, SimBuilder};
use simlocks::SimShflLock;

fn run(with_policy: bool) -> (u64, u64) {
    let sim = SimBuilder::new().seed(9).build();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&sim));
    if with_policy {
        let loaded = concord
            .load(concord::policies::scheduler_cooperative(1_000))
            .unwrap();
        let policy = concord.make_sim_policy(&sim, &[&loaded]);
        SimPatches::new(&sim).attach("lock", &lock, Rc::new(policy));
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
        sim.spawn_on(CpuId((i * 5) % 80), move |t| async move {
            let cs: u64 = if long { 2_400 } else { 300 };
            while t.now() < 3_000_000 {
                // Declare the expected critical-section length (the SCL
                // context); the policy compares it against its threshold.
                l.acquire_with(&t, 0, cs).await;
                t.advance(cs).await;
                l.release(&t).await;
                acc.set(acc.get() + 1);
                t.advance(150 + t.rng_u64() % 300).await;
            }
        });
    }
    sim.run();
    (short_ops.get(), long_ops.get())
}

fn main() {
    let (short_fifo, long_fifo) = run(false);
    let (short_scl, long_scl) = run(true);
    println!("12 short-CS (300ns) vs 12 long-CS (2400ns) tasks, one lock:");
    println!("  FIFO:       short {short_fifo:>6} ops   long {long_fifo:>6} ops");
    println!("  SCL policy: short {short_scl:>6} ops   long {long_scl:>6} ops");
    println!(
        "  short-CS class gains {:.1}% while long-CS class changes {:+.1}%",
        (short_scl as f64 / short_fifo as f64 - 1.0) * 100.0,
        (long_scl as f64 / long_fifo as f64 - 1.0) * 100.0
    );
}
