//! Simulated phase-fair readers-writer lock (PF-T) — the realtime
//! use case of §3.1.2: bounded reader/writer blocking by alternating
//! phases (Brandenburg & Anderson, *Spin-based reader-writer
//! synchronization for multiprocessor real-time systems*).
//!
//! Ticket formulation: `win`/`wout` serialize writers; `rin`/`rout` count
//! reader entries in the high bits while the low bits of `rin` publish the
//! presence and phase-id of a waiting/active writer.

use ksim::{SchedSite, Sim, SimWord, TaskCtx};

const RINC: u64 = 0x100;
const PRES: u64 = 0x2;
const PHID: u64 = 0x1;
const WBITS: u64 = PRES | PHID;

/// The simulated phase-fair rwlock.
pub struct SimPhaseFairRwLock {
    id: u64,
    rin: SimWord,
    rout: SimWord,
    win: SimWord,
    wout: SimWord,
}

impl SimPhaseFairRwLock {
    /// Creates an unlocked instance on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        SimPhaseFairRwLock {
            id: sim.alloc_id(),
            rin: SimWord::new(sim, 0),
            rout: SimWord::new(sim, 0),
            win: SimWord::new(sim, 0),
            wout: SimWord::new(sim, 0),
        }
    }

    /// Per-simulation lock identity (schedule points, oracles).
    pub fn lock_id(&self) -> u64 {
        self.id
    }

    /// Acquires shared access (waits at most one writer phase).
    pub async fn read_acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        let w = self.rin.fetch_add(t, RINC).await & WBITS;
        if w != 0 {
            t.sched_point(SchedSite::Contended, self.id).await;
            // Wait for this writer's phase to end; the *next* writer has a
            // different phase id, so we are admitted in between.
            self.rin.wait_while(t, move |v| v & WBITS == w).await;
        }
        t.sched_point(SchedSite::Acquired, self.id).await;
    }

    /// Releases shared access.
    pub async fn read_release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        self.rout.fetch_add(t, RINC).await;
    }

    /// Acquires exclusive access (waits at most one reader phase plus the
    /// writer queue).
    pub async fn write_acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        let ticket = self.win.fetch_add(t, 1).await;
        self.wout.wait_while(t, move |v| v != ticket).await;
        // Writer turn taken; now drain the reader phase that entered first.
        t.sched_point(SchedSite::Window, self.id).await;
        let w = PRES | (ticket & PHID);
        let entered = self.rin.fetch_add(t, w).await & !WBITS;
        self.rout.wait_while(t, move |v| v != entered).await;
        t.sched_point(SchedSite::Acquired, self.id).await;
    }

    /// Releases exclusive access.
    pub async fn write_release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        self.rin.fetch_and(t, !WBITS).await;
        self.wout.fetch_add(t, 1).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CpuId, SimBuilder};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn consistency_under_mixed_load() {
        let sim = SimBuilder::new().seed(2).build();
        let lock = Rc::new(SimPhaseFairRwLock::new(&sim));
        let pair = Rc::new(Cell::new((0u64, 0u64)));
        for i in 0..16u32 {
            let (l, p) = (Rc::clone(&lock), Rc::clone(&pair));
            sim.spawn_on(CpuId(i * 5), move |t| async move {
                for _ in 0..40 {
                    if i < 3 {
                        l.write_acquire(&t).await;
                        let (a, b) = p.get();
                        p.set((a + 1, b));
                        t.advance(250).await;
                        let (a, b) = p.get();
                        p.set((a, b + 1));
                        l.write_release(&t).await;
                    } else {
                        l.read_acquire(&t).await;
                        let (a, b) = p.get();
                        assert_eq!(a, b, "writer overlapped a reader");
                        t.advance(120).await;
                        l.read_release(&t).await;
                    }
                    t.advance(t.rng_u64() % 400).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
        assert_eq!(pair.get(), (120, 120));
    }

    #[test]
    fn reader_wait_bounded_by_one_writer_phase() {
        // Writers hold for 10 µs back-to-back; a reader arriving must be
        // admitted after at most ~one writer phase, not after the whole
        // writer queue (which a writer-preference lock would impose).
        let sim = SimBuilder::new().seed(4).build();
        let lock = Rc::new(SimPhaseFairRwLock::new(&sim));
        const HOLD: u64 = 10_000;
        for i in 0..6u32 {
            let l = Rc::clone(&lock);
            sim.spawn_on(CpuId(i * 10), move |t| async move {
                for _ in 0..50 {
                    l.write_acquire(&t).await;
                    t.advance(HOLD).await;
                    l.write_release(&t).await;
                }
            });
        }
        let max_wait = Rc::new(Cell::new(0u64));
        {
            let (l, mw) = (Rc::clone(&lock), Rc::clone(&max_wait));
            sim.spawn_on(CpuId(79), move |t| async move {
                for _ in 0..40 {
                    t.advance(15_000).await;
                    let start = t.now();
                    l.read_acquire(&t).await;
                    mw.set(mw.get().max(t.now() - start));
                    l.read_release(&t).await;
                }
            });
        }
        let stats = sim.run();
        assert!(stats.stuck_tasks.is_empty());
        assert!(
            max_wait.get() < 2 * HOLD + 5_000,
            "reader waited {} ns — more than ~one writer phase",
            max_wait.get()
        );
    }

    #[test]
    fn parallel_readers_overlap() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimPhaseFairRwLock::new(&sim));
        for cpu in [0u32, 40] {
            let l = Rc::clone(&lock);
            sim.spawn_on(CpuId(cpu), move |t| async move {
                l.read_acquire(&t).await;
                t.advance(1_000_000).await;
                l.read_release(&t).await;
            });
        }
        let stats = sim.run();
        assert!(stats.final_time_ns < 1_500_000, "readers serialized");
    }
}
