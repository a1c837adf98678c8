//! Simulated ticket lock.

use ksim::{SchedSite, Sim, SimWord, TaskCtx};

/// FIFO ticket lock in the machine model: one RMW to take a ticket, then
/// all waiters spin on the shared `serving` word — fair, but every handoff
/// invalidates every waiting socket.
pub struct SimTicketLock {
    id: u64,
    next: SimWord,
    serving: SimWord,
}

impl SimTicketLock {
    /// Creates an unlocked instance on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        SimTicketLock {
            id: sim.alloc_id(),
            next: SimWord::new(sim, 0),
            serving: SimWord::new(sim, 0),
        }
    }

    /// Per-simulation lock identity (schedule points, oracles).
    pub fn lock_id(&self) -> u64 {
        self.id
    }

    /// Acquires the lock.
    pub async fn acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        let my = self.next.fetch_add(t, 1).await;
        if self.serving.peek() != my {
            t.sched_point(SchedSite::Contended, self.id).await;
        }
        self.serving.wait_while(t, move |s| s != my).await;
        t.sched_point(SchedSite::Acquired, self.id).await;
    }

    /// Releases the lock.
    pub async fn release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        let s = self.serving.peek();
        debug_assert!(self.next.peek() > s, "release of unheld SimTicketLock");
        self.serving.store(t, s + 1).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CpuId, SimBuilder};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn strict_fifo_order() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimTicketLock::new(&sim));
        let order = Rc::new(RefCell::new(Vec::new()));
        // Stagger arrivals so the queue order is deterministic.
        for (i, cpu) in [0u32, 10, 20, 30].iter().enumerate() {
            let (l, o) = (Rc::clone(&lock), Rc::clone(&order));
            sim.spawn_on(CpuId(*cpu), move |t| async move {
                t.advance(1_000 * (i as u64 + 1)).await;
                l.acquire(&t).await;
                o.borrow_mut().push(i);
                t.advance(50_000).await; // Long CS so all arrive while held.
                l.release(&t).await;
            });
        }
        let stats = sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert!(stats.stuck_tasks.is_empty());
    }

    #[test]
    fn contended_counter() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimTicketLock::new(&sim));
        let counter = Rc::new(std::cell::Cell::new(0u64));
        for cpu in 0..20u32 {
            let (l, c) = (Rc::clone(&lock), Rc::clone(&counter));
            sim.spawn_on(CpuId(cpu * 4), move |t| async move {
                for _ in 0..30 {
                    l.acquire(&t).await;
                    c.set(c.get() + 1);
                    t.advance(150).await;
                    l.release(&t).await;
                }
            });
        }
        let stats = sim.run();
        assert_eq!(counter.get(), 600);
        assert!(stats.stuck_tasks.is_empty());
    }
}
