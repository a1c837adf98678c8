//! Deliberately buggy locks — the planted-bug corpus for the schedule
//! explorer (`concord::explore`) and the CI `schedule_gate`.
//!
//! Each lock here carries a classic concurrency defect that only
//! manifests under particular interleavings, which the explorer's
//! strategies must find by perturbing the schedule at the locks' own
//! [`SchedSite`] injection points:
//!
//! * [`BrokenTicketLock`] — takes its ticket with a non-atomic
//!   load→store pair instead of `fetch_add`; stretching the window hands
//!   the same ticket to two tasks (mutual-exclusion violation).
//! * [`InversionPair`] — two locks taken in opposite orders by the
//!   `ab`/`ba` protocols (lock-order inversion; deadlocks when a delay
//!   lands between the two acquires).
//! * [`UnfairStealLock`] — always lets fresh arrivals steal while woken
//!   waiters pay a re-queue penalty; under an adversarial schedule a
//!   waiter's acquisition latency grows without bound (starvation).
//!
//! These types exist for tests and gates only; nothing in the figure
//! pipeline instantiates them.

use ksim::{SchedSite, Sim, SimFlag, SimWord, TaskCtx};

/// Re-queue penalty a woken [`UnfairStealLock`] waiter pays before it may
/// retry — the window fresh arrivals steal through.
pub const STEAL_QUEUE_PENALTY_NS: u64 = 400;

/// Ticket lock whose ticket take is a non-atomic load→store pair. The
/// [`SchedSite::Window`] point sits exactly in the read→write gap: delay a
/// task there and the next arrival reads the same `next` value, so two
/// tasks hold identical tickets and both pass the `serving` wait.
pub struct BrokenTicketLock {
    id: u64,
    next: SimWord,
    serving: SimWord,
}

impl BrokenTicketLock {
    /// Creates an unlocked instance on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        BrokenTicketLock {
            id: sim.alloc_id(),
            next: SimWord::new(sim, 0),
            serving: SimWord::new(sim, 0),
        }
    }

    /// Per-simulation lock identity.
    pub fn lock_id(&self) -> u64 {
        self.id
    }

    /// Acquires the lock (unsound under the right schedule).
    pub async fn acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        // BUG: the ticket take is load + store, not fetch_add. Two tasks
        // overlapping in this window read the same ticket.
        let my = self.next.load(t).await;
        t.sched_point(SchedSite::Window, self.id).await;
        self.next.store(t, my + 1).await;
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
        self.serving.store(t, s + 1).await;
    }
}

/// A pair of test-and-set locks taken in opposite orders by the two
/// protocols: `ab` takes `a` then `b`, `ba` takes `b` then `a`. The
/// order edges `a→b` and `b→a` form a cycle (lock-order oracle), and a
/// delay injected between the two acquires of concurrent `ab`/`ba`
/// callers deadlocks the pair (both stuck in `wait_clear`).
pub struct InversionPair {
    a: crate::tas::SimTasLock,
    b: crate::tas::SimTasLock,
}

impl InversionPair {
    /// Creates both locks on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        InversionPair {
            a: crate::tas::SimTasLock::new(sim),
            b: crate::tas::SimTasLock::new(sim),
        }
    }

    /// The first lock of the pair.
    pub fn a(&self) -> &crate::tas::SimTasLock {
        &self.a
    }

    /// The second lock of the pair.
    pub fn b(&self) -> &crate::tas::SimTasLock {
        &self.b
    }

    /// Takes `a` then `b` (one half of the inversion).
    pub async fn ab(&self, t: &TaskCtx) {
        self.a.acquire(t).await;
        t.sched_point(SchedSite::Window, self.a.lock_id()).await;
        self.b.acquire(t).await;
    }

    /// Releases both locks.
    #[cfg(test)]
    pub async fn unlock_all(&self, t: &TaskCtx) {
        self.b.release(t).await;
        self.a.release(t).await;
    }
}

/// Test-and-set lock with no hand-off discipline at all: a fresh arrival
/// RMWs the word immediately, while a woken waiter pays
/// [`STEAL_QUEUE_PENALTY_NS`] before retrying. The [`SchedSite::Window`]
/// point in the retry path lets a strategy repeatedly widen the steal
/// window for one victim, whose wait grows past any fairness bound.
pub struct UnfairStealLock {
    id: u64,
    locked: SimFlag,
}

impl UnfairStealLock {
    /// Creates an unlocked instance on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        UnfairStealLock {
            id: sim.alloc_id(),
            locked: SimFlag::new(sim, false),
        }
    }

    /// Per-simulation lock identity.
    pub fn lock_id(&self) -> u64 {
        self.id
    }

    /// Acquires the lock (steal-first, starvation-prone).
    pub async fn acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        // BUG(by design): always race the word first, even when others
        // have been waiting — fresh arrivals win against woken waiters.
        if !self.locked.test_and_set(t).await {
            t.sched_point(SchedSite::Acquired, self.id).await;
            return;
        }
        loop {
            t.sched_point(SchedSite::Contended, self.id).await;
            self.locked.wait_clear(t).await;
            // Re-queue penalty: by the time a woken waiter retries, a
            // stealer has usually taken the word again.
            t.sched_point(SchedSite::Window, self.id).await;
            t.advance(STEAL_QUEUE_PENALTY_NS).await;
            if !self.locked.test_and_set(t).await {
                t.sched_point(SchedSite::Acquired, self.id).await;
                return;
            }
        }
    }

    /// Releases the lock.
    pub async fn release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        self.locked.clear(t).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CpuId, SimBuilder};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn broken_ticket_is_correct_without_interference() {
        // The planted bug needs overlapping ticket windows; staggered
        // arrivals with no schedule controller never overlap.
        let sim = SimBuilder::new().build();
        let lock = Rc::new(BrokenTicketLock::new(&sim));
        let inside = Rc::new(Cell::new(false));
        for i in 0..8u32 {
            let (l, ins) = (Rc::clone(&lock), Rc::clone(&inside));
            sim.spawn_on(CpuId(i * 10), move |t| async move {
                t.advance(u64::from(i) * 5_000).await;
                for _ in 0..10 {
                    l.acquire(&t).await;
                    assert!(!ins.replace(true), "unexpected baseline violation");
                    t.advance(100).await;
                    ins.set(false);
                    l.release(&t).await;
                    t.advance(40_000).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
    }

    #[test]
    fn inversion_pair_single_order_is_safe() {
        let sim = SimBuilder::new().build();
        let pair = Rc::new(InversionPair::new(&sim));
        for i in 0..6u32 {
            let p = Rc::clone(&pair);
            sim.spawn_on(CpuId(i * 12), move |t| async move {
                for _ in 0..20 {
                    p.ab(&t).await;
                    t.advance(100).await;
                    p.unlock_all(&t).await;
                    t.advance(200).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
    }

    #[test]
    fn steal_lock_excludes_but_is_unfair_by_design() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(UnfairStealLock::new(&sim));
        let inside = Rc::new(Cell::new(false));
        for i in 0..8u32 {
            let (l, ins) = (Rc::clone(&lock), Rc::clone(&inside));
            sim.spawn_on(CpuId(i * 10), move |t| async move {
                for _ in 0..30 {
                    l.acquire(&t).await;
                    assert!(!ins.replace(true), "mutual exclusion violated");
                    t.advance(150).await;
                    ins.set(false);
                    l.release(&t).await;
                    t.advance(300).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
    }
}
