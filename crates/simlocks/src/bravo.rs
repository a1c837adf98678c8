//! Simulated BRAVO wrapper (Fig. 2(a)'s winning series).
//!
//! While reader-biased, a reader publishes itself in a visible-readers
//! table slot hashed from its task id — a line essentially private to the
//! reader's socket — instead of RMW-ing the shared reader counter. Writers
//! revoke the bias by scanning the whole table (expensive, and charged as
//! such), then keep the bias off for `N ×` the measured revocation cost.

use std::cell::{Cell, RefCell, RefMut};

use ksim::{task_slot, SchedSite, Sim, SimWord, TaskCtx, TaskId};

use crate::rw::SimNeutralRwLock;

/// Visible-readers table slots (per lock in the simulation; the kernel
/// prototype shares one global table, which only changes hash collisions).
pub const VR_SLOTS: usize = 64;

/// Inhibit-window multiplier `N`.
const INHIBIT_MULTIPLIER: u64 = 9;

/// The simulated BRAVO readers-writer lock.
pub struct SimBravo {
    id: u64,
    rbias: SimWord,
    inhibit_until: Cell<u64>,
    /// `0` = empty, else the publishing task id + 1.
    table: Vec<SimWord>,
    underlying: SimNeutralRwLock,
    fast_reads: Cell<u64>,
    slow_reads: Cell<u64>,
    revocations: Cell<u64>,
    /// Per-task published slot, indexed by `TaskId.0` (single-threaded
    /// sim bookkeeping; a sim's task ids are dense).
    published: RefCell<Vec<Option<usize>>>,
    bias_allowed: Cell<bool>,
}

impl SimBravo {
    /// Creates a reader-biased instance on `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        SimBravo {
            id: sim.alloc_id(),
            rbias: SimWord::new(sim, 1),
            inhibit_until: Cell::new(0),
            table: (0..VR_SLOTS).map(|_| SimWord::new(sim, 0)).collect(),
            underlying: SimNeutralRwLock::new(sim),
            fast_reads: Cell::new(0),
            slow_reads: Cell::new(0),
            revocations: Cell::new(0),
            published: Default::default(),
            bias_allowed: Cell::new(true),
        }
    }

    /// Enables/disables biasing — the knob Concord's lock-switching policy
    /// flips (Fig. 2(a): "explicitly switch between a neutral
    /// readers-writer lock to a distributed version for readers").
    pub fn set_bias_enabled(&self, t: &TaskCtx, enabled: bool) {
        self.bias_allowed.set(enabled);
        if !enabled {
            self.inhibit_until.set(u64::MAX);
            // The next writer (or the poke below, safe in virtual time
            // only between operations) clears the flag; to be conservative
            // we leave `rbias` to be cleared by a writer's revocation.
            let _ = t;
        } else {
            self.inhibit_until.set(0);
        }
    }

    /// `(fast, slow, revocations)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.fast_reads.get(),
            self.slow_reads.get(),
            self.revocations.get(),
        )
    }

    /// Whether the lock is currently reader-biased (uncharged).
    pub fn is_biased(&self) -> bool {
        self.rbias.peek() == 1
    }

    fn slot_of(&self, t: &TaskCtx) -> usize {
        let mut x = u64::from(t.id().0 + 1) ^ self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        (x as usize) % VR_SLOTS
    }

    /// `task`'s entry in the published-slot table, grown to hold it.
    fn published_mut(&self, task: TaskId) -> RefMut<'_, Option<usize>> {
        RefMut::map(self.published.borrow_mut(), |p| task_slot(p, task, None))
    }

    /// Per-simulation lock identity (schedule points, oracles).
    pub fn lock_id(&self) -> u64 {
        self.id
    }

    /// Acquires shared access.
    pub async fn read_acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        if self.rbias.load(t).await == 1 {
            let idx = self.slot_of(t);
            let me = u64::from(t.id().0 + 1);
            debug_assert!(
                self.published_mut(t.id()).is_none(),
                "nested BRAVO fast reads by one task are not modeled"
            );
            if self.table[idx].compare_exchange(t, 0, me).await.is_ok() {
                // The publish→recheck window BRAVO's protocol exists for:
                // a concurrent revoker either sees our slot or we see the
                // cleared bias and fall through to the slow path.
                t.sched_point(SchedSite::Window, self.id).await;
                // Recheck the bias after publishing.
                if self.rbias.load(t).await == 1 {
                    *self.published_mut(t.id()) = Some(idx);
                    self.fast_reads.set(self.fast_reads.get() + 1);
                    t.sched_point(SchedSite::Acquired, self.id).await;
                    return;
                }
                self.table[idx].store(t, 0).await;
            }
        }
        self.underlying.read_acquire(t).await;
        self.slow_reads.set(self.slow_reads.get() + 1);
        if self.bias_allowed.get() && self.rbias.peek() == 0 && t.now() >= self.inhibit_until.get()
        {
            // Safe to re-enable: we hold a read lock, no writer can run.
            self.rbias.store(t, 1).await;
        }
        t.sched_point(SchedSite::Acquired, self.id).await;
    }

    /// Releases shared access.
    pub async fn read_release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        let slot = self.published_mut(t.id()).take();
        match slot {
            Some(idx) => self.table[idx].store(t, 0).await,
            None => self.underlying.read_release(t).await,
        }
    }

    /// Acquires exclusive access.
    pub async fn write_acquire(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        self.underlying.write_acquire(t).await;
        if self.rbias.load(t).await == 1 {
            self.revoke(t).await;
        }
        t.sched_point(SchedSite::Acquired, self.id).await;
    }

    /// Releases exclusive access.
    pub async fn write_release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        self.underlying.write_release(t).await;
    }

    async fn revoke(&self, t: &TaskCtx) {
        let start = t.now();
        self.rbias.store(t, 0).await;
        for slot in &self.table {
            // Wait for any published reader in this slot to drain.
            slot.wait_while(t, |v| v != 0).await;
        }
        let cost = t.now().saturating_sub(start);
        if self.bias_allowed.get() {
            self.inhibit_until.set(t.now() + INHIBIT_MULTIPLIER * cost);
        }
        self.revocations.set(self.revocations.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CpuId, SimBuilder};
    use std::rc::Rc;

    #[test]
    fn fast_reads_bypass_underlying() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimBravo::new(&sim));
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId(0), move |t| async move {
            l.read_acquire(&t).await;
            assert_eq!(l.underlying.readers(), 0);
            l.read_release(&t).await;
        });
        let stats = sim.run();
        assert!(stats.stuck_tasks.is_empty());
        assert_eq!(lock.stats().0, 1);
    }

    #[test]
    fn writer_waits_for_published_readers() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimBravo::new(&sim));
        let val = Rc::new(Cell::new((0u64, 0u64)));
        // A reader holding a long fast-path read.
        let (l, v) = (Rc::clone(&lock), Rc::clone(&val));
        sim.spawn_on(CpuId(0), move |t| async move {
            l.read_acquire(&t).await;
            let (a, b) = v.get();
            assert_eq!(a, b);
            t.advance(100_000).await;
            let (a2, b2) = v.get();
            assert_eq!(a2, b2, "writer ran while fast reader held");
            l.read_release(&t).await;
        });
        let (l, v) = (Rc::clone(&lock), Rc::clone(&val));
        sim.spawn_on(CpuId(40), move |t| async move {
            t.advance(1_000).await; // Arrive while the reader holds.
            l.write_acquire(&t).await;
            let (a, b) = v.get();
            v.set((a + 1, b));
            t.advance(500).await;
            let (a, b) = v.get();
            v.set((a, b + 1));
            l.write_release(&t).await;
        });
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
        assert_eq!(val.get(), (1, 1));
        assert_eq!(lock.stats().2, 1, "one revocation expected");
    }

    #[test]
    fn inhibit_window_forces_slow_reads_after_write() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimBravo::new(&sim));
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId(0), move |t| async move {
            l.write_acquire(&t).await;
            l.write_release(&t).await;
            // Immediately after revocation, reads go slow.
            l.read_acquire(&t).await;
            l.read_release(&t).await;
        });
        let stats = sim.run();
        assert!(stats.stuck_tasks.is_empty());
        let (fast, slow, _) = lock.stats();
        assert_eq!(fast, 0);
        assert_eq!(slow, 1);
    }

    #[test]
    fn mixed_stress_consistency() {
        let sim = SimBuilder::new().seed(3).build();
        let lock = Rc::new(SimBravo::new(&sim));
        let val = Rc::new(Cell::new((0u64, 0u64)));
        for i in 0..20u32 {
            let (l, v) = (Rc::clone(&lock), Rc::clone(&val));
            sim.spawn_on(CpuId(i * 4), move |t| async move {
                for k in 0..50u64 {
                    if i == 0 && k % 10 == 0 {
                        l.write_acquire(&t).await;
                        let (a, b) = v.get();
                        v.set((a + 1, b + 1));
                        t.advance(400).await;
                        l.write_release(&t).await;
                    } else {
                        l.read_acquire(&t).await;
                        let (a, b) = v.get();
                        assert_eq!(a, b, "inconsistent read");
                        t.advance(200).await;
                        l.read_release(&t).await;
                    }
                    t.advance(t.rng_u64() % 300).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
        assert_eq!(val.get().0, 5);
    }

    #[test]
    fn disabling_bias_routes_everything_slow() {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimBravo::new(&sim));
        let l = Rc::clone(&lock);
        sim.spawn_on(CpuId(0), move |t| async move {
            l.set_bias_enabled(&t, false);
            // A writer clears the (still set) bias flag via revocation.
            l.write_acquire(&t).await;
            l.write_release(&t).await;
            for _ in 0..5 {
                l.read_acquire(&t).await;
                l.read_release(&t).await;
            }
        });
        sim.run();
        let (fast, slow, _) = lock.stats();
        assert_eq!(fast, 0);
        assert_eq!(slow, 5);
    }
}
