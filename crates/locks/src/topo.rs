//! Virtual thread placement: CPU, socket and task identity.
//!
//! Topology-aware locks (CNA, ShflLock's NUMA policy) need to know which
//! socket the calling thread runs on. Real pinning is unavailable and
//! irrelevant on this substrate (see DESIGN.md §2), so threads *declare* a
//! placement with [`pin_thread`]; the declared topology drives the
//! algorithms exactly as `smp_processor_id()`/`numa_node_id()` would.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cores per socket used to derive a socket from a virtual CPU; matches the
/// paper machine (8 × 10).
const CORES_PER_SOCKET: u32 = 10;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CPU: Cell<u32> = const { Cell::new(0) };
    static PINNED: Cell<bool> = const { Cell::new(false) };
    static TID: Cell<u64> = const { Cell::new(0) };
    static PRIO: Cell<i64> = const { Cell::new(0) };
    static CS_HINT: Cell<u64> = const { Cell::new(0) };
    static HELD_LOCKS: Cell<u32> = const { Cell::new(0) };
}

/// Declares this thread's virtual CPU.
pub fn pin_thread(cpu: u32) {
    CPU.with(|c| c.set(cpu));
    PINNED.with(|p| p.set(true));
}

/// The calling thread's virtual CPU (threads that never pinned get CPU 0).
pub fn current_cpu() -> u32 {
    CPU.with(Cell::get)
}

/// The calling thread's socket, derived from its virtual CPU.
pub fn current_socket() -> u32 {
    current_cpu() / CORES_PER_SOCKET
}

/// A stable per-thread task id (assigned lazily, never 0).
pub fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Declares this thread's scheduling priority (higher = more important);
/// policies such as priority boosting read it.
pub fn set_priority(prio: i64) {
    PRIO.with(|p| p.set(prio));
}

/// The declared priority (default 0).
pub fn current_priority() -> i64 {
    PRIO.with(Cell::get)
}

/// Declares the expected critical-section length in nanoseconds — the
/// context the scheduler-cooperative policy consumes (§3.1.2).
pub fn set_cs_hint(ns: u64) {
    CS_HINT.with(|c| c.set(ns));
}

/// The declared critical-section hint (default 0 = unknown).
pub fn cs_hint() -> u64 {
    CS_HINT.with(Cell::get)
}

/// Records that this thread acquired a tracked lock (lock-inheritance
/// context, §3.1.1 "Lock inheritance").
pub fn note_lock_acquired() {
    HELD_LOCKS.with(|h| h.set(h.get() + 1));
}

/// Records that this thread released a tracked lock.
pub fn note_lock_released() {
    HELD_LOCKS.with(|h| h.set(h.get().saturating_sub(1)));
}

/// Number of tracked locks this thread currently holds.
pub fn held_locks() -> u32 {
    HELD_LOCKS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_derive_socket() {
        pin_thread(37);
        assert_eq!(current_cpu(), 37);
        assert_eq!(current_socket(), 3);
    }

    #[test]
    fn tids_are_stable_and_unique() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn context_cells_roundtrip() {
        set_priority(-5);
        set_cs_hint(1234);
        assert_eq!(current_priority(), -5);
        assert_eq!(cs_hint(), 1234);
        let before = held_locks();
        note_lock_acquired();
        note_lock_acquired();
        assert_eq!(held_locks(), before + 2);
        note_lock_released();
        assert_eq!(held_locks(), before + 1);
        note_lock_released();
    }
}
