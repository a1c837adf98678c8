//! The shuffle lock (ShflLock), with Concord policy hooks.
//!
//! Kashyap et al., *Scalable and Practical Locking with Shuffling*
//! (SOSP '19) — the lock the paper builds Concord around. Structure:
//! a test-and-set word for the fast path plus an MCS-style waiter queue;
//! the waiter at the head of the queue (the *shuffler* here) may reorder
//! the queue according to a policy — e.g. grouping waiters of its own
//! socket — **off the critical path**, while it spins for the lock word.
//!
//! Two flavours, fixed when the lock is built, share all of it:
//! [`ShflLock::new`] spins, and [`ShflLock::blocking`] (the kernel
//! `mutex` stand-in) lets a waiter behind the head park after
//! [`DEFAULT_SPIN_NS`]; only that wait and the grant ending it differ.
//!
//! Concord's Table 1 hooks are consulted at the decision points:
//! [`ShflHooks::eval_skip_shuffle`] gates the phase,
//! [`ShflHooks::eval_cmp_node`] decides each move,
//! [`ShflHooks::eval_schedule_waiter`] lets a blocking lock's waiter park
//! (§3.1.1), and the four event hooks support dynamic profiling. With no
//! policy installed the lock degenerates to a plain FIFO queue lock with
//! a TAS fast path.
//!
//! Safety rules from the paper (§4.2) are enforced here, not by policies:
//! shuffling rounds are statically bounded ([`MAX_SHUFFLE_ROUNDS`]) to
//! avoid starvation, and a debug-mode queue-length check verifies the
//! linked list is preserved across a shuffle.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use crate::backoff::Backoff;
use crate::hooks::{
    CmpNodeCtx, HookKind, LockEventCtx, NodeView, ScheduleWaiterCtx, ShflHooks, SkipShuffleCtx,
};
use crate::now_ns;
use crate::raw::RawLock;
use crate::topo;

/// Upper bound on shuffle phases one shuffler may run (starvation guard).
pub const MAX_SHUFFLE_ROUNDS: u32 = 8;

/// Upper bound on nodes examined per shuffle phase.
pub const MAX_SHUFFLE_SCAN: usize = 64;

/// Consecutive same-socket handoffs before shuffling pauses (starvation
/// guard; §4.2's bounded-shuffling fairness invariant).
pub const MAX_BATCH: u32 = 32;

/// Spin budget before a blocking lock's waiter considers parking (ns of
/// wall time).
pub const DEFAULT_SPIN_NS: u64 = 20_000;

const WAITING: u32 = 0;
const GRANTED: u32 = 1;
const PARKED: u32 = 2;

pub(crate) struct Node {
    next: AtomicPtr<Node>,
    status: AtomicU32,
    /// The waiter's thread, to unpark it (`None` on a spinning lock).
    thread: Option<Thread>,
    view: NodeView,
}

static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

/// The shuffle lock.
pub struct ShflLock {
    locked: AtomicBool,
    tail: AtomicPtr<Node>,
    hooks: Arc<ShflHooks>,
    id: u64,
    /// Waiters behind the queue head may park ([`ShflLock::blocking`]).
    blocking: bool,
    shuffle_count: AtomicU64,
    parks: AtomicU64,
    /// Socket of the last holder and its consecutive-handoff streak
    /// (fairness guard; approximate under races, which only makes the
    /// guard trigger earlier or later, never unsoundly).
    last_socket: AtomicU32,
    streak: AtomicU32,
    /// Tid of the current holder (0 = unlocked). Written only by the
    /// winner of the lock word (while holding) and cleared by the holder
    /// before it releases, so event contexts can name the blocker.
    owner: AtomicU64,
}

// SAFETY: nodes are shared only through atomics and a `Sync` thread
// handle written before the node is published; interior queue surgery is
// performed exclusively by the unique queue head (shuffler).
unsafe impl Send for ShflLock {}
// SAFETY: see above.
unsafe impl Sync for ShflLock {}

impl Default for ShflLock {
    fn default() -> Self {
        ShflLock::new()
    }
}

impl ShflLock {
    /// Creates an unlocked spinning instance with vacant hooks (plain
    /// FIFO).
    pub fn new() -> Self {
        ShflLock {
            locked: AtomicBool::new(false),
            tail: AtomicPtr::new(ptr::null_mut()),
            hooks: Arc::new(ShflHooks::new()),
            id: NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed),
            blocking: false,
            shuffle_count: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            last_socket: AtomicU32::new(u32::MAX),
            streak: AtomicU32::new(0),
            owner: AtomicU64::new(0),
        }
    }

    /// Creates an unlocked blocking instance: a queued waiter spins for
    /// [`DEFAULT_SPIN_NS`] and then parks when `schedule_waiter` allows
    /// (vacant hook: always).
    pub fn blocking() -> Self {
        let mut lock = ShflLock::new();
        lock.blocking = true;
        lock
    }

    /// Creates a lock with the NUMA-aware grouping policy compiled in —
    /// the "ShflLock" series of the paper's Fig. 2(b).
    pub fn with_numa_policy() -> Self {
        let lock = ShflLock::new();
        lock.hooks.install_cmp_node(Arc::new(|c: &CmpNodeCtx| {
            c.curr.socket == c.shuffler.socket
        }));
        lock
    }

    /// Stable identity of this lock instance.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether waiters may park (built by [`ShflLock::blocking`]).
    pub fn is_blocking(&self) -> bool {
        self.blocking
    }

    /// The hook table (Concord patches through this).
    pub fn hooks(&self) -> &Arc<ShflHooks> {
        &self.hooks
    }

    /// Number of completed shuffle phases (statistics).
    pub fn shuffle_count(&self) -> u64 {
        self.shuffle_count.load(Ordering::Relaxed)
    }

    /// Number of times any waiter parked (statistics; 0 when spinning).
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Tracks consecutive same-socket handoffs for the fairness bound and
    /// records the new holder's identity.
    fn note_acquired(&self) {
        self.owner.store(topo::current_tid(), Ordering::Relaxed);
        let s = topo::current_socket();
        if self.last_socket.swap(s, Ordering::Relaxed) == s {
            self.streak.fetch_add(1, Ordering::Relaxed);
        } else {
            self.streak.store(0, Ordering::Relaxed);
        }
    }

    /// One event site: records the transition and fires hook `kind`
    /// when either is wanted, building the context only then.
    #[inline(always)]
    fn event(&self, kind: HookKind) {
        if self.hooks.observed(kind) {
            self.hooks.dispatch_event(kind, &self.event_ctx());
        }
    }

    fn event_ctx(&self) -> LockEventCtx {
        LockEventCtx {
            lock_id: self.id,
            tid: topo::current_tid(),
            cpu: topo::current_cpu(),
            socket: topo::current_socket(),
            now_ns: now_ns(),
            owner_tid: self.owner.load(Ordering::Relaxed),
        }
    }

    fn new_node(&self) -> *mut Node {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            status: AtomicU32::new(WAITING),
            thread: self.blocking.then(std::thread::current),
            view: NodeView {
                tid: topo::current_tid(),
                cpu: topo::current_cpu(),
                socket: topo::current_socket(),
                prio: topo::current_priority(),
                cs_hint: topo::cs_hint(),
                held_locks: topo::held_locks(),
                wait_start_ns: now_ns(),
            },
        }))
    }

    /// Waits until the predecessor grants queue headship. A spinning
    /// lock's waiter spins; a blocking lock's waiter spins for
    /// [`DEFAULT_SPIN_NS`] and then parks whenever `schedule_waiter`
    /// allows.
    ///
    /// # Safety
    ///
    /// `node` must be the caller's own live, linked node.
    unsafe fn wait_granted(&self, node: *mut Node) {
        // SAFETY: our own node, freed only after we dequeue.
        unsafe {
            let view = (*node).view;
            let park_after = view.wait_start_ns + DEFAULT_SPIN_NS;
            let mut backoff = Backoff::new();
            while (*node).status.load(Ordering::Acquire) == WAITING {
                if self.blocking
                    && now_ns() >= park_after
                    && self.hooks.eval_schedule_waiter(&ScheduleWaiterCtx {
                        lock_id: self.id,
                        curr: view,
                        waited_ns: now_ns().saturating_sub(view.wait_start_ns),
                    })
                    && (*node)
                        .status
                        .compare_exchange(WAITING, PARKED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    while (*node).status.load(Ordering::Acquire) == PARKED {
                        std::thread::park();
                    }
                    return;
                }
                backoff.snooze();
            }
        }
    }

    /// Hands queue headship to `next`, waking it if it parked.
    ///
    /// # Safety
    ///
    /// `next` must be a live queued node.
    unsafe fn grant(next: *mut Node) {
        // SAFETY: per contract. The thread handle is cloned before the
        // swap: once granted, the waiter may free its node.
        unsafe {
            match &(*next).thread {
                None => (*next).status.store(GRANTED, Ordering::Release),
                Some(thread) => {
                    let thread = thread.clone();
                    if (*next).status.swap(GRANTED, Ordering::AcqRel) == PARKED {
                        thread.unpark();
                    }
                }
            }
        }
    }

    /// One shuffle phase, run by the queue head while it waits for the
    /// lock word. Matching nodes are moved to the front of the queue
    /// (right behind the shuffler), preserving their relative order.
    /// Parked nodes move like any other: the phase rewrites only `next`
    /// links, never a node's `status`.
    ///
    /// # Safety
    ///
    /// `head` must be the unique queue head owned by the caller.
    unsafe fn shuffle(&self, head: *mut Node) {
        // SAFETY: the queue head is unique, so only one thread rewrites
        // interior `next` pointers; every examined node has a linked
        // successor (guaranteed by the `next.is_null()` breaks), so it is
        // not the tail and its enqueue-link write has completed.
        unsafe {
            #[cfg(debug_assertions)]
            let nodes_before = self.queue_nodes(head);

            let shuffler_view = (*head).view;
            let mut anchor = head; // Matching nodes are placed after this.
            let mut pred = head;
            let mut curr = (*head).next.load(Ordering::Acquire);
            let mut scanned = 0;
            while !curr.is_null() && scanned < MAX_SHUFFLE_SCAN {
                scanned += 1;
                // Abort the phase as soon as the lock frees: acquiring
                // beats reordering (ShflLock re-checks mid-phase).
                if !self.locked.load(Ordering::Relaxed) {
                    break;
                }
                let next = (*curr).next.load(Ordering::Acquire);
                if next.is_null() {
                    // Possible tail (or successor not yet linked): stop —
                    // the tail must never be unlinked.
                    break;
                }
                let decision = self.hooks.eval_cmp_node(&CmpNodeCtx {
                    lock_id: self.id,
                    shuffler: shuffler_view,
                    curr: (*curr).view,
                });
                if decision {
                    if pred == anchor {
                        // Already in position; extend the in-order prefix.
                        anchor = curr;
                        pred = curr;
                    } else {
                        // Unlink and splice right after the anchor.
                        (*pred).next.store(next, Ordering::Relaxed);
                        let after = (*anchor).next.load(Ordering::Relaxed);
                        (*curr).next.store(after, Ordering::Relaxed);
                        (*anchor).next.store(curr, Ordering::Release);
                        anchor = curr;
                        // `pred` is unchanged: its successor is now `next`.
                    }
                } else {
                    pred = curr;
                }
                curr = next;
            }

            #[cfg(debug_assertions)]
            {
                // Concurrent enqueuers may append during the phase, so the
                // queue may grow; it must never lose or duplicate a node
                // that was present at the start.
                let after = self.queue_nodes(head);
                let mut sorted = after.clone();
                sorted.sort_unstable();
                sorted.dedup();
                debug_assert_eq!(sorted.len(), after.len(), "shuffle duplicated a node");
                for n in &nodes_before {
                    debug_assert!(after.contains(n), "shuffle lost a queue node");
                }
            }
        }
        self.shuffle_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Collects queue-node addresses reachable from `head` (debug
    /// invariant).
    ///
    /// # Safety
    ///
    /// Caller must be the queue head.
    #[cfg(debug_assertions)]
    unsafe fn queue_nodes(&self, head: *mut Node) -> Vec<usize> {
        let mut out = Vec::new();
        let mut curr = head;
        // SAFETY: nodes reachable from the head are live waiters.
        unsafe {
            while !curr.is_null() && out.len() < 1 << 20 {
                out.push(curr as usize);
                curr = (*curr).next.load(Ordering::Acquire);
            }
        }
        out
    }
}

impl RawLock for ShflLock {
    fn acquire(&self) {
        self.event(HookKind::LockAcquire);
        // Fast path, only when the queue is empty (qspinlock discipline:
        // unbounded stealing can starve the queue head).
        if self.tail.load(Ordering::Relaxed).is_null()
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            self.note_acquired();
            self.event(HookKind::LockAcquired);
            return;
        }
        self.event(HookKind::LockContended);

        let node = self.new_node();
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` stays alive until it links us (MCS protocol);
            // `node` is ours, freed only after we dequeue below.
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                self.wait_granted(node);
            }
        }

        // We are the queue head: spin for the word, shuffling while we wait.
        let mut rounds = 0u32;
        let mut backoff = Backoff::new();
        loop {
            if !self.locked.load(Ordering::Relaxed)
                && self
                    .locked
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            let socket = topo::current_socket();
            let batch_exhausted = self.last_socket.load(Ordering::Relaxed) == socket
                && self.streak.load(Ordering::Relaxed) >= MAX_BATCH;
            if rounds < MAX_SHUFFLE_ROUNDS && !batch_exhausted {
                // SAFETY: we are the unique queue head.
                let skip = self.hooks.eval_skip_shuffle(&SkipShuffleCtx {
                    lock_id: self.id,
                    shuffler: unsafe { (*node).view },
                });
                if !skip {
                    // SAFETY: unique queue head.
                    unsafe { self.shuffle(node) };
                }
                rounds += 1;
            }
            backoff.snooze();
        }

        // Acquired: dequeue ourselves and promote the successor.
        // SAFETY: standard MCS dequeue of our own node.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null()
                && self
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                let mut backoff = Backoff::new();
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    backoff.snooze();
                }
            }
            if !next.is_null() {
                Self::grant(next);
            }
            drop(Box::from_raw(node));
        }
        self.note_acquired();
        self.event(HookKind::LockAcquired);
    }

    fn release(&self) {
        self.event(HookKind::LockRelease);
        debug_assert!(
            self.locked.load(Ordering::Relaxed),
            "release of unheld ShflLock"
        );
        // Clear the holder identity while still holding the word, so no
        // later owner's store can be overwritten.
        self.owner.store(0, Ordering::Relaxed);
        self.locked.store(false, Ordering::Release);
    }

    fn try_acquire(&self) -> bool {
        let ok = self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            self.owner.store(topo::current_tid(), Ordering::Relaxed);
            self.event(HookKind::LockAcquired);
        }
        ok
    }
}

impl Drop for ShflLock {
    fn drop(&mut self) {
        debug_assert!(
            self.tail.load(Ordering::Relaxed).is_null(),
            "ShflLock dropped with queued waiters"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::testutil::mutex_stress;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn uncontended_roundtrip() {
        let l = ShflLock::new();
        {
            let _g = l.lock();
            assert!(l.try_lock().is_none());
        }
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn stress_fifo_mode() {
        mutex_stress(ShflLock::new(), 8, 2_000);
    }

    #[test]
    fn stress_numa_mode() {
        mutex_stress(ShflLock::with_numa_policy(), 8, 2_000);
    }

    #[test]
    fn stress_numa_mode_across_sockets() {
        use std::sync::Arc;
        let lock = Arc::new(ShflLock::with_numa_policy());
        let counter = Arc::new(Counter::new(0));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let (l, c) = (Arc::clone(&lock), Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                topo::pin_thread((t % 4) * 10 + t); // Four sockets.
                for _ in 0..2_000 {
                    let _g = l.lock();
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16_000);
    }

    #[test]
    fn pathological_policy_cannot_break_mutual_exclusion() {
        // An adversarial cmp_node that answers pseudo-randomly: fairness is
        // hazarded (Table 1), mutual exclusion must not be.
        let lock = ShflLock::new();
        lock.hooks().install_cmp_node(Arc::new(|c: &CmpNodeCtx| {
            (c.curr.tid ^ c.shuffler.tid) & 1 == 0
        }));
        mutex_stress(lock, 8, 2_000);
    }

    #[test]
    fn shuffling_happens_under_contention_with_policy() {
        use std::sync::Arc;
        let lock = Arc::new(ShflLock::with_numa_policy());
        let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // One holder keeps the lock long enough for a queue to form; the
        // queue head must then run at least one shuffle phase while it
        // waits for the lock word.
        let holder = {
            let (l, h) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                topo::pin_thread(0);
                let _g = l.lock();
                h.store(true, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(200));
            })
        };
        while !held.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut handles = Vec::new();
        for t in 1..5u32 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                topo::pin_thread(t * 10);
                let _g = l.lock();
            }));
        }
        holder.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert!(lock.shuffle_count() > 0, "no shuffle phase ever ran");
    }

    #[test]
    fn event_hooks_observe_contention() {
        use std::sync::Arc;
        let lock = Arc::new(ShflLock::new());
        let acquires = Arc::new(Counter::new(0));
        let contended = Arc::new(Counter::new(0));
        let (a, c) = (Arc::clone(&acquires), Arc::clone(&contended));
        lock.hooks().install_event(
            HookKind::LockAcquired,
            Arc::new(move |_| {
                a.fetch_add(1, Ordering::Relaxed);
            }),
        );
        lock.hooks().install_event(
            HookKind::LockContended,
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let _g = l.lock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(acquires.load(Ordering::Relaxed), 4_000);
        // Contention is schedule-dependent but the counter must be sane.
        assert!(contended.load(Ordering::Relaxed) <= 4_000);
    }

    #[test]
    fn blocking_uncontended_roundtrip() {
        let l = ShflLock::blocking();
        {
            let _g = l.lock();
            assert!(l.try_lock().is_none());
        }
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn stress_with_parking() {
        mutex_stress(ShflLock::blocking(), 8, 2_000);
    }

    #[test]
    fn waiters_park_when_holder_is_slow() {
        use std::sync::Arc;
        let lock = Arc::new(ShflLock::blocking());
        let held = Arc::new(AtomicBool::new(false));
        let holder = {
            let (l, h) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                let _g = l.lock();
                h.store(true, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(120));
            })
        };
        while !held.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut waiters = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&lock);
            waiters.push(std::thread::spawn(move || {
                let _g = l.lock();
            }));
        }
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert!(
            lock.park_count() > 0,
            "waiters should have parked during a 120ms hold"
        );
    }

    #[test]
    fn never_park_policy_keeps_waiters_spinning() {
        use std::sync::Arc;
        let lock = Arc::new(ShflLock::blocking());
        lock.hooks().install_schedule_waiter(Arc::new(|_| false)); // Never park.
        let counter = Arc::new(Counter::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (l, c) = (Arc::clone(&lock), Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let _g = l.lock();
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
        assert_eq!(lock.park_count(), 0);
    }
}
