//! Simulated shuffle lock (ShflLock) with pluggable policies.
//!
//! The simulation counterpart of `locks::ShflLock`: TAS word + MCS-style
//! queue, with the queue head running policy-driven shuffle phases while it
//! waits for the lock word. Policy decisions charge their evaluation cost
//! to virtual time, so "Concord-ShflLock" (bytecode policy) is
//! distinguishable from "ShflLock" (compiled-in policy) in the figures for
//! exactly the reason it is in the paper.

use std::cell::Cell;
use std::rc::Rc;

use ksim::{SchedSite, Sim, SimWord, TaskCtx};
use locks::hooks::{CmpNodeCtx, HookKind, LockEventCtx, SkipShuffleCtx};

use crate::arena::{NodeArena, GRANTED, WAITING};

/// Node status: delegated shuffler role (the SOSP '19 design hands the
/// shuffler role to the last batched waiter, which keeps grouping the
/// queue *while it waits* — truly off the critical path).
const SHUFFLER: u64 = 3;

/// How long a delegated shuffler rests between phases (virtual ns).
const SHUFFLE_REST_NS: u64 = 1_500;
use crate::policy::{FifoPolicy, PolicySlot, SimPolicy};

/// Bound on shuffle phases per acquisition (starvation guard, §4.2).
pub const MAX_SHUFFLE_ROUNDS: u32 = 8;

/// Bound on nodes examined per shuffle phase.
pub const MAX_SHUFFLE_SCAN: usize = 64;

/// Consecutive same-socket handoffs before shuffling is suspended — the
/// runtime fairness invariant of §4.2 ("statically bounding the number of
/// shuffling rounds minimizes starvation").
pub const MAX_BATCH: u32 = 32;

/// The simulated shuffle lock.
pub struct SimShflLock {
    locked: SimWord,
    tail: SimWord,
    arena: NodeArena,
    slot: Rc<PolicySlot>,
    id: u64,
    shuffles: Cell<u64>,
    moves: Cell<u64>,
    last_socket: Cell<u32>,
    streak: Cell<u32>,
    /// Tid of the current holder (0 = unlocked); set by the winner of the
    /// lock word, cleared on release, so event contexts name the blocker.
    owner: Cell<u64>,
    max_batch: Cell<u32>,
    /// Node currently holding the delegated shuffler role (0 = none); the
    /// queue head must not shuffle concurrently (unique-shuffler rule).
    delegate: Cell<u32>,
}

impl SimShflLock {
    /// Creates an unlocked FIFO instance (no policy attached).
    pub fn new(sim: &Sim) -> Self {
        // `locked` and `tail` live on separate lines: waiters spin on (and
        // the holder writes) `locked`, while enqueuers RMW `tail`; packing
        // them would let every enqueue invalidate the spin target.
        SimShflLock {
            locked: SimWord::new(sim, 0),
            tail: SimWord::new(sim, 0),
            arena: NodeArena::new(sim),
            slot: Rc::new(PolicySlot::new(Rc::new(FifoPolicy::new()))),
            id: sim.alloc_id(),
            shuffles: Cell::new(0),
            moves: Cell::new(0),
            last_socket: Cell::new(u32::MAX),
            streak: Cell::new(0),
            owner: Cell::new(0),
            max_batch: Cell::new(MAX_BATCH),
            delegate: Cell::new(0),
        }
    }

    /// Stable identity of this lock instance.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Installs a policy directly, outside any patch (the native
    /// baselines; Concord patches the [`SimShflLock::policy_slot`]).
    pub fn set_policy(&self, p: Rc<dyn SimPolicy>) {
        self.slot.set_policy(p);
    }

    /// The current policy.
    pub fn policy(&self) -> Rc<dyn SimPolicy> {
        self.slot.policy()
    }

    /// The lock's patch point, for patches that swap its policy.
    pub fn policy_slot(&self) -> &Rc<PolicySlot> {
        &self.slot
    }

    /// Monotonic count of policy swaps — the sim analog of a patchpoint
    /// generation. Rollout tests use it to prove an aborted rollout put
    /// the lock through apply+revert (gen +2) rather than leaving the
    /// wave's policy live.
    pub fn policy_generation(&self) -> u64 {
        self.slot.generation()
    }

    /// Completed shuffle phases (statistics).
    pub fn shuffle_count(&self) -> u64 {
        self.shuffles.get()
    }

    /// Nodes moved by shuffling (statistics).
    pub fn move_count(&self) -> u64 {
        self.moves.get()
    }

    /// Overrides the fairness bound on consecutive same-socket handoffs
    /// (default `MAX_BATCH` = 32); ablation knob for the throughput-vs-
    /// fairness trade-off the §4.2 safety rule embodies.
    pub fn set_max_batch(&self, n: u32) {
        self.max_batch.set(n.max(1));
    }

    fn event_ctx(&self, t: &TaskCtx) -> LockEventCtx {
        LockEventCtx {
            lock_id: self.id,
            tid: u64::from(t.id().0) + 1,
            cpu: t.cpu().0,
            socket: t.socket().0,
            now_ns: t.now(),
            owner_tid: self.owner.get(),
        }
    }

    async fn fire(&self, t: &TaskCtx, kind: HookKind) {
        t.sched_point(SchedSite::HookDispatch, self.id).await;
        if telemetry::armed() {
            // Virtual-time clock domain: the record carries `t.now()`, so a
            // DES replay is bit-identical. Tracing charges no virtual time —
            // figure CSVs stay byte-identical whether armed or not.
            let ctx = self.event_ctx(t);
            telemetry::emit(
                kind.event_kind(),
                ctx.now_ns,
                ctx.cpu as u16,
                ctx.lock_id,
                ctx.tid,
                u64::from(ctx.socket),
                ctx.owner_tid,
            );
        }
        let policy = self.policy();
        if policy.wants_event(kind) {
            let cost = policy.on_event(kind, &self.event_ctx(t));
            if cost > 0 {
                t.advance(cost).await;
            }
        }
    }

    /// Acquires the lock (task priority / CS hint default to zero).
    pub async fn acquire(&self, t: &TaskCtx) {
        self.acquire_with(t, 0, 0).await;
    }

    /// Acquires the lock, exposing scheduling context to policies —
    /// the C3 act of "providing more context to the kernel" (§3).
    pub async fn acquire_with(&self, t: &TaskCtx, prio: i64, cs_hint: u64) {
        self.acquire_ctx(t, prio, cs_hint, 0).await;
    }

    /// Like [`SimShflLock::acquire_with`], additionally declaring how many
    /// locks the task already holds (the lock-inheritance context of
    /// §3.1.1).
    pub async fn acquire_ctx(&self, t: &TaskCtx, prio: i64, cs_hint: u64, held_locks: u32) {
        t.sched_point(SchedSite::Acquire, self.id).await;
        self.fire(t, HookKind::LockAcquire).await;
        // Fast path, only when the queue is empty (qspinlock discipline:
        // unbounded stealing would starve the queue head).
        if self.tail.load(t).await == 0 && self.locked.compare_exchange(t, 0, 1).await.is_ok() {
            self.note_acquired(t);
            self.fire(t, HookKind::LockAcquired).await;
            return;
        }
        t.sched_point(SchedSite::Contended, self.id).await;
        self.fire(t, HookKind::LockContended).await;

        let idx = self.arena.alloc(t);
        let node = self.arena.get(idx);
        let mut view = node.view.get();
        view.prio = prio;
        view.cs_hint = cs_hint;
        view.held_locks = held_locks;
        node.view.set(view);

        let prev = self.tail.swap(t, u64::from(idx)).await;
        if prev != 0 {
            let pnode = self.arena.get(prev as u32);
            pnode.next.store(t, u64::from(idx)).await;
            // If no shuffler is active, claim the role: an arriving waiter
            // sits at the tail with the whole queue drain ahead of it —
            // maximal off-critical-path time to group its socket's future
            // arrivals behind itself (the SOSP '19 shuffler discipline).
            let mut claimed = false;
            if self.delegate.get() == 0 && !self.batch_exhausted(t.socket().0) {
                // Claim before the (suspending) policy consult: the role
                // must be single-owner, and an await between check and set
                // would let two arrivals both claim it.
                self.delegate.set(idx);
                claimed = true;
                let policy = self.policy();
                let (skip, cost) = policy.skip_shuffle(&SkipShuffleCtx {
                    lock_id: self.id,
                    shuffler: node.view.get(),
                });
                if telemetry::armed() {
                    telemetry::emit(
                        telemetry::EventKind::SkipShuffle,
                        t.now(),
                        t.cpu().0 as u16,
                        self.id,
                        node.view.get().tid,
                        0,
                        u64::from(skip),
                    );
                }
                if cost > 0 {
                    t.advance(cost).await;
                }
                if skip {
                    claimed = false;
                    if self.delegate.get() == idx {
                        self.delegate.set(0);
                    }
                }
            }
            if claimed {
                self.run_delegate(t, idx).await;
            } else {
                let st = node.status.wait_while(t, |s| s == WAITING).await;
                if st != GRANTED {
                    debug_assert_eq!(st, SHUFFLER);
                    self.run_delegate(t, idx).await;
                }
            }
        }

        // Queue head: spin for the word. The head never walks the queue —
        // that would put the walk on the critical path; shuffling is done
        // by a waiter deeper in the queue (see the claim above).
        loop {
            if self.locked.compare_exchange(t, 0, 1).await.is_ok() {
                // Own the word from this instant: events fired by other
                // tasks during our dequeue below must already name us.
                self.owner.set(u64::from(t.id().0) + 1);
                break;
            }
            self.locked.wait_while(t, |v| v == 1).await;
        }

        // Dequeue ourselves, promote the successor.
        let mut next = node.next.load(t).await;
        if next == 0
            && self
                .tail
                .compare_exchange(t, u64::from(idx), 0)
                .await
                .is_err()
        {
            next = node.next.wait_while(t, |n| n == 0).await;
        }
        if next != 0 {
            // Granting headship to the delegate returns the shuffler role
            // to the head position.
            if self.delegate.get() == next as u32 {
                self.delegate.set(0);
            }
            self.arena.get(next as u32).status.store(t, GRANTED).await;
        }
        self.arena.release(idx);
        self.note_acquired(t);
        t.sched_point(SchedSite::Acquired, self.id).await;
        self.fire(t, HookKind::LockAcquired).await;
    }

    /// Tracks consecutive same-socket handoffs for the fairness bound and
    /// records the new holder's identity.
    fn note_acquired(&self, t: &TaskCtx) {
        self.owner.set(u64::from(t.id().0) + 1);
        let s = t.socket().0;
        if self.last_socket.replace(s) == s {
            self.streak.set(self.streak.get() + 1);
        } else {
            self.streak.set(0);
        }
    }

    /// True while the current socket has monopolized the lock long enough
    /// that further shuffling in its favor must pause (starvation guard).
    fn batch_exhausted(&self, socket: u32) -> bool {
        self.last_socket.get() == socket && self.streak.get() >= self.max_batch.get()
    }

    /// Runs the delegated-shuffler role: group the queue behind us (for
    /// our own socket) while we wait for headship. Returns once granted.
    async fn run_delegate(&self, t: &TaskCtx, idx: u32) {
        let node = self.arena.get(idx);
        let mut rounds = 0u32;
        loop {
            if node.status.peek() == GRANTED {
                break;
            }
            if rounds < MAX_SHUFFLE_ROUNDS && !self.batch_exhausted(node.view.get().socket) {
                rounds += 1;
                let anchor = self.shuffle(t, idx).await;
                if anchor != idx && node.status.peek() != GRANTED {
                    // Pass the role to the last batched waiter (deeper in
                    // the queue, with more waiting time to keep grouping)
                    // and fall back to plain waiting.
                    self.delegate.set(anchor);
                    self.arena.get(anchor).status.store(t, SHUFFLER).await;
                    node.status.wait_while(t, |s| s != GRANTED).await;
                    break;
                }
            } else if rounds >= MAX_SHUFFLE_ROUNDS {
                // Shuffle budget exhausted (starvation guard): drop the
                // role; a future queue head will re-seed it.
                if self.delegate.get() == idx {
                    self.delegate.set(0);
                }
                node.status.wait_while(t, |s| s != GRANTED).await;
                break;
            }
            // Rest, re-shuffling as new waiters enqueue.
            let r = node
                .status
                .wait_while_deadline(t, |s| s != GRANTED, t.now() + SHUFFLE_REST_NS)
                .await;
            if r.is_ok() {
                break;
            }
        }
        // Leaving the delegate role as the new queue head (the promoter
        // normally clears this; repeat for the self-observed paths).
        if self.delegate.get() == idx {
            self.delegate.set(0);
        }
    }

    /// Releases the lock.
    pub async fn release(&self, t: &TaskCtx) {
        t.sched_point(SchedSite::Release, self.id).await;
        self.fire(t, HookKind::LockRelease).await;
        debug_assert_eq!(self.locked.peek(), 1, "release of unheld SimShflLock");
        // The release event above still carried our identity; clear it only
        // if no successor has already re-set it by the time the store lands.
        let me = u64::from(t.id().0) + 1;
        self.locked.store(t, 0).await;
        if self.owner.get() == me {
            self.owner.set(0);
        }
    }

    /// Attempts the fast path only.
    pub async fn try_acquire(&self, t: &TaskCtx) -> bool {
        let ok = self.locked.compare_exchange(t, 0, 1).await.is_ok();
        if ok {
            self.owner.set(u64::from(t.id().0) + 1);
        }
        ok
    }

    /// One shuffle phase starting at `head_idx` (the shuffler's own node);
    /// returns the final anchor (last node of the batched prefix). The
    /// phase aborts as soon as the shuffler is granted headship.
    async fn shuffle(&self, t: &TaskCtx, head_idx: u32) -> u32 {
        t.sched_point(SchedSite::Shuffle, self.id).await;
        #[cfg(debug_assertions)]
        let nodes_before = self.queue_nodes(head_idx);

        let head = self.arena.get(head_idx);
        let shuffler_view = head.view.get();
        let policy = self.policy();

        let mut anchor = head_idx;
        let mut pred = head_idx;
        let mut curr = head.next.load(t).await as u32;
        let mut scanned = 0;
        while curr != 0 && scanned < MAX_SHUFFLE_SCAN {
            scanned += 1;
            // The shuffler abandons the phase the moment it is granted
            // headship (a word-spin on its own status line, already local).
            if head.status.peek() == GRANTED {
                break;
            }
            let cnode = self.arena.get(curr);
            let next = cnode.next.load(t).await as u32;
            if next == 0 {
                // Possible tail: never unlink it.
                break;
            }
            if head.status.peek() == GRANTED {
                break;
            }
            let (decision, cost) = policy.cmp_node(&CmpNodeCtx {
                lock_id: self.id,
                shuffler: shuffler_view,
                curr: cnode.view.get(),
            });
            if telemetry::armed() {
                telemetry::emit(
                    telemetry::EventKind::CmpNode,
                    t.now(),
                    t.cpu().0 as u16,
                    self.id,
                    shuffler_view.tid,
                    cnode.view.get().tid,
                    u64::from(decision),
                );
            }
            if cost > 0 {
                t.advance(cost).await;
            }
            if decision {
                if pred == anchor {
                    anchor = curr;
                    pred = curr;
                } else {
                    // Unlink `curr` and splice it right after `anchor`.
                    let pnode = self.arena.get(pred);
                    pnode.next.store(t, u64::from(next)).await;
                    let anode = self.arena.get(anchor);
                    let after = anode.next.load(t).await;
                    cnode.next.store(t, after).await;
                    anode.next.store(t, u64::from(curr)).await;
                    anchor = curr;
                    self.moves.set(self.moves.get() + 1);
                }
            } else {
                pred = curr;
            }
            curr = next;
        }
        self.shuffles.set(self.shuffles.get() + 1);
        let final_anchor = anchor;

        #[cfg(debug_assertions)]
        {
            // Enqueuers may have appended while the shuffle phase was
            // suspended in charged operations, so the queue may legally
            // grow; what a shuffle must never do is *lose* (or duplicate)
            // a node that was present when it started.
            let after = self.queue_nodes(head_idx);
            let mut sorted = after.clone();
            sorted.sort_unstable();
            sorted.dedup();
            debug_assert_eq!(sorted.len(), after.len(), "shuffle duplicated a node");
            for n in &nodes_before {
                debug_assert!(
                    after.contains(n),
                    "shuffle lost queue node {n}: before={nodes_before:?} after={after:?}"
                );
            }
        }
        final_anchor
    }

    /// Queue node indices via uncharged peeks (debug invariant only).
    #[cfg(debug_assertions)]
    fn queue_nodes(&self, head_idx: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut curr = head_idx;
        while curr != 0 && out.len() < 1 << 20 {
            out.push(curr);
            curr = self.arena.get(curr).next.peek() as u32;
        }
        out
    }

    /// Live queue-node count (leak assertions in tests).
    pub fn live_nodes(&self) -> usize {
        self.arena.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NativePolicy;
    use ksim::{CpuId, SimBuilder};

    fn run_counter(lock_policy: Option<Rc<dyn SimPolicy>>, tasks: u32, iters: u32) -> u64 {
        let sim = SimBuilder::new().build();
        let lock = Rc::new(SimShflLock::new(&sim));
        if let Some(p) = lock_policy {
            lock.set_policy(p);
        }
        let counter = Rc::new(Cell::new(0u64));
        let inside = Rc::new(Cell::new(false));
        for i in 0..tasks {
            let (l, c, ins) = (Rc::clone(&lock), Rc::clone(&counter), Rc::clone(&inside));
            sim.spawn_on(CpuId((i * 7) % 80), move |t| async move {
                for _ in 0..iters {
                    l.acquire(&t).await;
                    assert!(!ins.replace(true), "mutual exclusion violated");
                    t.advance(150).await;
                    c.set(c.get() + 1);
                    ins.set(false);
                    l.release(&t).await;
                }
            });
        }
        let stats = sim.run();
        assert!(
            stats.stuck_tasks.is_empty(),
            "stuck: {:?}",
            stats.stuck_tasks
        );
        assert_eq!(lock.live_nodes(), 0, "leaked queue nodes");
        counter.get()
    }

    #[test]
    fn fifo_mode_mutual_exclusion() {
        assert_eq!(run_counter(None, 24, 40), 960);
    }

    #[test]
    fn numa_policy_mutual_exclusion() {
        assert_eq!(
            run_counter(Some(Rc::new(NativePolicy::numa_aware())), 24, 40),
            960
        );
    }

    #[test]
    fn adversarial_policy_cannot_break_exclusion() {
        struct Chaotic;
        impl SimPolicy for Chaotic {
            fn cmp_node(&self, ctx: &CmpNodeCtx) -> (bool, u64) {
                ((ctx.curr.tid ^ ctx.shuffler.tid) & 1 == 0, 5)
            }
            fn skip_shuffle(&self, _: &SkipShuffleCtx) -> (bool, u64) {
                (false, 5)
            }
        }
        assert_eq!(run_counter(Some(Rc::new(Chaotic)), 24, 40), 960);
    }

    #[test]
    fn numa_policy_reduces_cross_socket_handoffs() {
        // Count socket switches in the acquisition sequence: the NUMA
        // policy must batch same-socket waiters, FIFO must not.
        fn socket_switches(policy: Option<Rc<dyn SimPolicy>>) -> (u64, u64) {
            let sim = SimBuilder::new().seed(11).build();
            let lock = Rc::new(SimShflLock::new(&sim));
            if let Some(p) = policy {
                lock.set_policy(p);
            }
            let last = Rc::new(Cell::new(u32::MAX));
            let switches = Rc::new(Cell::new(0u64));
            let total = Rc::new(Cell::new(0u64));
            for i in 0..32u32 {
                let (l, la, sw, to) = (
                    Rc::clone(&lock),
                    Rc::clone(&last),
                    Rc::clone(&switches),
                    Rc::clone(&total),
                );
                // Four sockets, eight tasks each.
                sim.spawn_on(CpuId((i % 4) * 10 + i / 4), move |t| async move {
                    for _ in 0..30 {
                        l.acquire(&t).await;
                        let s = t.socket().0;
                        if la.replace(s) != s {
                            sw.set(sw.get() + 1);
                        }
                        to.set(to.get() + 1);
                        t.advance(400).await;
                        l.release(&t).await;
                    }
                });
            }
            sim.run();
            (switches.get(), total.get())
        }
        let (fifo_sw, n1) = socket_switches(None);
        let (numa_sw, n2) = socket_switches(Some(Rc::new(NativePolicy::numa_aware())));
        assert_eq!(n1, 960);
        assert_eq!(n2, 960);
        assert!(
            numa_sw * 2 < fifo_sw,
            "NUMA policy should at least halve socket switches: fifo={fifo_sw} numa={numa_sw}"
        );
    }

    #[test]
    fn event_hooks_charge_time() {
        struct Profiling;
        impl SimPolicy for Profiling {
            fn cmp_node(&self, _: &CmpNodeCtx) -> (bool, u64) {
                (false, 0)
            }
            fn skip_shuffle(&self, _: &SkipShuffleCtx) -> (bool, u64) {
                (true, 0)
            }
            fn on_event(&self, _: HookKind, _: &LockEventCtx) -> u64 {
                500
            }
            fn wants_event(&self, _: HookKind) -> bool {
                true
            }
        }
        let elapsed = |policy: Option<Rc<dyn SimPolicy>>| {
            let sim = SimBuilder::new().build();
            let lock = Rc::new(SimShflLock::new(&sim));
            if let Some(p) = policy {
                lock.set_policy(p);
            }
            let l = Rc::clone(&lock);
            sim.spawn_on(CpuId(0), move |t| async move {
                for _ in 0..100 {
                    l.acquire(&t).await;
                    l.release(&t).await;
                }
            });
            sim.run().final_time_ns
        };
        let base = elapsed(None);
        let profiled = elapsed(Some(Rc::new(Profiling)));
        // Each acquire/release fires ≥2 events at 500ns.
        assert!(profiled >= base + 100 * 1000);
    }
}
