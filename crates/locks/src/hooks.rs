//! The Concord hook surface of the shuffle lock — Table 1 of the paper.
//!
//! | API                | Description                                        | Hazard |
//! |--------------------|----------------------------------------------------|--------|
//! | `cmp_node`         | decide whether to move the current node forward    | fairness |
//! | `skip_shuffle`     | skip shuffling and hand the shuffler role over     | fairness |
//! | `schedule_waiter`  | waking/parking/priority for a lock                 | performance |
//! | `lock_acquire`     | invoked when trying to acquire                     | critical-section growth |
//! | `lock_contended`   | invoked when a trylock failed and the task waits   | critical-section growth |
//! | `lock_acquired`    | invoked when the lock is actually acquired         | critical-section growth |
//! | `lock_release`     | invoked on release                                 | critical-section growth |
//!
//! Each hook is a [`PatchPoint`] holding an optional function object, so
//! Concord can livepatch policies in and out while the lock is under load.
//! A per-table bitmask keeps the no-policy fast path at one relaxed load.
//!
//! The decision hooks return booleans only — they "do not modify the
//! locking behavior but only return the decision" (§4.2), which is how
//! mutual exclusion stays intact no matter what the policy says.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use livepatch::PatchPoint;

/// Immutable view of a queue node exposed to policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView {
    /// Waiting task.
    pub tid: u64,
    /// Virtual CPU of the waiter.
    pub cpu: u32,
    /// Socket of the waiter.
    pub socket: u32,
    /// Declared scheduling priority.
    pub prio: i64,
    /// Declared critical-section length hint (ns; 0 = unknown).
    pub cs_hint: u64,
    /// Locks the waiter already holds (lock-inheritance context).
    pub held_locks: u32,
    /// When the waiter started waiting (ns).
    pub wait_start_ns: u64,
}

/// Context of a `cmp_node` invocation.
#[derive(Clone, Copy, Debug)]
pub struct CmpNodeCtx {
    /// Identity of the lock being shuffled.
    pub lock_id: u64,
    /// The shuffler's node.
    pub shuffler: NodeView,
    /// The candidate node; `true` moves it forward.
    pub curr: NodeView,
}

/// Context of a `skip_shuffle` invocation.
#[derive(Clone, Copy, Debug)]
pub struct SkipShuffleCtx {
    /// Identity of the lock.
    pub lock_id: u64,
    /// The would-be shuffler.
    pub shuffler: NodeView,
}

/// Context of a `schedule_waiter` invocation (blocking locks).
#[derive(Clone, Copy, Debug)]
pub struct ScheduleWaiterCtx {
    /// Identity of the lock.
    pub lock_id: u64,
    /// The waiter asking whether it may park.
    pub curr: NodeView,
    /// How long it has waited so far (ns).
    pub waited_ns: u64,
}

/// Context of the four profiling hooks.
#[derive(Clone, Copy, Debug)]
pub struct LockEventCtx {
    /// Identity of the lock.
    pub lock_id: u64,
    /// Task triggering the event.
    pub tid: u64,
    /// Its virtual CPU.
    pub cpu: u32,
    /// Its socket.
    pub socket: u32,
    /// Event timestamp (ns).
    pub now_ns: u64,
    /// Tid of the thread holding the lock when the event fired (0 =
    /// unlocked or unknown). On `lock_acquired`/`lock_release` this is the
    /// emitting thread itself; on `lock_contended` it names the blocker,
    /// which is what lets the contention analyzer draw holder→waiter
    /// edges even when the holder's own transition records were dropped.
    pub owner_tid: u64,
}

/// `cmp_node` policy: `true` ⇒ move `curr` forward.
pub type CmpNodeFn = Arc<dyn Fn(&CmpNodeCtx) -> bool + Send + Sync>;
/// `skip_shuffle` policy: `true` ⇒ do not shuffle this round.
pub type SkipShuffleFn = Arc<dyn Fn(&SkipShuffleCtx) -> bool + Send + Sync>;
/// `schedule_waiter` policy: `true` ⇒ the waiter may park now.
pub type ScheduleWaiterFn = Arc<dyn Fn(&ScheduleWaiterCtx) -> bool + Send + Sync>;
/// Profiling hook.
pub type LockEventFn = Arc<dyn Fn(&LockEventCtx) + Send + Sync>;

/// Identifies one of the seven hooks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HookKind {
    /// Queue-reorder decision.
    CmpNode,
    /// Shuffle-phase gate.
    SkipShuffle,
    /// Park/wake decision.
    ScheduleWaiter,
    /// Acquisition attempt event.
    LockAcquire,
    /// Contention event.
    LockContended,
    /// Acquisition-success event.
    LockAcquired,
    /// Release event.
    LockRelease,
}

/// Potential hazard of a hook, as classified by Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hazard {
    /// A bad policy can skew fairness (never correctness).
    Fairness,
    /// A bad policy can cost performance.
    Performance,
    /// Code here runs on lock paths and grows the critical section.
    CriticalSection,
}

impl HookKind {
    /// All hooks, in Table 1 order.
    pub const ALL: [HookKind; 7] = [
        HookKind::CmpNode,
        HookKind::SkipShuffle,
        HookKind::ScheduleWaiter,
        HookKind::LockAcquire,
        HookKind::LockContended,
        HookKind::LockAcquired,
        HookKind::LockRelease,
    ];

    /// The hook's hazard class.
    pub fn hazard(self) -> Hazard {
        match self {
            HookKind::CmpNode | HookKind::SkipShuffle => Hazard::Fairness,
            HookKind::ScheduleWaiter => Hazard::Performance,
            _ => Hazard::CriticalSection,
        }
    }

    /// Stable name (used in object-store paths and reports).
    pub fn name(self) -> &'static str {
        match self {
            HookKind::CmpNode => "cmp_node",
            HookKind::SkipShuffle => "skip_shuffle",
            HookKind::ScheduleWaiter => "schedule_waiter",
            HookKind::LockAcquire => "lock_acquire",
            HookKind::LockContended => "lock_contended",
            HookKind::LockAcquired => "lock_acquired",
            HookKind::LockRelease => "lock_release",
        }
    }

    /// Bit of this hook in activity masks (also the `b` argument of
    /// telemetry hook-span records, so traces can name the hook).
    pub fn bit(self) -> u32 {
        match self {
            HookKind::CmpNode => 1,
            HookKind::SkipShuffle => 2,
            HookKind::ScheduleWaiter => 4,
            HookKind::LockAcquire => 8,
            HookKind::LockContended => 16,
            HookKind::LockAcquired => 32,
            HookKind::LockRelease => 64,
        }
    }

    /// Telemetry event kind for records emitted at this hook's site.
    pub fn event_kind(self) -> telemetry::EventKind {
        match self {
            HookKind::CmpNode => telemetry::EventKind::CmpNode,
            HookKind::SkipShuffle => telemetry::EventKind::SkipShuffle,
            HookKind::ScheduleWaiter => telemetry::EventKind::ScheduleWaiter,
            HookKind::LockAcquire => telemetry::EventKind::LockAcquire,
            HookKind::LockContended => telemetry::EventKind::LockContended,
            HookKind::LockAcquired => telemetry::EventKind::LockAcquired,
            HookKind::LockRelease => telemetry::EventKind::LockRelease,
        }
    }
}

/// The livepatchable hook table attached to every shuffle lock.
pub struct ShflHooks {
    active: AtomicU32,
    /// Queue-reorder decision slot.
    pub cmp_node: Arc<PatchPoint<Option<CmpNodeFn>>>,
    /// Shuffle gate slot.
    pub skip_shuffle: Arc<PatchPoint<Option<SkipShuffleFn>>>,
    /// Park/wake decision slot.
    pub schedule_waiter: Arc<PatchPoint<Option<ScheduleWaiterFn>>>,
    /// Acquisition-attempt event slot.
    pub lock_acquire: Arc<PatchPoint<Option<LockEventFn>>>,
    /// Contention event slot.
    pub lock_contended: Arc<PatchPoint<Option<LockEventFn>>>,
    /// Acquisition-success event slot.
    pub lock_acquired: Arc<PatchPoint<Option<LockEventFn>>>,
    /// Release event slot.
    pub lock_release: Arc<PatchPoint<Option<LockEventFn>>>,
}

impl Default for ShflHooks {
    fn default() -> Self {
        ShflHooks {
            active: AtomicU32::new(0),
            cmp_node: Arc::new(PatchPoint::new(None)),
            skip_shuffle: Arc::new(PatchPoint::new(None)),
            schedule_waiter: Arc::new(PatchPoint::new(None)),
            lock_acquire: Arc::new(PatchPoint::new(None)),
            lock_contended: Arc::new(PatchPoint::new(None)),
            lock_acquired: Arc::new(PatchPoint::new(None)),
            lock_release: Arc::new(PatchPoint::new(None)),
        }
    }
}

impl ShflHooks {
    /// Creates an empty table (every slot vacant).
    pub fn new() -> Self {
        ShflHooks::default()
    }

    /// True when `kind` has a policy installed (one relaxed load).
    #[inline]
    pub fn is_active(&self, kind: HookKind) -> bool {
        self.active.load(Ordering::Relaxed) & kind.bit() != 0
    }

    /// Marks a hook active/inactive; called by the installers below and by
    /// Concord's patch transactions.
    pub fn set_active(&self, kind: HookKind, on: bool) {
        if on {
            self.active.fetch_or(kind.bit(), Ordering::AcqRel);
        } else {
            self.active.fetch_and(!kind.bit(), Ordering::AcqRel);
        }
    }

    /// Installs a `cmp_node` policy.
    pub fn install_cmp_node(&self, f: CmpNodeFn) {
        self.cmp_node.replace(Some(f));
        self.set_active(HookKind::CmpNode, true);
    }

    /// Installs a `schedule_waiter` policy.
    pub fn install_schedule_waiter(&self, f: ScheduleWaiterFn) {
        self.schedule_waiter.replace(Some(f));
        self.set_active(HookKind::ScheduleWaiter, true);
    }

    /// Installs a profiling hook.
    #[cfg(test)]
    pub fn install_event(&self, kind: HookKind, f: LockEventFn) {
        match kind {
            HookKind::LockAcquire => self.lock_acquire.replace(Some(f)),
            HookKind::LockContended => self.lock_contended.replace(Some(f)),
            HookKind::LockAcquired => self.lock_acquired.replace(Some(f)),
            HookKind::LockRelease => self.lock_release.replace(Some(f)),
            _ => panic!("{} is not an event hook", kind.name()),
        }
        self.set_active(kind, true);
    }

    /// Clears a hook back to vacant.
    pub fn clear(&self, kind: HookKind) {
        match kind {
            HookKind::CmpNode => self.cmp_node.replace(None),
            HookKind::SkipShuffle => self.skip_shuffle.replace(None),
            HookKind::ScheduleWaiter => self.schedule_waiter.replace(None),
            HookKind::LockAcquire => self.lock_acquire.replace(None),
            HookKind::LockContended => self.lock_contended.replace(None),
            HookKind::LockAcquired => self.lock_acquired.replace(None),
            HookKind::LockRelease => self.lock_release.replace(None),
        }
        self.set_active(kind, false);
    }

    /// True when an event site must build its context: a policy is
    /// attached *or* the telemetry plane is armed. Two relaxed loads on
    /// the bare fast path; the context (tid/cpu/timestamp lookups) is only
    /// materialized behind this check.
    #[inline]
    pub fn observed(&self, kind: HookKind) -> bool {
        self.is_active(kind) || telemetry::armed()
    }

    /// Emits a lock-transition trace record (when armed) and fires the
    /// matching event hook (when installed). Lock slow paths call this
    /// instead of [`ShflHooks::fire_event`] so armed runs capture the
    /// transition even with no policy attached.
    pub fn dispatch_event(&self, kind: HookKind, ctx: &LockEventCtx) {
        if telemetry::armed() {
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
        self.fire_event(kind, ctx);
    }

    /// Fires an event hook if installed.
    #[inline]
    pub fn fire_event(&self, kind: HookKind, ctx: &LockEventCtx) {
        if !self.is_active(kind) {
            return;
        }
        let point = match kind {
            HookKind::LockAcquire => &self.lock_acquire,
            HookKind::LockContended => &self.lock_contended,
            HookKind::LockAcquired => &self.lock_acquired,
            HookKind::LockRelease => &self.lock_release,
            _ => return,
        };
        if let Some(f) = point.get().as_ref() {
            f(ctx);
        }
    }

    /// Evaluates `cmp_node`; vacant slot ⇒ `false` (no reorder).
    #[inline]
    pub fn eval_cmp_node(&self, ctx: &CmpNodeCtx) -> bool {
        let verdict = if !self.is_active(HookKind::CmpNode) {
            false
        } else {
            match self.cmp_node.get().as_ref() {
                Some(f) => f(ctx),
                None => false,
            }
        };
        if telemetry::armed() {
            telemetry::emit(
                telemetry::EventKind::CmpNode,
                crate::now_ns(),
                crate::topo::current_cpu() as u16,
                ctx.lock_id,
                ctx.shuffler.tid,
                ctx.curr.tid,
                u64::from(verdict),
            );
        }
        verdict
    }

    /// Evaluates `skip_shuffle`; vacant slot ⇒ `true` (no shuffling, i.e.
    /// plain FIFO — shuffling only happens when a policy asks for it).
    #[inline]
    pub fn eval_skip_shuffle(&self, ctx: &SkipShuffleCtx) -> bool {
        let verdict = if !self.is_active(HookKind::SkipShuffle) {
            // With a cmp_node policy installed but no skip policy, shuffle.
            !self.is_active(HookKind::CmpNode)
        } else {
            match self.skip_shuffle.get().as_ref() {
                Some(f) => f(ctx),
                None => true,
            }
        };
        if telemetry::armed() {
            telemetry::emit(
                telemetry::EventKind::SkipShuffle,
                crate::now_ns(),
                crate::topo::current_cpu() as u16,
                ctx.lock_id,
                ctx.shuffler.tid,
                0,
                u64::from(verdict),
            );
        }
        verdict
    }

    /// Evaluates `schedule_waiter`; vacant slot ⇒ `true` (parking allowed).
    #[inline]
    pub fn eval_schedule_waiter(&self, ctx: &ScheduleWaiterCtx) -> bool {
        let verdict = if !self.is_active(HookKind::ScheduleWaiter) {
            true
        } else {
            match self.schedule_waiter.get().as_ref() {
                Some(f) => f(ctx),
                None => true,
            }
        };
        if telemetry::armed() {
            telemetry::emit(
                telemetry::EventKind::ScheduleWaiter,
                crate::now_ns(),
                crate::topo::current_cpu() as u16,
                ctx.lock_id,
                ctx.curr.tid,
                ctx.waited_ns,
                u64::from(verdict),
            );
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn view() -> NodeView {
        NodeView {
            tid: 1,
            cpu: 2,
            socket: 0,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        }
    }

    #[test]
    fn table1_hazards() {
        assert_eq!(HookKind::CmpNode.hazard(), Hazard::Fairness);
        assert_eq!(HookKind::SkipShuffle.hazard(), Hazard::Fairness);
        assert_eq!(HookKind::ScheduleWaiter.hazard(), Hazard::Performance);
        for k in [
            HookKind::LockAcquire,
            HookKind::LockContended,
            HookKind::LockAcquired,
            HookKind::LockRelease,
        ] {
            assert_eq!(k.hazard(), Hazard::CriticalSection);
        }
        assert_eq!(HookKind::ALL.len(), 7);
    }

    #[test]
    fn defaults_are_fifo_no_shuffle() {
        let h = ShflHooks::new();
        let ctx = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(),
            curr: view(),
        };
        assert!(!h.eval_cmp_node(&ctx));
        assert!(h.eval_skip_shuffle(&SkipShuffleCtx {
            lock_id: 1,
            shuffler: view()
        }));
        assert!(h.eval_schedule_waiter(&ScheduleWaiterCtx {
            lock_id: 1,
            curr: view(),
            waited_ns: 0
        }));
    }

    #[test]
    fn installing_cmp_node_enables_shuffling() {
        let h = ShflHooks::new();
        h.install_cmp_node(Arc::new(|c| c.curr.socket == c.shuffler.socket));
        assert!(h.is_active(HookKind::CmpNode));
        // No explicit skip policy: shuffling proceeds.
        assert!(!h.eval_skip_shuffle(&SkipShuffleCtx {
            lock_id: 1,
            shuffler: view()
        }));
        let same = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(),
            curr: view(),
        };
        assert!(h.eval_cmp_node(&same));
        let mut remote = same;
        remote.curr.socket = 5;
        assert!(!h.eval_cmp_node(&remote));
        h.clear(HookKind::CmpNode);
        assert!(!h.eval_cmp_node(&same));
    }

    #[test]
    fn event_hooks_fire_only_when_installed() {
        let h = ShflHooks::new();
        let hits = Arc::new(AtomicU64::new(0));
        let ctx = LockEventCtx {
            lock_id: 9,
            tid: 1,
            cpu: 0,
            socket: 0,
            now_ns: 0,
            owner_tid: 0,
        };
        h.fire_event(HookKind::LockAcquired, &ctx);
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let hits2 = Arc::clone(&hits);
        h.install_event(
            HookKind::LockAcquired,
            Arc::new(move |c| {
                assert_eq!(c.lock_id, 9);
                hits2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        h.fire_event(HookKind::LockAcquired, &ctx);
        h.fire_event(HookKind::LockRelease, &ctx); // Not installed.
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "not an event hook")]
    fn install_event_rejects_decision_hooks() {
        ShflHooks::new().install_event(HookKind::CmpNode, Arc::new(|_| {}));
    }
}
