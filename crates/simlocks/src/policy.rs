//! Policy interface of the simulated shuffle lock.
//!
//! Decisions reuse the context vocabulary of the real-thread hook table
//! (`locks::hooks`); every evaluation additionally reports its *cost* in
//! nanoseconds of virtual time, which the lock charges to the invoking
//! task. A native (compiled-in) policy costs a few nanoseconds; Concord's
//! bytecode-backed policy charges patch-point indirection plus
//! per-instruction interpreter cost — reproducing the overhead the paper
//! measures in Fig. 2(c).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use locks::hooks::{CmpNodeCtx, HookKind, LockEventCtx, SkipShuffleCtx};

/// A decision plus the virtual-time cost of computing it.
pub type Decision = (bool, u64);

/// Policy consulted by the simulated shuffle lock.
pub trait SimPolicy {
    /// Whether to move `ctx.curr` forward; see Table 1.
    fn cmp_node(&self, ctx: &CmpNodeCtx) -> Decision;

    /// Whether to skip the shuffle phase entirely.
    fn skip_shuffle(&self, ctx: &SkipShuffleCtx) -> Decision;

    /// Profiling hook; returns the cost charged to the event site.
    fn on_event(&self, kind: HookKind, ctx: &LockEventCtx) -> u64 {
        let _ = (kind, ctx);
        0
    }

    /// Which event hooks are attached (vacant hooks cost nothing at all).
    fn wants_event(&self, kind: HookKind) -> bool {
        let _ = kind;
        false
    }
}

/// A sim lock's patch point: the policy its slow path consults and a
/// count of swaps. The lock and every patch that swaps its policy share
/// it through an `Rc`, as real patches share an `Arc<PatchPoint>`; the
/// simulator is single-threaded, so a swap is a plain replace.
pub struct PolicySlot {
    policy: RefCell<Rc<dyn SimPolicy>>,
    generation: Cell<u64>,
}

impl PolicySlot {
    pub(crate) fn new(policy: Rc<dyn SimPolicy>) -> Self {
        PolicySlot {
            policy: RefCell::new(policy),
            generation: Cell::new(0),
        }
    }

    /// Installs `p`.
    pub fn set_policy(&self, p: Rc<dyn SimPolicy>) {
        *self.policy.borrow_mut() = p;
        self.generation.set(self.generation.get() + 1);
    }

    /// The current policy.
    pub fn policy(&self) -> Rc<dyn SimPolicy> {
        Rc::clone(&self.policy.borrow())
    }

    /// Monotonic count of policy swaps — the sim analog of a patch
    /// point's generation.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }
}

/// The unpatched lock: FIFO order, no shuffling, zero overhead.
#[derive(Default)]
pub struct FifoPolicy;

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy
    }
}

impl SimPolicy for FifoPolicy {
    fn cmp_node(&self, _ctx: &CmpNodeCtx) -> Decision {
        (false, 0)
    }

    fn skip_shuffle(&self, _ctx: &SkipShuffleCtx) -> Decision {
        (true, 0)
    }
}

/// A compiled-in policy: native closures with a fixed per-call cost.
///
/// Models a policy baked into the kernel at build time (the paper's
/// "pre-compiled versions of the same locks", §5), e.g. NUMA-aware
/// grouping for Fig. 2(b)'s ShflLock series.
pub struct NativePolicy {
    cmp: Box<dyn Fn(&CmpNodeCtx) -> bool>,
    skip: Box<dyn Fn(&SkipShuffleCtx) -> bool>,
    cost_ns: u64,
}

impl NativePolicy {
    /// Builds a policy from closures; `cost_ns` is charged per decision.
    pub fn new(
        cmp: impl Fn(&CmpNodeCtx) -> bool + 'static,
        skip: impl Fn(&SkipShuffleCtx) -> bool + 'static,
        cost_ns: u64,
    ) -> Self {
        NativePolicy {
            cmp: Box::new(cmp),
            skip: Box::new(skip),
            cost_ns,
        }
    }

    /// The NUMA-aware grouping policy (same-socket waiters move forward),
    /// at native-code cost.
    pub fn numa_aware() -> Self {
        NativePolicy::new(|c| c.curr.socket == c.shuffler.socket, |_| false, 3)
    }

    /// A priority policy: move `curr` forward when it outranks the
    /// shuffler.
    pub fn priority() -> Self {
        NativePolicy::new(|c| c.curr.prio > c.shuffler.prio, |_| false, 3)
    }
}

impl SimPolicy for NativePolicy {
    fn cmp_node(&self, ctx: &CmpNodeCtx) -> Decision {
        ((self.cmp)(ctx), self.cost_ns)
    }

    fn skip_shuffle(&self, ctx: &SkipShuffleCtx) -> Decision {
        ((self.skip)(ctx), self.cost_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locks::hooks::NodeView;

    fn view(socket: u32, prio: i64) -> NodeView {
        NodeView {
            tid: 1,
            cpu: socket * 10,
            socket,
            prio,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        }
    }

    #[test]
    fn fifo_never_shuffles() {
        let p = FifoPolicy::new();
        let ctx = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(0, 0),
            curr: view(0, 0),
        };
        assert_eq!(p.cmp_node(&ctx), (false, 0));
        assert_eq!(
            p.skip_shuffle(&SkipShuffleCtx {
                lock_id: 1,
                shuffler: view(0, 0)
            }),
            (true, 0)
        );
    }

    #[test]
    fn numa_policy_groups_same_socket() {
        let p = NativePolicy::numa_aware();
        let same = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(2, 0),
            curr: view(2, 0),
        };
        let other = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(2, 0),
            curr: view(5, 0),
        };
        assert!(p.cmp_node(&same).0);
        assert!(!p.cmp_node(&other).0);
        assert!(p.cmp_node(&same).1 > 0, "native policies still cost time");
    }

    #[test]
    fn priority_policy_prefers_high_prio() {
        let p = NativePolicy::priority();
        let ctx = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(0, 0),
            curr: view(1, 5),
        };
        assert!(p.cmp_node(&ctx).0);
    }
}
