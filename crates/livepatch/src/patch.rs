//! Patch transactions: grouped replacements with LIFO stacking and revert.

use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::patchpoint::PatchPoint;

/// Errors from the patch manager.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatchError {
    /// Attempted to revert a patch that is not on top of the stack
    /// (the kernel's livepatch stack has the same restriction).
    NotOnTop,
    /// The handle does not name a live patch.
    UnknownPatch,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotOnTop => write!(f, "patch is not on top of the stack"),
            PatchError::UnknownPatch => write!(f, "no such applied patch"),
        }
    }
}

impl std::error::Error for PatchError {}

/// The op bound of patches on real locks: any thread may apply or revert
/// them. The default of [`Patch`] and [`PatchManager`].
pub type SyncOp = dyn Fn() + Send + Sync;

/// The op bound of patches on a simulator's locks, which live on one
/// thread and hold `Rc`s.
pub type LocalOp = dyn Fn();

/// What a manager's apply and revert actions may capture, and the clock
/// that stamps its records: [`SyncOp`] on the telemetry clock (wall time)
/// or [`LocalOp`] on a clock its owner supplies (a simulator's virtual
/// time, so a sim trace repeats bit for bit).
pub trait OpBound: Fn() {
    /// The record clock under this bound.
    type Clock: ?Sized + Fn() -> u64;
}

impl OpBound for SyncOp {
    type Clock = dyn Fn() -> u64 + Send + Sync;
}

impl OpBound for LocalOp {
    type Clock = dyn Fn() -> u64;
}

/// A closure that can be boxed as an op of bound `O`.
pub trait IntoOp<O: ?Sized> {
    /// Boxes the closure.
    fn into_op(self) -> Box<O>;
}

impl<F: Fn() + Send + Sync + 'static> IntoOp<SyncOp> for F {
    fn into_op(self) -> Box<SyncOp> {
        Box::new(self)
    }
}

impl<F: Fn() + 'static> IntoOp<LocalOp> for F {
    fn into_op(self) -> Box<LocalOp> {
        Box::new(self)
    }
}

struct PatchOp<O: ?Sized> {
    apply: Box<O>,
    revert: Box<O>,
}

/// Emits a patch-transition trace record stamped by `clock` (when the
/// plane is armed): `a` = FNV-1a hash of the patch name, `b` = number of
/// patched sites, `c` = patch id, payload = name prefix. The metrics
/// counters run unconditionally — patch transitions are control-plane
/// rate, never on a lock path.
fn trace_patch<C: ?Sized + Fn() -> u64>(
    kind: telemetry::EventKind,
    clock: &C,
    name: &str,
    sites: u64,
    id: u64,
) {
    let metric = if kind == telemetry::EventKind::PatchApply {
        "c3_patch_apply_total"
    } else {
        "c3_patch_revert_total"
    };
    telemetry::metrics().counter(metric).inc();
    if telemetry::armed() {
        telemetry::emit_payload(
            kind,
            clock(),
            0,
            telemetry::event::fnv64(name),
            sites,
            id,
            0,
            name.as_bytes(),
        );
    }
}

/// A to-be-applied patch: a named set of slot replacements whose ops
/// have bound `O`.
///
/// # Examples
///
/// ```
/// use livepatch::{Patch, PatchManager, PatchPoint};
/// use std::sync::Arc;
///
/// let point = Arc::new(PatchPoint::new(10u32));
/// let mgr = PatchManager::new();
/// let mut patch = Patch::new("raise");
/// patch.swap(&point, 20, 10);
/// let h = mgr.apply(patch);
/// assert_eq!(*point.get(), 20);
/// mgr.revert(h).unwrap();
/// assert_eq!(*point.get(), 10);
/// ```
pub struct Patch<O: ?Sized + OpBound = SyncOp> {
    name: String,
    ops: Vec<PatchOp<O>>,
}

impl<O: ?Sized + OpBound> Patch<O> {
    /// Starts an empty patch.
    pub fn new(name: impl Into<String>) -> Self {
        Patch {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// The patch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sites this patch touches.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the patch touches no sites.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Adds arbitrary apply/revert actions (e.g. a hook's active flag).
    pub fn action(&mut self, apply: impl IntoOp<O>, revert: impl IntoOp<O>) -> &mut Self {
        self.ops.push(PatchOp {
            apply: apply.into_op(),
            revert: revert.into_op(),
        });
        self
    }
}

impl Patch {
    /// Adds a replacement of `point`'s value with `new`; `restore` is
    /// installed on revert.
    pub fn swap<T: Clone + Send + Sync + 'static>(
        &mut self,
        point: &Arc<PatchPoint<T>>,
        new: T,
        restore: T,
    ) -> &mut Self {
        let p1 = Arc::clone(point);
        let p2 = Arc::clone(point);
        self.action(
            move || p1.replace(new.clone()),
            move || p2.replace(restore.clone()),
        )
    }
}

/// Handle to an applied patch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PatchHandle(u64);

/// One handle is a set of one, for [`PatchManager::revert_transaction`].
impl AsRef<[PatchHandle]> for PatchHandle {
    fn as_ref(&self) -> &[PatchHandle] {
        std::slice::from_ref(self)
    }
}

struct Applied<O: ?Sized> {
    id: u64,
    name: String,
    ops: Vec<PatchOp<O>>,
}

/// Applies patches and enforces stack-ordered (LIFO) revert. `O` is the
/// bound its patches' ops share; the default serves real locks, and
/// [`LocalOp`] a simulator's.
pub struct PatchManager<O: ?Sized + OpBound = SyncOp> {
    stack: Mutex<Vec<Applied<O>>>,
    next_id: Mutex<u64>,
    clock: Box<O::Clock>,
}

impl PatchManager {
    /// Creates an empty manager whose records carry the telemetry
    /// clock's wall time.
    pub fn new() -> Self {
        Self::with_clock(Box::new(telemetry::clock::now_ns))
    }
}

impl Default for PatchManager {
    fn default() -> Self {
        PatchManager::new()
    }
}

impl<O: ?Sized + OpBound> PatchManager<O> {
    /// Creates an empty manager whose patch records are stamped by
    /// `clock`.
    pub fn with_clock(clock: Box<O::Clock>) -> Self {
        PatchManager {
            stack: Mutex::new(Vec::new()),
            next_id: Mutex::new(0),
            clock,
        }
    }

    /// Applies all of `patch`'s replacements, in order, and pushes it on
    /// the stack: a transaction of one.
    pub fn apply(&self, patch: Patch<O>) -> PatchHandle {
        let Ok(handles) = self.apply_transaction::<Infallible>([Ok(patch)]);
        handles[0]
    }

    /// Applies a whole sequence of patches as one all-or-nothing
    /// transaction.
    ///
    /// Each item in `patches` is a fallible patch construction; the
    /// transaction applies each `Ok` patch in order while holding the
    /// stack lock, so no other apply/revert can interleave. On the first
    /// `Err` item every patch already applied by this transaction is
    /// unwound in reverse order (each patch's sites in reverse apply
    /// order) and the error is returned — the manager is left exactly as
    /// it was before the call. On success all patches are pushed on the
    /// stack (bottom = first item) and their handles returned.
    ///
    /// The iterator runs under the stack lock, so producing an item must
    /// not call back into this manager.
    ///
    /// # Errors
    ///
    /// Returns the first `Err` produced by the iterator, after unwinding.
    pub fn apply_transaction<E>(
        &self,
        patches: impl IntoIterator<Item = Result<Patch<O>, E>>,
    ) -> Result<Vec<PatchHandle>, E> {
        let mut stack = self.stack.lock();
        let mut applied: Vec<Patch<O>> = Vec::new();
        for item in patches {
            match item {
                Ok(patch) => {
                    for op in &patch.ops {
                        (op.apply)();
                    }
                    applied.push(patch);
                }
                Err(e) => {
                    // Unwind everything this transaction applied, newest
                    // first, each patch's sites in reverse apply order.
                    for patch in applied.iter().rev() {
                        for op in patch.ops.iter().rev() {
                            (op.revert)();
                        }
                    }
                    telemetry::metrics()
                        .counter("c3_patch_txn_unwound_total")
                        .inc();
                    return Err(e);
                }
            }
        }
        let mut handles = Vec::with_capacity(applied.len());
        for patch in applied {
            let id = {
                let mut next = self.next_id.lock();
                *next += 1;
                *next
            };
            trace_patch(
                telemetry::EventKind::PatchApply,
                &*self.clock,
                &patch.name,
                patch.ops.len() as u64,
                id,
            );
            stack.push(Applied {
                id,
                name: patch.name,
                ops: patch.ops,
            });
            handles.push(PatchHandle(id));
        }
        Ok(handles)
    }

    /// Handle of the topmost live patch with this exact name, if any.
    /// Patch names are not forced unique; the topmost match is the one a
    /// LIFO revert would reach first.
    pub fn find(&self, name: &str) -> Option<PatchHandle> {
        self.stack
            .lock()
            .iter()
            .rev()
            .find(|p| p.name == name)
            .map(|p| PatchHandle(p.id))
    }

    /// [`PatchManager::find`] for each of `names`, in order, under one
    /// hold of the stack, skipping the patches earlier names took: a name
    /// listed twice gets its two topmost patches, as a find, a revert and
    /// a second find would.
    pub fn find_distinct<S: AsRef<str>>(
        &self,
        names: impl IntoIterator<Item = S>,
    ) -> Vec<Option<PatchHandle>> {
        let stack = self.stack.lock();
        let mut taken = Vec::new();
        names
            .into_iter()
            .map(|name| {
                let p = stack
                    .iter()
                    .rev()
                    .find(|p| p.name == name.as_ref() && !taken.contains(&p.id))?;
                taken.push(p.id);
                Some(PatchHandle(p.id))
            })
            .collect()
    }

    /// Names of live patches whose name starts with `prefix`, bottom to
    /// top.
    #[cfg(test)]
    pub fn live_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.stack
            .lock()
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.name.clone())
            .collect()
    }

    /// Reverts the patch named by `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::NotOnTop`] when other patches were applied on
    /// top of it, and [`PatchError::UnknownPatch`] when it is not live.
    pub fn revert(&self, handle: PatchHandle) -> Result<(), PatchError> {
        let mut stack = self.stack.lock();
        match stack.last() {
            Some(top) if top.id == handle.0 => {
                let applied = stack.pop().expect("checked non-empty");
                drop(stack);
                // Revert sites in reverse apply order.
                for op in applied.ops.iter().rev() {
                    (op.revert)();
                }
                trace_patch(
                    telemetry::EventKind::PatchRevert,
                    &*self.clock,
                    &applied.name,
                    applied.ops.len() as u64,
                    applied.id,
                );
                Ok(())
            }
            _ => {
                if stack.iter().any(|p| p.id == handle.0) {
                    Err(PatchError::NotOnTop)
                } else {
                    Err(PatchError::UnknownPatch)
                }
            }
        }
    }

    /// Reverts every patch `handles` names, wherever each sits on the
    /// stack, as one transaction: it finds the lowest target, detaches it
    /// and everything above it, reverts that tail once (top-down, each
    /// patch's sites in reverse apply order) and re-applies the patches
    /// that were not targets once, in their original order and keeping
    /// their ids, so their handles stay valid. Returns the names of the
    /// re-applied patches. A single handle is the one-element set.
    ///
    /// All or nothing: unless every handle names a distinct live patch,
    /// the call fails before it touches anything. Each target gets one
    /// `PatchRevert` record, in the order of `handles`.
    ///
    /// This is the quarantine primitive: a faulting policy can be pulled
    /// without forcing unrelated patches (profilers, other tenants) off
    /// the lock. Note that a patch re-applied above a target keeps the
    /// restore values it captured at construction — if its restore chain
    /// referenced a pulled patch's state, a later revert of *that* patch
    /// restores the pre-pull value (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::UnknownPatch`] when a handle is not live or
    /// appears twice; the stack and every patched site are then as they
    /// were.
    pub fn revert_transaction(
        &self,
        handles: impl AsRef<[PatchHandle]>,
    ) -> Result<Vec<String>, PatchError> {
        let handles = handles.as_ref();
        let mut stack = self.stack.lock();
        // Ids only grow up the stack (a push takes a fresh id, and a
        // transaction re-pushes its survivors in order), so a handle's
        // position is a binary search away.
        let mut at = Vec::with_capacity(handles.len());
        for h in handles {
            let pos = stack
                .binary_search_by_key(&h.0, |p| p.id)
                .map_err(|_| PatchError::UnknownPatch)?;
            at.push(pos);
        }
        let Some(&low) = at.iter().min() else {
            return Ok(Vec::new());
        };
        let mut pulled = vec![false; stack.len() - low];
        for &pos in &at {
            if std::mem::replace(&mut pulled[pos - low], true) {
                return Err(PatchError::UnknownPatch);
            }
        }
        // Detach the tail while holding the lock, so no patch can
        // interleave mid-transaction, and unwind it once, top-down.
        let tail: Vec<Applied<O>> = stack.drain(low..).collect();
        for patch in tail.iter().rev() {
            for op in patch.ops.iter().rev() {
                (op.revert)();
            }
        }
        for &pos in &at {
            let target = &tail[pos - low];
            trace_patch(
                telemetry::EventKind::PatchRevert,
                &*self.clock,
                &target.name,
                target.ops.len() as u64,
                target.id,
            );
        }
        let mut names = Vec::with_capacity(tail.len() - at.len());
        for (patch, pulled) in tail.into_iter().zip(pulled) {
            if pulled {
                continue;
            }
            for op in &patch.ops {
                (op.apply)();
            }
            names.push(patch.name.clone());
            stack.push(patch);
        }
        Ok(names)
    }

    /// Names of live patches, bottom to top.
    pub fn live(&self) -> Vec<String> {
        self.stack.lock().iter().map(|p| p.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_revert_roundtrip() {
        let a = Arc::new(PatchPoint::new(1u32));
        let b = Arc::new(PatchPoint::new(10u32));
        let mgr = PatchManager::new();
        let mut p = Patch::new("both");
        p.swap(&a, 2, 1).swap(&b, 20, 10);
        assert_eq!(p.len(), 2);
        let h = mgr.apply(p);
        assert_eq!(*a.get(), 2);
        assert_eq!(*b.get(), 20);
        assert_eq!(mgr.live(), vec!["both"]);
        mgr.revert(h).unwrap();
        assert_eq!(*a.get(), 1);
        assert_eq!(*b.get(), 10);
        assert!(mgr.live().is_empty());
    }

    #[test]
    fn lifo_discipline_enforced() {
        let x = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let mut p1 = Patch::new("p1");
        p1.swap(&x, 1, 0);
        let mut p2 = Patch::new("p2");
        p2.swap(&x, 2, 1);
        let h1 = mgr.apply(p1);
        let h2 = mgr.apply(p2);
        assert_eq!(*x.get(), 2);
        assert_eq!(mgr.revert(h1), Err(PatchError::NotOnTop));
        mgr.revert(h2).unwrap();
        mgr.revert(h1).unwrap();
        assert_eq!(*x.get(), 0);
        assert_eq!(mgr.revert(h1), Err(PatchError::UnknownPatch));
    }

    #[test]
    fn revert_transaction_pulls_mid_stack_patch() {
        // Three patches on distinct points: the transaction must revert
        // only the middle one while the others keep their values.
        let a = Arc::new(PatchPoint::new(0u32));
        let b = Arc::new(PatchPoint::new(0u32));
        let c = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let mut p1 = Patch::new("p1");
        p1.swap(&a, 1, 0);
        let mut p2 = Patch::new("p2");
        p2.swap(&b, 2, 0);
        let mut p3 = Patch::new("p3");
        p3.swap(&c, 3, 0);
        let _h1 = mgr.apply(p1);
        let h2 = mgr.apply(p2);
        let h3 = mgr.apply(p3);
        let reapplied = mgr.revert_transaction(h2).unwrap();
        assert_eq!(reapplied, vec!["p3"]);
        assert_eq!(*a.get(), 1);
        assert_eq!(*b.get(), 0, "target patch reverted");
        assert_eq!(*c.get(), 3, "patch above re-applied");
        assert_eq!(mgr.live(), vec!["p1", "p3"]);
        // Handles above the target survive the transaction.
        mgr.revert(h3).unwrap();
        assert_eq!(*c.get(), 0);
        assert_eq!(
            mgr.revert_transaction(h2),
            Err(PatchError::UnknownPatch),
            "already gone"
        );
    }

    #[test]
    fn revert_transaction_on_top_is_plain_revert() {
        let x = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let mut p = Patch::new("only");
        p.swap(&x, 5, 0);
        let h = mgr.apply(p);
        assert_eq!(mgr.revert_transaction(h).unwrap(), Vec::<String>::new());
        assert_eq!(*x.get(), 0);
        assert!(mgr.live().is_empty());
    }

    #[test]
    fn revert_transaction_with_a_dead_handle_touches_nothing() {
        let x = Arc::new(PatchPoint::new(0u32));
        let y = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let mut p1 = Patch::new("p1");
        p1.swap(&x, 1, 0);
        let mut p2 = Patch::new("p2");
        p2.swap(&y, 2, 0);
        let mut p3 = Patch::new("p3");
        p3.swap(&x, 3, 1);
        let h1 = mgr.apply(p1);
        let h2 = mgr.apply(p2);
        let h3 = mgr.apply(p3);
        mgr.revert(h3).unwrap();
        let (gx, gy) = (x.generation(), y.generation());
        for set in [vec![h1, h3], vec![h3, h2], vec![h2, h2]] {
            assert_eq!(mgr.revert_transaction(&set), Err(PatchError::UnknownPatch));
            assert_eq!(mgr.live(), vec!["p1", "p2"]);
            assert_eq!((*x.get(), *y.get()), (1, 2));
            assert_eq!((x.generation(), y.generation()), (gx, gy), "no site ran");
        }
        // Both handles still name their patches.
        assert_eq!(
            mgr.revert_transaction([h2, h1]).unwrap(),
            Vec::<String>::new()
        );
        assert_eq!((*x.get(), *y.get()), (0, 0));
        assert!(mgr.live().is_empty());
    }

    #[test]
    fn two_targets_on_one_point_leave_the_survivor_below() {
        // base, a, b and c stack on one point, each restoring what it
        // found. Pulling b then c one at a time would end on c's restore,
        // b's value; one unwind ends on a's, the live patch below.
        let x = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let handles: Vec<PatchHandle> = (1..=3u32)
            .map(|v| {
                let mut p = Patch::new(format!("p{v}"));
                p.swap(&x, v, v - 1);
                mgr.apply(p)
            })
            .collect();
        assert!(mgr
            .revert_transaction([handles[1], handles[2]])
            .unwrap()
            .is_empty());
        assert_eq!(*x.get(), 1);
        assert_eq!(mgr.live(), vec!["p1"]);
    }

    #[test]
    fn custom_actions_run_in_both_directions() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counter = Arc::new(AtomicU32::new(0));
        let (c1, c2) = (Arc::clone(&counter), Arc::clone(&counter));
        let mgr = PatchManager::new();
        let mut p = Patch::new("acts");
        p.action(
            move || {
                c1.fetch_add(1, Ordering::SeqCst);
            },
            move || {
                c2.fetch_add(100, Ordering::SeqCst);
            },
        );
        let h = mgr.apply(p);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        mgr.revert(h).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 101);
    }

    #[test]
    fn apply_transaction_all_ok_stacks_in_order() {
        let a = Arc::new(PatchPoint::new(0u32));
        let b = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        let mut p1 = Patch::new("t1");
        p1.swap(&a, 1, 0);
        let mut p2 = Patch::new("t2");
        p2.swap(&b, 2, 0);
        let handles = mgr.apply_transaction::<()>(vec![Ok(p1), Ok(p2)]).unwrap();
        assert_eq!(handles.len(), 2);
        assert_eq!(*a.get(), 1);
        assert_eq!(*b.get(), 2);
        assert_eq!(mgr.live(), vec!["t1", "t2"]);
        // LIFO discipline holds across the transaction boundary.
        assert_eq!(mgr.revert(handles[0]), Err(PatchError::NotOnTop));
        mgr.revert(handles[1]).unwrap();
        mgr.revert(handles[0]).unwrap();
        assert_eq!(*a.get(), 0);
        assert_eq!(*b.get(), 0);
    }

    #[test]
    fn apply_transaction_unwinds_on_error() {
        let a = Arc::new(PatchPoint::new(0u32));
        let b = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        // A pre-existing patch must be untouched by the failed txn.
        let mut pre = Patch::new("pre");
        pre.swap(&a, 7, 0);
        let pre_h = mgr.apply(pre);

        let mut p1 = Patch::new("t1");
        p1.swap(&a, 1, 7);
        let mut p2 = Patch::new("t2");
        p2.swap(&b, 2, 0);
        let err = mgr
            .apply_transaction(vec![Ok(p1), Ok(p2), Err("boom")])
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(*a.get(), 7, "t1 unwound back to pre-txn value");
        assert_eq!(*b.get(), 0, "t2 unwound");
        assert_eq!(mgr.live(), vec!["pre"], "stack unchanged by failed txn");
        mgr.revert(pre_h).unwrap();
        assert_eq!(*a.get(), 0);
    }

    #[test]
    fn apply_transaction_error_first_is_noop() {
        let mgr = PatchManager::new();
        let err = mgr
            .apply_transaction::<&str>(vec![Err("early")])
            .unwrap_err();
        assert_eq!(err, "early");
        assert!(mgr.live().is_empty());
    }

    #[test]
    fn apply_transaction_empty_is_fine() {
        let mgr = PatchManager::new();
        let handles = mgr.apply_transaction::<()>(Vec::new()).unwrap();
        assert!(handles.is_empty());
    }

    #[test]
    fn find_and_prefix_scan() {
        let x = Arc::new(PatchPoint::new(0u32));
        let mgr = PatchManager::new();
        assert_eq!(mgr.find("rollout-g1:a"), None);
        let mut p1 = Patch::new("rollout-g1:a");
        p1.swap(&x, 1, 0);
        let mut p2 = Patch::new("rollout-g1:b");
        p2.swap(&x, 2, 1);
        let mut p3 = Patch::new("other");
        p3.swap(&x, 3, 2);
        let h1 = mgr.apply(p1);
        let _h2 = mgr.apply(p2);
        let _h3 = mgr.apply(p3);
        assert_eq!(mgr.find("rollout-g1:a"), Some(h1));
        assert_eq!(
            mgr.live_with_prefix("rollout-g1:"),
            vec!["rollout-g1:a", "rollout-g1:b"]
        );
        assert!(mgr.live_with_prefix("rollout-g2:").is_empty());
    }

    #[test]
    fn find_distinct_takes_each_patch_once() {
        let mgr = PatchManager::new();
        let [low, other, high] = ["a", "b", "a"].map(|name| mgr.apply(Patch::new(name)));
        assert_eq!(
            mgr.find_distinct(["a", "c", "a", "b", "a"]),
            vec![Some(high), None, Some(low), Some(other), None]
        );
    }

    #[test]
    fn empty_patch_is_fine() {
        let mgr = PatchManager::new();
        let p = Patch::new("empty");
        assert!(p.is_empty());
        let h = mgr.apply(p);
        mgr.revert(h).unwrap();
    }
}
