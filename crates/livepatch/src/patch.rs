//! Patch transactions: grouped replacements with LIFO stacking and revert.

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

struct PatchOp {
    apply: Box<dyn Fn() + Send + Sync>,
    revert: Box<dyn Fn() + Send + Sync>,
}

/// Emits a patch-transition trace record (when the plane is armed):
/// `a` = FNV-1a hash of the patch name, `b` = number of patched sites,
/// `c` = patch id, payload = name prefix. Uses [`telemetry::clock`] so a
/// DES driver can pin control-plane transitions to virtual time. The
/// metrics counters run unconditionally — patch transitions are
/// control-plane rate, never on a lock path.
fn trace_patch(kind: telemetry::EventKind, name: &str, sites: u64, id: u64) {
    let metric = if kind == telemetry::EventKind::PatchApply {
        "c3_patch_apply_total"
    } else {
        "c3_patch_revert_total"
    };
    telemetry::metrics().counter(metric).inc();
    if telemetry::armed() {
        telemetry::emit_payload(
            kind,
            telemetry::clock::now_ns(),
            0,
            telemetry::event::fnv64(name),
            sites,
            id,
            0,
            name.as_bytes(),
        );
    }
}

/// A to-be-applied patch: a named set of slot replacements.
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
pub struct Patch {
    name: String,
    ops: Vec<PatchOp>,
}

impl Patch {
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
        self.ops.push(PatchOp {
            apply: Box::new(move || p1.replace(new.clone())),
            revert: Box::new(move || p2.replace(restore.clone())),
        });
        self
    }

    /// Adds arbitrary apply/revert actions (e.g. shadow-variable setup).
    pub fn action(
        &mut self,
        apply: impl Fn() + Send + Sync + 'static,
        revert: impl Fn() + Send + Sync + 'static,
    ) -> &mut Self {
        self.ops.push(PatchOp {
            apply: Box::new(apply),
            revert: Box::new(revert),
        });
        self
    }
}

/// Handle to an applied patch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PatchHandle(u64);

struct Applied {
    id: u64,
    name: String,
    ops: Vec<PatchOp>,
}

/// Applies patches and enforces stack-ordered (LIFO) revert.
#[derive(Default)]
pub struct PatchManager {
    stack: Mutex<Vec<Applied>>,
    next_id: Mutex<u64>,
}

impl PatchManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        PatchManager::default()
    }

    /// Applies all of `patch`'s replacements, in order, and pushes it on
    /// the stack.
    pub fn apply(&self, patch: Patch) -> PatchHandle {
        for op in &patch.ops {
            (op.apply)();
        }
        let id = {
            let mut next = self.next_id.lock();
            *next += 1;
            *next
        };
        trace_patch(
            telemetry::EventKind::PatchApply,
            &patch.name,
            patch.ops.len() as u64,
            id,
        );
        self.stack.lock().push(Applied {
            id,
            name: patch.name,
            ops: patch.ops,
        });
        PatchHandle(id)
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
    /// # Errors
    ///
    /// Returns the first `Err` produced by the iterator, after unwinding.
    pub fn apply_transaction<E>(
        &self,
        patches: impl IntoIterator<Item = Result<Patch, E>>,
    ) -> Result<Vec<PatchHandle>, E> {
        let mut stack = self.stack.lock();
        let mut applied: Vec<Patch> = Vec::new();
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

    /// Reverts `handle` even when it is buried mid-stack, as a
    /// transaction: every patch stacked above it is reverted (top-down),
    /// the target is reverted, and the others are re-applied in their
    /// original order. Returns the names of the re-applied patches.
    ///
    /// This is the quarantine primitive: a faulting policy can be pulled
    /// without forcing unrelated patches (profilers, other tenants) off
    /// the lock. Note that a patch re-applied above the target keeps the
    /// restore values it captured at construction — if its restore chain
    /// referenced the quarantined patch's state, a later revert of *that*
    /// patch restores the pre-quarantine value (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::UnknownPatch`] when `handle` is not live.
    pub fn revert_transaction(&self, handle: PatchHandle) -> Result<Vec<String>, PatchError> {
        let mut stack = self.stack.lock();
        let pos = stack
            .iter()
            .position(|p| p.id == handle.0)
            .ok_or(PatchError::UnknownPatch)?;
        // Detach the target and everything above it while holding the
        // lock, so no patch can interleave mid-transaction.
        let mut tail: Vec<Applied> = stack.drain(pos..).collect();
        let target = tail.remove(0);
        // Unwind top-down: the patches above the target first, each
        // reverting its sites in reverse apply order.
        for patch in tail.iter().rev() {
            for op in patch.ops.iter().rev() {
                (op.revert)();
            }
        }
        for op in target.ops.iter().rev() {
            (op.revert)();
        }
        trace_patch(
            telemetry::EventKind::PatchRevert,
            &target.name,
            target.ops.len() as u64,
            target.id,
        );
        // Re-apply the survivors in their original order, keeping their
        // ids so existing handles stay valid.
        let mut names = Vec::with_capacity(tail.len());
        for patch in tail {
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
    fn empty_patch_is_fine() {
        let mgr = PatchManager::new();
        let p = Patch::new("empty");
        assert!(p.is_empty());
        let h = mgr.apply(p);
        mgr.revert(h).unwrap();
    }
}
