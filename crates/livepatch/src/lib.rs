//! Runtime function patching: the kernel-livepatch analog.
//!
//! Concord "uses the livepatch module to replace the annotated functions for
//! the specified locks" (*Contextual Concurrency Control*, HotOS '21, §4.1,
//! Fig. 1 step 6). This crate supplies that mechanism for the lock
//! implementations in this workspace:
//!
//! * [`PatchPoint`] — an atomically swappable function/value slot with
//!   RCU-style (epoch-based) reclamation: calls in flight keep executing the
//!   old implementation, new calls see the new one, and the old object is
//!   freed only after every reader has left its critical section. This is
//!   the per-call consistency model; kernel kpatch's per-task transition
//!   coincides with it for self-contained lock functions (DESIGN.md §7).
//! * [`Patch`] / [`PatchManager`] — multi-site patch transactions with
//!   LIFO stacking and revert, like the kernel's patch stack. One manager
//!   serves both clocks: its ops are [`SyncOp`]s on real locks and
//!   [`LocalOp`]s on a simulator's, whose records carry virtual time.
//!
//! The paper also uses livepatch shadow variables to "extend the node data
//! structure of the queue based lock with extra information" (§4.2). Here
//! that context is compiled into the lock's `NodeView` instead, so there
//! is no shadow store.
//!
//! # Examples
//!
//! ```
//! use livepatch::PatchPoint;
//! use std::sync::Arc;
//!
//! type Decision = Arc<dyn Fn(u32) -> bool + Send + Sync>;
//! let point: PatchPoint<Decision> = PatchPoint::new(Arc::new(|_| true));
//! assert!(point.get()(7));
//! point.replace(Arc::new(|x| x % 2 == 0));
//! assert!(!point.get()(7));
//! ```

mod patch;
mod patchpoint;

pub use patch::{IntoOp, LocalOp, OpBound, Patch, PatchError, PatchHandle, PatchManager, SyncOp};
pub use patchpoint::{PatchGuard, PatchPoint};
