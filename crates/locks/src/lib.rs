//! Kernel-style lock algorithms with Concord hook points — real-thread
//! implementations.
//!
//! This crate holds the locks the *Contextual Concurrency Control*
//! reproduction attaches policies to, implemented from scratch over std
//! atomics:
//!
//! * [`ShflLock`] — the shuffle lock (SOSP '19) whose shuffler consults
//!   pluggable, livepatchable policies ([`hooks::ShflHooks`]) — the lock
//!   Concord targets, in two flavours fixed when it is built: spinning
//!   ([`ShflLock::new`]) and blocking ([`ShflLock::blocking`], which parks
//!   waiters when the `schedule_waiter` policy allows);
//! * [`NeutralRwLock`] — fair writer-preference readers-writer lock (the
//!   `rwsem`/`qrwlock` "Stock" baseline), the lock BRAVO wraps;
//! * [`Bravo`] — the BRAVO biased readers-writer wrapper (ATC '19) over any
//!   [`RawRwLock`].
//!
//! The baselines the paper compares against (TAS, ticket, MCS,
//! phase-fair) live only in the discrete-event simulator (`simlocks`),
//! which owns every scalability experiment. Threads announce a *virtual*
//! CPU/NUMA placement via [`topo::pin_thread`] so topology-aware
//! algorithms work identically on any host; this crate is the adoptable
//! library validated by stress tests.
//!
//! # Examples
//!
//! ```
//! use locks::{RawLock, ShflLock};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(ShflLock::new());
//! let mut handles = Vec::new();
//! for _ in 0..4 {
//!     let lock = Arc::clone(&lock);
//!     handles.push(std::thread::spawn(move || {
//!         for _ in 0..1000 {
//!             let _g = lock.lock();
//!         }
//!     }));
//! }
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

mod backoff;
mod bravo;
pub mod hooks;
mod raw;
mod rwlock;
mod shfl;
pub mod topo;

pub use backoff::Backoff;
pub use bravo::Bravo;
pub use raw::{LockGuard, RawLock, RawRwLock, ReadGuard, WriteGuard};
pub use rwlock::NeutralRwLock;
pub use shfl::ShflLock;

/// Monotonic nanosecond clock shared by lock implementations, profiling,
/// and the telemetry plane (one epoch, so trace timestamps from different
/// layers interleave correctly).
pub fn now_ns() -> u64 {
    telemetry::clock::now_ns()
}
