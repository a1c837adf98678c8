//! Discrete-event-simulator implementations of the paper's lock algorithms.
//!
//! These are the locks that regenerate the evaluation figures: the
//! hooked locks (ShflLock, BRAVO), whose real-thread twins live in crate
//! `locks`, and the baselines, which exist only here — all expressed
//! against the `ksim` machine model, where every shared-memory access is
//! charged cache-coherence latency in virtual time. Contention behavior — who
//! transfers which line when — is therefore modeled explicitly, which is
//! what lets an 80-core scalability figure be reproduced deterministically
//! on a single-CPU host (DESIGN.md §2).
//!
//! Lock policies enter through [`policy::SimPolicy`]; the Concord crate
//! supplies an implementation backed by verified `cbpf` bytecode whose
//! execution cost is charged to virtual time, so framework overhead appears
//! in the figures exactly as eBPF overhead does in the paper.
//!
//! # Examples
//!
//! ```
//! use ksim::{CpuId, SimBuilder};
//! use simlocks::SimMcsLock;
//! use std::rc::Rc;
//!
//! let sim = SimBuilder::new().build();
//! let lock = Rc::new(SimMcsLock::new(&sim));
//! for cpu in 0..8u32 {
//!     let lock = Rc::clone(&lock);
//!     sim.spawn_on(CpuId(cpu), move |t| async move {
//!         for _ in 0..50 {
//!             lock.acquire(&t).await;
//!             t.advance(200).await; // Critical section.
//!             lock.release(&t).await;
//!         }
//!     });
//! }
//! let stats = sim.run();
//! assert!(stats.stuck_tasks.is_empty());
//! ```

mod arena;
mod bravo;
pub mod broken;
mod mcs;
mod phasefair;
pub mod policy;
mod rw;
mod shfl;
mod tas;
mod ticket;

pub use bravo::SimBravo;
pub use broken::{BrokenTicketLock, InversionPair, UnfairStealLock};
pub use mcs::SimMcsLock;
pub use phasefair::SimPhaseFairRwLock;
pub use policy::{FifoPolicy, NativePolicy, SimPolicy};
pub use rw::SimNeutralRwLock;
pub use shfl::SimShflLock;
pub use tas::SimTasLock;
pub use ticket::SimTicketLock;
