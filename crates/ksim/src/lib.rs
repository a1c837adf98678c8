//! Deterministic discrete-event simulation of a multi-socket shared-memory
//! machine.
//!
//! `ksim` is the hardware/kernel substrate used by this reproduction of
//! *Contextual Concurrency Control* (HotOS '21). The paper evaluates kernel
//! locks on an 8-socket, 80-core machine; this crate models such a machine in
//! virtual time so that lock algorithms and policies can be compared
//! deterministically on any host, including a single-CPU container.
//!
//! The model has four parts:
//!
//! * a cooperative, single-threaded **async executor** ordered by virtual
//!   time ([`Sim`]),
//! * a **topology** of sockets and cores ([`Topology`]),
//! * a **cache-line cost model** that charges loads, stores and atomic
//!   read-modify-writes with latencies that depend on where the line
//!   currently lives ([`LatencyModel`], [`SimWord`]),
//! * **task scheduling** primitives: delays, park/unpark with a wake-up
//!   latency, and futex-like `wait_while` used to model spin-waiting without
//!   simulating every spin iteration,
//! * a **lossy message transport** ([`net::SimNet`]) with a seeded fault
//!   plan (drop/delay/duplicate/reorder/partition) and deterministic
//!   capped-exponential backoff, used by the fleet control plane.
//!
//! Simulated lock algorithms (crate `simlocks`) are written as ordinary Rust
//! `async` functions against these primitives; every interaction with shared
//! memory is an `.await` that advances virtual time.
//!
//! # Determinism
//!
//! Runs are reproducible: the event heap breaks ties by a monotonically
//! increasing sequence number and all randomness flows from a seed supplied
//! to [`SimBuilder::seed`].
//!
//! # Examples
//!
//! ```
//! use ksim::{CpuId, SimBuilder, SimWord};
//! use std::rc::Rc;
//!
//! let sim = SimBuilder::new().build();
//! let counter = Rc::new(SimWord::new(&sim, 0));
//! for cpu in 0..4u32 {
//!     let c = counter.clone();
//!     sim.spawn_on(CpuId(cpu), move |t| async move {
//!         for _ in 0..100 {
//!             c.fetch_add(&t, 1).await;
//!             t.advance(50).await;
//!         }
//!     });
//! }
//! sim.run();
//! assert_eq!(counter.peek(), 400);
//! ```

mod cache;
mod cell;
mod exec;
pub mod net;
pub mod rng;
pub mod sched;
pub mod stats;
mod topology;

pub use cache::{LatencyModel, LineId};
pub use cell::{SimCell, SimFlag, SimWord};
pub use exec::{Sim, SimBuilder, SimStats, TaskCtx, TaskId};
pub use net::{Backoff, NetFaultPlan, NetStats, SimNet};
pub use rng::SplitMix64;
pub use sched::{
    Injection, PctStrategy, RandomDelayStrategy, ReplayStrategy, SchedAction, SchedController,
    SchedPoint, SchedSite, ScheduleStrategy, MAX_INJECT_NS,
};
pub use stats::Histogram;
pub use topology::{CpuId, SocketId, Topology};
