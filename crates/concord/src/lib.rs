//! Concord — the C3 (contextual concurrency control) framework.
//!
//! Reproduction of the system described in *Contextual Concurrency
//! Control* (Park, Calciu, Kim, Kashyap — HotOS '21): a framework that
//! lets a privileged userspace process tune kernel locks on the fly,
//! without recompiling the code base.
//!
//! The pipeline mirrors Fig. 1 of the paper:
//!
//! 1. the user writes a **policy** (assembly text or the builder API) and
//!    wraps it in a [`PolicySpec`] naming the target hook (Table 1);
//! 2. [`Concord::load`] compiles it and runs the **verifier** — core eBPF
//!    safety plus per-hook lock-safety rules ([`hookctx`]);
//! 3. the outcome is reported to the user (a `Result`);
//! 4. on success the program is pinned in the **object store**;
//! 5. [`Concord::attach`] **livepatches** the lock's hook table, swapping
//!    the policy into the running lock; [`Concord::detach`] reverts it.
//!
//! Policies run against real locks (crate `locks`, through epoch-swapped
//! patch points) and against the simulated machine (crate `simlocks`,
//! where each policy invocation charges its interpreter cost to virtual
//! time — the mechanism behind the Fig. 2(c) overhead reproduction).
//!
//! The crate also provides the paper's §3 use-case library
//! ([`policies`]) and the dynamic lock profiler (§3.2, [`profiler`]).
//!
//! # Examples
//!
//! Attach a NUMA-aware shuffling policy to a running lock:
//!
//! ```
//! use concord::{Concord, PolicySpec};
//! use locks::hooks::HookKind;
//! use locks::{RawLock, ShflLock};
//! use std::sync::Arc;
//!
//! let concord = Concord::new();
//! let lock = Arc::new(ShflLock::new());
//! concord.registry().register_shfl("demo_lock", Arc::clone(&lock));
//!
//! let spec = concord::policies::numa_aware();
//! let loaded = concord.load(spec).unwrap();           // Verify + store.
//! let handle = concord.attach("demo_lock", &loaded).unwrap();
//!
//! let _g = lock.lock();                               // Policy is live.
//! drop(_g);
//!
//! concord.detach(handle).unwrap();                    // Revert.
//! ```

pub mod containment;
pub mod env;
pub mod explore;
pub mod fleet;
pub mod hookctx;
pub mod policies;
pub mod policy;
pub mod profiler;
pub mod registry;
pub mod rollout;
pub mod watchdog;
mod workflow;

pub use containment::{
    Breaker, BreakerConfig, BreakerState, ContainedPolicy, QuarantineRecord, BREAKER_CHECK_NS,
};
pub use explore::{
    explore, ExploreConfig, ExploreError, ExploreReport, Fixture, Monitor, PolicySchedStrategy,
    Repro, RunOutcome, StrategySpec, Violation, ZooLock,
};
pub use policy::{BytecodePolicy, SimBytecodePolicy, HOOK_CALL_NS, NS_PER_INSN, TRAMPOLINE_NS};
pub use registry::{LockClass, LockHandle, LockRegistry};
pub use rollout::{
    ChaosInjector, ChaosPlan, HealthEvaluator, HealthVerdict, MetricsHealth, RealTarget,
    RecoverOutcome, Rollout, RolloutError, RolloutLog, RolloutOutcome, RolloutPlan, RolloutTarget,
    SimTarget, WaveOutcome,
};
pub use watchdog::{HazardReport, WatchdogConfig, WindowStats};
pub use workflow::{AttachHandle, Concord, ConcordError, LoadedPolicy, PolicySource, PolicySpec};
