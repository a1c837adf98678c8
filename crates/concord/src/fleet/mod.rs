//! The fleet policy control plane: one CAS-versioned store, many lock
//! hosts, a lossy network in between.
//!
//! ROADMAP item 2 scales the paper's vision — operators pushing
//! context-specific policies into running kernels at will — from one
//! in-process [`Concord`](crate::Concord) to a *fleet* of lock hosts.
//! This module is that control plane, built to stay correct under the
//! failures a real deployment sees:
//!
//! * [`store`] — the durable heart: a CAS-versioned [`PolicyStore`]
//!   (single op-head counter, writers retry-merge on conflict and
//!   provably converge) holding immutable, structurally shared
//!   snapshots of the complete `tenant → policy → sealed artifact`
//!   state: a publish costs O(delta), the head is read through one
//!   epoch-protected pointer with no lock, and old versions live as
//!   long as someone holds them;
//! * [`world`] — the simulated fleet: daemon and hosts as `ksim` tasks
//!   over a seeded lossy `ksim::net` transport, with leases, degraded
//!   mode, anti-entropy reconciliation and a crash-at-every-step chaos
//!   harness ([`fleet_sweep`]) extending `rollout::chaos::crash_sweep`;
//! * [`real`] — the host-side apply path: snapshots land on a live
//!   `Concord` as single livepatch transactions, re-verified from the
//!   wire, version-gated into exactly-once effect;
//! * [`rollout`](self::rollout) — batched cross-host attach through the
//!   staged-rollout controller: hosts as "locks", waves as cohorts,
//!   crash consistency inherited from the write-ahead intent log.
//!
//! Metrics: `c3_fleet_publishes_total`, `c3_fleet_cas_conflicts_total`,
//! `c3_fleet_retries_total`, `c3_fleet_dedup_drops_total`,
//! `c3_fleet_lease_expired_total`, `c3_fleet_reconciles_total`,
//! `c3_fleet_store_head`, `c3_fleet_degraded_hosts`,
//! `c3_fleet_propagation_lag`. Trace events: `fleet_publish`,
//! `fleet_deliver`, `fleet_lease`, `fleet_reconcile` (DESIGN.md §4.6).

pub mod real;
pub mod rollout;
pub mod store;
pub mod world;

pub use real::RealFleetHost;
pub use rollout::FleetTarget;
pub use store::{Bindings, Delta, PolicyStore, Snapshot, StoreError};
pub use world::{
    fleet_sweep, run_fleet, DeliverOutcome, FleetConfig, FleetMsg, FleetReport, HostState,
    PartitionEvent, VERSIONS,
};

use std::sync::Arc;

/// Builds the sealed demo artifact the tests, the gate and `c3ctl`
/// distribute: the paper's NUMA-aware policy, compiled and verified in a
/// scratch world, sealed with `cbpf::wire::seal` under its hook's rules.
pub fn seal_demo_artifact() -> Arc<Vec<u8>> {
    let concord = crate::Concord::new();
    let loaded = concord
        .load(crate::policies::numa_aware())
        .expect("demo policy always verifies");
    Arc::new(cbpf::wire::seal(
        &loaded.prog,
        &crate::hookctx::rules_for(loaded.hook),
    ))
}
