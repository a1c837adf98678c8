//! Batched cross-host attach: fleet distribution driven by the rollout
//! controller's wave/intent-log machinery.
//!
//! A [`FleetTarget`] presents a set of [`RealFleetHost`]s to
//! `rollout::Rollout` as if each host were one "lock": waves become
//! host cohorts (canary host → 50% of the fleet → everyone), every wave
//! is recorded in the write-ahead `RolloutLog` before it runs, and a
//! crashed controller recovers by replaying the log — fleet rollouts
//! inherit the crash-consistency guarantees `tests/rollout_chaos.rs`
//! pins, without reimplementing any of it.
//!
//! The rollout *generation* is mapped to a store *snapshot* on first
//! apply: the target takes the store's head snapshot when generation `g`
//! first touches a host, and every later wave of `g` applies that same
//! snapshot — a rollout never smears across concurrent publishes, and
//! because the target holds the `Arc`, the store keeps the version
//! reachable for as long as the rollout needs it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use super::real::RealFleetHost;
use super::store::{PolicyStore, Snapshot};
use crate::rollout::RolloutTarget;

/// [`RolloutTarget`] over named fleet hosts ("locks" are host names).
pub struct FleetTarget<'a> {
    store: Arc<PolicyStore>,
    hosts: BTreeMap<String, RealFleetHost<'a>>,
    /// Rollout generation → the snapshot it distributes.
    snapshots: RefCell<BTreeMap<u64, Arc<Snapshot>>>,
}

impl<'a> FleetTarget<'a> {
    /// A target distributing from `store` to `hosts`.
    pub fn new(store: Arc<PolicyStore>, hosts: BTreeMap<String, RealFleetHost<'a>>) -> Self {
        FleetTarget {
            store,
            hosts,
            snapshots: RefCell::new(BTreeMap::new()),
        }
    }

    /// The store version generation `g` is pinned to (the head at the
    /// moment its first wave ran).
    pub fn version_of(&self, generation: u64) -> Option<u64> {
        self.snapshots.borrow().get(&generation).map(|s| s.version)
    }

    /// The host registered under `name`.
    pub fn host(&self, name: &str) -> Option<&RealFleetHost<'a>> {
        self.hosts.get(name)
    }
}

impl RolloutTarget for FleetTarget<'_> {
    fn apply_locks(&self, generation: u64, hosts: &[String]) -> Result<(), String> {
        let snapshot = Arc::clone(
            self.snapshots
                .borrow_mut()
                .entry(generation)
                .or_insert_with(|| self.store.head_snapshot()),
        );
        for name in hosts {
            let host = self
                .hosts
                .get(name)
                .ok_or_else(|| format!("unknown fleet host {name}"))?;
            host.apply(snapshot.version, &snapshot)?;
        }
        Ok(())
    }

    fn applied_locks(&self, generation: u64, hosts: &[String]) -> Vec<String> {
        let Some(version) = self.version_of(generation) else {
            return Vec::new();
        };
        hosts
            .iter()
            .filter(|name| {
                self.hosts
                    .get(*name)
                    .is_some_and(|h| !h.patched_locks(version).is_empty())
            })
            .cloned()
            .collect()
    }

    fn revert_locks(&self, generation: u64, hosts: &[String]) -> Result<(), String> {
        let Some(version) = self.version_of(generation) else {
            return Ok(());
        };
        for name in hosts {
            if let Some(host) = self.hosts.get(name) {
                host.revert(version)?;
            }
        }
        Ok(())
    }
}
