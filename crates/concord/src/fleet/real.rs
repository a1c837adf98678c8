//! The real-host side of fleet distribution: applying a store snapshot
//! to a live [`Concord`] world through the livepatch plane.
//!
//! A [`RealFleetHost`] owns a `tenant → lock` mapping (which registered
//! locks this host serves for which fleet tenants) and applies each
//! delivered snapshot as **one** tagged livepatch transaction
//! (`Concord::attach_tagged`, patches named `fleet-v<v>:<lock>/<hook>`): every
//! sealed artifact the host's locks are bound to is re-opened through
//! `cbpf::wire::open` (checksum, digest, full re-verification — the host
//! never trusts the wire) once per delivery, each lock gets its own
//! instances of the policy's maps, and either every lock moves to the
//! new version or none does. Combined
//! with the version gate (`version <= applied` ⇒ drop), at-least-once
//! delivery becomes exactly-once livepatch effect: N duplicate
//! deliveries of version `v` produce exactly one patch transaction, a
//! property `tests/fleet_chaos.rs` exercises directly.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbpf::VerifiedProgram;
use locks::hooks::HookKind;

use super::store::Snapshot;
use super::world::DeliverOutcome;
use crate::hookctx::{layout_for, rules_for};
use crate::policy::BytecodePolicy;
use crate::workflow::{Concord, LockPolicy};

/// A lock host applying fleet snapshots to a real `Concord` world.
pub struct RealFleetHost<'a> {
    concord: &'a Concord,
    hook: HookKind,
    /// Fleet tenant id → registered lock name.
    locks: BTreeMap<u64, String>,
    /// Highest version applied (the generation gate).
    applied: AtomicU64,
}

impl<'a> RealFleetHost<'a> {
    /// A host serving `locks` (tenant id → registered lock name) on
    /// `hook`.
    pub fn new(concord: &'a Concord, hook: HookKind, locks: BTreeMap<u64, String>) -> Self {
        RealFleetHost {
            concord,
            hook,
            locks,
            applied: AtomicU64::new(0),
        }
    }

    /// The version this host serves.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Applies `snapshot` if `version` is newer than what the host
    /// serves; otherwise drops it as a duplicate with zero effect.
    ///
    /// All of this host's bound locks move in one livepatch
    /// transaction — a mid-sequence failure (bad artifact, unknown
    /// lock) unwinds every lock already patched by this call and leaves
    /// the previous version serving. Never torn.
    ///
    /// # Errors
    ///
    /// The first artifact or patch error, after the transaction
    /// unwinds; the host still serves its previous version.
    pub fn apply(&self, version: u64, snapshot: &Snapshot) -> Result<DeliverOutcome, String> {
        if version <= self.applied.load(Ordering::Acquire) {
            telemetry::metrics()
                .counter("c3_fleet_dedup_drops_total")
                .inc();
            return Ok(DeliverOutcome::Duplicate);
        }
        // A snapshot is immutable, so one policy id is one artifact for
        // the whole call: verify it for the first lock bound to it and
        // not again. Nothing outlives the call — the next delivery
        // re-verifies everything it loads.
        let mut opened: BTreeMap<u64, VerifiedProgram> = BTreeMap::new();
        self.concord
            .attach_tagged(
                &version_tag(version),
                self.locks
                    .iter()
                    .filter_map(|(tenant, lock)| Some((lock, snapshot.bindings.get(*tenant)?)))
                    .map(|(lock, policy)| {
                        let prog = match opened.entry(policy) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => {
                                let bytes = snapshot.artifacts.get(&policy).ok_or_else(|| {
                                    format!("policy {policy} has no sealed artifact")
                                })?;
                                // Re-verify on the load host: checksum,
                                // provenance digest, then the full verifier.
                                let prog = cbpf::wire::open(
                                    bytes,
                                    layout_for(self.hook),
                                    &rules_for(self.hook),
                                )
                                .map_err(|e| format!("artifact for policy {policy}: {e}"))?;
                                e.insert(prog)
                            }
                        };
                        // Map state is per lock, as it was when every lock
                        // opened the artifact for itself.
                        let bytecode = BytecodePolicy::new(
                            prog.with_fresh_maps(),
                            self.hook,
                            Arc::clone(self.concord.env()),
                        );
                        Ok::<_, Box<dyn Error>>((lock, LockPolicy::Bytecode(bytecode)))
                    }),
            )
            .map_err(|e| e.to_string())?;
        self.applied.store(version, Ordering::Release);
        Ok(DeliverOutcome::Applied)
    }

    /// Locks of this host currently carrying a `version` fleet patch.
    pub fn patched_locks(&self, version: u64) -> Vec<String> {
        self.concord
            .tagged_locks(&version_tag(version), self.hook, self.locks.values())
    }

    /// Reverts every `version` fleet patch on this host, in one unwind,
    /// and rolls the served version back to `version - 1`.
    ///
    /// # Errors
    ///
    /// The revert error; every patch then stays applied.
    pub fn revert(&self, version: u64) -> Result<(), String> {
        self.concord
            .revert_tagged(&version_tag(version), self.hook, self.locks.values())
            .map_err(|e| e.to_string())?;
        let _ = self.applied.compare_exchange(
            version,
            version.saturating_sub(1),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        Ok(())
    }
}

/// The tag a fleet delivery's patches carry (see
/// [`Concord::attach_tagged`]).
fn version_tag(version: u64) -> String {
    format!("fleet-v{version}:")
}
