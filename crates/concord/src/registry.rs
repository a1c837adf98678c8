//! The lock registry: named lock instances and classes.
//!
//! Concord's replacement scope "can range from one lock instance to every
//! lock in the kernel" (§4). The registry is the addressing layer that
//! makes this possible: locks register under a name and a class (e.g.
//! `"inode"`, `"mmap_sem"`), and attach operations may target one
//! instance, a class, or everything.

use std::collections::BTreeMap;
use std::sync::Arc;

use locks::hooks::ShflHooks;
use locks::{Bravo, NeutralRwLock, ShflLock};
use parking_lot::RwLock;

use crate::containment::QuarantineRecord;

/// Class tag for grouping lock instances.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LockClass(pub String);

/// A registered lock.
#[derive(Clone)]
pub enum LockHandle {
    /// A shuffle lock, spinning or blocking (hookable).
    Shfl(Arc<ShflLock>),
    /// A BRAVO readers-writer lock (switchable, not hookable).
    Bravo(Arc<Bravo<NeutralRwLock>>),
}

impl LockHandle {
    /// The hook table, for hookable kinds.
    pub fn hooks(&self) -> Option<&Arc<ShflHooks>> {
        match self {
            LockHandle::Shfl(l) => Some(l.hooks()),
            LockHandle::Bravo(_) => None,
        }
    }

    /// Stable lock id (0 for kinds without one).
    pub fn id(&self) -> u64 {
        match self {
            LockHandle::Shfl(l) => l.id(),
            LockHandle::Bravo(_) => 0,
        }
    }

    /// Human-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            LockHandle::Shfl(l) if l.is_blocking() => "shfl_mutex",
            LockHandle::Shfl(_) => "shfl_spin",
            LockHandle::Bravo(_) => "bravo_rw",
        }
    }
}

struct Entry {
    handle: LockHandle,
    class: LockClass,
}

/// Name → lock instance registry.
#[derive(Default)]
pub struct LockRegistry {
    entries: RwLock<BTreeMap<String, Entry>>,
    quarantines: RwLock<Vec<QuarantineRecord>>,
}

impl LockRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LockRegistry::default()
    }

    /// Registers a lock under `name` with class `"default"`.
    pub fn register_shfl(&self, name: &str, lock: Arc<ShflLock>) {
        self.register(name, LockHandle::Shfl(lock), LockClass("default".into()));
    }

    /// Registers a BRAVO lock under `name` with class `"default"`.
    pub fn register_bravo(&self, name: &str, lock: Arc<Bravo<NeutralRwLock>>) {
        self.register(name, LockHandle::Bravo(lock), LockClass("default".into()));
    }

    /// Registers a lock with an explicit class.
    pub fn register(&self, name: &str, handle: LockHandle, class: LockClass) {
        self.entries
            .write()
            .insert(name.to_string(), Entry { handle, class });
    }

    /// Removes a registration.
    #[cfg(test)]
    pub fn unregister(&self, name: &str) -> bool {
        self.entries.write().remove(name).is_some()
    }

    /// Looks a lock up by name.
    pub fn get(&self, name: &str) -> Option<LockHandle> {
        self.entries.read().get(name).map(|e| e.handle.clone())
    }

    /// All lock names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// Names of locks in `class`, sorted — the "class" granularity of the
    /// profiler (§3.2: "locks in a specific function, code path or
    /// namespace").
    pub fn names_in_class(&self, class: &str) -> Vec<String> {
        self.entries
            .read()
            .iter()
            .filter(|(_, e)| e.class.0 == class)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Number of registered locks.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Records why a policy was quarantined (breaker trip or detected
    /// hazard) — the administrator-facing audit trail.
    pub fn record_quarantine(&self, record: QuarantineRecord) {
        self.quarantines.write().push(record);
    }

    /// Quarantine records for `lock`, oldest first.
    pub fn quarantines(&self, lock: &str) -> Vec<QuarantineRecord> {
        self.quarantines
            .read()
            .iter()
            .filter(|r| r.lock == lock)
            .cloned()
            .collect()
    }

    /// Every quarantine record, oldest first.
    pub fn all_quarantines(&self) -> Vec<QuarantineRecord> {
        self.quarantines.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_unregister() {
        let r = LockRegistry::new();
        let lock = Arc::new(ShflLock::new());
        r.register_shfl("mmap_sem", Arc::clone(&lock));
        let got = r.get("mmap_sem").expect("registered");
        assert_eq!(got.kind(), "shfl_spin");
        assert_eq!(got.id(), lock.id());
        assert!(got.hooks().is_some());
        assert!(r.get("nope").is_none());
        assert!(r.unregister("mmap_sem"));
        assert!(!r.unregister("mmap_sem"));
    }

    #[test]
    fn classes_partition_names() {
        let r = LockRegistry::new();
        r.register(
            "inode_a",
            LockHandle::Shfl(Arc::new(ShflLock::new())),
            LockClass("inode".into()),
        );
        r.register(
            "inode_b",
            LockHandle::Shfl(Arc::new(ShflLock::new())),
            LockClass("inode".into()),
        );
        r.register(
            "dcache",
            LockHandle::Shfl(Arc::new(ShflLock::new())),
            LockClass("dentry".into()),
        );
        assert_eq!(r.names_in_class("inode"), vec!["inode_a", "inode_b"]);
        assert_eq!(r.names_in_class("dentry"), vec!["dcache"]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn bravo_has_no_hooks() {
        let r = LockRegistry::new();
        r.register_bravo("rw", Arc::new(Bravo::new(NeutralRwLock::new())));
        let h = r.get("rw").unwrap();
        assert!(h.hooks().is_none());
        assert_eq!(h.kind(), "bravo_rw");
    }
}
