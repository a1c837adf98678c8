//! The CAS-versioned fleet policy store.
//!
//! One op-head version counter coordinates every writer, tandem-style:
//! there is no application-level write lock around the *work* of a
//! publish. A writer reads the head, builds a merged snapshot against
//! what it read, and commits with a compare-and-swap on the head; if
//! another writer got there first the CAS fails and the writer
//! automatically retries against the new head, merging its delta into
//! the fresher state. Every delta therefore lands exactly once, commits
//! are totally ordered by version, and concurrent writers converge — the
//! property `tests/fleet_model.rs` checks against a reference model.
//!
//! Snapshots are immutable and **persistent**: the binding table
//! ([`Bindings`]) is a fixed spine of `Arc`-shared chunks, and a commit
//! rebuilds only the chunks its delta touches, sharing every other chunk
//! with its base. A publish therefore costs the spine plus its delta —
//! the spine's clone takes [`CHUNKS`] reference counts, and the version
//! that later leaves the window gives as many back — which is
//! independent of the fleet's size but not O(delta); a version costs the
//! memory of what it changed. The delta reaches its
//! chunks by one counting pass, with no copy or sort of the whole delta,
//! so even a bulk bind of the whole fleet holds only 4 bytes a binding
//! beside the table it builds (`tests/fleet_bulk_alloc.rs`). A reader
//! (or the transport) holding version `v` still keeps a complete, internally
//! consistent table no matter what later writers do — which is what
//! makes the host-side apply torn-free: a host installs a whole snapshot
//! with one pointer swap or not at all.
//!
//! **Reads take no lock.** The head snapshot is published through one
//! epoch-protected pointer; [`PolicyStore::resolve`] and
//! [`PolicyStore::head_snapshot`] pin it, read one immutable snapshot
//! and allocate nothing. The commit section swaps that pointer *before*
//! it moves the head word, so a reader that saw `head() == v` gets a
//! head snapshot of version `v` or later, never an older one.
//!
//! **History is bounded by ownership.** The store owns the newest
//! [`WINDOW`] versions (the head among them) and keeps only `Weak`
//! references to older ones, so an old version stays reachable through
//! [`PolicyStore::snapshot`] exactly as long as someone — a host serving
//! it, a rollout generation — still holds its `Arc`, and not a publish
//! longer.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use ksim::SplitMix64;
use livepatch::PatchPoint;
use parking_lot::Mutex;
use telemetry::{self, EventKind};

/// Spine width of [`Bindings`]. A publish clones the spine (`CHUNKS`
/// reference counts), routes its delta with a stack array of `CHUNKS`
/// counters and rebuilds one chunk of `tenants / CHUNKS` entries per
/// touched chunk: at 1 024 a 50 k-tenant fleet has ≈ 49
/// entries a chunk and a 1 M-tenant fleet ≈ 977, so both the copy and
/// the lookup's binary search stay small at either scale.
const CHUNKS: usize = 1024;

/// Versions the store itself keeps alive, head included; older ones
/// live only while somebody else holds them.
pub const WINDOW: usize = 16;

/// Chunk routing: one splitmix step, so sequential tenant ids spread
/// evenly instead of striping one chunk.
fn chunk_of(tenant: u64) -> usize {
    (SplitMix64::new(tenant).next_u64() % CHUNKS as u64) as usize
}

/// One allocation holding a chunk's `n` tenant ids, sorted, then their
/// `n` policy ids in the same order: a lookup's binary search reads
/// tenant ids only, half the cache lines of interleaved pairs.
type Chunk = Arc<[u64]>;

/// A chunk's tenant ids and policy ids.
fn halves(chunk: &[u64]) -> (&[u64], &[u64]) {
    chunk.split_at(chunk.len() / 2)
}

/// A persistent `tenant → policy id` map: [`CHUNKS`] hash-routed chunks,
/// each tenant-sorted and shared by `Arc`. [`Bindings::with`] derives a
/// new map that shares every chunk it did not touch.
#[derive(Clone)]
pub struct Bindings {
    chunks: Box<[Chunk]>,
    len: usize,
}

impl Bindings {
    fn empty() -> Bindings {
        let empty: Chunk = Arc::new([]);
        Bindings {
            chunks: (0..CHUNKS).map(|_| Arc::clone(&empty)).collect(),
            len: 0,
        }
    }

    /// The policy id `tenant` is bound to, if any.
    pub fn get(&self, tenant: u64) -> Option<u64> {
        let (tenants, policies) = halves(&self.chunks[chunk_of(tenant)]);
        let i = tenants.binary_search(&tenant).ok()?;
        Some(policies[i])
    }

    /// Number of bound tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tenant is bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every `(tenant, policy id)` binding, in chunk-then-tenant order:
    /// deterministic, but not sorted by tenant.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.chunks.iter().flat_map(|c| {
            let (tenants, policies) = halves(c);
            tenants.iter().copied().zip(policies.iter().copied())
        })
    }

    /// This map with `delta` applied in order (the last write to a
    /// tenant wins); `self` is left as it was and every chunk the delta
    /// does not touch is shared with it.
    ///
    /// One counting pass over `chunk_of` routes the delta: count each
    /// chunk's share, then lay out the delta's positions grouped by
    /// chunk. That is 4 bytes of scratch a delta entry and a stack array
    /// of counters; no step walks the chunks the delta does not touch.
    /// Each touched chunk is then rebuilt once, by one merge of its
    /// sorted entries with its share sorted by tenant, straight into the
    /// new chunk's one allocation (a first pass over the share sizes it):
    /// a binary search and a copy per write, so a one-binding publish
    /// copies the chunk and compares `log2` of it.
    fn with(&self, delta: &[(u64, u64)]) -> Bindings {
        let mut count = [0u32; CHUNKS];
        let mut touched = Vec::with_capacity(delta.len().min(CHUNKS));
        for &(t, _) in delta {
            let c = chunk_of(t);
            if count[c] == 0 {
                touched.push(c);
            }
            count[c] += 1;
        }
        // Groups in chunk order, so the rebuilt chunks are allocated in the
        // order the spine lists them: `count[c]` becomes the end of c's.
        touched.sort_unstable();
        let mut end = 0;
        for &c in &touched {
            end += count[c];
            count[c] = end;
        }
        // Back to front, so each group lists its positions in delta order
        // (a bulk bind's then come sorted); `count[c]` counts down to the
        // start of c's group.
        let mut routed = vec![0u32; delta.len()];
        for (i, &(t, _)) in delta.iter().enumerate().rev() {
            let c = chunk_of(t);
            count[c] -= 1;
            routed[count[c] as usize] = u32::try_from(i).expect("a delta fits u32 positions");
        }

        let mut next = self.clone();
        for (k, &c) in touched.iter().enumerate() {
            let end = touched
                .get(k + 1)
                .map_or(delta.len(), |&d| count[d] as usize);
            let share = &mut routed[count[c] as usize..end];
            // Positions are unique, so one tenant's writes keep delta order.
            share.sort_unstable_by_key(|&i| (delta[i as usize].0, i));
            let share = &*share;
            // The last write to each tenant, in tenant order.
            let writes = || {
                share.iter().enumerate().filter_map(|(j, &i)| {
                    let (t, p) = delta[i as usize];
                    let later = share.get(j + 1).map(|&l| delta[l as usize].0);
                    (later != Some(t)).then_some((t, p))
                })
            };
            let (old_tenants, old_policies) = halves(&self.chunks[c]);
            let n = old_tenants.len()
                + writes()
                    .filter(|(t, _)| old_tenants.binary_search(t).is_err())
                    .count();
            let mut chunk: Chunk = std::iter::repeat_n(0, 2 * n).collect();
            let (tenants, policies) = Arc::get_mut(&mut chunk)
                .expect("a new chunk is not shared")
                .split_at_mut(n);
            // The old entries below `at` and the writes so far fill the
            // first `len` slots.
            let (mut at, mut len) = (0, 0);
            for (t, p) in writes() {
                let below = at + old_tenants[at..].partition_point(|&o| o < t);
                // Skip empty runs: each copy is a `memcpy` call, and a bind
                // into an empty chunk would make two per write (≈ +50 % on
                // a bulk bind).
                let run = below - at;
                if run > 0 {
                    tenants[len..len + run].copy_from_slice(&old_tenants[at..below]);
                    policies[len..len + run].copy_from_slice(&old_policies[at..below]);
                    len += run;
                }
                at = below + usize::from(old_tenants.get(below) == Some(&t));
                tenants[len] = t;
                policies[len] = p;
                len += 1;
            }
            tenants[len..].copy_from_slice(&old_tenants[at..]);
            policies[len..].copy_from_slice(&old_policies[at..]);
            next.len += n - old_tenants.len();
            next.chunks[c] = chunk;
        }
        next
    }
}

impl std::fmt::Debug for Bindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bindings").field("len", &self.len).finish()
    }
}

/// One immutable published state of the fleet: the complete
/// `tenant → policy` binding table plus every sealed artifact those
/// bindings reference.
#[derive(Debug)]
pub struct Snapshot {
    /// The op-head value this snapshot committed as.
    pub version: u64,
    /// Complete binding table: tenant id → policy id.
    pub bindings: Bindings,
    /// Sealed wire artifacts (`cbpf::wire`) by policy id.
    pub artifacts: BTreeMap<u64, Arc<Vec<u8>>>,
}

impl Snapshot {
    /// The empty pre-publish state (version 0).
    fn genesis() -> Arc<Snapshot> {
        Arc::new(Snapshot {
            version: 0,
            bindings: Bindings::empty(),
            artifacts: BTreeMap::new(),
        })
    }

    /// Order- and content-sensitive fold of the snapshot, for replay
    /// fingerprints. Artifacts fold by length and a byte sample, not a
    /// full hash — fingerprints compare runs of the same binary, not
    /// worlds across builds.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.version);
        for (t, p) in self.bindings.iter() {
            mix(t);
            mix(p);
        }
        for (p, a) in &self.artifacts {
            mix(*p);
            mix(a.len() as u64);
        }
        h
    }
}

/// A writer's intent: bindings to overwrite and artifacts to add. A
/// delta is position-independent — merging it into any base snapshot
/// yields a state containing the delta, which is why retry-merge
/// converges.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// `tenant → policy id` bindings this publish sets (last writer
    /// wins per tenant).
    pub bindings: Vec<(u64, u64)>,
    /// Sealed artifacts this publish introduces, by policy id.
    pub artifacts: Vec<(u64, Arc<Vec<u8>>)>,
}

impl Delta {
    /// A delta binding every tenant in `tenants` to `policy`, shipping
    /// `artifact` under that policy id.
    pub fn bind_all(tenants: &[u64], policy: u64, artifact: Arc<Vec<u8>>) -> Delta {
        Delta {
            bindings: tenants.iter().map(|t| (*t, policy)).collect(),
            artifacts: vec![(policy, artifact)],
        }
    }
}

/// Why a conditional publish was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The expected head was stale: someone published first. Carries the
    /// current head so the caller can merge and retry.
    StaleHead {
        /// What the writer expected.
        expected: u64,
        /// What the store is actually at.
        current: u64,
    },
    /// A delta referenced a policy id with no artifact in the delta or
    /// the base snapshot.
    MissingArtifact(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::StaleHead { expected, current } => {
                write!(f, "stale head: expected {expected}, store is at {current}")
            }
            StoreError::MissingArtifact(p) => {
                write!(
                    f,
                    "binding references policy {p} but no artifact is published"
                )
            }
        }
    }
}

/// Version → snapshot, bounded by ownership (see the module docs).
struct History {
    /// The newest versions, oldest first, contiguous, the head last:
    /// at most [`WINDOW`] of them, owned.
    recent: VecDeque<Arc<Snapshot>>,
    /// Versions that left the window and were still held elsewhere
    /// when last looked at.
    older: BTreeMap<u64, Weak<Snapshot>>,
}

impl History {
    fn get(&self, v: u64) -> Option<Arc<Snapshot>> {
        let first = self.recent.front()?.version;
        match v.checked_sub(first) {
            Some(i) => self.recent.get(usize::try_from(i).ok()?).cloned(),
            None => self.older.get(&v)?.upgrade(),
        }
    }

    /// Makes `head` the newest version. Returns the version this pushed
    /// out of the window, for the caller to drop outside the lock.
    fn push(&mut self, head: Arc<Snapshot>) -> Option<Arc<Snapshot>> {
        self.older.retain(|_, held| held.strong_count() > 0);
        self.recent.push_back(head);
        if self.recent.len() <= WINDOW {
            return None;
        }
        let oldest = self.recent.pop_front()?;
        self.older.insert(oldest.version, Arc::downgrade(&oldest));
        Some(oldest)
    }
}

/// The fleet policy store: op-head version counter, head pointer,
/// bounded snapshot history. See the module docs for the concurrency
/// story.
pub struct PolicyStore {
    /// The op-head: the single word every writer coordinates through.
    head: AtomicU64,
    /// The head snapshot, for readers. Written only inside the commit
    /// section, and there before `head`.
    current: PatchPoint<Arc<Snapshot>>,
    /// Only the *commit* section and `snapshot(v)` take this lock; merge
    /// work happens outside it against `Arc` snapshots.
    history: Mutex<History>,
    /// CAS conflicts observed (each one cost a writer a retry-merge).
    conflicts: AtomicU64,
    /// Successful publishes.
    publishes: AtomicU64,
}

impl PolicyStore {
    /// An empty store (head 0). `expected_tenants` is the caller's fleet
    /// size; the snapshot spine is fixed ([`CHUNKS`]), so nothing is
    /// sized by it.
    pub fn new(_expected_tenants: usize) -> PolicyStore {
        let genesis = Snapshot::genesis();
        PolicyStore {
            head: AtomicU64::new(0),
            current: PatchPoint::new(Arc::clone(&genesis)),
            history: Mutex::new(History {
                recent: VecDeque::from([genesis]),
                older: BTreeMap::new(),
            }),
            conflicts: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current op-head version.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// The snapshot committed as version `v`, while the store's window
    /// or any other holder keeps it alive.
    pub fn snapshot(&self, v: u64) -> Option<Arc<Snapshot>> {
        self.history.lock().get(v)
    }

    /// The head snapshot: version [`PolicyStore::head`] or later.
    pub fn head_snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.get())
    }

    /// CAS conflicts writers have hit so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Successful publishes so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Resolves `tenant` to its bound policy id and sealed artifact at
    /// the head: both halves come from one pinned snapshot, so they
    /// always belong to the same version.
    pub fn resolve(&self, tenant: u64) -> Option<(u64, Arc<Vec<u8>>)> {
        let head = self.current.get();
        let policy = head.bindings.get(tenant)?;
        let art = Arc::clone(head.artifacts.get(&policy)?);
        Some((policy, art))
    }

    /// Builds the snapshot `delta` produces on top of `base`.
    fn merge(base: &Snapshot, delta: &Delta, version: u64) -> Result<Snapshot, StoreError> {
        let mut artifacts = base.artifacts.clone();
        for (p, a) in &delta.artifacts {
            artifacts.insert(*p, Arc::clone(a));
        }
        if let Some((_, p)) = delta
            .bindings
            .iter()
            .find(|(_, p)| !artifacts.contains_key(p))
        {
            return Err(StoreError::MissingArtifact(*p));
        }
        Ok(Snapshot {
            version,
            bindings: base.bindings.with(&delta.bindings),
            artifacts,
        })
    }

    /// Counts a lost race and reports it.
    fn stale(&self, expected: u64) -> StoreError {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        telemetry::metrics()
            .counter("c3_fleet_cas_conflicts_total")
            .inc();
        StoreError::StaleHead {
            expected,
            current: self.head(),
        }
    }

    /// Publishes `delta` against an expected head, the conditional
    /// (no-retry) surface `c3ctl fleet publish … expect N` exposes.
    ///
    /// The merge runs against the head snapshot without any lock. The
    /// commit section holds the history mutex, which serializes
    /// writers, so its compare of the head word and the later store are
    /// one compare-and-swap; between them it swaps the head pointer, so
    /// no reader can see the new head word with the old snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleHead`] when someone published first (the CAS
    /// lost); [`StoreError::MissingArtifact`] on a malformed delta. On
    /// either the store is exactly as it was.
    pub fn try_publish(&self, expected_head: u64, delta: &Delta) -> Result<u64, StoreError> {
        let base = self.head_snapshot();
        if base.version != expected_head {
            return Err(self.stale(expected_head));
        }
        let next = expected_head + 1;
        let merged = Arc::new(Self::merge(&base, delta, next)?);

        let mut history = self.history.lock();
        if self.head.load(Ordering::Acquire) != expected_head {
            drop(history);
            return Err(self.stale(expected_head));
        }
        self.current.replace(Arc::clone(&merged));
        // Release: pairs with the Acquire in `head()`; whoever reads
        // `next` there also sees the pointer swapped above.
        self.head.store(next, Ordering::Release);
        let evicted = history.push(merged);
        drop(history);
        drop(evicted);

        self.publishes.fetch_add(1, Ordering::Relaxed);
        let m = telemetry::metrics();
        m.counter("c3_fleet_publishes_total").inc();
        m.gauge("c3_fleet_store_head").set(next as i64);
        if telemetry::armed() {
            telemetry::emit(
                EventKind::FleetPublish,
                0,
                0,
                next,
                delta.bindings.len() as u64,
                delta.artifacts.len() as u64,
                self.conflicts(),
            );
        }
        Ok(next)
    }

    /// Publishes `delta`, automatically retry-merging on CAS conflict
    /// until it commits (tandem-style). Returns the committed version.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::MissingArtifact`] — staleness is absorbed by
    /// the retry loop.
    pub fn publish(&self, delta: &Delta) -> Result<u64, StoreError> {
        loop {
            let head = self.head();
            match self.try_publish(head, delta) {
                Ok(v) => return Ok(v),
                Err(StoreError::StaleHead { .. }) => {
                    telemetry::metrics().counter("c3_fleet_retries_total").inc();
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn art(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 8])
    }

    #[test]
    fn publish_advances_head_and_resolves() {
        let store = PolicyStore::new(64);
        let v = store
            .publish(&Delta::bind_all(&[1, 2, 3], 10, art(1)))
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.head(), 1);
        let (p, a) = store.resolve(2).unwrap();
        assert_eq!(p, 10);
        assert_eq!(*a, vec![1u8; 8]);
        assert_eq!(store.resolve(4), None);
    }

    #[test]
    fn stale_head_is_typed_and_carries_current() {
        let store = PolicyStore::new(16);
        store.publish(&Delta::bind_all(&[1], 10, art(1))).unwrap();
        let err = store
            .try_publish(0, &Delta::bind_all(&[2], 11, art(2)))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::StaleHead {
                expected: 0,
                current: 1
            }
        );
        assert_eq!(store.conflicts(), 1); // the CAS genuinely lost
    }

    #[test]
    fn concurrent_writers_converge() {
        let store = Arc::new(PolicyStore::new(1 << 10));
        let mut handles = Vec::new();
        for w in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    let tenant = w * 16 + i;
                    store
                        .publish(&Delta::bind_all(&[tenant], 100 + w, art(w as u8)))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.head(), 128);
        assert_eq!(store.publishes(), 128);
        let head = store.head_snapshot();
        assert_eq!(head.bindings.len(), 128);
        for w in 0..8u64 {
            for i in 0..16u64 {
                let tenant = w * 16 + i;
                assert_eq!(store.resolve(tenant), Some((100 + w, art(w as u8))));
                assert_eq!(head.bindings.get(tenant), Some(100 + w));
            }
        }
    }

    #[test]
    fn missing_artifact_is_rejected() {
        let store = PolicyStore::new(16);
        let delta = Delta {
            bindings: vec![(1, 99)],
            artifacts: Vec::new(),
        };
        assert_eq!(store.publish(&delta), Err(StoreError::MissingArtifact(99)));
        assert_eq!(store.head(), 0);
    }

    /// A refused publish leaves no trace, and a committed one is at
    /// once the head and the snapshot of its version: no version is ever
    /// committed for some readers only.
    #[test]
    fn a_publish_is_whole_or_absent() {
        let store = PolicyStore::new(64);
        for round in 0..40u64 {
            let tenants = [round % 5, round % 7 + 1];
            let good = Delta::bind_all(&tenants, 10 + round % 3, art(round as u8));
            // Rebinds a tenant and replaces a live artifact, then names a
            // policy nobody published.
            let orphan = Delta {
                bindings: vec![(tenants[0], 10), (tenants[1], 999)],
                artifacts: vec![(10, art(0xee))],
            };
            let probe = || tenants.map(|t| store.resolve(t));

            let head = store.head();
            let snap = store.head_snapshot();
            let before = probe();
            for expected in [head + 1, head.wrapping_sub(1)] {
                assert_eq!(
                    store.try_publish(expected, &good),
                    Err(StoreError::StaleHead {
                        expected,
                        current: head
                    })
                );
            }
            for refused in [store.try_publish(head, &orphan), store.publish(&orphan)] {
                assert_eq!(refused, Err(StoreError::MissingArtifact(999)));
            }
            assert_eq!(store.head(), head);
            assert!(Arc::ptr_eq(&store.head_snapshot(), &snap));
            assert_eq!(probe(), before);

            let v = store.publish(&good).unwrap();
            let committed = store.head_snapshot();
            assert_eq!((v, committed.version), (head + 1, head + 1));
            assert!(Arc::ptr_eq(&store.snapshot(v).unwrap(), &committed));
        }
        assert_eq!((store.publishes(), store.conflicts()), (40, 80));
    }

    /// Bulk-binds `0..tenants` to policy 1 in a fresh store.
    fn bulk_store(tenants: u64) -> PolicyStore {
        let store = PolicyStore::new(tenants as usize);
        let all: Vec<u64> = (0..tenants).collect();
        store.publish(&Delta::bind_all(&all, 1, art(1))).unwrap();
        store
    }

    /// Sharing as a count: a `k`-tenant delta rebuilds at most `k`
    /// chunks of a 50 k-tenant table and shares the rest by pointer.
    #[test]
    fn a_delta_shares_every_chunk_it_does_not_touch() {
        let store = bulk_store(50_000);
        let base = store.head_snapshot();
        let delta: Vec<u64> = (0..24).map(|i| i * 2_003 + 5).collect();
        let v = store.publish(&Delta::bind_all(&delta, 2, art(2))).unwrap();
        let next = store.snapshot(v).unwrap();
        let shared = (base.bindings.chunks.iter())
            .zip(next.bindings.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert!(
            shared >= CHUNKS - delta.len(),
            "only {shared} chunks shared"
        );
        assert!(shared < CHUNKS);
        assert_eq!(next.bindings.len(), 50_000);
        assert_eq!(base.bindings.get(5), Some(1));
        assert_eq!(next.bindings.get(5), Some(2));
    }

    /// Readers race one writer on real threads. Version `v` binds tenants
    /// 0 and `v` to policy `v`, whose artifact is the byte `v`: a read
    /// stitched from two versions shows as a policy without its artifact
    /// or a snapshot whose parts disagree on its version.
    #[test]
    fn readers_see_one_version_at_a_time_and_never_go_back() {
        const READERS: usize = 4;
        const PUBLISHES: u64 = 2_000;
        let store = PolicyStore::new(1 << 12);
        let done = std::sync::atomic::AtomicBool::new(false);
        // Readers and writer start together, so swaps land under pins.
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    let (mut last_snap, mut last_policy, mut reads) = (0, 0, 0u64);
                    // A floor of iterations guarantees overlap with the
                    // writer even on a single-CPU host.
                    while !done.load(Ordering::Acquire) || reads < 5_000 {
                        let word = store.head();
                        let snap = store.head_snapshot();
                        assert!(word <= snap.version, "head word ran ahead of the pointer");
                        assert!(snap.version >= last_snap, "head snapshot went backwards");
                        last_snap = snap.version;
                        assert_eq!(snap.bindings.get(0).unwrap_or(0), snap.version);
                        assert_eq!(snap.artifacts.len() as u64, snap.version);

                        if let Some((policy, artifact)) = store.resolve(0) {
                            assert_eq!(*artifact, [policy as u8]);
                            assert!(policy >= last_policy, "resolve went backwards");
                            last_policy = policy;
                        }
                        // Bound for good at a version this reader has seen.
                        if last_snap > 0 {
                            let (policy, artifact) = store.resolve(last_snap).expect("bound");
                            assert_eq!((policy, &**artifact), (last_snap, &[policy as u8][..]));
                        }
                        reads += 1;
                    }
                });
            }
            start.wait();
            for v in 1..=PUBLISHES {
                let delta = Delta::bind_all(&[0, v], v, Arc::new(vec![v as u8]));
                assert_eq!(store.publish(&delta), Ok(v));
                if v % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(store.head(), PUBLISHES);
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive_to_content() {
        let build = |policy_of_7: u64| {
            let store = bulk_store(64);
            let mut delta = Delta::bind_all(&[7], policy_of_7, art(2));
            delta.artifacts.push((3, art(3)));
            store.publish(&delta).unwrap();
            store.head_snapshot()
        };
        let a = build(2);
        assert_eq!(a.fingerprint(), build(2).fingerprint());
        assert_ne!(a.fingerprint(), build(3).fingerprint());
        // Same bindings as a set, one pair of policies exchanged.
        let swapped = |x: u64, y: u64| {
            let store = PolicyStore::new(2);
            let mut delta = Delta::bind_all(&[], 1, art(1));
            delta.artifacts.push((2, art(1)));
            delta.bindings = vec![(10, x), (11, y)];
            store.publish(&delta).unwrap();
            store.head_snapshot().fingerprint()
        };
        assert_ne!(swapped(1, 2), swapped(2, 1));
    }

    /// Tenant ids a bulk-sized model delta draws from: a few per chunk,
    /// so a delta of hundreds to thousands of entries writes one tenant
    /// more than once and one chunk many times.
    const BULK_TENANTS: u64 = 3_000;

    proptest! {
        /// The persistent map against a `BTreeMap` over random delta
        /// sequences, small ones over a few tenants and bulk-sized ones
        /// over a few thousand, with repeats inside a delta and re-binds
        /// across deltas. Deriving a version never disturbs its base, and
        /// it shares exactly the chunks its delta does not touch.
        #[test]
        fn bindings_match_a_btreemap_model(
            deltas in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec((0u64..96, 0u64..8), 0..24),
                    proptest::collection::vec((0u64..BULK_TENANTS, 0u64..8), 100..3_000),
                ],
                1..12,
            ),
        ) {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut map = Bindings::empty();
            for delta in &deltas {
                let base: Vec<(u64, u64)> = map.iter().collect();
                let next = map.with(delta);
                prop_assert_eq!(map.iter().collect::<Vec<_>>(), base);
                prop_assert_eq!(map.len(), model.len());
                let mut touched = [false; CHUNKS];
                for &(t, _) in delta {
                    touched[chunk_of(t)] = true;
                }
                for (c, hit) in touched.into_iter().enumerate() {
                    prop_assert_eq!(Arc::ptr_eq(&map.chunks[c], &next.chunks[c]), !hit);
                }
                model.extend(delta.iter().copied());
                map = next;

                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                prop_assert_eq!(&map.iter().collect::<BTreeMap<_, _>>(), &model);
                prop_assert_eq!(map.iter().count(), model.len());
                for t in 0..BULK_TENANTS {
                    prop_assert_eq!(map.get(t), model.get(&t).copied());
                }
            }
        }
    }
}
