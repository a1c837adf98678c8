//! Policy maps: the shared state channel between userspace and policies.
//!
//! The paper relies on eBPF "map data structures to store information at
//! runtime" (§4.2) — e.g. a priority map keyed by task id, or per-CPU
//! critical-section statistics. Three kinds are provided, mirroring the
//! kernel types Concord uses: `Array`, `Hash` and `PerCpuArray`.
//!
//! # Memory layout
//!
//! All value storage is a single pre-sized slab of `AtomicU64` words
//! allocated at map creation — the data plane never allocates. A lookup
//! resolves a key to a dense **slot** index; policies then read and write
//! the slot's words directly with relaxed atomics, so the hot path
//! (`lookup_slot` + `value_load`/`value_store`) takes no lock for array
//! kinds and only a short per-shard probe lock for `Hash`:
//!
//! * `Array` — slot `i` is entry `i`; pure atomics, no locks anywhere.
//! * `PerCpuArray` — entry `i` on CPU `c` is slot `i·ncpu + c%ncpu`;
//!   each CPU touches its own cache lines, so hot-path updates never
//!   contend.
//! * `Hash` — open addressing (linear probing, FNV-1a) over fixed-capacity
//!   shard tables, each guarded by its own mutex (the shard-lock idiom from
//!   the `locks` crate's BRAVO/ShflLock studies: spread the contended
//!   cacheline). Small maps (< 256 entries) use one shard so capacity
//!   semantics stay exact; larger maps use 16. A saturated *shard* can
//!   report [`MapError::Full`] slightly before `max_entries` under
//!   adversarial key distributions — the same early-ENOMEM caveat kernel
//!   htab maps carry.
//!
//! Deletion tombstones the slot; a policy still holding the slot keeps
//! reading the old bytes until the slot is reused — the grace-period
//! discipline RCU gives kernel eBPF, weakened from "until the program
//! exits" to "until reuse" (a reuse writes a full new value, so readers
//! see torn-but-valid map bytes, never wild memory). Concurrent writers
//! to one value are word-atomic: sub-word stores CAS their containing
//! word, whole-word stores are plain relaxed stores.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::error::MapError;

/// Hard cap on `max_entries` for any kind. Policies address map memory
/// through 28-bit region indices and capacity tests size probe loops by
/// this; the verifier-facing loader enforces it by construction
/// (`Map::with_cpus` panics past it).
pub const MAX_MAP_ENTRIES: usize = 1 << 16;

/// Kinds of maps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapKind {
    /// Fixed-size array keyed by a little-endian `u32` index; all entries
    /// exist from creation, zero-initialized.
    Array,
    /// Hash map with arbitrary fixed-size keys; entries are created by
    /// update and removed by delete.
    Hash,
    /// Per-CPU array: like `Array`, but lookups resolve to the invoking
    /// CPU's copy, so hot-path updates never contend.
    PerCpuArray,
}

/// Static shape of a map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapDef {
    /// Name (used by the assembler and the object store).
    pub name: String,
    /// Kind.
    pub kind: MapKind,
    /// Key size in bytes (must be 4 for array kinds).
    pub key_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Maximum number of entries (array length for array kinds).
    pub max_entries: usize,
}

/// A pre-sized slab of atomic words holding fixed-size values.
struct Slab {
    /// Words per value (`value_size` rounded up).
    stride: usize,
    value_size: usize,
    /// Slot count, cached so the bounds check on every policy value
    /// access is a compare, not a division.
    slots: usize,
    words: Box<[AtomicU64]>,
}

impl Slab {
    fn new(slots: usize, value_size: usize) -> Slab {
        let stride = value_size.div_ceil(8);
        Slab {
            stride,
            value_size,
            slots,
            words: (0..slots * stride).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slots(&self) -> usize {
        self.slots
    }

    /// CAS-merges `bits` under `mask` into one word (full-mask = plain
    /// store). Relaxed: map words carry no inter-word ordering contract.
    fn rmw(word: &AtomicU64, mask: u64, bits: u64) {
        if mask == u64::MAX {
            word.store(bits, Ordering::Relaxed);
            return;
        }
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let new = (cur & !mask) | (bits & mask);
            match word.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Loads `n ≤ 8` bytes at byte offset `off` of `slot`, little-endian.
    fn load(&self, slot: usize, off: usize, n: usize) -> Option<u64> {
        debug_assert!((1..=8).contains(&n));
        if off.checked_add(n)? > self.value_size {
            return None;
        }
        let base = slot * self.stride;
        let w = base + off / 8;
        let bit = (off % 8) * 8;
        let lo = self.words[w].load(Ordering::Relaxed) >> bit;
        let v = if bit + n * 8 <= 64 {
            lo
        } else {
            lo | (self.words[w + 1].load(Ordering::Relaxed) << (64 - bit))
        };
        Some(if n == 8 {
            v
        } else {
            v & ((1u64 << (n * 8)) - 1)
        })
    }

    /// Stores the low `n ≤ 8` bytes of `val` at byte offset `off` of
    /// `slot`, little-endian.
    fn store(&self, slot: usize, off: usize, n: usize, val: u64) -> bool {
        debug_assert!((1..=8).contains(&n));
        let Some(end) = off.checked_add(n) else {
            return false;
        };
        if end > self.value_size {
            return false;
        }
        let base = slot * self.stride;
        let w = base + off / 8;
        let bit = (off % 8) * 8;
        if bit + n * 8 <= 64 {
            let mask = if n == 8 {
                u64::MAX
            } else {
                ((1u64 << (n * 8)) - 1) << bit
            };
            Slab::rmw(&self.words[w], mask, val << bit);
        } else {
            let lo_bits = 64 - bit;
            Slab::rmw(&self.words[w], u64::MAX << bit, val << bit);
            let hi_mask = (1u64 << (n * 8 - lo_bits)) - 1;
            Slab::rmw(&self.words[w + 1], hi_mask, val >> lo_bits);
        }
        true
    }

    /// Copies a whole value out (host-side reads).
    fn read_value(&self, slot: usize) -> Vec<u8> {
        let mut out = vec![0u8; self.value_size];
        let mut off = 0;
        while off < self.value_size {
            let n = (self.value_size - off).min(8);
            let v = self.load(slot, off, n).expect("in-bounds by construction");
            out[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
            off += n;
        }
        out
    }

    /// Writes a whole value (host-side updates). `value.len()` must equal
    /// `value_size`.
    fn write_value(&self, slot: usize, value: &[u8]) {
        debug_assert_eq!(value.len(), self.value_size);
        let mut off = 0;
        while off < value.len() {
            let n = (value.len() - off).min(8);
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(&value[off..off + n]);
            self.store(slot, off, n, u64::from_le_bytes(b));
            off += n;
        }
    }
}

const EMPTY: u8 = 0;
const OCCUPIED: u8 = 1;
const TOMBSTONE: u8 = 2;

/// One hash shard: probe state and key bytes behind a short mutex.
/// Values live in the shared lock-free slab.
struct ShardTable {
    states: Box<[u8]>,
    keys: Box<[u8]>,
}

struct HashCore {
    shards: Box<[Mutex<ShardTable>]>,
    /// Power-of-two slots per shard.
    shard_cap: usize,
    /// Live-entry count across shards; insertion reserves against
    /// `max_entries` here so capacity is exact even though shards lock
    /// independently.
    live: AtomicUsize,
    /// Probe-layout generation: bumped by entry insertion and deletion
    /// (never by value overwrites), so callers can cache a key→slot
    /// resolution and revalidate with one load. See
    /// [`Map::probe_generation`].
    layout_gen: AtomicU64,
    values: Slab,
}

enum Inner {
    Array { values: Slab },
    PerCpu { ncpu: usize, values: Slab },
    Hash(HashCore),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

enum Probe {
    /// Key present at this in-shard position.
    Found(usize),
    /// Key absent; this position (first tombstone, else first empty) can
    /// take it.
    Vacant(usize),
    /// Key absent and the shard has no usable position.
    Saturated,
}

impl ShardTable {
    fn probe(&self, key: &[u8], cap: usize, start: usize) -> Probe {
        let ks = key.len();
        let mut vacant: Option<usize> = None;
        for step in 0..cap {
            let pos = (start + step) & (cap - 1);
            match self.states[pos] {
                EMPTY => {
                    return Probe::Vacant(vacant.unwrap_or(pos));
                }
                OCCUPIED => {
                    if &self.keys[pos * ks..(pos + 1) * ks] == key {
                        return Probe::Found(pos);
                    }
                }
                _ => {
                    if vacant.is_none() {
                        vacant = Some(pos);
                    }
                }
            }
        }
        match vacant {
            Some(pos) => Probe::Vacant(pos),
            None => Probe::Saturated,
        }
    }
}

impl HashCore {
    fn shard_of(&self, h: u64) -> usize {
        (h >> 48) as usize & (self.shards.len() - 1)
    }

    fn start_of(&self, h: u64) -> usize {
        h as usize & (self.shard_cap - 1)
    }

    fn slot(&self, shard: usize, pos: usize) -> u32 {
        (shard * self.shard_cap + pos) as u32
    }
}

/// A policy map instance.
///
/// # Examples
///
/// ```
/// use cbpf::map::{Map, MapDef, MapKind};
///
/// let m = Map::new(MapDef {
///     name: "prio".into(),
///     kind: MapKind::Hash,
///     key_size: 8,
///     value_size: 8,
///     max_entries: 128,
/// });
/// m.update(&42u64.to_le_bytes(), &7u64.to_le_bytes(), 0).unwrap();
/// assert_eq!(m.lookup_copy(&42u64.to_le_bytes(), 0), Some(7u64.to_le_bytes().to_vec()));
///
/// // The allocation-free path policies use: resolve a slot once, then
/// // read/write words in place.
/// let slot = m.lookup_slot(&42u64.to_le_bytes(), 0).unwrap();
/// assert_eq!(m.value_load(slot, 0, 8), Some(7));
/// ```
pub struct Map {
    def: MapDef,
    inner: Inner,
}

impl Map {
    /// Creates a map; per-CPU maps size their slots for 128 CPUs.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized key/value, zero or over-[`MAX_MAP_ENTRIES`]
    /// `max_entries`, or an array kind whose key size is not 4.
    pub fn new(def: MapDef) -> Self {
        Map::with_cpus(def, 128)
    }

    /// Creates a map with an explicit CPU count for per-CPU kinds.
    ///
    /// # Panics
    ///
    /// See [`Map::new`].
    pub fn with_cpus(def: MapDef, ncpu: usize) -> Self {
        assert!(def.key_size > 0, "map `{}`: zero key size", def.name);
        assert!(def.value_size > 0, "map `{}`: zero value size", def.name);
        assert!(def.max_entries > 0, "map `{}`: zero max_entries", def.name);
        assert!(
            def.max_entries <= MAX_MAP_ENTRIES,
            "map `{}`: max_entries {} over the {} cap",
            def.name,
            def.max_entries,
            MAX_MAP_ENTRIES
        );
        let inner = match def.kind {
            MapKind::Array => {
                assert_eq!(def.key_size, 4, "array maps use a 4-byte index key");
                Inner::Array {
                    values: Slab::new(def.max_entries, def.value_size),
                }
            }
            MapKind::Hash => {
                let shards = if def.max_entries < 256 { 1 } else { 16 };
                let shard_cap = (2 * def.max_entries.div_ceil(shards))
                    .max(8)
                    .next_power_of_two();
                Inner::Hash(HashCore {
                    shards: (0..shards)
                        .map(|_| {
                            Mutex::new(ShardTable {
                                states: vec![EMPTY; shard_cap].into_boxed_slice(),
                                keys: vec![0u8; shard_cap * def.key_size].into_boxed_slice(),
                            })
                        })
                        .collect(),
                    shard_cap,
                    live: AtomicUsize::new(0),
                    layout_gen: AtomicU64::new(0),
                    values: Slab::new(shards * shard_cap, def.value_size),
                })
            }
            MapKind::PerCpuArray => {
                assert_eq!(def.key_size, 4, "per-cpu array maps use a 4-byte index key");
                assert!(ncpu > 0, "per-cpu map needs at least one cpu");
                Inner::PerCpu {
                    ncpu,
                    values: Slab::new(def.max_entries * ncpu, def.value_size),
                }
            }
        };
        Map { def, inner }
    }

    /// The map's definition.
    pub fn def(&self) -> &MapDef {
        &self.def
    }

    fn array_index(&self, key: &[u8]) -> Option<usize> {
        if key.len() != 4 {
            return None;
        }
        let idx = u32::from_le_bytes([key[0], key[1], key[2], key[3]]) as usize;
        (idx < self.def.max_entries).then_some(idx)
    }

    fn values(&self) -> &Slab {
        match &self.inner {
            Inner::Array { values } => values,
            Inner::PerCpu { values, .. } => values,
            Inner::Hash(h) => &h.values,
        }
    }

    /// Resolves `key` to a value slot without copying or allocating; `cpu`
    /// selects the copy for per-CPU maps. Returns `None` on a missing hash
    /// entry, an out-of-range array index, or a key-size mismatch.
    ///
    /// The slot stays readable/writable via [`Map::value_load`] /
    /// [`Map::value_store`] even if the entry is deleted meanwhile (bytes
    /// are stable until the slot is reused).
    pub fn lookup_slot(&self, key: &[u8], cpu: u32) -> Option<u32> {
        if key.len() != self.def.key_size {
            return None;
        }
        match &self.inner {
            Inner::Array { .. } => self.array_index(key).map(|i| i as u32),
            Inner::PerCpu { ncpu, .. } => {
                let i = self.array_index(key)?;
                let c = (cpu as usize) % ncpu;
                Some((i * ncpu + c) as u32)
            }
            Inner::Hash(h) => {
                let hash = fnv1a(key);
                let shard = h.shard_of(hash);
                let table = h.shards[shard].lock();
                match table.probe(key, h.shard_cap, h.start_of(hash)) {
                    Probe::Found(pos) => Some(h.slot(shard, pos)),
                    _ => None,
                }
            }
        }
    }

    /// Monotonic probe-layout generation for hash maps (`None` for the
    /// array kinds, whose key→slot mapping never changes). Bumped by
    /// entry insertion and deletion, stable across value overwrites, so
    /// a caller holding a `(generation, key, slot)` triple may reuse the
    /// slot without re-probing while the generation still matches —
    /// with the same bytes-stable-until-reuse guarantee a racing
    /// [`Map::lookup_slot`] would have. The compiled policy tier uses
    /// this to cache constant-key lookups.
    pub fn probe_generation(&self) -> Option<u64> {
        match &self.inner {
            Inner::Hash(h) => Some(h.layout_gen.load(Ordering::Acquire)),
            _ => None,
        }
    }

    /// Loads `n ∈ 1..=8` bytes at byte offset `off` of `slot`,
    /// little-endian. `None` when the window leaves the value.
    #[inline]
    pub fn value_load(&self, slot: u32, off: usize, n: usize) -> Option<u64> {
        let values = self.values();
        if (slot as usize) >= values.slots() {
            return None;
        }
        values.load(slot as usize, off, n)
    }

    /// Stores the low `n ∈ 1..=8` bytes of `val` at byte offset `off` of
    /// `slot`; `false` when the window leaves the value.
    #[inline]
    pub fn value_store(&self, slot: u32, off: usize, n: usize, val: u64) -> bool {
        let values = self.values();
        if (slot as usize) >= values.slots() {
            return false;
        }
        values.store(slot as usize, off, n, val)
    }

    /// Direct handle to slab word `idx` (`slot * stride + off / 8`), for
    /// the compiled tier's single-word read-modify-write path: one
    /// bounds check covers both the load and the store of an aligned
    /// 8-byte access. Same relaxed-word contract as
    /// [`Map::value_load`]/[`Map::value_store`].
    #[inline]
    pub(crate) fn value_word(&self, idx: usize) -> Option<&AtomicU64> {
        self.values().words.get(idx)
    }

    /// Words per value in the slab — the compiled tier bakes this into
    /// its word-index arithmetic.
    pub(crate) fn value_stride(&self) -> usize {
        self.values().stride
    }

    /// Convenience: copies the value out (host-side reads).
    pub fn lookup_copy(&self, key: &[u8], cpu: u32) -> Option<Vec<u8>> {
        let slot = self.lookup_slot(key, cpu)?;
        Some(self.values().read_value(slot as usize))
    }

    /// Inserts or overwrites the value for `key`.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a size mismatch, an out-of-range array index, or a
    /// full hash map.
    pub fn update(&self, key: &[u8], value: &[u8], cpu: u32) -> Result<(), MapError> {
        if key.len() != self.def.key_size {
            return Err(MapError::KeySizeMismatch);
        }
        if value.len() != self.def.value_size {
            return Err(MapError::ValueSizeMismatch);
        }
        match &self.inner {
            Inner::Array { values } => {
                let i = self.array_index(key).ok_or(MapError::IndexOutOfRange)?;
                values.write_value(i, value);
                Ok(())
            }
            Inner::PerCpu { ncpu, values } => {
                let i = self.array_index(key).ok_or(MapError::IndexOutOfRange)?;
                values.write_value(i * ncpu + (cpu as usize) % ncpu, value);
                Ok(())
            }
            Inner::Hash(h) => {
                let hash = fnv1a(key);
                let shard = h.shard_of(hash);
                let mut table = h.shards[shard].lock();
                match table.probe(key, h.shard_cap, h.start_of(hash)) {
                    Probe::Found(pos) => {
                        h.values.write_value(shard * h.shard_cap + pos, value);
                        Ok(())
                    }
                    Probe::Vacant(pos) => {
                        // Reserve a live-count ticket before touching the
                        // shard so `max_entries` holds across shards.
                        let max = self.def.max_entries;
                        h.live
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                                (l < max).then_some(l + 1)
                            })
                            .map_err(|_| MapError::Full)?;
                        let ks = self.def.key_size;
                        table.states[pos] = OCCUPIED;
                        table.keys[pos * ks..(pos + 1) * ks].copy_from_slice(key);
                        h.values.write_value(shard * h.shard_cap + pos, value);
                        h.layout_gen.fetch_add(1, Ordering::Release);
                        Ok(())
                    }
                    Probe::Saturated => Err(MapError::Full),
                }
            }
        }
    }

    /// Deletes `key` (hash maps only). The value bytes stay readable by
    /// policies already holding the slot until the slot is reused.
    ///
    /// # Errors
    ///
    /// Returns `Err` for array kinds or a missing key.
    pub fn delete(&self, key: &[u8]) -> Result<(), MapError> {
        match &self.inner {
            Inner::Hash(h) => {
                if key.len() != self.def.key_size {
                    return Err(MapError::NoSuchKey);
                }
                let hash = fnv1a(key);
                let shard = h.shard_of(hash);
                let mut table = h.shards[shard].lock();
                match table.probe(key, h.shard_cap, h.start_of(hash)) {
                    Probe::Found(pos) => {
                        table.states[pos] = TOMBSTONE;
                        h.live.fetch_sub(1, Ordering::Relaxed);
                        h.layout_gen.fetch_add(1, Ordering::Release);
                        Ok(())
                    }
                    _ => Err(MapError::NoSuchKey),
                }
            }
            _ => Err(MapError::DeleteOnArray),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Array { .. } | Inner::PerCpu { .. } => self.def.max_entries,
            Inner::Hash(h) => h.live.load(Ordering::Relaxed),
        }
    }

    /// True when a hash map has no entries (array kinds are never empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all keys (host-side introspection).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        match &self.inner {
            Inner::Array { .. } | Inner::PerCpu { .. } => (0..self.def.max_entries as u32)
                .map(|i| i.to_le_bytes().to_vec())
                .collect(),
            Inner::Hash(h) => {
                let ks = self.def.key_size;
                let mut out = Vec::new();
                for shard in h.shards.iter() {
                    let table = shard.lock();
                    for pos in 0..h.shard_cap {
                        if table.states[pos] == OCCUPIED {
                            out.push(table.keys[pos * ks..(pos + 1) * ks].to_vec());
                        }
                    }
                }
                out
            }
        }
    }

    /// Sums the first 8 bytes of every per-CPU copy of `key` (the usual way
    /// per-CPU counters are read out).
    pub fn percpu_sum(&self, key: &[u8]) -> u64 {
        match &self.inner {
            Inner::PerCpu { ncpu, values } => {
                let Some(i) = self.array_index(key) else {
                    return 0;
                };
                let n = self.def.value_size.min(8);
                (0..*ncpu)
                    .map(|c| {
                        values
                            .load(i * ncpu + c, 0, n)
                            .expect("in-bounds by construction")
                    })
                    .sum()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_map() -> Map {
        Map::new(MapDef {
            name: "h".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: 2,
        })
    }

    #[test]
    fn array_map_prezeroed_and_updatable() {
        let m = Map::new(MapDef {
            name: "a".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        });
        let k = 2u32.to_le_bytes();
        assert_eq!(m.lookup_copy(&k, 0), Some(vec![0; 8]));
        m.update(&k, &9u64.to_le_bytes(), 0).unwrap();
        assert_eq!(m.lookup_copy(&k, 0), Some(9u64.to_le_bytes().to_vec()));
        assert_eq!(m.lookup_copy(&9u32.to_le_bytes(), 0), None);
    }

    #[test]
    fn hash_map_insert_overwrite_delete() {
        let m = hash_map();
        let k = 1u32.to_le_bytes();
        assert_eq!(m.lookup_copy(&k, 0), None);
        m.update(&k, &5u64.to_le_bytes(), 0).unwrap();
        m.update(&k, &6u64.to_le_bytes(), 0).unwrap();
        assert_eq!(m.lookup_copy(&k, 0), Some(6u64.to_le_bytes().to_vec()));
        m.delete(&k).unwrap();
        assert_eq!(m.lookup_copy(&k, 0), None);
        assert_eq!(m.delete(&k), Err(MapError::NoSuchKey));
    }

    #[test]
    fn hash_map_capacity_enforced() {
        let m = hash_map();
        m.update(&1u32.to_le_bytes(), &[0; 8], 0).unwrap();
        m.update(&2u32.to_le_bytes(), &[0; 8], 0).unwrap();
        assert_eq!(
            m.update(&3u32.to_le_bytes(), &[0; 8], 0),
            Err(MapError::Full)
        );
        // Overwriting an existing key still works at capacity.
        m.update(&1u32.to_le_bytes(), &[1; 8], 0).unwrap();
        // Delete frees capacity for a different key.
        m.delete(&2u32.to_le_bytes()).unwrap();
        m.update(&3u32.to_le_bytes(), &[3; 8], 0).unwrap();
        assert_eq!(m.lookup_copy(&3u32.to_le_bytes(), 0), Some(vec![3; 8]));
    }

    #[test]
    fn size_mismatches_rejected() {
        let m = hash_map();
        assert_eq!(
            m.update(&[0; 3], &[0; 8], 0),
            Err(MapError::KeySizeMismatch)
        );
        assert_eq!(
            m.update(&[0; 4], &[0; 7], 0),
            Err(MapError::ValueSizeMismatch)
        );
        assert!(m.lookup_slot(&[0; 3], 0).is_none());
    }

    #[test]
    fn percpu_map_isolates_cpus_and_sums() {
        let m = Map::with_cpus(
            MapDef {
                name: "p".into(),
                kind: MapKind::PerCpuArray,
                key_size: 4,
                value_size: 8,
                max_entries: 1,
            },
            4,
        );
        let k = 0u32.to_le_bytes();
        for cpu in 0..4u32 {
            m.update(&k, &u64::from(cpu + 1).to_le_bytes(), cpu)
                .unwrap();
        }
        for cpu in 0..4u32 {
            assert_eq!(
                m.lookup_copy(&k, cpu),
                Some(u64::from(cpu + 1).to_le_bytes().to_vec())
            );
        }
        assert_eq!(m.percpu_sum(&k), 1 + 2 + 3 + 4);
    }

    #[test]
    fn deleted_value_stays_readable_through_held_slot() {
        let m = hash_map();
        let k = 7u32.to_le_bytes();
        m.update(&k, &1u64.to_le_bytes(), 0).unwrap();
        let slot = m.lookup_slot(&k, 0).unwrap();
        m.delete(&k).unwrap();
        // The held slot is still readable (RCU-like grace until reuse).
        assert_eq!(m.value_load(slot, 0, 8), Some(1));
        // But the key is gone from the probe path.
        assert_eq!(m.lookup_slot(&k, 0), None);
    }

    #[test]
    fn keys_snapshot() {
        let m = hash_map();
        m.update(&1u32.to_le_bytes(), &[0; 8], 0).unwrap();
        m.update(&2u32.to_le_bytes(), &[0; 8], 0).unwrap();
        let mut keys = m.keys();
        keys.sort();
        assert_eq!(
            keys,
            vec![1u32.to_le_bytes().to_vec(), 2u32.to_le_bytes().to_vec()]
        );
    }

    #[test]
    #[should_panic(expected = "4-byte index")]
    fn array_map_requires_u32_key() {
        Map::new(MapDef {
            name: "bad".into(),
            kind: MapKind::Array,
            key_size: 8,
            value_size: 8,
            max_entries: 1,
        });
    }

    #[test]
    #[should_panic(expected = "over the 65536 cap")]
    fn oversized_max_entries_rejected() {
        Map::new(MapDef {
            name: "huge".into(),
            kind: MapKind::Hash,
            key_size: 8,
            value_size: 8,
            max_entries: MAX_MAP_ENTRIES + 1,
        });
    }

    #[test]
    fn value_words_subword_and_straddling_access() {
        // value_size 12: one full word plus a 4-byte tail.
        let m = Map::new(MapDef {
            name: "w".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 12,
            max_entries: 1,
        });
        let slot = m.lookup_slot(&0u32.to_le_bytes(), 0).unwrap();
        // Byte stores land in the right lanes.
        for i in 0..12 {
            assert!(m.value_store(slot, i, 1, (i as u64) + 1));
        }
        for i in 0..12 {
            assert_eq!(m.value_load(slot, i, 1), Some((i as u64) + 1));
        }
        // A 4-byte load straddling the word boundary (off 6) merges both
        // words correctly: bytes 7,8,9,10 of the pattern.
        assert_eq!(
            m.value_load(slot, 6, 4),
            Some(u64::from(u32::from_le_bytes([7, 8, 9, 10])))
        );
        // A straddling store round-trips.
        assert!(m.value_store(slot, 6, 4, 0xdead_beef));
        assert_eq!(m.value_load(slot, 6, 4), Some(0xdead_beef));
        // Neighbors are untouched.
        assert_eq!(m.value_load(slot, 5, 1), Some(6));
        assert_eq!(m.value_load(slot, 10, 1), Some(11));
        // Out-of-bounds windows are rejected.
        assert_eq!(m.value_load(slot, 9, 4), None);
        assert!(!m.value_store(slot, 12, 1, 0));
        assert_eq!(m.value_load(slot + 1, 0, 1), None);
    }

    #[test]
    fn sharded_hash_map_handles_many_keys() {
        // 1024 entries → 16 shards; exercise insert/lookup/delete across
        // all of them, including tombstone reuse.
        let m = Map::new(MapDef {
            name: "big".into(),
            kind: MapKind::Hash,
            key_size: 8,
            value_size: 8,
            max_entries: 1024,
        });
        for i in 0..1024u64 {
            m.update(&i.to_le_bytes(), &(i * 3).to_le_bytes(), 0)
                .unwrap();
        }
        assert_eq!(m.len(), 1024);
        for i in (0..1024u64).step_by(2) {
            m.delete(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(m.len(), 512);
        for i in 0..1024u64 {
            let got = m.lookup_copy(&i.to_le_bytes(), 0);
            if i % 2 == 0 {
                assert_eq!(got, None, "key {i}");
            } else {
                assert_eq!(got, Some((i * 3).to_le_bytes().to_vec()), "key {i}");
            }
        }
        // Tombstoned capacity is reusable.
        for i in 2048..2560u64 {
            m.update(&i.to_le_bytes(), &i.to_le_bytes(), 0).unwrap();
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m.keys().len(), 1024);
    }

    #[test]
    fn concurrent_updates_from_many_threads() {
        use std::sync::Arc;
        let m = Arc::new(Map::new(MapDef {
            name: "c".into(),
            kind: MapKind::Hash,
            key_size: 8,
            value_size: 8,
            max_entries: 1024,
        }));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..128u64 {
                        let k = (t * 128 + i).to_le_bytes();
                        m.update(&k, &(t * 128 + i + 1).to_le_bytes(), t as u32)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 1024);
        for v in 0..1024u64 {
            assert_eq!(
                m.lookup_copy(&v.to_le_bytes(), 0),
                Some((v + 1).to_le_bytes().to_vec())
            );
        }
    }
}
