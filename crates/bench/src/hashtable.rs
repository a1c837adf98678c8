//! Chained hash table — the data-structure substrate of Fig. 2(c).
//!
//! The paper's worst-case benchmark "uses a global lock to protect the
//! hash table" (citing the resizable-hash-table benchmark \[54\]). This is
//! that table: open chaining, fixed bucket count, plus a *probe-cost*
//! accounting so the simulator can charge realistic virtual time for each
//! operation (hash + bucket walk).

/// Cost charged per operation before any probe (hash + bucket load).
pub const OP_BASE_NS: u64 = 40;

/// Cost charged per chain node visited.
pub const PROBE_NS: u64 = 18;

/// A fixed-size chained hash table mapping `u64 → u64`.
///
/// # Examples
///
/// ```
/// use c3_bench::hashtable::HashTable;
///
/// let mut t = HashTable::new(64);
/// assert_eq!(t.insert(1, 10).1, None);
/// assert_eq!(t.lookup(1).1, Some(10));
/// assert_eq!(t.remove(1).1, Some(10));
/// assert_eq!(t.lookup(1).1, None);
/// ```
pub struct HashTable {
    buckets: Vec<Vec<(u64, u64)>>,
    len: usize,
}

impl HashTable {
    /// Creates a table with `buckets` chains (rounded up to a power of 2).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let n = buckets.next_power_of_two();
        HashTable {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    fn bucket_of(&self, key: u64) -> usize {
        // Fibonacci hashing.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.buckets.len() - 1)
    }

    /// Looks up `key`, returning `(virtual_cost_ns, value)`.
    pub fn lookup(&self, key: u64) -> (u64, Option<u64>) {
        let b = self.bucket_of(key);
        let mut probes = 0;
        for (k, v) in &self.buckets[b] {
            probes += 1;
            if *k == key {
                return (OP_BASE_NS + probes * PROBE_NS, Some(*v));
            }
        }
        (OP_BASE_NS + probes * PROBE_NS, None)
    }

    /// Inserts or updates `key`, returning `(cost, previous value)`.
    pub fn insert(&mut self, key: u64, value: u64) -> (u64, Option<u64>) {
        let b = self.bucket_of(key);
        let mut probes = 0;
        for (k, v) in self.buckets[b].iter_mut() {
            probes += 1;
            if *k == key {
                let old = *v;
                *v = value;
                return (OP_BASE_NS + probes * PROBE_NS, Some(old));
            }
        }
        self.buckets[b].push((key, value));
        self.len += 1;
        (OP_BASE_NS + (probes + 1) * PROBE_NS, None)
    }

    /// Removes `key`, returning `(cost, removed value)`.
    pub fn remove(&mut self, key: u64) -> (u64, Option<u64>) {
        let b = self.bucket_of(key);
        let mut probes = 0;
        let bucket = &mut self.buckets[b];
        for i in 0..bucket.len() {
            probes += 1;
            if bucket[i].0 == key {
                let (_, v) = bucket.swap_remove(i);
                self.len -= 1;
                return (OP_BASE_NS + probes * PROBE_NS, Some(v));
            }
        }
        (OP_BASE_NS + probes * PROBE_NS, None)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Average chain length (load factor diagnostics).
    #[cfg(test)]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.buckets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = HashTable::new(16);
        for k in 0..100u64 {
            assert_eq!(t.insert(k, k * 2).1, None);
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.lookup(k).1, Some(k * 2));
        }
        assert_eq!(t.insert(5, 99).1, Some(10));
        assert_eq!(t.remove(5).1, Some(99));
        assert_eq!(t.remove(5).1, None);
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn misses_and_empty() {
        let mut t = HashTable::new(4);
        assert!(t.is_empty());
        assert_eq!(t.lookup(42).1, None);
        assert_eq!(t.remove(42).1, None);
        t.insert(1, 1);
        assert!(!t.is_empty());
        assert!(t.load_factor() > 0.0);
    }

    #[test]
    fn costs_grow_with_chain_length() {
        let mut t = HashTable::new(1); // Everything in one bucket.
        for k in 0..32u64 {
            t.insert(k, k);
        }
        let (cost_first, _) = t.lookup(0);
        let (cost_last, _) = t.lookup(31);
        assert!(
            cost_last > cost_first || cost_last > OP_BASE_NS + PROBE_NS,
            "walking a longer chain must cost more"
        );
    }

    #[test]
    fn matches_std_hashmap_model() {
        use std::collections::HashMap;
        let mut t = HashTable::new(64);
        let mut m = HashMap::new();
        let mut x = 12345u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512;
            match x % 3 {
                0 => assert_eq!(t.insert(key, x).1, m.insert(key, x)),
                1 => assert_eq!(t.lookup(key).1, m.get(&key).copied()),
                _ => assert_eq!(t.remove(key).1, m.remove(&key)),
            }
            assert_eq!(t.len(), m.len());
        }
    }
}
