//! Per-CPU, lock-free, fixed-capacity trace rings.
//!
//! Modeled on the kernel's bpf ringbuf / ftrace per-CPU buffers: writers
//! never block each other across CPUs (each virtual CPU hashes to its own
//! ring), and within a ring publication is wait-free in the common case —
//! a `fetch_add` claims a position, word-sized relaxed stores fill the
//! slot, and one release store publishes it. Readers validate each slot
//! with a seqlock protocol, so a record is either observed whole or not
//! at all (no torn reads), and overwrite-oldest drops are *counted*, not
//! silent.
//!
//! Slot state encoding, ftrace-style: a slot last claimed for ring
//! position `p` holds `2p+1` while the writer is mid-copy and `2p+2` once
//! the record is complete. States only ever increase, so a reader that
//! saw `2p+2` before and after its copy knows the copy is position `p`'s
//! record, untorn.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::{TraceEvent, EVENT_WORDS};

/// Events per ring. Must be a power of two.
pub const RING_CAPACITY: usize = 512;

/// Number of rings in a [`Plane`]; virtual CPUs hash onto these.
pub const NR_RINGS: usize = 32;

struct Slot {
    /// `0` = never written; `2p+1` = writer for position `p` mid-copy;
    /// `2p+2` = position `p`'s record complete.
    state: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            state: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; EVENT_WORDS],
        }
    }

    /// Seqlock read of the record for state `want`, given `state`, the
    /// slot state the caller loaded (acquire) before: the record if that
    /// and the state after the copy are both `want`. Two state loads in
    /// all.
    #[inline]
    fn read(&self, state: u64, want: u64) -> Option<TraceEvent> {
        if state != want {
            return None;
        }
        let mut words = [0u64; EVENT_WORDS];
        for (out, w) in words.iter_mut().zip(self.words.iter()) {
            *out = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if self.state.load(Ordering::Relaxed) != want {
            return None;
        }
        TraceEvent::from_words(&words)
    }
}

/// One single-CPU trace ring. Multi-producer (any thread may emit into
/// any ring), single-logical-consumer (the drain cursor is mutex-guarded).
pub struct Ring {
    slots: Box<[Slot]>,
    /// Next position to claim; also the per-ring sequence number source.
    head: AtomicU64,
    /// Next position the consumer will read.
    cursor: Mutex<u64>,
    /// Lock-free mirror of `cursor`, stored under its mutex after every
    /// drain: a drain that finds it equal to `head` skips the ring
    /// without taking the mutex.
    consumed: AtomicU64,
    /// Records lost: overwritten before the consumer got to them, or
    /// skipped because a writer lapped the reader mid-copy.
    dropped: AtomicU64,
}

impl Default for Ring {
    fn default() -> Self {
        Ring::new()
    }
}

impl Ring {
    pub fn new() -> Ring {
        Ring::with_capacity(RING_CAPACITY)
    }

    /// A ring holding `capacity` (rounded up to a power of two, min 2)
    /// records.
    pub fn with_capacity(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(2);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, Slot::new);
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            cursor: Mutex::new(0),
            consumed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Publish one record. `ev.seq` is overwritten with the claimed
    /// position — the strictly increasing per-ring sequence number.
    ///
    /// Lock-free: the only loop is the claim CAS, which can retry only
    /// while a writer `RING_CAPACITY` positions behind is still mid-copy
    /// on the same slot (a full lap of lag).
    pub fn emit(&self, mut ev: TraceEvent) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        ev.seq = pos;
        let slot = self.slot(pos);
        let writing = 2 * pos + 1;
        loop {
            let s = slot.state.load(Ordering::Relaxed);
            if s >= writing {
                // A writer a full lap ahead already claimed this slot: our
                // record is stale before it was ever stored. The consumer
                // accounts the loss when its cursor passes this position,
                // so every position is counted exactly once.
                return;
            }
            if s % 2 == 1 {
                // The previous lap's writer is still copying. Rare (it
                // requires a writer asleep for a whole lap); wait it out.
                std::hint::spin_loop();
                continue;
            }
            // Acquire on the claim RMW orders it before our word stores.
            if slot
                .state
                .compare_exchange_weak(s, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        for (w, v) in slot.words.iter().zip(ev.to_words()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.state.store(writing + 1, Ordering::Release);
    }

    #[inline]
    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos & self.mask()) as usize]
    }

    /// Records between the drain cursor and the head, at most a ring's
    /// worth: an upper bound on what a [`Ring::drain_into`] now returns.
    /// Lock-free.
    fn pending(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let consumed = self.consumed.load(Ordering::Acquire);
        head.saturating_sub(consumed).min(self.slots.len() as u64) as usize
    }

    /// Consume every completed record between the cursor and the head, in
    /// position order. Records the consumer lost to wraparound are added
    /// to [`Ring::dropped_count`]. Stops early at a still-in-flight
    /// writer so the sequence stays gapless in front of it. Returns
    /// whether the records it appended are in `(ts_ns, cpu, seq)` order.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) -> bool {
        let mut cursor = self.cursor.lock().unwrap();
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut pos = *cursor;
        if head.saturating_sub(pos) > cap {
            // Overwrite-oldest already ate everything below head - cap.
            self.dropped.fetch_add(head - cap - pos, Ordering::Relaxed);
            pos = head - cap;
        }
        out.reserve((head - pos) as usize);
        // Locals, so the loop does not reload them after every atomic load.
        let (slots, mask) = (&*self.slots, self.mask());
        let mut lost = 0;
        let (mut ordered, mut last) = (true, (0, 0, 0));
        while pos < head {
            let slot = &slots[(pos & mask) as usize];
            let want = 2 * pos + 2;
            let state = slot.state.load(Ordering::Acquire);
            if state < want {
                // Claimed but not yet complete (or the claiming store is
                // still in flight): stop, we'll pick it up next drain.
                break;
            }
            match slot.read(state, want) {
                Some(ev) => {
                    let key = merge_key(&ev);
                    ordered &= last <= key;
                    last = key;
                    out.push(ev);
                }
                // Lapped before or during the copy.
                None => lost += 1,
            }
            pos += 1;
        }
        if lost > 0 {
            self.dropped.fetch_add(lost, Ordering::Relaxed);
        }
        *cursor = pos;
        self.consumed.store(pos, Ordering::Release);
        ordered
    }

    /// Non-consuming flight-recorder read: the last up-to-`n` completed
    /// records still resident, oldest first. The drain cursor is not
    /// moved, so a later [`Ring::drain_into`] still sees these.
    pub fn snapshot_last_into(&self, n: usize, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let span = (n as u64).min(self.slots.len() as u64).min(head);
        out.reserve(span as usize);
        for pos in (head - span)..head {
            let slot = self.slot(pos);
            if let Some(ev) = slot.read(slot.state.load(Ordering::Acquire), 2 * pos + 2) {
                out.push(ev);
            }
        }
    }

    /// Records lost to overwrite-oldest so far — including positions the
    /// consumer has not caught up to yet, so a status read between drains
    /// reports losses the moment the overwrite happens, not only once a
    /// drain passes them.
    pub fn dropped_count(&self) -> u64 {
        let cursor = *self.cursor.lock().unwrap();
        let head = self.head.load(Ordering::Acquire);
        let pending = head
            .saturating_sub(self.slots.len() as u64)
            .saturating_sub(cursor);
        self.dropped.load(Ordering::Relaxed) + pending
    }

    /// Total records ever claimed (published + dropped).
    pub fn emitted_count(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }
}

/// The full plane: [`NR_RINGS`] rings, one per virtual-CPU hash bucket.
pub struct Plane {
    rings: Vec<Ring>,
}

impl Default for Plane {
    fn default() -> Self {
        Plane::new()
    }
}

impl Plane {
    pub fn new() -> Plane {
        Plane::with_capacity(RING_CAPACITY)
    }

    /// A plane whose rings each hold `capacity` records.
    pub fn with_capacity(capacity: usize) -> Plane {
        Plane {
            rings: (0..NR_RINGS)
                .map(|_| Ring::with_capacity(capacity))
                .collect(),
        }
    }

    /// The ring a virtual CPU's events land in.
    #[inline]
    pub fn ring(&self, cpu: u16) -> &Ring {
        &self.rings[usize::from(cpu) % self.rings.len()]
    }

    /// Publish one record into the emitting CPU's ring.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        self.ring(ev.cpu).emit(ev);
    }

    /// Consume all completed records, merged in `(ts_ns, cpu, seq)` order.
    ///
    /// The output is sized once from every ring's backlog, a ring with no
    /// backlog is skipped without taking its mutex, and the merge sorts
    /// only when the rings' concatenation is out of order: one thread's
    /// records are already in order in its ring.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let pending: [usize; NR_RINGS] = std::array::from_fn(|i| self.rings[i].pending());
        let mut out = Vec::with_capacity(pending.iter().sum());
        let mut ordered = true;
        for (r, n) in self.rings.iter().zip(pending) {
            if n > 0 {
                let start = out.len();
                ordered &= r.drain_into(&mut out);
                if let (Some(prev), Some(first)) = (start.checked_sub(1), out.get(start)) {
                    ordered &= merge_key(&out[prev]) <= merge_key(first);
                }
            }
        }
        if !ordered {
            out.sort_by_key(merge_key);
        }
        out
    }

    /// Flight-recorder view: last `n` resident records across all rings,
    /// `(ts_ns, cpu, seq)`-ordered, without consuming anything.
    pub fn snapshot_last(&self, n: usize) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for r in &self.rings {
            r.snapshot_last_into(n, &mut out);
        }
        out.sort_by_key(merge_key);
        if out.len() > n {
            out.drain(..out.len() - n);
        }
        out
    }

    /// Total records lost across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(Ring::dropped_count).sum()
    }
}

/// The order a drain merges the rings in.
fn merge_key(e: &TraceEvent) -> (u64, u16, u64) {
    (e.ts_ns, e.cpu, e.seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64, cpu: u16, a: u64) -> TraceEvent {
        TraceEvent::new(EventKind::LockAcquired, ts, cpu, a, 0, 0, 0)
    }

    #[test]
    fn fifo_within_one_ring() {
        let r = Ring::with_capacity(8);
        for i in 0..5 {
            r.emit(ev(i, 0, i));
        }
        let mut got = Vec::new();
        r.drain_into(&mut got);
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as u64);
        }
        assert_eq!(r.dropped_count(), 0);
    }

    #[test]
    fn overwrite_oldest_counts_drops() {
        let r = Ring::with_capacity(4);
        for i in 0..10 {
            r.emit(ev(i, 0, i));
        }
        let mut got = Vec::new();
        r.drain_into(&mut got);
        // Capacity 4: only the newest 4 survive; 6 were overwritten.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].a, 6);
        assert_eq!(r.dropped_count(), 6);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let r = Ring::with_capacity(8);
        for i in 0..6 {
            r.emit(ev(i, 0, i));
        }
        let mut snap = Vec::new();
        r.snapshot_last_into(3, &mut snap);
        assert_eq!(snap.iter().map(|e| e.a).collect::<Vec<_>>(), [3, 4, 5]);
        let mut got = Vec::new();
        r.drain_into(&mut got);
        assert_eq!(got.len(), 6, "snapshot must not move the drain cursor");
    }

    #[test]
    fn plane_merges_in_timestamp_order() {
        let p = Plane::with_capacity(16);
        p.emit(ev(30, 1, 1));
        p.emit(ev(10, 0, 2));
        p.emit(ev(20, 2, 3));
        let ts: Vec<u64> = p.drain().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, [10, 20, 30]);
    }
}
