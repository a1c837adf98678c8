//! The compact binary trace record.
//!
//! A [`TraceEvent`] is exactly [`EVENT_BYTES`] (72) bytes — nine 64-bit
//! words — so a ring slot can publish it with plain word-sized atomic
//! stores and a seqlock-style completion word, the same trick the kernel
//! ringbuf plays with its record header:
//!
//! ```text
//! word 0   seq       per-CPU sequence number (assigned by the ring)
//! word 1   ts_ns     timestamp, real or DES-virtual nanoseconds
//! word 2-5 a b c d   kind-specific arguments (schema: DESIGN.md §4.6)
//! word 6   kind:u16 | cpu:u16 | len:u8 | pad:u24
//! word 7-8 payload   up to MAX_PAYLOAD (16) opaque bytes
//! ```

/// Encoded size of one trace record, in bytes.
pub const EVENT_BYTES: usize = 72;

/// Number of 64-bit words in one record.
pub const EVENT_WORDS: usize = 9;

/// Maximum opaque payload bytes one record can carry. This is also the
/// upper bound the cbpf verifier enforces on `trace_emit` lengths.
pub const MAX_PAYLOAD: usize = 16;

/// What happened. The discriminants are the wire encoding — they must
/// never be renumbered. 12 is retired: an older trace may carry it, so
/// it decodes to nothing and is not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A thread entered `acquire()`. `a`=lock id, `b`=tid, `c`=socket.
    LockAcquire = 1,
    /// The fast path failed; the thread is queueing. Args as above.
    LockContended = 2,
    /// The lock was taken. Args as above.
    LockAcquired = 3,
    /// The lock was released. Args as above.
    LockRelease = 4,
    /// Shuffler `cmp_node` decision. `a`=lock id, `b`=shuffler tid,
    /// `c`=scanned tid, `d`=verdict (1 = group).
    CmpNode = 5,
    /// Shuffler `skip_shuffle` decision. `a`=lock id, `b`=shuffler tid,
    /// `d`=verdict (1 = skip).
    SkipShuffle = 6,
    /// `schedule_waiter` decision. `a`=lock id, `b`=waiter tid,
    /// `d`=verdict (1 = run now).
    ScheduleWaiter = 7,
    /// One policy invocation. `a`=lock id, `b`=hook bit, `c`=instructions
    /// executed by the prepared program, `d`=budget remaining.
    HookSpan = 8,
    /// Livepatch applied. `a`=fnv64 of the patch label; label prefix in
    /// the payload.
    PatchApply = 9,
    /// Livepatch reverted. Args as [`EventKind::PatchApply`].
    PatchRevert = 10,
    /// A breaker opened. `a`=lock id, `b`=hook bit, `c`=consecutive
    /// faults, `d`=fault-kind discriminant.
    BreakerTrip = 11,
    /// A policy was quarantined. `a`=lock id, `b`=hook bit, `c`=the
    /// breaker's total faults (0 for a sim quarantine).
    Quarantine = 13,
    /// User bytecode called the `trace_emit` helper. `a`=lock id (0 if
    /// unknown), `b`=pid; the helper's bytes are the payload.
    PolicyEmit = 14,
    /// A rollout intent-log record was appended. `a`=rollout generation,
    /// `b`=wave index (or `u64::MAX` for plan-level records), `c`=intent
    /// discriminant, `d`=records in the log after the append.
    RolloutStep = 15,
    /// A rollout wave health verdict. `a`=rollout generation, `b`=wave
    /// index, `d`=1 when red (abort) — reason prefix in the payload.
    RolloutHealth = 16,
    /// A fleet store publish committed. `a`=new head version,
    /// `b`=bindings in the delta, `c`=artifacts in the delta, `d`=CAS
    /// conflicts the store has absorbed so far.
    FleetPublish = 17,
    /// A host applied (or deduplicated) a delivered snapshot. `a`=host
    /// id, `b`=snapshot version, `d`=1 when the delivery was a duplicate
    /// and was dropped without re-applying.
    FleetDeliver = 18,
    /// A host lease transition. `a`=host id, `b`=the version the host
    /// last acknowledged, `d`=1 when the lease expired (host degraded),
    /// 0 when it was renewed (host active again).
    FleetLease = 19,
    /// An anti-entropy reconciliation pushed a behind host forward.
    /// `a`=host id, `b`=the version the host was at, `c`=the head it was
    /// sent.
    FleetReconcile = 20,
}

impl EventKind {
    /// Decode a wire discriminant.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            1 => LockAcquire,
            2 => LockContended,
            3 => LockAcquired,
            4 => LockRelease,
            5 => CmpNode,
            6 => SkipShuffle,
            7 => ScheduleWaiter,
            8 => HookSpan,
            9 => PatchApply,
            10 => PatchRevert,
            11 => BreakerTrip,
            13 => Quarantine,
            14 => PolicyEmit,
            15 => RolloutStep,
            16 => RolloutHealth,
            17 => FleetPublish,
            18 => FleetDeliver,
            19 => FleetLease,
            20 => FleetReconcile,
            _ => return None,
        })
    }

    /// Inverse of [`EventKind::name`], for CLI filters
    /// (`c3ctl trace tail --event <name>`).
    pub fn from_name(s: &str) -> Option<EventKind> {
        (1..=20)
            .filter_map(EventKind::from_u16)
            .find(|k| k.name() == s)
    }

    /// Stable lowercase name, used by exporters and `c3ctl trace`.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            LockAcquire => "lock_acquire",
            LockContended => "lock_contended",
            LockAcquired => "lock_acquired",
            LockRelease => "lock_release",
            CmpNode => "cmp_node",
            SkipShuffle => "skip_shuffle",
            ScheduleWaiter => "schedule_waiter",
            HookSpan => "hook_span",
            PatchApply => "patch_apply",
            PatchRevert => "patch_revert",
            BreakerTrip => "breaker_trip",
            Quarantine => "quarantine",
            PolicyEmit => "policy_emit",
            RolloutStep => "rollout_step",
            RolloutHealth => "rollout_health",
            FleetPublish => "fleet_publish",
            FleetDeliver => "fleet_deliver",
            FleetLease => "fleet_lease",
            FleetReconcile => "fleet_reconcile",
        }
    }
}

/// One decoded trace record. See the module docs for the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-CPU sequence number, assigned by the ring at emit time.
    pub seq: u64,
    /// Nanoseconds — real or DES-virtual depending on the emitting domain.
    pub ts_ns: u64,
    pub kind: EventKind,
    /// Virtual CPU of the emitting thread (or simulated task).
    pub cpu: u16,
    pub a: u64,
    pub b: u64,
    pub c: u64,
    pub d: u64,
    /// Number of meaningful bytes in `payload`.
    pub len: u8,
    pub payload: [u8; MAX_PAYLOAD],
}

impl TraceEvent {
    /// A payload-free record; `seq` is filled in by the ring.
    pub fn new(kind: EventKind, ts_ns: u64, cpu: u16, a: u64, b: u64, c: u64, d: u64) -> Self {
        TraceEvent {
            seq: 0,
            ts_ns,
            kind,
            cpu,
            a,
            b,
            c,
            d,
            len: 0,
            payload: [0; MAX_PAYLOAD],
        }
    }

    /// Attach up to [`MAX_PAYLOAD`] bytes (silently truncating).
    pub fn set_payload(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(MAX_PAYLOAD);
        self.payload[..n].copy_from_slice(&bytes[..n]);
        self.payload[n..].fill(0);
        self.len = n as u8;
    }

    /// The meaningful payload bytes.
    pub fn payload_bytes(&self) -> &[u8] {
        &self.payload[..usize::from(self.len).min(MAX_PAYLOAD)]
    }

    /// Encode to the nine-word wire form the ring slots store.
    pub fn to_words(&self) -> [u64; EVENT_WORDS] {
        let meta =
            u64::from(self.kind as u16) | (u64::from(self.cpu) << 16) | (u64::from(self.len) << 32);
        [
            self.seq,
            self.ts_ns,
            self.a,
            self.b,
            self.c,
            self.d,
            meta,
            u64::from_le_bytes(self.payload[..8].try_into().unwrap()),
            u64::from_le_bytes(self.payload[8..].try_into().unwrap()),
        ]
    }

    /// Decode the nine-word wire form. Returns `None` on an unknown kind
    /// discriminant (a torn or foreign record).
    pub fn from_words(w: &[u64; EVENT_WORDS]) -> Option<TraceEvent> {
        let kind = EventKind::from_u16((w[6] & 0xffff) as u16)?;
        let cpu = ((w[6] >> 16) & 0xffff) as u16;
        let len = ((w[6] >> 32) & 0xff) as u8;
        if usize::from(len) > MAX_PAYLOAD {
            return None;
        }
        let mut payload = [0u8; MAX_PAYLOAD];
        payload[..8].copy_from_slice(&w[7].to_le_bytes());
        payload[8..].copy_from_slice(&w[8].to_le_bytes());
        Some(TraceEvent {
            seq: w[0],
            ts_ns: w[1],
            kind,
            cpu,
            a: w[2],
            b: w[3],
            c: w[4],
            d: w[5],
            len,
            payload,
        })
    }

    /// Encode to the flat little-endian byte form (`EVENT_BYTES` long).
    pub fn to_bytes(&self) -> [u8; EVENT_BYTES] {
        let mut out = [0u8; EVENT_BYTES];
        for (i, w) in self.to_words().iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode the flat byte form.
    pub fn from_bytes(bytes: &[u8; EVENT_BYTES]) -> Option<TraceEvent> {
        let mut w = [0u64; EVENT_WORDS];
        for (i, word) in w.iter_mut().enumerate() {
            *word = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        TraceEvent::from_words(&w)
    }

    /// Human-readable one-liner, the `c3ctl trace tail` format.
    pub fn render(&self) -> String {
        let mut s = format!(
            "[{:>12}ns] cpu{:<3} #{:<6} {:<16} a={} b={} c={} d={}",
            self.ts_ns,
            self.cpu,
            self.seq,
            self.kind.name(),
            self.a,
            self.b,
            self.c,
            self.d
        );
        if self.len > 0 {
            s.push_str(" payload=");
            for b in self.payload_bytes() {
                s.push_str(&format!("{b:02x}"));
            }
        }
        s
    }
}

/// FNV-1a hash of a label, the 64-bit name stand-in used when a record
/// has no room for a string (patch labels, policy names).
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words_and_bytes() {
        let mut ev = TraceEvent::new(EventKind::HookSpan, 12345, 7, 1, 2, 3, 4);
        ev.seq = 99;
        ev.set_payload(b"hello");
        assert_eq!(TraceEvent::from_words(&ev.to_words()), Some(ev));
        assert_eq!(TraceEvent::from_bytes(&ev.to_bytes()), Some(ev));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut w = TraceEvent::new(EventKind::LockAcquire, 0, 0, 0, 0, 0, 0).to_words();
        w[6] = 0xbeef; // not a valid EventKind discriminant
        assert_eq!(TraceEvent::from_words(&w), None);
    }

    #[test]
    fn payload_truncates_at_max() {
        let mut ev = TraceEvent::new(EventKind::PolicyEmit, 0, 0, 0, 0, 0, 0);
        ev.set_payload(&[0xab; 64]);
        assert_eq!(ev.len as usize, MAX_PAYLOAD);
        assert_eq!(ev.payload_bytes(), &[0xab; MAX_PAYLOAD]);
    }

    #[test]
    fn kind_discriminants_are_stable() {
        for (k, v) in [
            (EventKind::LockAcquire, 1u16),
            (EventKind::HookSpan, 8),
            (EventKind::PolicyEmit, 14),
            (EventKind::RolloutStep, 15),
            (EventKind::RolloutHealth, 16),
            (EventKind::FleetPublish, 17),
            (EventKind::FleetDeliver, 18),
            (EventKind::FleetLease, 19),
            (EventKind::FleetReconcile, 20),
        ] {
            assert_eq!(k as u16, v);
            assert_eq!(EventKind::from_u16(v), Some(k));
        }
    }
}
