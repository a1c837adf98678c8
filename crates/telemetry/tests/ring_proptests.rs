//! Property tests for the telemetry plane's per-CPU rings and the
//! record wire format:
//!
//! * concurrent multi-producer emit racing a concurrent drainer yields
//!   no torn records — every drained record satisfies an internal
//!   checksum tying all of its words together;
//! * sequence numbers come out strictly increasing per ring;
//! * overwrite-oldest losses are *counted*: after quiescence,
//!   `drained + dropped == emitted`, exactly;
//! * `TraceEvent -> binary -> decode -> chrome JSON` round-trips.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use telemetry::event::{EventKind, TraceEvent, MAX_PAYLOAD};
use telemetry::export::to_chrome_json;
use telemetry::ring::{Plane, Ring};

/// Build a record whose words are all derived from one seed value, so a
/// torn read (words from two different records) is detectable.
fn sealed_event(x: u64, ts: u64, cpu: u16) -> TraceEvent {
    let mut ev = TraceEvent::new(
        EventKind::PolicyEmit,
        ts,
        cpu,
        x,
        x.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        !x,
        x ^ ts,
    );
    ev.set_payload(&x.to_le_bytes());
    ev
}

/// Does a drained record satisfy `sealed_event`'s invariant?
fn sealed_ok(ev: &TraceEvent) -> bool {
    ev.b == ev.a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        && ev.c == !ev.a
        && ev.d == ev.a ^ ev.ts_ns
        && ev.payload_bytes() == &ev.a.to_le_bytes()[..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-producer emit racing a live drainer: no torn records, per-
    /// ring sequence strictly increasing, and exact drop accounting once
    /// quiescent.
    #[test]
    fn concurrent_emit_vs_drain_is_untorn_and_accounted(
        producers in 2usize..=4,
        per_thread in 1u64..=300,
        cap in prop_oneof![Just(4usize), Just(16), Just(64), Just(512)],
    ) {
        let ring = Arc::new(Ring::with_capacity(cap));
        let stop = Arc::new(AtomicBool::new(false));
        let mut drained: Vec<TraceEvent> = Vec::new();

        // A drainer racing the producers.
        let drainer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    ring.drain_into(&mut got);
                    std::hint::spin_loop();
                }
                got
            })
        };

        let workers: Vec<_> = (0..producers)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let x = ((t as u64) << 32) | i;
                        ring.emit(sealed_event(x, i, t as u16));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        drained.extend(drainer.join().unwrap());
        // Producers are quiescent: one final drain empties the ring.
        ring.drain_into(&mut drained);

        for ev in &drained {
            prop_assert!(sealed_ok(ev), "torn record: {ev:?}");
        }
        let mut seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        prop_assert_eq!(&seqs, &sorted, "drain must preserve ring order");
        seqs.dedup();
        prop_assert_eq!(seqs.len(), drained.len(), "duplicate sequence numbers");

        let emitted = producers as u64 * per_thread;
        prop_assert_eq!(ring.emitted_count(), emitted);
        prop_assert_eq!(
            drained.len() as u64 + ring.dropped_count(),
            emitted,
            "every emitted record must be drained or counted dropped"
        );
    }

    /// Single-threaded overwrite-oldest: the survivors are exactly the
    /// newest `capacity` records and the drop count is exact.
    #[test]
    fn overwrite_oldest_keeps_newest(
        cap in prop_oneof![Just(4usize), Just(8), Just(32)],
        extra in 0u64..200,
    ) {
        let ring = Ring::with_capacity(cap);
        let total = cap as u64 + extra;
        for i in 0..total {
            ring.emit(sealed_event(i, i, 0));
        }
        let mut got = Vec::new();
        ring.drain_into(&mut got);
        prop_assert_eq!(got.len() as u64, cap as u64);
        prop_assert_eq!(ring.dropped_count(), extra);
        for (k, ev) in got.iter().enumerate() {
            prop_assert_eq!(ev.a, extra + k as u64, "must keep the newest records");
        }
    }

    /// Wire-format and exporter round-trip: words, bytes, and the chrome
    /// JSON exporter all agree with the original record.
    #[test]
    fn event_roundtrips_to_bytes_and_chrome_json(
        kind_ix in 1u16..=16,
        seq in any::<u64>(),
        ts in 0u64..=(u64::MAX / 2),
        cpu in any::<u16>(),
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        payload in vec(any::<u8>(), 0..=MAX_PAYLOAD),
    ) {
        // 12 is a retired wire code: it decodes to no kind.
        let Some(kind) = EventKind::from_u16(kind_ix) else {
            return Ok(());
        };
        let mut ev = TraceEvent::new(kind, ts, cpu, words.0, words.1, words.2, words.3);
        ev.seq = seq;
        ev.set_payload(&payload);

        prop_assert_eq!(TraceEvent::from_words(&ev.to_words()), Some(ev));
        prop_assert_eq!(TraceEvent::from_bytes(&ev.to_bytes()), Some(ev));

        let json = to_chrome_json(&[ev]);
        let name_frag = format!("\"name\":\"{}\"", kind.name());
        let seq_frag = format!("\"seq\":{}", seq);
        let tid_frag = format!("\"tid\":{}", cpu);
        prop_assert!(json.contains(&name_frag), "missing kind name");
        prop_assert!(json.contains(&seq_frag), "missing seq");
        prop_assert!(json.contains(&tid_frag), "missing tid");
        if !payload.is_empty() {
            let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert!(json.contains(&hex), "missing payload hex");
        }
    }

    /// Plane-level merge: a drain is sorted by `(ts, cpu, seq)` and per-
    /// CPU sequences stay strictly increasing.
    #[test]
    fn plane_drain_is_ordered(
        events in vec((0u64..1000, 0u16..8, any::<u64>()), 1..200),
    ) {
        let plane = Plane::with_capacity(512);
        for (ts, cpu, x) in &events {
            plane.emit(sealed_event(*x, *ts, *cpu));
        }
        let got = plane.drain();
        prop_assert_eq!(got.len(), events.len());
        for w in got.windows(2) {
            let ka = (w[0].ts_ns, w[0].cpu, w[0].seq);
            let kb = (w[1].ts_ns, w[1].cpu, w[1].seq);
            prop_assert!(ka <= kb, "drain out of order: {ka:?} > {kb:?}");
        }
        for ev in &got {
            prop_assert!(sealed_ok(ev));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Several emit/drain rounds, each on its own subset of CPUs, so most
    /// drains find some rings with nothing new. A round's records are
    /// either scattered in time or stamped in ring order (what a single
    /// emitting thread produces), which the plane may return without
    /// sorting. Every drain is `(ts, cpu, seq)`-ordered, per-CPU sequence
    /// numbers only grow from one drain to the next, and the drains together
    /// return exactly the emitted records, none of them counted dropped.
    #[test]
    fn plane_drains_in_rounds_are_ordered_and_complete(
        rounds in vec(
            (1u8..=255, vec((0u64..1000, any::<u8>()), 0..100), any::<bool>()),
            1..6,
        ),
    ) {
        let plane = Plane::with_capacity(512);
        let dropped = plane.dropped();
        let mut emitted = Vec::new();
        let mut drained = Vec::new();
        let mut last_seq = [None::<u64>; 8];
        let mut x = 0u64;
        for (mask, events, in_ring_order) in &rounds {
            let cpus: Vec<u16> = (0..8).filter(|c| mask & (1 << c) != 0).collect();
            let n = events.len();
            for (i, (ts, pick)) in events.iter().enumerate() {
                let (ts, cpu) = if *in_ring_order {
                    // Ascending stamps, handed to the CPUs in blocks.
                    (x, cpus[i * cpus.len() / n])
                } else {
                    (*ts, cpus[usize::from(*pick) % cpus.len()])
                };
                plane.emit(sealed_event(x, ts, cpu));
                emitted.push((ts, cpu, x));
                x += 1;
            }
            let got = plane.drain();
            prop_assert_eq!(got.len(), n);
            for w in got.windows(2) {
                let ka = (w[0].ts_ns, w[0].cpu, w[0].seq);
                let kb = (w[1].ts_ns, w[1].cpu, w[1].seq);
                prop_assert!(ka <= kb, "drain out of order: {ka:?} > {kb:?}");
            }
            let mut round_max = last_seq;
            for ev in &got {
                prop_assert!(sealed_ok(ev));
                let cpu = usize::from(ev.cpu);
                prop_assert!(
                    last_seq[cpu].is_none_or(|s| s < ev.seq),
                    "a drain returned a record an earlier drain had passed"
                );
                round_max[cpu] = round_max[cpu].max(Some(ev.seq));
            }
            last_seq = round_max;
            drained.extend(got.iter().map(|e| (e.ts_ns, e.cpu, e.a)));
        }
        emitted.sort_unstable();
        drained.sort_unstable();
        prop_assert_eq!(drained, emitted);
        prop_assert_eq!(plane.dropped(), dropped);
    }
}
