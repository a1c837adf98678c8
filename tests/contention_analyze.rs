//! Contention analysis over real traces, simulated and native.
//!
//! The ksim half drives the contended SimShflLock scenario (sized to fit
//! the rings losslessly) through `telemetry::analyze` and asserts the
//! blame conservation law holds *exactly* across randomized seeds, and
//! that a fixed seed re-analyzes to a bit-identical report (the repo's
//! determinism convention: run-to-run equality, not pinned constants).
//! The native half reuses the holder-sleeps pattern from
//! `tests/telemetry_e2e.rs`: timing-dependent volumes mean we assert the
//! conservation law and chain coverage, not exactness.
//!
//! The armed flag is process-global, so every test here serializes on
//! one mutex and drains leftovers before measuring.

use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use concord::{Concord, PolicySpec};
use ksim::SimBuilder;
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use simlocks::SimShflLock;
use telemetry::analyze::{analyze, HANDOFF_TENANT};
use telemetry::event::fnv64;
use telemetry::{AnalyzeConfig, Analyzer, EventKind, Report, TraceEvent};

/// One-byte `trace_emit` payload (`b"A"`), valid on every hook.
const EMITTER_ASM: &str =
    "stb [r10-1], 65\n mov r1, r10\n add r1, -1\n mov r2, 1\n call trace_emit\n mov r0, 0\n exit";

static TRACE_GUARD: Mutex<()> = Mutex::new(());

/// Serializes armed-plane tests and starts from an empty, disarmed plane.
fn trace_session() -> MutexGuard<'static, ()> {
    let guard = TRACE_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_armed(false);
    telemetry::drain();
    guard
}

/// Runs the contended-sim scenario at `seed` and analyzes its drained
/// trace. Sized (8 tasks × 15 iterations) so the whole run fits the
/// rings without overwrite — asserted via the plane's drop counter,
/// since per-ring prefix loss is invisible to seq-gap detection.
/// Caller holds the session guard.
fn analyzed_sim_trace(seed: u64) -> Report {
    telemetry::drain();
    let dropped_before = telemetry::dropped();
    telemetry::set_armed(true);

    let c = Concord::new();
    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let loaded = c
        .load(PolicySpec::from_asm(
            "emitter",
            HookKind::CmpNode,
            EMITTER_ASM,
        ))
        .unwrap();
    let policy = c.make_sim_policy(&sim, &[&loaded]);
    c.attach_sim(&lock, Rc::new(policy));

    for i in 0..8u32 {
        let l = Rc::clone(&lock);
        sim.spawn_on(ksim::CpuId(i * 10), move |t| async move {
            for _ in 0..15 {
                l.acquire(&t).await;
                t.advance(200 + t.rng_u64() % 100).await;
                l.release(&t).await;
                t.advance(t.rng_u64() % 400).await;
            }
        });
    }
    sim.run();

    telemetry::set_armed(false);
    let lock_id = lock.id();
    let mut events = telemetry::drain();
    assert_eq!(
        telemetry::dropped() - dropped_before,
        0,
        "sim scenario overflowed the rings; shrink it so the trace is lossless"
    );
    events.retain(|e| e.a == lock_id);
    // Ring sequence numbers are process-global and monotonic across
    // drains; normalize so two identical runs analyze identically.
    for e in &mut events {
        e.seq = 0;
    }
    // Retaining one lock's records leaves same-ring seqs non-contiguous;
    // zeroing them above means no false gaps either.
    analyze(&events, AnalyzeConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The conservation law is a theorem of the partition, not a property
    /// of one lucky interleaving: random seeds, always exact on a
    /// lossless virtual-time trace.
    #[test]
    fn ksim_conservation_is_exact_across_seeds(seed in 0u64..1000) {
        let _session = trace_session();
        let r = analyzed_sim_trace(seed);
        prop_assert!(r.events > 0, "sim scenario produced no events");
        prop_assert!(
            r.exact(),
            "lossless sim trace not exact (gaps={} anomalies={} truncated={})",
            r.seq_gaps,
            r.anomalies,
            r.truncated
        );
        prop_assert!(r.conservation_holds(), "law violated:\n{}", r.render());
        let chain_ns: u64 = r.chains.values().sum();
        prop_assert_eq!(chain_ns, r.total_wait_ns());
    }
}

#[test]
fn ksim_fixed_seed_analysis_is_bit_identical() {
    let _session = trace_session();
    let a = analyzed_sim_trace(7);
    let b = analyzed_sim_trace(7);
    let other = analyzed_sim_trace(8);

    assert!(
        a.total_wait_ns() > 0,
        "fixed-seed scenario saw no contention"
    );
    assert_eq!(
        a.render(),
        b.render(),
        "same seed must analyze to a byte-identical report"
    );
    assert_eq!(a.stable_hash(), b.stable_hash());
    assert_ne!(
        a.stable_hash(),
        other.stable_hash(),
        "different seeds should not collide on the full report"
    );
}

#[test]
fn real_lock_blame_respects_conservation() {
    let _session = trace_session();

    let c = Concord::new();
    let lock = Arc::new(ShflLock::new());
    c.registry().register_shfl("traced", Arc::clone(&lock));
    let lock_id = c.registry().get("traced").unwrap().id();

    telemetry::set_armed(true);
    // One holder sleeps inside the critical section while the waiters
    // pile up — guaranteed contention regardless of core count — then
    // everyone hammers for volume.
    let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let holder = {
        let l = Arc::clone(&lock);
        let h = Arc::clone(&held);
        std::thread::spawn(move || {
            locks::topo::pin_thread(0);
            let g = l.lock();
            h.store(true, std::sync::atomic::Ordering::Release);
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(g);
            // Modest volume: 4 threads × 50 contended iterations emit well
            // under the 4-ring (2048-record) capacity in play here, so the
            // 50ms-hold prefix — the blame this test asserts on — cannot
            // be overwritten before the final drain.
            for _ in 0..50 {
                let g = l.lock();
                std::hint::black_box(&g);
                drop(g);
            }
        })
    };
    while !held.load(std::sync::atomic::Ordering::Acquire) {
        std::hint::spin_loop();
    }
    let mut workers = Vec::new();
    for i in 1..4u32 {
        let l = Arc::clone(&lock);
        workers.push(std::thread::spawn(move || {
            locks::topo::pin_thread(i * 10);
            for _ in 0..50 {
                let g = l.lock();
                std::hint::black_box(&g);
                drop(g);
            }
        }));
    }
    holder.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    telemetry::set_armed(false);
    let events = telemetry::drain();

    let mut cfg = AnalyzeConfig::default();
    cfg.lock_names.insert(lock_id, "traced".into());
    let r = analyze(&events, cfg);

    let lr = r
        .locks
        .get(&lock_id)
        .expect("traced lock absent from report");
    assert_eq!(lr.name, "traced");
    assert!(
        lr.completed_waits > 0,
        "holder-sleeps produced no completed waits"
    );
    assert!(lr.wait_ns > 0, "completed waits measured zero time");
    // The law holds on wall-clock traces too — even if the ring dropped
    // records (this run's volume is timing-dependent), because the
    // partition fills unobserved time with the handoff row instead of
    // inventing or losing nanoseconds.
    assert!(r.conservation_holds(), "law violated:\n{}", r.render());
    assert!(
        !r.chains.is_empty(),
        "contended waits produced no blocking chains"
    );

    // The flamegraph is the chains verbatim: its total width must equal
    // the total measured wait.
    let flame = telemetry::export::to_flamegraph(&r);
    let width: u64 = flame
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(width, r.total_wait_ns(), "flamegraph width != total wait");

    // The 50ms holder is the dominant blamed party: the biggest caused
    // cell must dwarf pure-handoff time.
    let top = lr.caused.iter().max_by_key(|(_, ns)| **ns).unwrap();
    assert_ne!(
        *top.0,
        (HANDOFF_TENANT, "(unpatched)".to_string()),
        "blame should land on the sleeping holder, not on handoff:\n{}",
        r.render()
    );
}

/// Named locks of the pinned corpus. Two names share the 16-byte prefix
/// a patch record carries; lock 4 has no name and the herd lock 5 is
/// unnamed too.
const CORPUS_NAMES: [(u64, &str); 3] = [
    (1, "corpus_dcache"),
    (2, "corpus_lru_list_lock_a"),
    (3, "corpus_lru_list_lock_b"),
];

/// Patch labels as the corpus's apply and revert records carry them.
const CORPUS_LABELS: [&str; 5] = [
    "corpus_dcache/cmp_node",
    "corpus_lru_list_lock_a/lock_acquire",
    "corpus_lru_list_",
    "corpus_dcache/lock_release",
    "other/cmp_node",
];

/// The herd lock: its waiters contend and mostly stay queued, so more of
/// them are pending at once than the continuous window's cap admits.
const HERD_LOCK: u64 = 5;

/// A fixed-seed synthetic trace of `n` records. Every record picks its
/// lock afresh (locks 1 to 4, the herd lock, or now and then one of 400
/// stray ids), so consecutive records rarely share a lock. Per lock and
/// tid a transition record advances acquire → (contended →) acquired →
/// release; between them come hook spans on all seven hook bits, shuffle
/// decisions and patch apply/revert records. One record in 500 is lost
/// the way a ring overwrite loses it: its sequence number is taken, the
/// record never appears.
fn corpus(seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut rng = ksim::SplitMix64::new(seed);
    // (lock, tid) -> 0 idle, 1 entered, 2 queued, 3 holding.
    let mut state: std::collections::BTreeMap<(u64, u64), u8> = Default::default();
    let mut next_seq = [0u64; 6];
    let mut ts = 0u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let r = rng.next_u64();
        ts += r % 4;
        let pick = (r >> 8) % 16;
        let (lock, tid) = match pick {
            0 => (10_000 + (r >> 16) % 400, 1 + (r >> 32) % 16),
            1..=3 => (HERD_LOCK, 1_000 + (r >> 16) % 3_000),
            _ => ((pick % 4) + 1, 1 + (r >> 16) % 16),
        };
        let cpu = (tid % 6) as u16;
        let socket = tid % 2;
        let roll = (r >> 48) % 200;
        let mut ev = match roll {
            0 | 1 => {
                let label = CORPUS_LABELS[((r >> 40) % 5) as usize];
                let kind = if roll == 0 {
                    EventKind::PatchApply
                } else {
                    EventKind::PatchRevert
                };
                let mut e = TraceEvent::new(kind, ts, 0, fnv64(label), 1, 1, 0);
                e.set_payload(label.as_bytes());
                e
            }
            2..=31 => {
                let bit = 1u64 << ((r >> 40) % 7);
                let insns = (r >> 24) % 64;
                TraceEvent::new(
                    EventKind::HookSpan,
                    ts,
                    cpu,
                    lock,
                    bit,
                    insns,
                    4_096 - insns,
                )
            }
            32..=39 => {
                let kind = [
                    EventKind::CmpNode,
                    EventKind::SkipShuffle,
                    EventKind::ScheduleWaiter,
                ][((r >> 40) % 3) as usize];
                TraceEvent::new(kind, ts, cpu, lock, tid, socket, (r >> 44) & 1)
            }
            _ => {
                let s = state.entry((lock, tid)).or_insert(0);
                let herd = lock == HERD_LOCK;
                let kind = match *s {
                    0 => {
                        *s = 1;
                        EventKind::LockAcquire
                    }
                    1 if herd || (r >> 40) & 1 == 1 => {
                        *s = 2;
                        EventKind::LockContended
                    }
                    2 if herd && !(r >> 40).is_multiple_of(4) => EventKind::ScheduleWaiter,
                    1 | 2 => {
                        *s = 3;
                        EventKind::LockAcquired
                    }
                    _ => {
                        *s = 0;
                        EventKind::LockRelease
                    }
                };
                TraceEvent::new(kind, ts, cpu, lock, tid, socket, tid)
            }
        };
        let ring = usize::from(ev.cpu);
        ev.seq = next_seq[ring];
        next_seq[ring] += 1;
        if !(r >> 20).is_multiple_of(500) {
            out.push(ev);
        }
    }
    out.sort_by_key(|e| (e.ts_ns, e.cpu, e.seq));
    out
}

/// Analyzes `events` with `cfg`, once whole and once in chunks of random
/// size, and checks the two agree.
fn analyze_whole_and_chunked(events: &[TraceEvent], cfg: &AnalyzeConfig) -> Report {
    let whole = analyze(events, cfg.clone());
    let mut rng = ksim::SplitMix64::new(0xc0ffee);
    let mut chunked = Analyzer::new(cfg.clone());
    let mut rest = events;
    while !rest.is_empty() {
        let take = (1 + rng.next_u64() % 1_000).min(rest.len() as u64) as usize;
        let (chunk, tail) = rest.split_at(take);
        chunked.observe_all(chunk);
        rest = tail;
    }
    assert_eq!(whole.render(), chunked.finish().render());
    whole
}

/// The analyzer's report on a fixed synthetic corpus, pinned: a change to
/// how `observe` stores or looks up per-lock state must not change one
/// byte of what `finish` reports, with the default caps or with the
/// continuous window's tighter ones (which truncate this corpus).
#[test]
fn analyzer_corpus_reports_are_pinned() {
    // Touches no plane, but takes a CPU for a second or two: run alone,
    // so the real-thread test's holder and waiters keep theirs.
    let _session = trace_session();
    let events = corpus(0x5eed, 40_000);
    let mut cfg = AnalyzeConfig::default();
    for (id, name) in CORPUS_NAMES {
        cfg.lock_names.insert(id, name.to_string());
    }
    let windowed = AnalyzeConfig {
        max_locks: 256,
        max_intervals: 4_096,
        max_pending: 1_024,
        ..cfg.clone()
    };

    let full = analyze_whole_and_chunked(&events, &cfg);
    let capped = analyze_whole_and_chunked(&events, &windowed);
    assert_eq!(full.truncated, 0);
    assert!(full.seq_gaps > 0 && full.anomalies > 0);
    assert!(capped.truncated > 0);
    assert!(full.conservation_holds() && capped.conservation_holds());
    // Printed by the analyzer this test was written against.
    assert_eq!(
        full.stable_hash(),
        0x6b4f_d3ce_efc6_f9ed,
        "{}",
        full.render()
    );
    assert_eq!(
        capped.stable_hash(),
        0x6ec9_672b_a935_3256,
        "{}",
        capped.render()
    );
}
