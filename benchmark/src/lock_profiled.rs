//! `lock_profiled`: uncontended lock/unlock on a ShflLock that carries a
//! counting policy on all four event hooks, with the trace plane armed and
//! drained into the contention analyzer on the same thread.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cbpf::{Map, Program};
use concord::env::RealEnv;
use concord::{hookctx, policies, BytecodePolicy, Concord};
use locks::hooks::{HookKind, LockEventCtx};
use locks::{RawLock, ShflLock};
use telemetry::{AnalyzeConfig, Analyzer};

use crate::hook_fire::tier_probe;
use crate::stats::{median, time_ns};
use crate::trace::Tracer;
use crate::workload::{Metrics, Phase, Workload, ROOT};

/// Ops per batch. One uncontended op emits three transitions and three
/// hook spans, so a batch is 480 records — below the 512-slot ring, which
/// makes the trace lossless by construction.
const BATCH: u64 = 80;
const EVENTS_PER_OP: u64 = 6;
/// Event hooks that fire on an uncontended acquisition.
const COUNTED_PER_OP: u64 = 3;
/// Batches per cycle, which is one timing sample (about 23 ms): a
/// ten-second run gives 400 samples and each averages over the short
/// stalls a shared host inflicts.
const SAMPLE_BATCHES: u64 = 256;
/// Batches one analyzer instance observes before it is finished and
/// checked; keeps its per-lock interval store below its own cap.
const WINDOW: u64 = 512;
const WARMUP_BATCHES: u64 = 2_048;
const LOCK: &str = "lock_profiled";
const EVENT_HOOKS: [HookKind; 4] = [
    HookKind::LockAcquire,
    HookKind::LockContended,
    HookKind::LockAcquired,
    HookKind::LockRelease,
];
const COUNTER_KEY: [u8; 4] = 0u32.to_le_bytes();

/// A registered lock with the counting policy attached to every event
/// hook, all four sharing one per-CPU counter.
struct Profiled {
    _concord: Concord,
    lock: Arc<ShflLock>,
    counter: Arc<Map>,
}

impl Profiled {
    fn new() -> Profiled {
        let concord = Concord::new();
        let lock = Arc::new(ShflLock::new());
        concord.registry().register_shfl(LOCK, Arc::clone(&lock));
        let counter = policies::counter_map("events");
        for hook in EVENT_HOOKS {
            let loaded = concord
                .load(policies::event_counter(hook, Arc::clone(&counter)))
                .expect("prebuilt policy verifies");
            concord
                .attach(LOCK, &loaded)
                .expect("lock is registered and hookable");
        }
        Profiled {
            _concord: concord,
            lock,
            counter,
        }
    }
}

pub struct LockProfiled {
    fixture: Profiled,
    analyzer: Analyzer,
    /// Batches the current analyzer has observed.
    window_batches: u64,
    /// Every op since set-up, warm-up included: what the counter must show.
    total_ops: u64,
    dropped_at_setup: u64,
    batches: u64,
}

fn analyzer(lock_id: u64) -> Analyzer {
    let mut cfg = AnalyzeConfig::default();
    cfg.lock_names.insert(lock_id, LOCK.to_string());
    Analyzer::new(cfg)
}

impl LockProfiled {
    /// One batch; returns its wall time and the records it drained.
    fn batch(&mut self, tr: &mut Tracer) -> (u64, u64) {
        let t = Instant::now();
        let lock = &self.fixture.lock;
        tr.span("locks.lock_batch", self.batches, || {
            for _ in 0..BATCH {
                drop(black_box(lock.lock()));
            }
        });
        let events = tr.span("telemetry.drain", self.batches, telemetry::drain);
        let analyzer = &mut self.analyzer;
        tr.span("telemetry.analyze", self.batches, || {
            analyzer.observe_all(&events)
        });
        self.total_ops += BATCH;
        self.window_batches += 1;
        (t.elapsed().as_nanos() as u64, events.len() as u64)
    }

    /// Finishes the current analyzer; returns the ops it cannot vouch for.
    fn close_window(&mut self) -> u64 {
        let fresh = analyzer(self.fixture.lock.id());
        let report = std::mem::replace(&mut self.analyzer, fresh).finish();
        let ops = std::mem::take(&mut self.window_batches) * BATCH;
        if report.exact() && report.conservation_holds() && report.events == ops * EVENTS_PER_OP {
            0
        } else {
            ops
        }
    }
}

impl Workload for LockProfiled {
    const NAME: &'static str = "lock_profiled";
    const MIN_CYCLES: u64 = 1;
    const MINI_CYCLES: u64 = 12;

    fn setup(_seed: u64) -> Self {
        telemetry::set_armed(false);
        telemetry::drain();
        let fixture = Profiled::new();
        let mut w = LockProfiled {
            analyzer: analyzer(fixture.lock.id()),
            fixture,
            window_batches: 0,
            total_ops: 0,
            dropped_at_setup: telemetry::dropped(),
            batches: 0,
        };
        telemetry::set_armed(true);
        let mut off = Tracer::off();
        for _ in 0..WARMUP_BATCHES {
            let (_, events) = w.batch(&mut off);
            assert_eq!(
                events,
                BATCH * EVENTS_PER_OP,
                "trace lost records during warm-up"
            );
            if w.window_batches == WINDOW {
                assert_eq!(w.close_window(), 0, "analyzer inexact during warm-up");
            }
        }
        w
    }

    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let mut ns = 0;
        for _ in 0..SAMPLE_BATCHES {
            tr.begin(ROOT, self.batches);
            let (batch_ns, events) = self.batch(tr);
            tr.end();
            ns += batch_ns;
            self.batches += 1;
            phase.ops += BATCH;
            phase.count("telemetry.events", events);
            if events != BATCH * EVENTS_PER_OP {
                phase.failed += BATCH;
            }
            if self.window_batches == WINDOW {
                phase.failed += self.close_window();
            }
        }
        phase
            .samples
            .push(ns as f64 / (SAMPLE_BATCHES * BATCH) as f64);
    }

    fn finish(&mut self, phase: &mut Phase) {
        phase.failed += self.close_window();
        let counted = self.fixture.counter.percpu_sum(&COUNTER_KEY);
        let lossless = telemetry::dropped() == self.dropped_at_setup;
        if counted != COUNTED_PER_OP * self.total_ops || !lossless {
            // Neither check can name the ops it lost.
            phase.failed = phase.ops;
        }
    }

    fn layers(&mut self, tr: &Tracer, traced: &Phase, m: &mut Metrics) {
        let batches = traced.ops / BATCH;
        let events = traced.counted("telemetry.events");
        let agg = tr.aggregate();
        let total_ns = |span: &str| agg[span].total_ns as f64;
        m.set(
            "locks.armed_op_ns",
            total_ns("locks.lock_batch") / traced.ops as f64,
        );
        m.set(
            "telemetry.drain_ns_per_event",
            total_ns("telemetry.drain") / events,
        );
        m.set(
            "telemetry.analyze_ns_per_event",
            total_ns("telemetry.analyze") / events,
        );
        m.set("telemetry.events", events / batches as f64);
        let dropped = telemetry::dropped() - self.dropped_at_setup;
        m.set("telemetry.drop_share", dropped as f64 / events);

        // telemetry: one armed emit, drained between batches so none of
        // them overwrites.
        let per_emit: Vec<f64> = (0..40)
            .map(|_| {
                let t = Instant::now();
                for i in 0..256u64 {
                    telemetry::emit(telemetry::EventKind::CmpNode, black_box(i), 0, 2, 3, 4, 5);
                }
                let dt = t.elapsed().as_nanos() as f64 / 256.0;
                telemetry::drain();
                dt
            })
            .collect();
        m.set("telemetry.emit_ns", median(&per_emit));

        // locks: the same op with nothing attached, then with the four
        // hooks attached, both with the trace plane off.
        telemetry::set_armed(false);
        let bare = ShflLock::new();
        let bare_ns = time_ns(20_000, || drop(black_box(bare.lock())));
        let attached = Profiled::new();
        let attached_ns = time_ns(5_000, || drop(black_box(attached.lock.lock())));
        m.set("locks.bare_op_ns", bare_ns);
        m.set("locks.attached_op_ns", attached_ns);
        m.set("locks.attach_overhead_x", attached_ns / bare_ns);

        // concord: event marshalling alone, then the event closure.
        let ctx = LockEventCtx {
            lock_id: self.fixture.lock.id(),
            tid: 1,
            cpu: 0,
            socket: 0,
            now_ns: 1,
            owner_tid: 1,
        };
        m.set(
            "concord.marshal_event_ns",
            time_ns(20_000, || {
                black_box(hookctx::marshal_event(black_box(&ctx)));
            }),
        );
        let counter = policies::counter_map("probe");
        let loaded = Concord::new()
            .load(policies::event_counter(
                HookKind::LockAcquired,
                Arc::clone(&counter),
            ))
            .expect("prebuilt policy verifies");
        let policy = BytecodePolicy::new(
            loaded.prog.clone(),
            HookKind::LockAcquired,
            Arc::new(RealEnv::new()),
        );
        let closure = policy.as_event().expect("policy is bound to an event hook");
        m.set(
            "concord.closure_event_ns",
            time_ns(10_000, || closure(black_box(&ctx))),
        );
        assert_eq!(policy.stats().1, 0, "verified policy faulted at run time");

        // cbpf: the counting program on every tier, and the map calls
        // its helper makes.
        let prog: Program = loaded.prog.program().as_ref().clone();
        let mut bufs = vec![hookctx::marshal_event(&ctx)];
        tier_probe(m, "counter", &prog, hookctx::event_layout(), &mut bufs);
        m.set(
            "cbpf.map_lookup_ns",
            time_ns(20_000, || {
                black_box(counter.lookup_slot(black_box(&COUNTER_KEY), 0));
            }),
        );
        let value = 7u64.to_le_bytes();
        m.set(
            "cbpf.map_update_ns",
            time_ns(20_000, || {
                counter
                    .update(black_box(&COUNTER_KEY), &value, 0)
                    .expect("slot exists");
            }),
        );
    }
}

impl Drop for LockProfiled {
    fn drop(&mut self) {
        telemetry::set_armed(false);
        telemetry::drain();
    }
}
