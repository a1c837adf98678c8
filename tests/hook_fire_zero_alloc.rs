//! A hook fire allocates nothing.
//!
//! Every one of the seven Table 1 hooks, carrying bytecode attached the way
//! an operator attaches it (`Concord::load` + `attach`), is fired through
//! the lock's own hook table under a counting global allocator: patch-point
//! read, context marshal, policy run and helper calls must stay off the
//! heap. The counters are per thread, so only the firing thread's traffic
//! is held against the zero.
//!
//! The same holds with the trace plane armed — a profiled lock operation
//! emits its six records without allocating — and the analyzer that reads
//! them back allocates only when one of its vectors doubles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cbpf::insn::{JmpOp, MemSize, Reg};
use cbpf::program::ProgramBuilder;
use concord::{hookctx, policies, Concord, PolicySpec};
use locks::hooks::{
    CmpNodeCtx, HookKind, LockEventCtx, NodeView, ScheduleWaiterCtx, SkipShuffleCtx,
};
use locks::{RawLock, ShflLock};
use telemetry::{AnalyzeConfig, Analyzer, TraceEvent};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // The allocator outlives every thread-local; a late call is not counted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers to `System` for every operation; the counters are plain
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        bump(&FREES);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LOCK: &str = "zero_alloc";
/// The first fire compiles the policy's steps (the one allocation of its
/// life); the rest warm the caches.
const WARMUP: u64 = 1_000;
const FIRES: u64 = 10_000;

const EVENTS: [HookKind; 4] = [
    HookKind::LockAcquire,
    HookKind::LockContended,
    HookKind::LockAcquired,
    HookKind::LockRelease,
];

/// Uncontended operations between two drains: three transitions and three
/// hook spans each, which stays below the 512-slot ring.
const BATCH: u64 = 80;
const RECORDS_PER_OP: u64 = 6;

/// The armed flag is process-wide: one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn heap_traffic() -> (u64, u64) {
    (ALLOCS.get(), FREES.get())
}

/// A registered lock counting into one map from all four event hooks.
fn profiled(concord: &Concord, name: &str) -> (Arc<ShflLock>, Arc<cbpf::Map>) {
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl(name, Arc::clone(&lock));
    let counters = policies::counter_map("fires");
    for kind in EVENTS {
        let loaded = concord
            .load(policies::event_counter(kind, Arc::clone(&counters)))
            .expect("policy verifies");
        concord.attach(name, &loaded).expect("lock is hookable");
    }
    (lock, counters)
}

/// One armed batch on `lock`: the lock side's `(allocations, frees)` and
/// the records it left in the rings.
fn armed_batch(lock: &ShflLock) -> ((u64, u64), Vec<TraceEvent>) {
    let before = heap_traffic();
    for _ in 0..BATCH {
        drop(black_box(lock.lock()));
    }
    let after = heap_traffic();
    let events = telemetry::drain();
    assert_eq!(events.len() as u64, BATCH * RECORDS_PER_OP, "lossy batch");
    ((after.0 - before.0, after.1 - before.1), events)
}

fn view(cpu: u32) -> NodeView {
    NodeView {
        tid: u64::from(cpu) + 100,
        cpu,
        socket: cpu / 10,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    }
}

/// skip_shuffle: skip (plain FIFO) unless the shuffler sits on socket 0.
fn skip_off_socket_zero() -> PolicySpec {
    let socket = hookctx::skip_shuffle_layout()
        .field("shuffler_socket")
        .expect("declared")
        .offset as i16;
    let mut p = ProgramBuilder::new("skip_off_socket_zero");
    p.load(MemSize::W, Reg::R2, Reg::R1, socket);
    p.mov_imm(Reg::R0, 1);
    p.jmp_imm(JmpOp::Ne, Reg::R2, 0, "out");
    p.mov_imm(Reg::R0, 0);
    p.label("out");
    p.exit();
    PolicySpec::from_program(
        "skip_off_socket_zero",
        HookKind::SkipShuffle,
        p.build().expect("labels resolve"),
    )
}

/// Fires all seven hooks `n` times; returns how many decisions said yes.
fn fire_all(lock: &ShflLock, n: u64) -> u64 {
    let hooks = lock.hooks();
    let id = lock.id();
    let mut yes = 0;
    for i in 0..n {
        let cpu = (i % 80) as u32;
        yes += u64::from(hooks.eval_cmp_node(&CmpNodeCtx {
            lock_id: id,
            shuffler: view(12),
            curr: view(cpu),
        }));
        yes += u64::from(hooks.eval_skip_shuffle(&SkipShuffleCtx {
            lock_id: id,
            shuffler: view(cpu),
        }));
        yes += u64::from(hooks.eval_schedule_waiter(&ScheduleWaiterCtx {
            lock_id: id,
            curr: view(cpu),
            waited_ns: i * 10,
        }));
        for kind in EVENTS {
            hooks.fire_event(
                kind,
                &LockEventCtx {
                    lock_id: id,
                    tid: 1,
                    cpu: 0,
                    socket: 0,
                    now_ns: i,
                    owner_tid: 0,
                },
            );
        }
    }
    yes
}

#[test]
fn seven_hooks_fire_without_touching_the_heap() {
    let _serial = serial();
    let concord = Concord::new();
    let (lock, counters) = profiled(&concord, LOCK);
    for spec in [
        policies::numa_aware(),
        skip_off_socket_zero(),
        policies::adaptive_parking(50_000),
    ] {
        let loaded = concord.load(spec).expect("policy verifies");
        concord.attach(LOCK, &loaded).expect("lock is hookable");
    }
    for kind in HookKind::ALL {
        assert!(lock.hooks().is_active(kind), "{kind:?} carries a policy");
    }

    fire_all(&lock, WARMUP);
    let before = heap_traffic();
    let yes = fire_all(&lock, FIRES);
    let after = heap_traffic();

    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, frees) over {FIRES} fires of each hook"
    );
    // The policies ran and decided: 1/8 of the cpus share socket 1 with the
    // shuffler, 7/8 sit off socket 0, and a waiter may park from 50 µs on.
    assert_eq!(yes, FIRES / 8 + FIRES * 7 / 8 + FIRES / 2);
    assert_eq!(
        counters.percpu_sum(&0u32.to_le_bytes()),
        4 * (WARMUP + FIRES)
    );
}

#[test]
fn an_armed_profiled_op_emits_without_touching_the_heap() {
    let _serial = serial();
    let concord = Concord::new();
    let (lock, counters) = profiled(&concord, "zero_alloc_armed");
    telemetry::drain();
    telemetry::set_armed(true);
    // Past the first run's one-time compile and the plane's first touch.
    for _ in 0..WARMUP / BATCH + 1 {
        armed_batch(&lock);
    }
    let mut traffic = (0, 0);
    let batches = FIRES / BATCH;
    for _ in 0..batches {
        let (lock_side, _) = armed_batch(&lock);
        traffic = (traffic.0 + lock_side.0, traffic.1 + lock_side.1);
    }
    telemetry::set_armed(false);

    assert_eq!(
        traffic,
        (0, 0),
        "(allocations, frees) on the lock side of {batches} armed batches"
    );
    // lock_contended stays silent on an uncontended lock.
    assert_eq!(
        counters.percpu_sum(&0u32.to_le_bytes()),
        3 * BATCH * (WARMUP / BATCH + 1 + batches)
    );
}

#[test]
fn the_analyzer_allocates_only_when_a_vector_doubles() {
    const RECORDS: usize = 10_000;
    let _serial = serial();
    let concord = Concord::new();
    let name = "zero_alloc_analyzed";
    let (lock, _) = profiled(&concord, name);
    telemetry::drain();
    telemetry::set_armed(true);
    let mut records = Vec::new();
    while records.len() < RECORDS {
        records.extend(armed_batch(&lock).1);
    }
    telemetry::set_armed(false);
    records.truncate(RECORDS);

    // The lock is named, so its policy label goes through the patch match.
    let mut cfg = AnalyzeConfig::default();
    cfg.lock_names.insert(lock.id(), name.to_string());
    let mut analyzer = Analyzer::new(cfg);
    let before = ALLOCS.get();
    analyzer.observe_all(&records);
    let allocations = ALLOCS.get() - before;

    // One hold segment per operation lands in a vector that doubles; past
    // that, a fixed handful of first touches (the lock's slot, its id-map
    // entry, its pending-hold table) and the label.
    let bound = u64::from(RECORDS.ilog2()) + 12;
    assert!(
        allocations <= bound,
        "{allocations} allocations over {RECORDS} records (bound {bound})"
    );
    let report = analyzer.finish();
    assert!(report.exact() && report.conservation_holds());
    assert_eq!(report.events, RECORDS as u64);
}
