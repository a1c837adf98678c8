//! Fast data-plane regression gate, run by `scripts/ci.sh`.
//!
//! Three wall-clock tripwires, each a ratio of two engines timed in
//! alternating rounds of one loop ([`alternating`]), so a busy stretch of
//! the host lands on both sides of it:
//!
//! * `map_mix` (map lookup + null check + read-modify-write — the
//!   helper-bound case): the prepared interpreter must stay ≥
//!   [`PREPARED_FLOOR`]× over the legacy interpreter. The prepared form
//!   rewrites nothing, so this guards the lowering both tiers share:
//!   pre-decoded operands, resolved helpers and jump targets, the O(1)
//!   context permission table.
//! * the compiled ([`cbpf::jit`]) tier must stay ≥ [`JIT_FLOOR`]× over
//!   the prepared interpreter on both `alu_chain` (dispatch-bound) and
//!   `map_mix` (helper-bound).
//! * `numa_policy` (the paper's six-instruction `cmp_node` policy — two
//!   context reads, a compare, a verdict; the program `PreparedProgram::run`
//!   executes on every hook fire): the compiled tier must not be slower
//!   than the prepared interpreter, compiled ÷ interpreter ≤
//!   [`NUMA_CEILING`]. Beside it, with no floor, the cost of entering and
//!   leaving the compiled tier with next to nothing to run: an exit-only
//!   program, which gets no frame, and a three-instruction one that
//!   spills a context field to its frame, which gets a zeroed 512 bytes.
//!
//! Tiers are pinned with [`cbpf::ExecTier`]. The full statistics live in
//! the criterion benches; this is a coarse gate so the wins can't
//! silently regress.
//!
//! Skip with `C3_BENCH_GATE=0` (e.g. on loaded shared builders where
//! wall-clock ratios are noise).
//!
//! One more tripwire, run first, is on the DES and is a count, so it runs
//! even then:
//! on the lock2/ShflNuma point at 80 threads, seed 42, at least
//! [`IN_PLACE_FLOOR`] of all events must be delivered in place (`ksim`'s
//! `SimStats::in_place`). The rows it prints beside that — ns per event
//! and events per second on a timer-only run, that point and a
//! page_fault2 point — are the ones committed in `BENCH_ksim.json`.

use std::sync::Arc;
use std::time::Instant;

use c3_bench::workloads::{lock2_point, page_fault2_point, RwSeries, SpinSeries};
use cbpf::ctx::CtxLayout;
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, JmpOp, MemSize, Reg};
use cbpf::interp::{run_with_budget, DEFAULT_BUDGET};
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::{Program, ProgramBuilder};
use cbpf::{ExecTier, PreparedProgram};
use concord::hookctx;
use ksim::{SimBuilder, SimStats};
use locks::hooks::{CmpNodeCtx, NodeView};

/// Minimum prepared-vs-legacy speedup on `map_mix`. The measured ratio
/// is ~1.5-2x; 1.3x leaves headroom for builder noise while still
/// catching a real regression (the pre-fast-path ratio was 1.04x).
const PREPARED_FLOOR: f64 = 1.3;
/// Minimum compiled-tier speedup over the prepared interpreter, per the
/// JIT tier's acceptance bar.
const JIT_FLOOR: f64 = 2.0;
/// Maximum compiled ÷ interpreter time on `numa_policy`. Measured
/// 0.67–0.83 since context reads became micro-ops of the compiled tier
/// (1.03–1.08 before, which is why a hot-count threshold used to pick
/// the tier); at 1.0 the reason `run` takes the compiled tier
/// unconditionally is gone.
const NUMA_CEILING: f64 = 1.0;
const ROUNDS: usize = 9;
const ITERS: u32 = 40_000;
/// Minimum share of the lock2/ShflNuma/80 events delivered in place. The
/// count is 110 944 of 202 201 (0.549) and repeats exactly; it falls only
/// if timers stop completing in place.
const IN_PLACE_FLOOR: f64 = 0.40;
/// Virtual window of a DES row, as the figures use.
const DES_WINDOW_NS: u64 = 3_000_000;
const DES_ROUNDS: usize = 5;

fn map_mix_program() -> Program {
    let map = Arc::new(Map::new(MapDef {
        name: "counters".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 8,
    }));
    map.update(&1u32.to_le_bytes(), &0u64.to_le_bytes(), 0)
        .unwrap();
    let mut b = ProgramBuilder::new("map_mix");
    let mid = b.register_map(map);
    b.ldmap(Reg::R1, mid);
    b.store_imm(MemSize::W, Reg::R10, -4, 1);
    b.mov(Reg::R2, Reg::R10);
    b.alu_imm(AluOp::Add, Reg::R2, -4);
    b.call(HelperId::MapLookup);
    b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "miss");
    b.load(MemSize::Dw, Reg::R1, Reg::R0, 0);
    b.alu_imm(AluOp::Add, Reg::R1, 1);
    b.store(MemSize::Dw, Reg::R0, 0, Reg::R1);
    b.mov_imm(Reg::R0, 1);
    b.exit();
    b.label("miss");
    b.mov_imm(Reg::R0, 0);
    b.exit();
    b.build().unwrap()
}

fn alu_chain_program() -> Program {
    let mut b = ProgramBuilder::new("alu_chain");
    b.mov_imm(Reg::R0, 1);
    b.ld_imm64(Reg::R1, 0x9e37_79b9_7f4a_7c15);
    for i in 0..20 {
        b.alu(AluOp::Add, Reg::R0, Reg::R1);
        b.alu_imm(AluOp::Xor, Reg::R0, 0x5f5f + i);
        b.alu_imm(AluOp::Lsh, Reg::R0, 7);
        b.alu32_imm(AluOp::Mul, Reg::R0, 31);
    }
    b.store(MemSize::Dw, Reg::R10, -8, Reg::R0);
    b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
    b.exit();
    b.build().unwrap()
}

fn exit_only_program() -> Program {
    let mut b = ProgramBuilder::new("exit_only");
    b.mov_imm(Reg::R0, 0);
    b.exit();
    b.build().unwrap()
}

fn framed_program() -> Program {
    let mut b = ProgramBuilder::new("exit_framed");
    b.load(MemSize::Dw, Reg::R2, Reg::R1, 0);
    b.store(MemSize::Dw, Reg::R10, -8, Reg::R2);
    b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
    b.exit();
    b.build().unwrap()
}

/// The paper's NUMA policy as `Concord::load` verifies it, its layout,
/// and 64 marshalled contexts that take both of its paths.
fn numa_policy() -> (Program, &'static CtxLayout, Vec<Vec<u8>>) {
    let loaded = concord::Concord::new()
        .load(concord::policies::numa_aware())
        .expect("prebuilt policy verifies");
    let view = |cpu: u32| NodeView {
        tid: u64::from(cpu) + 1,
        cpu,
        socket: cpu / 10,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    let ctxs = (0..64u32)
        .map(|i| {
            hookctx::marshal_cmp_node(&CmpNodeCtx {
                lock_id: 1,
                shuffler: view(i % 20),
                curr: view((i * 7) % 20),
            })
        })
        .collect();
    (
        loaded.prog.program().as_ref().clone(),
        hookctx::cmp_node_layout(),
        ctxs,
    )
}

/// Times `a` and `b` in alternating rounds of [`ITERS`] calls each and
/// returns (a ns/call, b ns/call, a ÷ b): the times are the quietest
/// round of each — preemption noise is strictly additive, so the minimum
/// is the stable estimate of the undisturbed cost — and the ratio is the
/// median of the per-round ratios; each round's two halves run back to
/// back, so what the host does to one it does to the other.
///
/// Each round also runs a few hundred bytes deeper in the stack than the
/// one before. Where a run's frame lands relative to the heap data it
/// touches moves the compiled `map_mix` row between ≈ 24 and ≈ 36 ns
/// (reproducible with ASLR off by padding the environment); it is fixed
/// for a process, so a gate that timed one depth would pass or fail on
/// where the loader put the stack.
fn alternating(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    fn round(f: &mut impl FnMut(), depth: usize) -> f64 {
        let mut ns = 0.0;
        below(depth, &mut || {
            let start = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
        });
        ns
    }
    /// Calls `f` under `depth` extra frames of at least 64 bytes each.
    #[inline(never)]
    fn below(depth: usize, f: &mut dyn FnMut()) {
        if depth == 0 {
            f();
        } else {
            let pad = std::hint::black_box([0u8; 64]);
            below(depth - 1, f);
            std::hint::black_box(pad);
        }
    }
    round(&mut a, 0);
    round(&mut b, 0);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let depth = 7 * r;
        let (ta, tb) = (round(&mut a, depth), round(&mut b, depth));
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(ta / tb);
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[ROUNDS / 2])
}

/// One pinned-tier run of `prepared` per call, cycling through `ctxs`.
/// A wrapping index, not `i % len`: a division per run would be a
/// quarter of the compiled `numa_policy` row.
fn cycling<'a>(
    prepared: &'a PreparedProgram,
    tier: ExecTier,
    mut ctxs: Vec<Vec<u8>>,
    env: &'a FixedEnv,
) -> impl FnMut() + 'a {
    let mut k = 0;
    move || {
        let r = prepared.run_tier(tier, &mut ctxs[k], env, DEFAULT_BUDGET);
        std::hint::black_box(r).expect("verified program runs");
        k = if k + 1 == ctxs.len() { 0 } else { k + 1 };
    }
}

/// 80 tasks that do nothing but sleep for seeded spans: every event is a
/// timer, and with 80 of them due within one span of each other almost
/// none is the next event — the cost of the heap route alone.
fn timer_only(seed: u64) -> SimStats {
    let sim = SimBuilder::new().seed(seed).build();
    for cpu in sim.topology().compact_placement(80) {
        sim.spawn_on(cpu, |t| async move {
            while t.now() < DES_WINDOW_NS {
                t.advance(50 + t.rng_u64() % 400).await;
            }
        });
    }
    sim.run()
}

/// Prints one DES row (quietest of [`DES_ROUNDS`] runs) and returns the
/// share of its events that were delivered in place.
fn des_row(name: &str, run: impl Fn() -> SimStats) -> f64 {
    let mut best = f64::INFINITY;
    let mut stats = run();
    for _ in 0..DES_ROUNDS {
        let start = Instant::now();
        stats = run();
        best = best.min(start.elapsed().as_nanos() as f64 / stats.events as f64);
    }
    let share = stats.in_place as f64 / stats.events as f64;
    println!(
        "bench_gate: des {name}: {} events, {} in place ({share:.3}), \
         {best:.1} ns/event, {:.2} M events/s",
        stats.events,
        stats.in_place,
        1e3 / best
    );
    share
}

fn main() {
    // Gate 3 (a count; not skipped): timers that are provably next
    // complete in place.
    des_row("timer_only x80", || timer_only(42));
    let share = des_row("lock2 shfl_numa x80", || {
        lock2_point(80, SpinSeries::ShflNuma, DES_WINDOW_NS, 42).1
    });
    des_row("page_fault2 bravo x40", || {
        page_fault2_point(40, RwSeries::Bravo, DES_WINDOW_NS, 42).1
    });
    if share < IN_PLACE_FLOOR {
        eprintln!(
            "bench_gate: FAIL — lock2 shfl_numa x80 in-place share {share:.3} is below the \
             {IN_PLACE_FLOOR} floor"
        );
        std::process::exit(1);
    }

    if std::env::var("C3_BENCH_GATE").as_deref() == Ok("0") {
        println!("bench_gate: wall-clock gates skipped (C3_BENCH_GATE=0)");
        return;
    }

    let layout = CtxLayout::empty();
    let env = FixedEnv::new().cpu(12).numa(1);
    let mut failed = false;

    // Gate 1: prepared interpreter vs legacy on map_mix.
    let prog = map_mix_program();
    let prepared = prog.prepare(&layout);
    let (legacy, fast, ratio) = alternating(
        || {
            run_with_budget(&prog, &mut [], &layout, &env, DEFAULT_BUDGET).unwrap();
        },
        || {
            prepared
                .run_tier(ExecTier::Interp, &mut [], &env, DEFAULT_BUDGET)
                .unwrap();
        },
    );
    println!(
        "bench_gate: map_mix legacy {legacy:.1} ns/run, prepared {fast:.1} ns/run, \
         speedup {ratio:.2}x (floor {PREPARED_FLOOR}x)"
    );
    if ratio < PREPARED_FLOOR {
        eprintln!(
            "bench_gate: FAIL — prepared map_mix speedup {ratio:.2}x is below the \
             {PREPARED_FLOOR}x floor"
        );
        failed = true;
    }

    // Gate 2: compiled tier vs prepared interpreter, both workloads.
    for (name, prog) in [
        ("alu_chain", alu_chain_program()),
        ("map_mix", map_mix_program()),
    ] {
        let prepared = prog.prepare(&layout);
        let tier = |tier| {
            let prepared = &prepared;
            let env = &env;
            move || {
                prepared
                    .run_tier(tier, &mut [], env, DEFAULT_BUDGET)
                    .unwrap();
            }
        };
        let (interp, jit, ratio) = alternating(tier(ExecTier::Interp), tier(ExecTier::Jit));
        println!(
            "bench_gate: {name} prepared {interp:.1} ns/run, jit {jit:.1} ns/run, \
             speedup {ratio:.2}x (floor {JIT_FLOOR}x)"
        );
        if ratio < JIT_FLOOR {
            eprintln!(
                "bench_gate: FAIL — jit {name} speedup {ratio:.2}x is below the {JIT_FLOOR}x floor"
            );
            failed = true;
        }
    }

    // Gate 4: the program every hook fire runs must be faster compiled
    // than interpreted. For an odd round count the median of the
    // reciprocal ratios is the reciprocal of the median.
    let (prog, numa_layout, ctxs) = numa_policy();
    let prepared = prog.prepare(numa_layout);
    let (interp, jit, speedup) = alternating(
        cycling(&prepared, ExecTier::Interp, ctxs.clone(), &env),
        cycling(&prepared, ExecTier::Jit, ctxs.clone(), &env),
    );
    let ratio = 1.0 / speedup;
    // Entering and leaving the compiled tier with next to nothing to run,
    // without a frame and with one: the second program spills a context
    // field to its frame and reads it back, which the compiler keeps (a
    // frame store nothing reads would be dropped, frame and all).
    let exit_only = exit_only_program().prepare(numa_layout);
    let framed = framed_program().prepare(numa_layout);
    let (entry, framed_entry, _) = alternating(
        cycling(&exit_only, ExecTier::Jit, ctxs.clone(), &env),
        cycling(&framed, ExecTier::Jit, ctxs, &env),
    );
    println!(
        "bench_gate: numa_policy prepared {interp:.1} ns/run, jit {jit:.1} ns/run, \
         jit/prepared {ratio:.2} (ceiling {NUMA_CEILING}); exit-only entry {entry:.1} ns/run, \
         with a frame {framed_entry:.1} ns/run"
    );
    if ratio > NUMA_CEILING {
        eprintln!(
            "bench_gate: FAIL — numa_policy compiled/interpreter {ratio:.2} is above the \
             {NUMA_CEILING} ceiling"
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench_gate: OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled form of every program a wall-clock gate times: each
    /// step's kind, prefix length and charge, as `JitProgram`'s `Debug`
    /// prints them. A change to the compiled tier that moves one of these
    /// moves the floor it is held to. `map_mix` keeps its constant-key
    /// lookup cache; `alu_chain` folds to one constant; only the framed
    /// entry program keeps its frame.
    #[test]
    fn gate_programs_compile_as_pinned() {
        let empty = CtxLayout::empty();
        let numa = hookctx::cmp_node_layout();
        for (name, prog, layout, want) in [
            (
                "map_mix",
                map_mix_program(),
                &empty,
                "JitProgram { steps: [MapLookupBr+cache pre=1 w=5, MapValRmw8 pre=0 w=3, \
                 Exit pre=1 w=2, Exit pre=1 w=2, Halt pre=0 w=1], lookup_caches: 1, frame: true }",
            ),
            (
                "alu_chain",
                alu_chain_program(),
                &empty,
                "JitProgram { steps: [Exit pre=1 w=85, Halt pre=0 w=1], lookup_caches: 0, \
                 frame: false }",
            ),
            (
                "exit_only",
                exit_only_program(),
                numa,
                "JitProgram { steps: [Exit pre=1 w=2, Halt pre=0 w=1], lookup_caches: 0, \
                 frame: false }",
            ),
            (
                "exit_framed",
                framed_program(),
                numa,
                "JitProgram { steps: [Exit pre=3 w=4, Halt pre=0 w=1], lookup_caches: 0, \
                 frame: true }",
            ),
        ] {
            let jit = prog.prepare(layout).compile_jit();
            assert_eq!(format!("{jit:?}"), want, "{name}");
        }
    }
}
