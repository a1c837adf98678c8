//! Prepared-vs-legacy interpreter microbenches — the measurement behind
//! `BENCH_interp.json`.
//!
//! Three verified programs of increasing memory traffic run on both
//! engines: the Fig. 2 NUMA policy (context loads), a pure ALU chain
//! (dispatch-bound), and a map lookup/update mix (helper-bound). Each
//! program's executed-instruction count is printed so ns/insn can be
//! computed from the reported medians. `prepare` itself is measured too:
//! it is a one-time cost paid at load, not per invocation.

use std::sync::Arc;

use cbpf::ctx::CtxLayout;
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, JmpOp, MemSize, Reg};
use cbpf::interp::{run_with_budget, DEFAULT_BUDGET};
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::{Program, ProgramBuilder};
use cbpf::ExecTier;
use concord::hookctx;
use criterion::{criterion_group, criterion_main, Criterion};
use locks::hooks::{CmpNodeCtx, NodeView};

fn numa_program() -> Program {
    let c = concord::Concord::new();
    let loaded = c.load(concord::policies::numa_aware()).unwrap();
    loaded.prog.program().as_ref().clone()
}

/// A loop-free chain of 64 ALU/immediate instructions plus stack traffic:
/// the dispatch-overhead-dominated case.
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

/// Map lookup + null check + read-modify-write + update: the helper-bound
/// case.
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

fn bench_pair(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    prog: &Program,
    layout: &CtxLayout,
    make_ctx: &dyn Fn() -> Vec<u8>,
) {
    let env = FixedEnv::new().cpu(12).numa(1);
    // One context buffer reused across iterations: re-running on the
    // previous run's output is idempotent for these programs, and keeping
    // marshalling out of the loop isolates interpretation cost (the
    // marshal-included path is measured in vm_micro).
    let mut ctx = make_ctx();
    let insns = run_with_budget(prog, &mut ctx, layout, &env, DEFAULT_BUDGET)
        .unwrap()
        .insns;
    println!("{name}: {insns} insns/run");

    g.bench_function(&format!("{name}/legacy"), |b| {
        b.iter(|| run_with_budget(prog, &mut ctx, layout, &env, DEFAULT_BUDGET).unwrap())
    });
    // Tiers are pinned with run_tier from here on: an unpinned `run`
    // is the compiled tier on every row.
    let prepared = prog.prepare(layout);
    g.bench_function(&format!("{name}/prepared"), |b| {
        b.iter(|| {
            prepared
                .run_tier(ExecTier::Interp, &mut ctx, &env, DEFAULT_BUDGET)
                .unwrap()
        })
    });
    g.bench_function(&format!("{name}/jit"), |b| {
        b.iter(|| {
            prepared
                .run_tier(ExecTier::Jit, &mut ctx, &env, DEFAULT_BUDGET)
                .unwrap()
        })
    });
}

fn bench_interp_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp_micro");

    let numa = numa_program();
    let layout = hookctx::cmp_node_layout();
    let view = |cpu: u32| NodeView {
        tid: 1,
        cpu,
        socket: cpu / 10,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    let ctx = CmpNodeCtx {
        lock_id: 1,
        shuffler: view(12),
        curr: view(15),
    };
    bench_pair(&mut g, "numa_policy", &numa, layout, &|| {
        hookctx::marshal_cmp_node(&ctx)
    });

    let alu = alu_chain_program();
    let empty = CtxLayout::empty();
    bench_pair(&mut g, "alu_chain", &alu, &empty, &Vec::new);

    let map_mix = map_mix_program();
    bench_pair(&mut g, "map_mix", &map_mix, &empty, &Vec::new);

    // One-time lowering cost, for the load path.
    g.bench_function("prepare_numa_policy", |b| b.iter(|| numa.prepare(layout)));
    // One-time jit compile cost on top of an already-prepared program.
    let prepared_numa = numa.prepare(layout);
    g.bench_function("compile_jit_numa_policy", |b| {
        b.iter(|| prepared_numa.compile_jit())
    });
    g.finish();
}

criterion_group!(benches, bench_interp_micro);
criterion_main!(benches);
