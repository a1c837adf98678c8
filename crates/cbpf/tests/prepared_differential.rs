//! Differential property tests for the three engines and the sharded map
//! engine.
//!
//! The engine contract: on every program the verifier accepts, the
//! legacy interpreter, the prepared interpreter ([`ExecTier::Interp`])
//! and the compiled tier ([`ExecTier::Jit`], what `run` takes) are
//! observationally identical — same return value, same
//! executed-instruction count, same context, map and trace effects, and
//! the same faults under every budget and fault-injection plan.
//!
//! The map engine contract: the lock-free sharded hash map is
//! linearizable to a plain `HashMap` model under the same capacity
//! rules.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use cbpf::ctx::{CtxLayout, FieldAccess};
use cbpf::error::{FaultKind, MapError};
use cbpf::fault::{FaultInjector, FaultPlan};
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
use cbpf::interp::run_with_budget;
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::{Program, ProgramBuilder};
use cbpf::verifier::verify;
use cbpf::ExecTier;

const BUDGET: u64 = 1 << 16;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..=10).prop_map(Reg)
}

fn alu_op_strategy() -> impl Strategy<Value = AluOp> {
    proptest::sample::select(AluOp::ALL.to_vec())
}

fn jmp_op_strategy() -> impl Strategy<Value = JmpOp> {
    proptest::sample::select(JmpOp::ALL.to_vec())
}

fn mem_size_strategy() -> impl Strategy<Value = MemSize> {
    proptest::sample::select(vec![MemSize::B, MemSize::H, MemSize::W, MemSize::Dw])
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        reg_strategy().prop_map(Operand::Reg),
        (-64i32..64).prop_map(Operand::Imm),
    ]
}

/// Arbitrary plausible instructions (same bias as the verifier soundness
/// fuzzer: small jumps, stack-relative accesses, real helpers).
fn insn_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (
            any::<bool>(),
            alu_op_strategy(),
            reg_strategy(),
            operand_strategy()
        )
            .prop_map(|(wide, op, dst, src)| Insn::Alu {
                wide,
                op,
                dst,
                src: if op == AluOp::Neg {
                    Operand::Imm(0)
                } else {
                    src
                },
            }),
        (reg_strategy(), any::<u64>()).prop_map(|(dst, imm)| Insn::LdImm64 { dst, imm }),
        (
            mem_size_strategy(),
            reg_strategy(),
            reg_strategy(),
            (-72i16..16)
        )
            .prop_map(|(size, dst, base, off)| Insn::Load {
                size,
                dst,
                base,
                off
            }),
        (
            mem_size_strategy(),
            reg_strategy(),
            (-72i16..16),
            operand_strategy()
        )
            .prop_map(|(size, base, off, src)| Insn::Store {
                size,
                base,
                off,
                src
            }),
        (-4i16..8).prop_map(|off| Insn::Ja { off }),
        (
            jmp_op_strategy(),
            reg_strategy(),
            operand_strategy(),
            (-4i16..8)
        )
            .prop_map(|(op, dst, src, off)| Insn::Jmp { op, dst, src, off }),
        prop_oneof![Just(4u32), Just(5), Just(6), Just(7), Just(8)]
            .prop_map(|helper| Insn::Call { helper }),
        Just(Insn::Exit),
    ]
}

fn clamp_jumps(insns: Vec<Insn>) -> Vec<Insn> {
    let len = insns.len();
    insns
        .into_iter()
        .enumerate()
        .map(|(pc, i)| match i {
            Insn::Ja { off } => {
                let t = (pc as i64 + 1 + i64::from(off)).clamp(0, len as i64);
                Insn::Ja {
                    off: (t - pc as i64 - 1) as i16,
                }
            }
            Insn::Jmp { op, dst, src, off } => {
                let t = (pc as i64 + 1 + i64::from(off)).clamp(0, len as i64);
                Insn::Jmp {
                    op,
                    dst,
                    src,
                    off: (t - pc as i64 - 1) as i16,
                }
            }
            other => other,
        })
        .collect()
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(insn_strategy(), 1..24).prop_map(|mut insns| {
        insns.insert(
            0,
            Insn::Alu {
                wide: true,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(0),
            },
        );
        insns.push(Insn::Exit);
        Program::new("fuzz", clamp_jumps(insns), Vec::new())
    })
}

fn test_layout() -> CtxLayout {
    CtxLayout::builder()
        .field("a", 8, FieldAccess::ReadOnly)
        .field("b", 4, FieldAccess::ReadOnly)
        .field("out", 8, FieldAccess::ReadWrite)
        .build()
}

fn fill_ctx(layout: &CtxLayout, seed: u64) -> Vec<u8> {
    let mut ctx = vec![0u8; layout.size()];
    for (i, b) in ctx.iter_mut().enumerate() {
        *b = (seed.rotate_left((i as u32 * 7) % 63) & 0xff) as u8;
    }
    ctx
}

fn seeded_map() -> Arc<Map> {
    let map = Arc::new(Map::new(MapDef {
        name: "m".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 4,
    }));
    map.update(&0u32.to_le_bytes(), &7u64.to_le_bytes(), 0)
        .unwrap();
    map.update(&2u32.to_le_bytes(), &9u64.to_le_bytes(), 0)
        .unwrap();
    map
}

fn map_snapshot(map: &Map) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<_> = map
        .keys()
        .into_iter()
        .map(|k| {
            let v = map.lookup_copy(&k, 0).unwrap();
            (k, v)
        })
        .collect();
    entries.sort();
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Accepted programs produce identical `RunReport`s (value and insn
    /// count) and identical context side effects on both engines, across
    /// arbitrary environments and context contents.
    #[test]
    fn prepared_matches_legacy(
        prog in program_strategy(),
        cpu in 0u32..128,
        numa in 0u32..8,
        time in any::<u64>(),
        pid in any::<u64>(),
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new().cpu(cpu).numa(numa).time(time).with_pid(pid);
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let mut ctx_prepared = ctx_legacy.clone();
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, BUDGET);
            let prepared = prog.prepare(&layout).run(&mut ctx_prepared, &env, BUDGET);
            prop_assert_eq!(&legacy, &prepared, "reports diverge");
            prop_assert_eq!(ctx_legacy, ctx_prepared, "context effects diverge");
        }
    }

    /// Accepted map programs leave both engines' maps in identical states
    /// and agree on the report, including env traces.
    #[test]
    fn prepared_matches_legacy_with_maps(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
    ) {
        let build = |map: Arc<Map>| {
            let mut insns = vec![
                Insn::LdMapRef { dst: Reg::R1, map_id: 0 },
                Insn::Store { size: MemSize::W, base: Reg::R10, off: -4, src: Operand::Imm(key) },
                Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Reg(Reg::R10) },
                Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R2, src: Operand::Imm(-4) },
                Insn::Call { helper: HelperId::MapLookup as u32 },
            ];
            insns.extend(body.iter().cloned());
            insns.push(Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) });
            insns.push(Insn::Exit);
            Program::new("fuzzmap", insns, vec![map])
        };
        let map_legacy = seeded_map();
        let map_prepared = seeded_map();
        let prog_legacy = build(Arc::clone(&map_legacy));
        let prog_prepared = build(Arc::clone(&map_prepared));
        if verify(&prog_legacy, &CtxLayout::empty()).is_ok() {
            let env_legacy = FixedEnv::new();
            let env_prepared = FixedEnv::new();
            let legacy =
                run_with_budget(&prog_legacy, &mut [], &CtxLayout::empty(), &env_legacy, BUDGET);
            let prepared = prog_prepared
                .prepare(&CtxLayout::empty())
                .run(&mut [], &env_prepared, BUDGET);
            prop_assert_eq!(&legacy, &prepared, "reports diverge");
            prop_assert_eq!(
                map_snapshot(&map_legacy),
                map_snapshot(&map_prepared),
                "map effects diverge"
            );
            prop_assert_eq!(env_legacy.traces(), env_prepared.traces(), "traces diverge");
        }
    }

    /// `trace_emit` charges its fixed weight identically on both engines
    /// at *every* budget: same `RunReport::insns`, same `BudgetExhausted`
    /// boundary, same captured payloads. This is what keeps figure CSVs
    /// byte-identical when tracing is disarmed — the weight never depends
    /// on the telemetry plane's armed state.
    #[test]
    fn trace_emit_weight_is_identical_on_both_engines(
        len in 1i32..=16,
        fill in any::<u64>(),
        budget in 0u64..32,
    ) {
        let insns = vec![
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) },
            Insn::LdImm64 { dst: Reg::R3, imm: fill },
            Insn::Store { size: MemSize::Dw, base: Reg::R10, off: -16, src: Operand::Reg(Reg::R3) },
            Insn::Store { size: MemSize::Dw, base: Reg::R10, off: -8, src: Operand::Reg(Reg::R3) },
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R1, src: Operand::Reg(Reg::R10) },
            Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R1, src: Operand::Imm(-16) },
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Imm(len) },
            Insn::Call { helper: HelperId::TraceEmit as u32 },
            Insn::Exit,
        ];
        let prog = Program::new("emit", insns, Vec::new());
        prop_assert!(verify(&prog, &CtxLayout::empty()).is_ok());
        let env_legacy = FixedEnv::new();
        let env_prepared = FixedEnv::new();
        let legacy = run_with_budget(&prog, &mut [], &CtxLayout::empty(), &env_legacy, budget);
        let prepared = prog
            .prepare(&CtxLayout::empty())
            .run(&mut [], &env_prepared, budget);
        prop_assert_eq!(&legacy, &prepared, "trace_emit budget accounting diverges");
        prop_assert_eq!(env_legacy.emits(), env_prepared.emits(), "payloads diverge");
        // 8 unit-weight instructions + TRACE_EMIT_WEIGHT for the call.
        let full_cost = 8 + u64::from(cbpf::helpers::TRACE_EMIT_WEIGHT);
        if budget >= full_cost {
            let report = legacy.expect("enough budget");
            prop_assert_eq!(report.insns, full_cost);
            prop_assert_eq!(report.ret, 0);
            let expect = fill.to_le_bytes().repeat(2)[..len as usize].to_vec();
            prop_assert_eq!(env_legacy.emits(), vec![expect]);
        } else {
            prop_assert!(legacy.is_err(), "must exhaust below the fixed cost");
        }
    }

    /// With a budget too small to finish, both engines fail with the same
    /// `BudgetExhausted` at the same point (the prepared loop keeps the
    /// budget-before-fetch ordering).
    #[test]
    fn budget_semantics_match(
        prog in program_strategy(),
        budget in 0u64..24,
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new();
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let mut ctx_prepared = ctx_legacy.clone();
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, budget);
            let prepared = prog.prepare(&layout).run(&mut ctx_prepared, &env, budget);
            prop_assert_eq!(&legacy, &prepared, "budget behavior diverges");
            prop_assert_eq!(ctx_legacy, ctx_prepared, "partial context effects diverge");
        }
    }

    /// The compiled tier ([`cbpf::jit`]) is observationally identical to
    /// the prepared interpreter on arbitrary verified programs: same
    /// report (value and executed-instruction count), same fault, same
    /// context mutations, at full budget.
    #[test]
    fn jit_matches_interp_report_and_ctx(
        prog in program_strategy(),
        cpu in 0u32..128,
        numa in 0u32..8,
        time in any::<u64>(),
        pid in any::<u64>(),
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new().cpu(cpu).numa(numa).time(time).with_pid(pid);
            let prepared = prog.prepare(&layout);
            let mut ctx_interp = fill_ctx(&layout, ctx_seed);
            let interp = prepared.run_tier(ExecTier::Interp, &mut ctx_interp, &env, BUDGET);
            let mut ctx_jit = fill_ctx(&layout, ctx_seed);
            let jit = prepared.run_tier(ExecTier::Jit, &mut ctx_jit, &env, BUDGET);
            prop_assert_eq!(&interp, &jit, "jit report diverges from interpreter");
            prop_assert_eq!(&ctx_interp, &ctx_jit, "jit context effects diverge");
        }
    }

    /// Map programs on the compiled tier: identical final map contents
    /// and env traces. Exercises the jit's lookup-and-branch step, its
    /// constant-key lookup caching and RMW fusion, and the generic map
    /// steps around them, against the interpreter.
    #[test]
    fn jit_preserves_map_side_effects(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
    ) {
        let build = |map: Arc<Map>| {
            let mut insns = vec![
                Insn::LdMapRef { dst: Reg::R1, map_id: 0 },
                Insn::Store { size: MemSize::W, base: Reg::R10, off: -4, src: Operand::Imm(key) },
                Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Reg(Reg::R10) },
                Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R2, src: Operand::Imm(-4) },
                Insn::Call { helper: HelperId::MapLookup as u32 },
            ];
            insns.extend(body.iter().cloned());
            insns.push(Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) });
            insns.push(Insn::Exit);
            Program::new("fuzzjit", insns, vec![map])
        };
        let map_interp = seeded_map();
        let prog_interp = build(Arc::clone(&map_interp));
        if verify(&prog_interp, &CtxLayout::empty()).is_ok() {
            let env_interp = FixedEnv::new();
            let interp = prog_interp
                .prepare(&CtxLayout::empty())
                .run_tier(ExecTier::Interp, &mut [], &env_interp, BUDGET);

            let map_jit = seeded_map();
            let env_jit = FixedEnv::new();
            let jit = build(Arc::clone(&map_jit))
                .prepare(&CtxLayout::empty())
                .run_tier(ExecTier::Jit, &mut [], &env_jit, BUDGET);
            prop_assert_eq!(&interp, &jit, "jit report diverges");
            prop_assert_eq!(
                &map_snapshot(&map_interp),
                &map_snapshot(&map_jit),
                "jit map effects diverge"
            );
            prop_assert_eq!(env_interp.traces(), env_jit.traces(), "jit traces diverge");
        }
    }

    /// Tiny budgets on the compiled tier: jit steps pre-charge whole
    /// pure-prefix groups, so exhaustion must fire at exactly the same
    /// budgets with the same partial context effects as the interpreter.
    #[test]
    fn jit_budget_accounting_is_exact(
        prog in program_strategy(),
        budget in 0u64..24,
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new();
            let prepared = prog.prepare(&layout);
            let mut ctx_interp = fill_ctx(&layout, ctx_seed);
            let interp = prepared.run_tier(ExecTier::Interp, &mut ctx_interp, &env, budget);
            let mut ctx_jit = fill_ctx(&layout, ctx_seed);
            let jit = prepared.run_tier(ExecTier::Jit, &mut ctx_jit, &env, budget);
            prop_assert_eq!(&interp, &jit, "jit budget behavior diverges");
            prop_assert_eq!(&ctx_interp, &ctx_jit, "jit partial effects diverge");
        }
    }

    /// Deterministic fault injection hits both tiers identically: the
    /// same plan (seed, invocation trigger, helper rate) against the
    /// same invocation sequence produces the same faults at the same
    /// invocations, and the same map/trace state afterwards.
    #[test]
    fn jit_fault_injection_parity(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
        seed in any::<u64>(),
        trigger in 1u64..8,
        per_mille in 0u16..1000,
        kind_ix in 0usize..4,
        invocations in 1usize..12,
    ) {
        let kind = [FaultKind::Budget, FaultKind::Trap, FaultKind::Helper, FaultKind::Map][kind_ix];
        let build = |map: Arc<Map>| {
            let mut insns = vec![
                Insn::LdMapRef { dst: Reg::R1, map_id: 0 },
                Insn::Store { size: MemSize::W, base: Reg::R10, off: -4, src: Operand::Imm(key) },
                Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Reg(Reg::R10) },
                Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R2, src: Operand::Imm(-4) },
                Insn::Call { helper: HelperId::MapLookup as u32 },
            ];
            insns.extend(body.iter().cloned());
            insns.push(Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) });
            insns.push(Insn::Exit);
            Program::new("fuzzfault", insns, vec![map])
        };
        let map_interp = seeded_map();
        let prog_interp = build(Arc::clone(&map_interp));
        if verify(&prog_interp, &CtxLayout::empty()).is_ok() {
            let plan = FaultPlan {
                seed,
                fault_on_invocation: Some(trigger),
                repeat: false,
                helper_fault_per_mille: per_mille,
                kind,
            };
            let env_interp = FixedEnv::new();
            let inj_interp = FaultInjector::new(plan.clone());
            let prepared_interp = prog_interp.prepare(&CtxLayout::empty());
            let mut got_interp = Vec::with_capacity(invocations);
            for _ in 0..invocations {
                got_interp.push(prepared_interp.run_tier_with_faults(
                    ExecTier::Interp, &mut [], &env_interp, BUDGET, Some(&inj_interp),
                ));
            }

            let map_jit = seeded_map();
            let env_jit = FixedEnv::new();
            let inj_jit = FaultInjector::new(plan);
            let prepared_jit = build(Arc::clone(&map_jit)).prepare(&CtxLayout::empty());
            let mut got_jit = Vec::with_capacity(invocations);
            for _ in 0..invocations {
                got_jit.push(prepared_jit.run_tier_with_faults(
                    ExecTier::Jit, &mut [], &env_jit, BUDGET, Some(&inj_jit),
                ));
            }

            prop_assert_eq!(&got_interp, &got_jit, "injected fault sequences diverge");
            prop_assert_eq!(inj_interp.injected(), inj_jit.injected(), "injection counts diverge");
            prop_assert_eq!(
                &map_snapshot(&map_interp),
                &map_snapshot(&map_jit),
                "post-fault map state diverges"
            );
            prop_assert_eq!(env_interp.traces(), env_jit.traces(), "post-fault traces diverge");
        }
    }

    /// The sharded lock-free hash map is equivalent to a plain `HashMap`
    /// model under the same capacity rule, operation by operation
    /// (update/delete/lookup over a key space larger than capacity, so
    /// `Full`, `NoSuchKey` and tombstone-reuse paths all fire).
    #[test]
    fn sharded_hash_map_matches_model(
        ops in proptest::collection::vec((0u8..3, 0u32..12u32, any::<u64>()), 1..64),
    ) {
        const MAX: usize = 8;
        let map = Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: MAX,
        });
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (op, key, val) in ops {
            let k = key.to_le_bytes();
            match op {
                0 => {
                    let got = map.update(&k, &val.to_le_bytes(), 0);
                    if model.contains_key(&key) || model.len() < MAX {
                        prop_assert_eq!(got, Ok(()));
                        model.insert(key, val);
                    } else {
                        prop_assert_eq!(got, Err(MapError::Full));
                    }
                }
                1 => {
                    let got = map.delete(&k);
                    if model.remove(&key).is_some() {
                        prop_assert_eq!(got, Ok(()));
                    } else {
                        prop_assert_eq!(got, Err(MapError::NoSuchKey));
                    }
                }
                _ => {
                    let got = map.lookup_copy(&k, 0);
                    let want = model.get(&key).map(|v| v.to_le_bytes().to_vec());
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(map.len(), model.len(), "live counts diverge");
        }
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|(k, v)| (k.to_le_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect();
        want.sort();
        prop_assert_eq!(map_snapshot(&map), want, "final contents diverge");
    }

    /// Concurrent updates from racing threads agree with the sequential
    /// model when the per-thread key sets are disjoint (each thread's
    /// writes land intact; no lost updates across shards).
    #[test]
    fn concurrent_disjoint_updates_match_model(
        per_thread in 1usize..24,
        seed in any::<u64>(),
    ) {
        const THREADS: u32 = 4;
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: 512,
        }));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per_thread as u32 {
                        let key = t * 1000 + i;
                        let val = seed ^ u64::from(key);
                        map.update(&key.to_le_bytes(), &val.to_le_bytes(), t).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(map.len(), per_thread * THREADS as usize);
        for t in 0..THREADS {
            for i in 0..per_thread as u32 {
                let key = t * 1000 + i;
                let want = (seed ^ u64::from(key)).to_le_bytes().to_vec();
                prop_assert_eq!(map.lookup_copy(&key.to_le_bytes(), 0), Some(want));
            }
        }
    }
}

/// What a row of [`counter_shape_agrees_at_every_budget_and_plan`] does
/// with the map after its constant-key `map_lookup`.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `event_counter`: null branch, 8-byte read-modify-write of the
    /// value. Compiles to the lookup-and-branch step and the fused RMW.
    Counter,
    /// The same with a 4-byte read and write: generic load and store.
    Rmw4,
    /// Null branch, then the value is read and returned: a generic load.
    Read,
    /// The result is copied before its null test, so the lookup is a
    /// generic call and the counter update generic loads and stores.
    Unbranched,
    /// No lookup: a constant-operand `map_update` of the key, a generic
    /// call.
    Update,
}

impl Shape {
    /// Instructions a run executes when the key is present (every map
    /// but the unseeded hash) and when it is not.
    fn insns(self, hit: bool) -> u64 {
        match (self, hit) {
            (Shape::Counter | Shape::Rmw4, true) => 11,
            (Shape::Counter | Shape::Rmw4 | Shape::Read, false) | (Shape::Read, true) => 8,
            (Shape::Unbranched, true) => 12,
            (Shape::Unbranched, false) => 9,
            (Shape::Update, _) => 10,
        }
    }

    /// The instruction count at which a run reaches its map helper.
    fn helper_at(self) -> u64 {
        match self {
            Shape::Update => 9,
            _ => 5,
        }
    }
}

/// The counter shape (`event_counter`, what every `lock_profiled` hook
/// runs): lookup, null branch, read-modify-write of the value. The
/// compiled tier runs the lookup and the branch as one step, but a
/// budget that ends on the branch must still run the lookup — consult
/// the injector and fault if it says so — as the interpreter does. A
/// step that charged the pair up front would report `BudgetExhausted`
/// there instead, with one injection fewer. The other shapes are the
/// map accesses that compile to generic steps.
#[test]
fn counter_shape_agrees_at_every_budget_and_plan() {
    let layout = CtxLayout::builder()
        .field("lock_id", 8, FieldAccess::ReadOnly)
        .build();
    let counter = |shape: Shape, kind: MapKind, seeded: bool| {
        let map = Arc::new(Map::new(MapDef {
            name: "c".into(),
            kind,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        }));
        // The seeded value's low word carries on increment, so a 4-byte
        // and an 8-byte update of it leave different values.
        if seeded {
            map.update(&0u32.to_le_bytes(), &u64::from(u32::MAX).to_le_bytes(), 0)
                .unwrap();
        }
        let mut b = ProgramBuilder::new("count");
        let mid = b.register_map(Arc::clone(&map));
        if let Shape::Update = shape {
            b.store_imm(MemSize::Dw, Reg::R10, -16, 5);
        }
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 0);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        let size = match shape {
            Shape::Rmw4 => MemSize::W,
            _ => MemSize::Dw,
        };
        match shape {
            Shape::Counter | Shape::Rmw4 => {
                b.call(HelperId::MapLookup);
                b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "out");
                b.load(size, Reg::R1, Reg::R0, 0);
                b.alu_imm(AluOp::Add, Reg::R1, 1);
                b.store(size, Reg::R0, 0, Reg::R1);
            }
            Shape::Read => {
                b.call(HelperId::MapLookup);
                b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "out");
                b.load(MemSize::Dw, Reg::R0, Reg::R0, 0);
                b.exit();
            }
            Shape::Unbranched => {
                b.call(HelperId::MapLookup);
                b.mov(Reg(6), Reg::R0);
                b.jmp_imm(JmpOp::Eq, Reg(6), 0, "out");
                b.load(size, Reg::R1, Reg(6), 0);
                b.alu_imm(AluOp::Add, Reg::R1, 1);
                b.store(size, Reg(6), 0, Reg::R1);
            }
            Shape::Update => {
                b.mov(Reg(3), Reg::R10);
                b.alu_imm(AluOp::Add, Reg(3), -16);
                b.mov_imm(Reg(4), 0);
                b.call(HelperId::MapUpdate);
                b.exit();
            }
        }
        b.label("out");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        let prog = b.build().unwrap();
        verify(&prog, &layout).unwrap();
        (prog, map)
    };
    let env = FixedEnv::new();
    let always = FaultPlan {
        helper_fault_per_mille: 1000,
        ..FaultPlan::inert(7)
    };
    let shapes = [
        Shape::Counter,
        Shape::Rmw4,
        Shape::Read,
        Shape::Unbranched,
        Shape::Update,
    ];
    // A hash hit, a hash miss, and the per-CPU array `event_counter` uses.
    let maps = [
        (MapKind::Hash, true),
        (MapKind::Hash, false),
        (MapKind::PerCpuArray, false),
    ];
    for (shape, (kind, seeded)) in shapes
        .into_iter()
        .flat_map(|s| maps.into_iter().map(move |m| (s, m)))
    {
        let insns = shape.insns(seeded || kind == MapKind::PerCpuArray);
        for plan in [None, Some(always.clone())] {
            let (legacy_prog, legacy_map) = counter(shape, kind, seeded);
            let (interp_prog, interp_map) = counter(shape, kind, seeded);
            let (jit_prog, jit_map) = counter(shape, kind, seeded);
            let (interp, jit) = (interp_prog.prepare(&layout), jit_prog.prepare(&layout));
            let inj_interp = plan.clone().map(FaultInjector::new);
            let inj_jit = plan.clone().map(FaultInjector::new);
            let mut finished = 0;
            for budget in 0..=insns + 1 {
                let at =
                    format!("{shape:?} {kind:?} seeded {seeded} plan {plan:?} budget {budget}");
                let mut ctx_interp = vec![7u8; layout.size()];
                let got_interp = interp.run_tier_with_faults(
                    ExecTier::Interp,
                    &mut ctx_interp,
                    &env,
                    budget,
                    inj_interp.as_ref(),
                );
                let mut ctx_jit = vec![7u8; layout.size()];
                let got_jit = jit.run_tier_with_faults(
                    ExecTier::Jit,
                    &mut ctx_jit,
                    &env,
                    budget,
                    inj_jit.as_ref(),
                );
                assert_eq!(got_interp, got_jit, "{at}");
                assert_eq!(ctx_interp, ctx_jit, "{at}");
                assert_eq!(map_snapshot(&interp_map), map_snapshot(&jit_map), "{at}");
                if plan.is_none() {
                    let mut ctx_legacy = vec![7u8; layout.size()];
                    let legacy =
                        run_with_budget(&legacy_prog, &mut ctx_legacy, &layout, &env, budget);
                    assert_eq!(legacy, got_jit, "{at}");
                    assert_eq!(map_snapshot(&legacy_map), map_snapshot(&jit_map), "{at}");
                }
                if let Ok(report) = got_jit {
                    assert_eq!(report.insns, insns, "{at}");
                    finished += 1;
                }
            }
            let at = format!("{shape:?} {kind:?} seeded {seeded}");
            if let (Some(i), Some(j)) = (&inj_interp, &inj_jit) {
                assert_eq!(i.injected(), j.injected(), "{at}");
                assert_eq!(i.invocations(), j.invocations(), "{at}");
                // Every budget that reaches the map helper faults there.
                assert_eq!(i.injected(), insns + 2 - shape.helper_at(), "{at}");
            } else {
                assert_eq!(finished, 2, "{at}");
            }
        }
    }
}
