//! Differential property test for the compiled tier's context reads.
//!
//! [`cbpf::jit`] turns a context read it can resolve at compile time —
//! through `r1` or a copy of it, to a field the layout grants at that
//! width — into a pure micro-op with no run-time check of its own, and
//! sends every context shorter than the layout to the prepared
//! interpreter instead. This file holds that rewrite to the engines that
//! do check: on generated programs that read the context at every width
//! and offset (granted, wrong width, straddling a field, past the end),
//! before and after branches, helper calls and writes to `r1`, the legacy
//! interpreter, the prepared interpreter and the compiled tier must
//! return the same `Ok(report)` or the same `Err` (variant, `pc`,
//! `addr`) and leave the same context bytes — on contexts that are
//! empty, one byte short, exact and longer, at every budget from 0 past
//! the program's length, with and without a fault injector.
//!
//! The programs are *not* verified: most would be rejected (that is the
//! point — the forbidden reads must fault identically). They stay inside
//! the one envelope in which the legacy interpreter and the prepared
//! form are comparable at all: every register is written before it is
//! read (legacy tracks initialization, the prepared form reads zero).
//!
//! The same file holds the compiled tier's other entry-time shortcut to
//! the interpreters: a program none of whose compiled steps can reach the
//! frame runs without one, and one program per kind of frame-reaching
//! step shows that each kind keeps it.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use cbpf::ctx::{CtxLayout, FieldAccess};
use cbpf::error::FaultKind;
use cbpf::fault::{FaultInjector, FaultPlan};
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
use cbpf::interp::run_with_budget;
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::Program;
use cbpf::ExecTier;

/// Registers the generated body computes in. `r1` is the context
/// pointer, `r6` the copy of it the prologue saves, `r10` the frame.
const DATA: [u8; 8] = [0, 2, 3, 4, 5, 7, 8, 9];
const SAVED: Reg = Reg(6);
const FIELD_NAMES: [&str; 6] = ["f0", "f1", "f2", "f3", "f4", "f5"];
const SIZES: [MemSize; 4] = [MemSize::B, MemSize::H, MemSize::W, MemSize::Dw];

/// What a body step leaves in `r1`.
#[derive(Clone, Copy, Debug)]
enum R1 {
    /// `mov r1, r6`: the context pointer again.
    Saved,
    /// `mov r1, imm`: not a pointer at all.
    Imm(i32),
    /// `add r1, imm`: pointer arithmetic, possibly out of the context.
    Bump(i32),
}

/// Where a context access points.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// The layout's field number `k` (modulo the field count), at its own
    /// width: what a verified program does.
    Field(usize),
    /// Any width at any offset from just before the context to past the
    /// largest layout: wrong widths, padding holes, straddles, the end.
    Raw(MemSize, i16),
}

/// One step of a generated body; expands to one or more instructions,
/// and branches skip whole steps. `saved` accesses go through `r6`.
#[derive(Clone, Debug)]
enum Op {
    Read {
        at: Target,
        dst: u8,
        saved: bool,
    },
    Write {
        at: Target,
        saved: bool,
        src: u8,
    },
    Alu {
        wide: bool,
        op: AluOp,
        dst: u8,
        src: Operand,
    },
    /// Jump over the next `skip` steps when the comparison holds.
    Branch {
        op: JmpOp,
        dst: u8,
        imm: i32,
        skip: usize,
    },
    /// `call cpu_id`, then `r2..r5` written again (the call clobbers
    /// them, and legacy would fault on reading them) and `r1` set to
    /// `then` — or, with `None`, left as the call left it: zero in the
    /// prepared form, uninitialized in legacy, which such a program is
    /// therefore not compared with.
    Call {
        then: Option<R1>,
    },
    SetR1(R1),
}

fn r1_strategy() -> impl Strategy<Value = R1> {
    prop_oneof![
        Just(R1::Saved),
        Just(R1::Saved),
        (-2i32..3).prop_map(R1::Imm),
        (-8i32..17).prop_map(R1::Bump),
    ]
}

fn data_reg() -> impl Strategy<Value = u8> {
    proptest::sample::select(DATA.to_vec())
}

fn target_strategy() -> impl Strategy<Value = Target> {
    prop_oneof![
        (0usize..6).prop_map(Target::Field),
        (0usize..6).prop_map(Target::Field),
        (proptest::sample::select(SIZES.to_vec()), -4i16..60)
            .prop_map(|(size, off)| Target::Raw(size, off)),
    ]
}

fn read_strategy() -> impl Strategy<Value = Op> {
    (
        target_strategy(),
        // A load may also land in `r1` itself.
        proptest::sample::select([&DATA[..], &DATA[..], &[1]].concat()),
        any::<bool>(),
    )
        .prop_map(|(at, dst, saved)| Op::Read { at, dst, saved })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        read_strategy(),
        read_strategy(),
        read_strategy(),
        read_strategy(),
        (target_strategy(), any::<bool>(), data_reg()).prop_map(|(at, saved, src)| Op::Write {
            at,
            saved,
            src
        }),
        (
            any::<bool>(),
            proptest::sample::select(AluOp::ALL.to_vec()),
            data_reg(),
            prop_oneof![
                data_reg().prop_map(|r| Operand::Reg(Reg(r))),
                (-64i32..64).prop_map(Operand::Imm),
            ]
        )
            .prop_map(|(wide, op, dst, src)| Op::Alu {
                wide,
                op,
                dst,
                src: if op == AluOp::Neg {
                    Operand::Imm(0)
                } else {
                    src
                },
            }),
        (
            proptest::sample::select(JmpOp::ALL.to_vec()),
            data_reg(),
            -2i32..3,
            1usize..4
        )
            .prop_map(|(op, dst, imm, skip)| Op::Branch { op, dst, imm, skip }),
        r1_strategy().prop_map(|then| Op::Call { then: Some(then) }),
        Just(Op::Call { then: None }),
        r1_strategy().prop_map(Op::SetR1),
    ]
}

fn mov(dst: Reg, src: Operand) -> Insn {
    Insn::Alu {
        wide: true,
        op: AluOp::Mov,
        dst,
        src,
    }
}

fn set_r1(to: R1) -> Insn {
    match to {
        R1::Saved => mov(Reg::R1, Operand::Reg(SAVED)),
        R1::Imm(i) => mov(Reg::R1, Operand::Imm(i)),
        R1::Bump(i) => Insn::Alu {
            wide: true,
            op: AluOp::Add,
            dst: Reg::R1,
            src: Operand::Imm(i),
        },
    }
}

fn base(saved: bool) -> Reg {
    if saved {
        SAVED
    } else {
        Reg::R1
    }
}

fn resolve(layout: &CtxLayout, at: Target) -> (MemSize, i16) {
    match at {
        Target::Field(k) if !layout.fields().is_empty() => {
            let f = layout.fields()[k % layout.fields().len()];
            (SIZES[f.size.trailing_zeros() as usize], f.offset as i16)
        }
        Target::Field(k) => (MemSize::Dw, 8 * k as i16),
        Target::Raw(size, off) => (size, off),
    }
}

/// Prologue (save the context pointer, write every data register),
/// the body, and an epilogue that folds every data register into `r0`
/// so a wrong value anywhere reaches the report.
fn build(layout: &CtxLayout, ops: &[Op]) -> Program {
    let groups: Vec<Vec<Insn>> = ops
        .iter()
        .map(|op| match *op {
            Op::Read { at, dst, saved } => {
                let (size, off) = resolve(layout, at);
                vec![Insn::Load {
                    size,
                    dst: Reg(dst),
                    base: base(saved),
                    off,
                }]
            }
            Op::Write { at, saved, src } => {
                let (size, off) = resolve(layout, at);
                vec![Insn::Store {
                    size,
                    base: base(saved),
                    off,
                    src: Operand::Reg(Reg(src)),
                }]
            }
            Op::Alu { wide, op, dst, src } => vec![Insn::Alu {
                wide,
                op,
                dst: Reg(dst),
                src,
            }],
            // The offset is patched below, once step lengths are known.
            Op::Branch { op, dst, imm, .. } => vec![Insn::Jmp {
                op,
                dst: Reg(dst),
                src: Operand::Imm(imm),
                off: 0,
            }],
            Op::Call { then } => {
                let mut g = vec![Insn::Call {
                    helper: HelperId::CpuId as u32,
                }];
                if let Some(then) = then {
                    // `add r1, imm` needs an initialized `r1` first.
                    g.push(mov(Reg::R1, Operand::Reg(SAVED)));
                    if !matches!(then, R1::Saved) {
                        g.push(set_r1(then));
                    }
                }
                g.extend((2..=5).map(|r| mov(Reg(r), Operand::Imm(i32::from(r)))));
                g
            }
            Op::SetR1(to) => vec![set_r1(to)],
        })
        .collect();
    let mut insns = vec![mov(SAVED, Operand::Reg(Reg::R1))];
    insns.extend(
        DATA.iter()
            .map(|&r| mov(Reg(r), Operand::Imm(i32::from(r)))),
    );
    for (i, (op, group)) in ops.iter().zip(&groups).enumerate() {
        let mut group = group.clone();
        if let (Op::Branch { skip, .. }, Insn::Jmp { off, .. }) = (op, &mut group[0]) {
            let over: usize = groups[i + 1..].iter().take(*skip).map(Vec::len).sum();
            *off = over as i16;
        }
        insns.extend(group);
    }
    for &r in &DATA[1..] {
        insns.push(Insn::Alu {
            wide: true,
            op: AluOp::Xor,
            dst: Reg::R0,
            src: Operand::Reg(Reg(r)),
        });
    }
    insns.push(Insn::Exit);
    Program::new("ctxfuzz", insns, Vec::new())
}

/// Up to six fields of random width and access, naturally aligned by the
/// builder — so the layout has padding holes, and fields narrower than a
/// read that starts inside them.
fn layout_strategy() -> impl Strategy<Value = CtxLayout> {
    proptest::collection::vec((0usize..4, any::<bool>()), 0..7).prop_map(|fields| {
        let mut b = CtxLayout::builder();
        for (name, (size, rw)) in FIELD_NAMES.iter().zip(fields) {
            let access = if rw {
                FieldAccess::ReadWrite
            } else {
                FieldAccess::ReadOnly
            };
            b = b.field(name, 1 << size, access);
        }
        b.build()
    })
}

/// One generated input: a layout, a body over it, and the bytes the
/// contexts are cut from.
#[derive(Clone, Debug)]
struct Case {
    layout: CtxLayout,
    ops: Vec<Op>,
    fill: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        layout_strategy(),
        proptest::collection::vec(op_strategy(), 1..10),
        any::<u64>(),
    )
        .prop_map(|(layout, ops, fill)| Case { layout, ops, fill })
}

/// `len` seeded pseudo-random context bytes, so a read at the wrong
/// offset or width returns a different value.
fn ctx_bytes(len: usize, fill: u64) -> Vec<u8> {
    let mut rng = TestRng::from_seed(fill);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Empty, one byte short, exact, longer.
fn ctx_lens(layout: &CtxLayout) -> Vec<usize> {
    let size = layout.size();
    let mut lens = vec![0, size, size + 8];
    if size > 0 {
        lens.push(size - 1);
    }
    lens
}

fn plans(seed: u64) -> [FaultPlan; 3] {
    [
        FaultPlan {
            helper_fault_per_mille: 300,
            ..FaultPlan::inert(seed)
        },
        FaultPlan {
            helper_fault_per_mille: 1000,
            ..FaultPlan::inert(seed)
        },
        FaultPlan {
            seed,
            fault_on_invocation: Some(3),
            repeat: false,
            helper_fault_per_mille: 100,
            kind: FaultKind::Trap,
        },
    ]
}

/// Runs the prepared form of `prog` on both tiers over every context
/// length and budget and holds them to each other, and to the legacy
/// interpreter wherever the two are comparable.
fn check(case: &Case) -> Result<(), TestCaseError> {
    let Case { layout, ops, fill } = case;
    let prog = build(layout, ops);
    let legacy_comparable = !ops.iter().any(|op| matches!(op, Op::Call { then: None }));
    let prepared = prog.prepare(layout);
    let env = FixedEnv::new().cpu(3);
    let full = prog.insns().len() as u64 + 1;
    for len in ctx_lens(layout) {
        let fresh = ctx_bytes(len, *fill);
        for budget in 0..=full {
            let mut ctx_interp = fresh.clone();
            let interp = prepared.run_tier(ExecTier::Interp, &mut ctx_interp, &env, budget);
            let mut ctx_jit = fresh.clone();
            let jit = prepared.run_tier(ExecTier::Jit, &mut ctx_jit, &env, budget);
            prop_assert_eq!(
                &interp,
                &jit,
                "tiers diverge, ctx len {} budget {}",
                len,
                budget
            );
            prop_assert_eq!(&ctx_interp, &ctx_jit, "tier context bytes diverge");
            // With no context at all legacy never initializes `r1` and
            // faults on the prologue's read of it; the prepared form
            // reads zero (see `cbpf::prepare`'s module docs).
            if len > 0 && legacy_comparable {
                let mut ctx_legacy = fresh.clone();
                let legacy = run_with_budget(&prog, &mut ctx_legacy, layout, &env, budget);
                prop_assert_eq!(
                    &legacy,
                    &jit,
                    "legacy diverges, ctx len {} budget {}",
                    len,
                    budget
                );
                prop_assert_eq!(&ctx_legacy, &ctx_jit, "legacy context bytes diverge");
            }
        }
        // Injected faults: one injector per tier, the same plan, the
        // same sequence of runs.
        for plan in plans(*fill) {
            let (inj_interp, inj_jit) =
                (FaultInjector::new(plan.clone()), FaultInjector::new(plan));
            for budget in 0..=full {
                let mut ctx_interp = fresh.clone();
                let interp = prepared.run_tier_with_faults(
                    ExecTier::Interp,
                    &mut ctx_interp,
                    &env,
                    budget,
                    Some(&inj_interp),
                );
                let mut ctx_jit = fresh.clone();
                let jit = prepared.run_tier_with_faults(
                    ExecTier::Jit,
                    &mut ctx_jit,
                    &env,
                    budget,
                    Some(&inj_jit),
                );
                prop_assert_eq!(
                    &interp,
                    &jit,
                    "injected runs diverge, ctx len {} budget {}",
                    len,
                    budget
                );
                prop_assert_eq!(&ctx_interp, &ctx_jit, "injected context bytes diverge");
            }
            prop_assert_eq!(inj_interp.injected(), inj_jit.injected());
            prop_assert_eq!(inj_interp.invocations(), inj_jit.invocations());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn ctx_reads_agree_on_every_engine(case in case_strategy()) {
        check(&case)?;
    }
}

/// The property above is only worth something if the generator reaches
/// what it claims to: reads the compiler folds and reads it must leave
/// alone, runs that finish and runs that fault inside a context access.
#[test]
fn the_generator_reaches_folded_and_refused_reads() {
    let strategy = case_strategy();
    let env = FixedEnv::new().cpu(3);
    let (mut reads, mut generic, mut all_folded, mut none_folded) = (0, 0, 0, 0);
    let (mut finished, mut bad_access) = (0, 0);
    for seed in 0..384 {
        let case = strategy.gen_value(&mut TestRng::from_seed(seed));
        let prog = build(&case.layout, &case.ops);
        let r = case
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Read { .. }))
            .count();
        let g = prog
            .prepare(&case.layout)
            .compile_jit()
            .generic_load_count();
        assert!(g <= r, "a generic load step that is no source load");
        reads += r;
        generic += g;
        all_folded += usize::from(r > 0 && g == 0);
        none_folded += usize::from(r > 0 && g == r);
        let mut ctx = ctx_bytes(case.layout.size(), case.fill);
        match prog.prepare(&case.layout).run(&mut ctx, &env, 1 << 16) {
            Ok(_) => finished += 1,
            Err(cbpf::RunError::BadAccess { .. }) => bad_access += 1,
            Err(e) => panic!("unexpected fault class {e:?}"),
        }
    }
    assert!(
        generic * 4 > reads && generic * 4 < reads * 3,
        "{generic} of {reads} generic"
    );
    assert!(
        all_folded >= 40 && none_folded >= 40,
        "{all_folded} / {none_folded}"
    );
    assert!(
        finished >= 60 && bad_access >= 60,
        "{finished} / {bad_access}"
    );
}

/// The entry facts (`r1` is the context pointer) hold at slot 0 only the
/// first time through: a program that clears `r1` and jumps back there
/// must fault on its second pass, not read the context again.
#[test]
fn a_jump_back_to_the_entry_forgets_the_entry_facts() {
    let layout = CtxLayout::builder()
        .field("f0", 8, FieldAccess::ReadOnly)
        .build();
    let prog = Program::new(
        "again",
        vec![
            Insn::Load {
                size: MemSize::Dw,
                dst: Reg(2),
                base: Reg::R1,
                off: 0,
            },
            mov(Reg::R1, Operand::Imm(0)),
            Insn::Ja { off: -3 },
            Insn::Exit,
        ],
        Vec::new(),
    );
    let prepared = prog.prepare(&layout);
    let env = FixedEnv::new();
    for budget in 0..8 {
        let interp = prepared.run_tier(ExecTier::Interp, &mut [7u8; 8], &env, budget);
        let jit = prepared.run_tier(ExecTier::Jit, &mut [7u8; 8], &env, budget);
        assert_eq!(interp, jit, "budget {budget}");
    }
    let got = prepared.run(&mut [7u8; 8], &env, 64);
    assert_eq!(got, Err(cbpf::RunError::BadAccess { pc: 0, addr: 0 }));
}

/// A hash map with key 0 present, so a lookup of the all-zero key the
/// prepared engines read from an unwritten frame hits.
fn zero_key_map() -> Arc<Map> {
    let map = Arc::new(Map::new(MapDef {
        name: "m".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 4,
    }));
    map.update(&0u32.to_le_bytes(), &5u64.to_le_bytes(), 0)
        .unwrap();
    map
}

fn call(helper: HelperId) -> Insn {
    Insn::Call {
        helper: helper as u32,
    }
}

fn add(dst: Reg, imm: i32) -> Insn {
    Insn::Alu {
        wide: true,
        op: AluOp::Add,
        dst,
        src: Operand::Imm(imm),
    }
}

/// `ja +0`: the next instruction becomes a join point, where the compiler
/// forgets every register but `r10`, so an address copied from `r10`
/// before it is a run-time value after it.
const JOIN: Insn = Insn::Ja { off: 0 };

/// Programs whose one way to the frame is one kind of compiled step each,
/// and whether they read only frame bytes they wrote (the legacy
/// interpreter faults on an unwritten one, where the prepared engines
/// read zero).
fn frame_cases() -> Vec<(&'static str, Vec<Insn>, bool)> {
    let ldmap = Insn::LdMapRef {
        dst: Reg::R1,
        map_id: 0,
    };
    let key = [mov(Reg(2), Operand::Reg(Reg::R10)), add(Reg(2), -4)];
    let update_args = [
        mov(Reg(3), Operand::Reg(Reg::R10)),
        add(Reg(3), -16),
        mov(Reg(4), Operand::Imm(0)),
    ];
    let exit0 = [mov(Reg::R0, Operand::Imm(0)), Insn::Exit];
    let load = Insn::Load {
        size: MemSize::Dw,
        dst: Reg::R0,
        base: Reg(2),
        off: -8,
    };
    let store = Insn::Store {
        size: MemSize::Dw,
        base: Reg(2),
        off: -8,
        src: Operand::Imm(7),
    };
    let branch = Insn::Jmp {
        op: JmpOp::Eq,
        dst: Reg::R0,
        src: Operand::Imm(0),
        off: 1,
    };
    vec![
        ("generic load", vec![key[0], JOIN, load, Insn::Exit], false),
        (
            "generic store",
            [&[key[0], JOIN, store][..], &exit0].concat(),
            true,
        ),
        (
            "unbranched lookup call",
            [&[ldmap][..], &key, &[call(HelperId::MapLookup), Insn::Exit]].concat(),
            false,
        ),
        (
            "lookup and branch",
            [
                &[ldmap][..],
                &key,
                &[call(HelperId::MapLookup), branch],
                &exit0,
            ]
            .concat(),
            false,
        ),
        (
            "generic lookup",
            [
                &[ldmap][..],
                &key,
                &[JOIN, call(HelperId::MapLookup), Insn::Exit],
            ]
            .concat(),
            false,
        ),
        (
            "update call",
            [
                &[ldmap][..],
                &key,
                &update_args,
                &[call(HelperId::MapUpdate), Insn::Exit],
            ]
            .concat(),
            false,
        ),
        (
            "generic update",
            [
                &[ldmap][..],
                &key,
                &update_args,
                &[JOIN, call(HelperId::MapUpdate), Insn::Exit],
            ]
            .concat(),
            false,
        ),
        (
            "trace",
            vec![
                mov(Reg::R1, Operand::Reg(Reg::R10)),
                add(Reg::R1, -8),
                mov(Reg(2), Operand::Imm(8)),
                call(HelperId::TracePrintk),
                Insn::Exit,
            ],
            false,
        ),
        (
            "frame read",
            vec![
                Insn::Load {
                    size: MemSize::Dw,
                    dst: Reg::R0,
                    base: Reg::R10,
                    off: -8,
                },
                Insn::Exit,
            ],
            false,
        ),
        (
            "frame store and read",
            vec![
                call(HelperId::CpuId),
                Insn::Store {
                    size: MemSize::Dw,
                    base: Reg::R10,
                    off: -8,
                    src: Operand::Reg(Reg::R0),
                },
                Insn::Load {
                    size: MemSize::Dw,
                    dst: Reg::R0,
                    base: Reg::R10,
                    off: -8,
                },
                Insn::Exit,
            ],
            true,
        ),
    ]
}

/// A compiled program that reaches no frame runs without one, so
/// `JitProgram::uses_frame` must be true for every kind of step that can
/// address it. Each program here reaches its frame through one kind only;
/// with the flag wrong for that kind its compiled run faults or panics
/// where the prepared interpreter, which always has a frame, returns. It
/// must instead match the interpreter (and legacy, where legacy is
/// defined) in report, trace and map contents at every budget.
#[test]
fn every_kind_of_frame_access_keeps_its_frame() {
    let layout = CtxLayout::empty();
    for (name, insns, legacy_comparable) in frame_cases() {
        let build = || {
            let map = zero_key_map();
            let prog = Program::new(name, insns.clone(), vec![Arc::clone(&map)]);
            (prog, map)
        };
        let (prog, _) = build();
        let jit = prog.prepare(&layout).compile_jit();
        assert!(jit.uses_frame(), "{name}: {jit:?}");
        let full = insns.len() as u64 + 1;
        for budget in 0..=full {
            let run = |tier: Option<ExecTier>| {
                let (prog, map) = build();
                let env = FixedEnv::new().cpu(3);
                let got = match tier {
                    Some(tier) => prog.prepare(&layout).run_tier(tier, &mut [], &env, budget),
                    None => run_with_budget(&prog, &mut [], &layout, &env, budget),
                };
                (got, env.traces(), map.lookup_copy(&0u32.to_le_bytes(), 0))
            };
            let interp = run(Some(ExecTier::Interp));
            let compiled = run(Some(ExecTier::Jit));
            assert_eq!(interp, compiled, "{name}, budget {budget}");
            if legacy_comparable {
                assert_eq!(run(None), compiled, "{name}: legacy, budget {budget}");
            }
        }
    }
}
