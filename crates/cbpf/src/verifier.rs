//! The policy verifier: a path-sensitive abstract interpreter.
//!
//! This is the safety core of the Concord workflow (Fig. 1, steps 2–4):
//! a policy is only ever patched into a lock after this pass proves, for
//! every execution path, that it
//!
//! * terminates — backward jumps are rejected, so the CFG is a DAG and
//!   every path is finite (classic-BPF discipline);
//! * never reads an uninitialized register or stack byte;
//! * only dereferences well-typed pointers within their region — the
//!   512-byte stack, the hook context (with per-field permissions from
//!   [`CtxLayout`]), or a map value after an explicit null check;
//! * calls only known helpers with correctly-typed arguments;
//! * returns an initialized scalar.
//!
//! On top of the eBPF-style rules, per-hook [`HookRules`] add Concord's
//! lock-safety restrictions (§4.2 of the paper): tighter instruction
//! budgets for hooks on the critical path, helper allowlists for decision
//! hooks, and a ban on context writes where a hook's contract is
//! decision-only.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ctx::CtxLayout;
use crate::error::VerifyError;
use crate::helpers::{ArgSpec, HelperId, RetSpec};
use crate::insn::{AluOp, Insn, JmpOp, Operand, Reg, MAX_INSNS, STACK_SIZE};
use crate::program::Program;

/// Maximum number of abstract states explored before giving up.
pub const STATE_BUDGET: usize = 100_000;

const NUM_SLOTS: usize = STACK_SIZE / 8;

/// Abstract type of a register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum RType {
    Uninit,
    /// Scalar; `Some` when the exact value is known.
    Scalar(Option<u64>),
    /// Pointer into the stack region; `off` is absolute in `[0, 512]`.
    PtrStack {
        off: i64,
    },
    /// Pointer into the context; `off` relative to context start.
    PtrCtx {
        off: i64,
    },
    /// Pointer into a map value.
    PtrMapVal {
        map: u32,
        off: i64,
    },
    /// Result of `map_lookup_elem`: map value pointer or null.
    NullOrMapVal {
        map: u32,
    },
    /// A map reference from `ldmap`.
    MapRef {
        map: u32,
    },
}

impl RType {
    fn is_pointer(self) -> bool {
        matches!(
            self,
            RType::PtrStack { .. }
                | RType::PtrCtx { .. }
                | RType::PtrMapVal { .. }
                | RType::NullOrMapVal { .. }
                | RType::MapRef { .. }
        )
    }
}

/// Abstract state of one 8-byte stack slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Slot {
    /// Bitmask of initialized bytes holding scalar data.
    Bytes(u8),
    /// A full 8-byte register spill (possibly a pointer).
    Spill(RType),
}

/// The explored-state set's hasher: FxHash's rotate-xor-multiply, one
/// step a word. The states are the verifier's own, not an adversary's
/// keys, so a keyed SipHash buys nothing here; which states the set holds
/// (and so the `states` count) depends on `Eq` alone, not on the hash.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct VState {
    regs: [RType; 11],
    stack: [Slot; NUM_SLOTS],
}

impl VState {
    fn entry(has_ctx: bool) -> VState {
        let mut regs = [RType::Uninit; 11];
        if has_ctx {
            regs[1] = RType::PtrCtx { off: 0 };
        }
        regs[10] = RType::PtrStack {
            off: STACK_SIZE as i64,
        };
        VState {
            regs,
            stack: [Slot::Bytes(0); NUM_SLOTS],
        }
    }

    fn read(&self, pc: usize, r: Reg) -> Result<RType, VerifyError> {
        let t = self.regs[r.0 as usize];
        if t == RType::Uninit {
            Err(VerifyError::UninitRegister { pc, reg: r.0 })
        } else {
            Ok(t)
        }
    }

    fn write(&mut self, pc: usize, r: Reg, t: RType) -> Result<(), VerifyError> {
        if r == Reg::R10 {
            return Err(VerifyError::FramePointerWrite { pc });
        }
        self.regs[r.0 as usize] = t;
        Ok(())
    }

    /// Checks that stack bytes `[off, off + len)` are initialized.
    fn stack_readable(&self, pc: usize, off: i64, len: usize) -> Result<(), VerifyError> {
        if off < 0 || off as usize + len > STACK_SIZE {
            return Err(VerifyError::OutOfBounds { pc, off, size: len });
        }
        for b in off as usize..off as usize + len {
            let ok = match self.stack[b / 8] {
                Slot::Bytes(mask) => mask & (1 << (b % 8)) != 0,
                Slot::Spill(_) => true,
            };
            if !ok {
                return Err(VerifyError::UninitStack { pc, off: b as i64 });
            }
        }
        Ok(())
    }

    /// Marks stack bytes `[off, off + len)` initialized with scalar data,
    /// degrading any overlapped spill to opaque bytes.
    fn stack_write_bytes(&mut self, pc: usize, off: i64, len: usize) -> Result<(), VerifyError> {
        if off < 0 || off as usize + len > STACK_SIZE {
            return Err(VerifyError::OutOfBounds { pc, off, size: len });
        }
        for b in off as usize..off as usize + len {
            let slot = &mut self.stack[b / 8];
            match slot {
                Slot::Bytes(mask) => *mask |= 1 << (b % 8),
                Slot::Spill(_) => {
                    // A partial overwrite of a spill leaves the remaining
                    // bytes initialized but untyped.
                    *slot = Slot::Bytes(0xff);
                    if let Slot::Bytes(mask) = slot {
                        *mask |= 1 << (b % 8);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Hook-specific safety rules layered on top of the core checks.
///
/// Concord instantiates these per Table 1 hook; see the crate-level docs.
#[derive(Clone, Debug, Default)]
pub struct HookRules {
    /// Tighter instruction-count limit (e.g. for hooks on the critical
    /// path), checked against the static program length.
    pub max_insns: Option<usize>,
    /// When set, only these helpers may be called.
    pub allowed_helpers: Option<Vec<HelperId>>,
    /// When false, any context write is rejected even if the layout field
    /// is read-write.
    pub allow_ctx_writes: bool,
}

impl HookRules {
    /// Rules that allow everything (pure eBPF-style verification).
    pub fn permissive() -> Self {
        HookRules {
            max_insns: None,
            allowed_helpers: None,
            allow_ctx_writes: true,
        }
    }
}

/// Verifies `prog` against a context layout with permissive hook rules.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found on any path.
pub fn verify(prog: &Program, layout: &CtxLayout) -> Result<(), VerifyError> {
    verify_with_rules(prog, layout, &HookRules::permissive())
}

/// Verifies `prog` against a context layout and hook rules.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found on any path.
pub fn verify_with_rules(
    prog: &Program,
    layout: &CtxLayout,
    rules: &HookRules,
) -> Result<(), VerifyError> {
    let insns = prog.insns();
    let len = insns.len();
    if len == 0 || len > MAX_INSNS {
        return Err(VerifyError::BadProgramSize { len });
    }
    if let Some(max) = rules.max_insns {
        if len > max {
            return Err(VerifyError::HookRule {
                rule: "program exceeds the hook's instruction limit",
            });
        }
    }

    // Static CFG checks: every jump lands in-bounds and forward.
    for (pc, insn) in insns.iter().enumerate() {
        let off = match insn {
            Insn::Ja { off } => Some(*off),
            Insn::Jmp { off, .. } => Some(*off),
            _ => None,
        };
        if let Some(off) = off {
            let t = pc as i64 + 1 + i64::from(off);
            if t < 0 || t >= len as i64 {
                return Err(VerifyError::JumpOutOfBounds { pc });
            }
            if t <= pc as i64 {
                return Err(VerifyError::BackEdge { pc });
            }
        }
    }

    let mut worklist: Vec<(usize, VState)> = vec![(0, VState::entry(layout.size() > 0))];
    let mut visited: HashSet<(usize, VState), BuildHasherDefault<StateHasher>> = HashSet::default();
    let mut states = 0usize;

    while let Some((pc, state)) = worklist.pop() {
        if !visited.insert((pc, state.clone())) {
            continue;
        }
        states += 1;
        if states > STATE_BUDGET {
            return Err(VerifyError::TooComplex { states });
        }
        if pc >= len {
            return Err(VerifyError::FallOffEnd);
        }
        step(
            prog,
            layout,
            rules,
            pc,
            state,
            &mut |next_pc, next_state| worklist.push((next_pc, next_state)),
        )?;
    }
    Ok(())
}

/// Executes one instruction abstractly, pushing successor states.
fn step(
    prog: &Program,
    layout: &CtxLayout,
    rules: &HookRules,
    pc: usize,
    mut st: VState,
    push: &mut dyn FnMut(usize, VState),
) -> Result<(), VerifyError> {
    match prog.insns()[pc] {
        Insn::Alu { wide, op, dst, src } => {
            let res = abstract_alu(pc, &st, wide, op, dst, src)?;
            st.write(pc, dst, res)?;
            push(pc + 1, st);
        }
        Insn::LdImm64 { dst, imm } => {
            st.write(pc, dst, RType::Scalar(Some(imm)))?;
            push(pc + 1, st);
        }
        Insn::LdMapRef { dst, map_id } => {
            if prog.map(map_id).is_none() {
                return Err(VerifyError::UnknownMap { pc, map_id });
            }
            st.write(pc, dst, RType::MapRef { map: map_id })?;
            push(pc + 1, st);
        }
        Insn::Load {
            size,
            dst,
            base,
            off,
        } => {
            let bt = st.read(pc, base)?;
            let n = size.bytes();
            let loaded = match bt {
                RType::PtrStack { off: base_off } => {
                    let a = base_off + i64::from(off);
                    check_align(pc, a, n)?;
                    // An aligned 8-byte load of a spill restores its type.
                    if n == 8 && a >= 0 && (a as usize) < STACK_SIZE {
                        if let Slot::Spill(t) = st.stack[a as usize / 8] {
                            st.write(pc, dst, t)?;
                            push(pc + 1, st);
                            return Ok(());
                        }
                    }
                    st.stack_readable(pc, a, n)?;
                    RType::Scalar(None)
                }
                RType::PtrCtx { off: base_off } => {
                    let a = base_off + i64::from(off);
                    layout.check_access(pc, a, n, false)?;
                    RType::Scalar(None)
                }
                RType::PtrMapVal { map, off: base_off } => {
                    let a = base_off + i64::from(off);
                    let vsize = prog.map(map).map(|m| m.def().value_size).unwrap_or(0);
                    if a < 0 || a as usize + n > vsize {
                        return Err(VerifyError::OutOfBounds {
                            pc,
                            off: a,
                            size: n,
                        });
                    }
                    check_align(pc, a, n)?;
                    RType::Scalar(None)
                }
                RType::NullOrMapVal { .. } => {
                    return Err(VerifyError::PossiblyNullDeref { pc, reg: base.0 })
                }
                _ => return Err(VerifyError::NotAPointer { pc, reg: base.0 }),
            };
            st.write(pc, dst, loaded)?;
            push(pc + 1, st);
        }
        Insn::Store {
            size,
            base,
            off,
            src,
        } => {
            let bt = st.read(pc, base)?;
            let n = size.bytes();
            let val_t = match src {
                Operand::Reg(r) => st.read(pc, r)?,
                Operand::Imm(i) => RType::Scalar(Some(i as i64 as u64)),
            };
            match bt {
                RType::PtrStack { off: base_off } => {
                    let a = base_off + i64::from(off);
                    check_align(pc, a, n)?;
                    if val_t.is_pointer() {
                        // Pointer spills must be full slots.
                        if n != 8 || a % 8 != 0 {
                            return Err(VerifyError::BadPointerArithmetic { pc });
                        }
                        if a < 0 || a as usize + 8 > STACK_SIZE {
                            return Err(VerifyError::OutOfBounds {
                                pc,
                                off: a,
                                size: n,
                            });
                        }
                        st.stack[a as usize / 8] = Slot::Spill(val_t);
                    } else {
                        st.stack_write_bytes(pc, a, n)?;
                    }
                }
                RType::PtrCtx { off: base_off } => {
                    if !rules.allow_ctx_writes {
                        return Err(VerifyError::HookRule {
                            rule: "this hook forbids context writes",
                        });
                    }
                    if val_t.is_pointer() {
                        return Err(VerifyError::BadPointerArithmetic { pc });
                    }
                    let a = base_off + i64::from(off);
                    layout.check_access(pc, a, n, true)?;
                }
                RType::PtrMapVal { map, off: base_off } => {
                    if val_t.is_pointer() {
                        return Err(VerifyError::BadPointerArithmetic { pc });
                    }
                    let a = base_off + i64::from(off);
                    let vsize = prog.map(map).map(|m| m.def().value_size).unwrap_or(0);
                    if a < 0 || a as usize + n > vsize {
                        return Err(VerifyError::OutOfBounds {
                            pc,
                            off: a,
                            size: n,
                        });
                    }
                    check_align(pc, a, n)?;
                }
                RType::NullOrMapVal { .. } => {
                    return Err(VerifyError::PossiblyNullDeref { pc, reg: base.0 })
                }
                _ => return Err(VerifyError::NotAPointer { pc, reg: base.0 }),
            }
            push(pc + 1, st);
        }
        Insn::Ja { off } => {
            push((pc as i64 + 1 + i64::from(off)) as usize, st);
        }
        Insn::Jmp { op, dst, src, off } => {
            branch(pc, &st, op, dst, src, off, push)?;
        }
        Insn::Call { helper } => {
            call_helper(prog, rules, pc, &mut st, helper)?;
            push(pc + 1, st);
        }
        Insn::Exit => {
            match st.regs[0] {
                RType::Scalar(_) => {}
                _ => return Err(VerifyError::BadReturnValue { pc }),
            }
            // Path ends; nothing pushed.
        }
    }
    Ok(())
}

fn check_align(pc: usize, off: i64, n: usize) -> Result<(), VerifyError> {
    if off < 0 {
        return Err(VerifyError::OutOfBounds { pc, off, size: n });
    }
    if off % n as i64 != 0 {
        Err(VerifyError::Unaligned { pc, off })
    } else {
        Ok(())
    }
}

fn abstract_alu(
    pc: usize,
    st: &VState,
    wide: bool,
    op: AluOp,
    dst: Reg,
    src: Operand,
) -> Result<RType, VerifyError> {
    let src_t = match src {
        Operand::Reg(r) => st.read(pc, r)?,
        Operand::Imm(i) => RType::Scalar(Some(if wide {
            i as i64 as u64
        } else {
            u64::from(i as u32)
        })),
    };

    if op == AluOp::Mov {
        if !wide {
            // A 32-bit move truncates; a truncated pointer is a scalar.
            return match src_t {
                RType::Scalar(Some(v)) => Ok(RType::Scalar(Some(u64::from(v as u32)))),
                RType::Scalar(None) => Ok(RType::Scalar(None)),
                _ => Err(VerifyError::BadPointerArithmetic { pc }),
            };
        }
        return Ok(src_t);
    }

    let dst_t = st.read(pc, dst)?;

    // Pointer arithmetic: only wide add/sub of a known-constant scalar.
    if dst_t.is_pointer() {
        if !wide || !matches!(op, AluOp::Add | AluOp::Sub) {
            return Err(VerifyError::BadPointerArithmetic { pc });
        }
        let k = match src_t {
            RType::Scalar(Some(v)) => v as i64,
            _ => return Err(VerifyError::BadPointerArithmetic { pc }),
        };
        let delta = if op == AluOp::Add { k } else { -k };
        return match dst_t {
            RType::PtrStack { off } => Ok(RType::PtrStack { off: off + delta }),
            RType::PtrCtx { off } => Ok(RType::PtrCtx { off: off + delta }),
            RType::PtrMapVal { map, off } => Ok(RType::PtrMapVal {
                map,
                off: off + delta,
            }),
            // Offsetting a maybe-null or map-ref pointer is meaningless.
            _ => Err(VerifyError::BadPointerArithmetic { pc }),
        };
    }
    if src_t.is_pointer() {
        return Err(VerifyError::BadPointerArithmetic { pc });
    }

    // Scalar ⊗ scalar.
    let (dk, sk) = match (dst_t, src_t) {
        (RType::Scalar(d), RType::Scalar(s)) => (d, s),
        _ => unreachable!("pointers handled above"),
    };
    if matches!(op, AluOp::Div | AluOp::Mod) {
        if let Some(s) = sk {
            let zero = if wide { s == 0 } else { s as u32 == 0 };
            if zero {
                return Err(VerifyError::DivByZero { pc });
            }
        }
    }
    let known = match (dk, sk) {
        (Some(a), Some(b)) => Some(if wide {
            crate::interp::fold64(op, a, b)
        } else {
            u64::from(crate::interp::fold32(op, a as u32, b as u32))
        }),
        (Some(a), None) if op == AluOp::Neg => Some(if wide {
            crate::interp::fold64(op, a, 0)
        } else {
            u64::from(crate::interp::fold32(op, a as u32, 0))
        }),
        _ => None,
    };
    Ok(RType::Scalar(known))
}

#[allow(clippy::too_many_arguments)]
fn branch(
    pc: usize,
    st: &VState,
    op: JmpOp,
    dst: Reg,
    src: Operand,
    off: i16,
    push: &mut dyn FnMut(usize, VState),
) -> Result<(), VerifyError> {
    let taken_pc = (pc as i64 + 1 + i64::from(off)) as usize;
    let fall_pc = pc + 1;
    let dst_t = st.read(pc, dst)?;
    let src_t = match src {
        Operand::Reg(r) => st.read(pc, r)?,
        Operand::Imm(i) => RType::Scalar(Some(i as i64 as u64)),
    };

    match (dst_t, src_t) {
        // Null check of a lookup result: the only pointer comparison we
        // accept, and the one that refines the type.
        (RType::NullOrMapVal { map }, RType::Scalar(Some(0)))
            if matches!(op, JmpOp::Eq | JmpOp::Ne) =>
        {
            let mut null_st = st.clone();
            null_st.regs[dst.0 as usize] = RType::Scalar(Some(0));
            let mut ptr_st = st.clone();
            ptr_st.regs[dst.0 as usize] = RType::PtrMapVal { map, off: 0 };
            if op == JmpOp::Eq {
                push(taken_pc, null_st);
                push(fall_pc, ptr_st);
            } else {
                push(taken_pc, ptr_st);
                push(fall_pc, null_st);
            }
            Ok(())
        }
        (RType::Scalar(dk), RType::Scalar(sk)) => {
            if let (Some(a), Some(b)) = (dk, sk) {
                // Constant fold: only one successor is feasible.
                if op.eval(a, b) {
                    push(taken_pc, st.clone());
                } else {
                    push(fall_pc, st.clone());
                }
                return Ok(());
            }
            // Equality against a constant pins the value on one edge.
            let mut taken = st.clone();
            let mut fall = st.clone();
            if let (JmpOp::Eq, None, Some(b)) = (op, dk, sk) {
                taken.regs[dst.0 as usize] = RType::Scalar(Some(b));
            }
            if let (JmpOp::Ne, None, Some(b)) = (op, dk, sk) {
                fall.regs[dst.0 as usize] = RType::Scalar(Some(b));
            }
            push(taken_pc, taken);
            push(fall_pc, fall);
            Ok(())
        }
        _ => Err(VerifyError::BadPointerArithmetic { pc }),
    }
}

fn call_helper(
    prog: &Program,
    rules: &HookRules,
    pc: usize,
    st: &mut VState,
    helper: u32,
) -> Result<(), VerifyError> {
    let id = HelperId::from_u32(helper).ok_or(VerifyError::UnknownHelper { pc, helper })?;
    if let Some(allowed) = &rules.allowed_helpers {
        if !allowed.contains(&id) {
            return Err(VerifyError::HookRule {
                rule: "helper not allowed in this hook",
            });
        }
    }
    let sig = id.sig();
    let mut map_ctx: Option<u32> = None;
    for (i, spec) in sig.args.iter().enumerate() {
        let reg = Reg(1 + i as u8);
        let t = st.read(pc, reg).map_err(|_| VerifyError::BadHelperArg {
            pc,
            helper,
            arg: (i + 1) as u8,
            expected: "an initialized value",
        })?;
        match spec {
            ArgSpec::Scalar => {
                if !matches!(t, RType::Scalar(_)) {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: (i + 1) as u8,
                        expected: "a scalar",
                    });
                }
            }
            ArgSpec::MapRef => match t {
                RType::MapRef { map } => {
                    if prog.map(map).is_none() {
                        return Err(VerifyError::UnknownMap { pc, map_id: map });
                    }
                    map_ctx = Some(map);
                }
                _ => {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: (i + 1) as u8,
                        expected: "a map reference",
                    })
                }
            },
            ArgSpec::MapKeyPtr | ArgSpec::MapValuePtr => {
                let map = map_ctx.ok_or(VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg: (i + 1) as u8,
                    expected: "a map argument before this pointer",
                })?;
                let need = match spec {
                    ArgSpec::MapKeyPtr => prog.map(map).unwrap().def().key_size,
                    _ => prog.map(map).unwrap().def().value_size,
                };
                match t {
                    RType::PtrStack { off } => st.stack_readable(pc, off, need)?,
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: (i + 1) as u8,
                            expected: "a stack pointer",
                        })
                    }
                }
            }
            ArgSpec::StackBufWithLen => {
                let len_reg = Reg(1 + i as u8 + 1);
                let len = match st.read(pc, len_reg) {
                    Ok(RType::Scalar(Some(v))) => v,
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: (i + 2) as u8,
                            expected: "a known-constant length",
                        })
                    }
                };
                if len as usize > STACK_SIZE {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: (i + 2) as u8,
                        expected: "a length within the stack",
                    });
                }
                // `trace_emit` payloads are bounded by the trace record's
                // inline capacity, and an empty emit is meaningless —
                // reject both ends statically so the runtime check can
                // never fire on a verified program.
                if id == HelperId::TraceEmit
                    && !(1..=crate::helpers::TRACE_EMIT_MAX_PAYLOAD as u64).contains(&len)
                {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: (i + 2) as u8,
                        expected: "a trace_emit payload length in 1..=16",
                    });
                }
                match t {
                    RType::PtrStack { off } => st.stack_readable(pc, off, len as usize)?,
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: (i + 1) as u8,
                            expected: "a stack pointer",
                        })
                    }
                }
            }
        }
    }
    // Clobber caller-saved registers; set the return type.
    for r in 1..=5 {
        st.regs[r] = RType::Uninit;
    }
    st.regs[0] = match sig.ret {
        RetSpec::Scalar => RType::Scalar(None),
        RetSpec::MapValueOrNull => RType::NullOrMapVal {
            map: map_ctx.expect("map helpers always take a map first"),
        },
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FieldAccess;
    use crate::insn::MemSize;
    use crate::map::{Map, MapDef, MapKind};
    use crate::program::ProgramBuilder;
    use std::sync::Arc;

    fn ok(prog: &Program) {
        verify(prog, &CtxLayout::empty()).expect("should verify");
    }

    fn rejects(prog: &Program) -> VerifyError {
        verify(prog, &CtxLayout::empty()).expect_err("should reject")
    }

    fn trivial() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn accepts_trivial_program() {
        ok(&trivial());
    }

    #[test]
    fn rejects_empty_program() {
        let p = Program::new("e", vec![], vec![]);
        assert!(matches!(
            rejects(&p),
            VerifyError::BadProgramSize { len: 0 }
        ));
    }

    #[test]
    fn rejects_back_edge() {
        let p = Program::new(
            "loop",
            vec![
                Insn::Alu {
                    wide: true,
                    op: AluOp::Mov,
                    dst: Reg::R0,
                    src: Operand::Imm(0),
                },
                Insn::Ja { off: -2 },
                Insn::Exit,
            ],
            vec![],
        );
        assert!(matches!(rejects(&p), VerifyError::BackEdge { pc: 1 }));
    }

    #[test]
    fn rejects_jump_out_of_bounds() {
        let p = Program::new("j", vec![Insn::Ja { off: 5 }, Insn::Exit], vec![]);
        assert!(matches!(
            rejects(&p),
            VerifyError::JumpOutOfBounds { pc: 0 }
        ));
    }

    #[test]
    fn rejects_fall_off_end() {
        let p = Program::new(
            "f",
            vec![Insn::Alu {
                wide: true,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(0),
            }],
            vec![],
        );
        assert!(matches!(rejects(&p), VerifyError::FallOffEnd));
    }

    #[test]
    fn rejects_uninit_register() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R0, Reg::R5);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::UninitRegister { reg: 5, .. }
        ));
    }

    #[test]
    fn rejects_uninit_return() {
        let p = Program::new("r", vec![Insn::Exit], vec![]);
        assert!(matches!(rejects(&p), VerifyError::BadReturnValue { .. }));
    }

    #[test]
    fn rejects_frame_pointer_write() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R10, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::FramePointerWrite { .. }
        ));
    }

    #[test]
    fn rejects_uninit_stack_read() {
        let mut b = ProgramBuilder::new("t");
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::UninitStack { .. }
        ));
    }

    #[test]
    fn rejects_stack_out_of_bounds() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 1);
        b.store(MemSize::Dw, Reg::R10, -520, Reg::R1);
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn rejects_unaligned_stack_access() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 1);
        b.store(MemSize::Dw, Reg::R10, -12, Reg::R1);
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::Unaligned { .. }
        ));
    }

    #[test]
    fn accepts_stack_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 7);
        b.store(MemSize::Dw, Reg::R10, -8, Reg::R1);
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
        b.exit();
        ok(&b.build().unwrap());
    }

    #[test]
    fn pointer_spill_and_fill_preserves_type() {
        let layout = CtxLayout::builder()
            .field("x", 8, FieldAccess::ReadOnly)
            .build();
        let mut b = ProgramBuilder::new("t");
        // Spill the ctx pointer, fill it back, then load through it.
        b.store(MemSize::Dw, Reg::R10, -8, Reg::R1);
        b.load(MemSize::Dw, Reg::R2, Reg::R10, -8);
        b.load(MemSize::Dw, Reg::R0, Reg::R2, 0);
        b.exit();
        verify(&b.build().unwrap(), &layout).expect("spill/fill should verify");
    }

    #[test]
    fn rejects_partial_pointer_spill() {
        let mut b = ProgramBuilder::new("t");
        b.store(MemSize::W, Reg::R10, -4, Reg::R10); // 4-byte pointer store.
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::BadPointerArithmetic { .. }
        ));
    }

    #[test]
    fn ctx_rules_enforced() {
        let layout = CtxLayout::builder()
            .field("ro", 8, FieldAccess::ReadOnly)
            .field("rw", 8, FieldAccess::ReadWrite)
            .build();
        // Read-only field write rejected.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.store(MemSize::Dw, Reg::R1, 0, Reg::R0);
        b.exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &layout),
            Err(VerifyError::ReadOnlyCtxField { field: "ro", .. })
        ));
        // Read-write field write accepted.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.store(MemSize::Dw, Reg::R1, 8, Reg::R0);
        b.exit();
        verify(&b.build().unwrap(), &layout).unwrap();
        // Unknown offset rejected.
        let mut b = ProgramBuilder::new("t");
        b.load(MemSize::W, Reg::R0, Reg::R1, 4);
        b.exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &layout),
            Err(VerifyError::BadCtxAccess { .. })
        ));
    }

    #[test]
    fn hook_rules_ctx_write_ban() {
        let layout = CtxLayout::builder()
            .field("rw", 8, FieldAccess::ReadWrite)
            .build();
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.store(MemSize::Dw, Reg::R1, 0, Reg::R0);
        b.exit();
        let rules = HookRules {
            allow_ctx_writes: false,
            ..HookRules::permissive()
        };
        assert!(matches!(
            verify_with_rules(&b.build().unwrap(), &layout, &rules),
            Err(VerifyError::HookRule { .. })
        ));
    }

    #[test]
    fn hook_rules_helper_allowlist() {
        let mut b = ProgramBuilder::new("t");
        b.call(HelperId::KtimeNs);
        b.exit();
        let rules = HookRules {
            allowed_helpers: Some(vec![HelperId::CpuId]),
            ..HookRules::permissive()
        };
        assert!(matches!(
            verify_with_rules(&b.build().unwrap(), &CtxLayout::empty(), &rules),
            Err(VerifyError::HookRule { .. })
        ));
    }

    #[test]
    fn hook_rules_insn_limit() {
        let rules = HookRules {
            max_insns: Some(1),
            ..HookRules::permissive()
        };
        assert!(matches!(
            verify_with_rules(&trivial(), &CtxLayout::empty(), &rules),
            Err(VerifyError::HookRule { .. })
        ));
    }

    #[test]
    fn rejects_div_by_constant_zero() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 5);
        b.alu_imm(AluOp::Div, Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::DivByZero { .. }
        ));
        // Unknown divisor is fine (runtime yields 0).
        let mut b = ProgramBuilder::new("t");
        b.call(HelperId::CpuId);
        b.mov(Reg::R1, Reg::R0);
        b.mov_imm(Reg::R0, 5);
        b.alu(AluOp::Div, Reg::R0, Reg::R1);
        b.exit();
        ok(&b.build().unwrap());
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        }));
        // Without a null check: rejected.
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(Arc::clone(&map));
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 0);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        b.call(HelperId::MapLookup);
        b.load(MemSize::Dw, Reg::R0, Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::PossiblyNullDeref { .. }
        ));

        // With a null check: accepted.
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(map);
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 0);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        b.call(HelperId::MapLookup);
        b.jmp_imm(JmpOp::Ne, Reg::R0, 0, "hit");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        b.label("hit");
        b.load(MemSize::Dw, Reg::R0, Reg::R0, 0);
        b.exit();
        ok(&b.build().unwrap());
    }

    #[test]
    fn map_value_bounds_checked() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        }));
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(map);
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 0);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        b.call(HelperId::MapLookup);
        b.jmp_imm(JmpOp::Ne, Reg::R0, 0, "hit");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        b.label("hit");
        b.load(MemSize::Dw, Reg::R0, Reg::R0, 8); // One past the end.
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn helper_arg_type_checked() {
        // map_lookup with a scalar instead of a map.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 0);
        b.mov(Reg::R2, Reg::R10);
        b.call(HelperId::MapLookup);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::BadHelperArg { arg: 1, .. }
        ));
    }

    #[test]
    fn helper_key_must_be_initialized() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        }));
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(map);
        b.ldmap(Reg::R1, mid);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4); // Key bytes never written.
        b.call(HelperId::MapLookup);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::UninitStack { .. }
        ));
    }

    #[test]
    fn unknown_helper_rejected() {
        let p = Program::new("u", vec![Insn::Call { helper: 999 }, Insn::Exit], vec![]);
        assert!(matches!(
            rejects(&p),
            VerifyError::UnknownHelper { helper: 999, .. }
        ));
    }

    #[test]
    fn unknown_map_rejected() {
        let p = Program::new(
            "u",
            vec![
                Insn::LdMapRef {
                    dst: Reg::R1,
                    map_id: 3,
                },
                Insn::Alu {
                    wide: true,
                    op: AluOp::Mov,
                    dst: Reg::R0,
                    src: Operand::Imm(0),
                },
                Insn::Exit,
            ],
            vec![],
        );
        assert!(matches!(
            rejects(&p),
            VerifyError::UnknownMap { map_id: 3, .. }
        ));
    }

    #[test]
    fn clobbered_registers_uninit_after_call() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R3, 1);
        b.call(HelperId::CpuId);
        b.mov(Reg::R0, Reg::R3);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::UninitRegister { reg: 3, .. }
        ));
        // Callee-saved survives.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R6, 1);
        b.call(HelperId::CpuId);
        b.mov(Reg::R0, Reg::R6);
        b.exit();
        ok(&b.build().unwrap());
    }

    #[test]
    fn both_branches_explored() {
        // The bad store only happens on one branch; it must still be found.
        let mut b = ProgramBuilder::new("t");
        b.call(HelperId::CpuId);
        b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "skip");
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8); // Uninit read.
        b.label("skip");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::UninitStack { .. }
        ));
    }

    /// `n` diamonds, each branching on a fresh unknown scalar and setting
    /// bit `i` of `r6` on one side: `2^n` distinct states reach the exit.
    fn diamonds(n: i32) -> Program {
        let mut b = ProgramBuilder::new("diamonds");
        b.mov_imm(Reg::R6, 0);
        for i in 0..n {
            b.call(HelperId::CpuId);
            b.jmp_imm(JmpOp::Eq, Reg::R0, 0, format!("d{i}"));
            b.alu_imm(AluOp::Or, Reg::R6, 1 << i);
            b.label(format!("d{i}"));
        }
        b.mov_imm(Reg::R0, 0);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn path_explosion_is_too_complex_at_the_budget() {
        ok(&diamonds(12));
        assert_eq!(
            rejects(&diamonds(20)),
            VerifyError::TooComplex {
                states: STATE_BUDGET + 1
            }
        );
    }

    #[test]
    fn constant_branches_fold() {
        // `if 1 == 1 goto` — the dead edge contains invalid code that must
        // NOT be reported because it is unreachable.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 1);
        b.jmp_imm(JmpOp::Eq, Reg::R1, 1, "good");
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8); // Dead.
        b.label("good");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        ok(&b.build().unwrap());
    }

    #[test]
    fn rejects_pointer_multiplication() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, Reg::R10);
        b.alu_imm(AluOp::Mul, Reg::R1, 2);
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::BadPointerArithmetic { .. }
        ));
    }

    #[test]
    fn rejects_variable_pointer_offset() {
        let mut b = ProgramBuilder::new("t");
        b.call(HelperId::CpuId);
        b.mov(Reg::R1, Reg::R10);
        b.alu(AluOp::Add, Reg::R1, Reg::R0); // Unknown offset.
        b.mov_imm(Reg::R0, 0);
        b.exit();
        assert!(matches!(
            rejects(&b.build().unwrap()),
            VerifyError::BadPointerArithmetic { .. }
        ));
    }

    #[test]
    fn accepts_numa_policy_shape() {
        // The shape of Concord's NUMA-aware cmp_node policy: compare two
        // ctx fields, return 1 when equal.
        let layout = CtxLayout::builder()
            .field("lock_id", 8, FieldAccess::ReadOnly)
            .field("shuffler_numa", 4, FieldAccess::ReadOnly)
            .field("curr_numa", 4, FieldAccess::ReadOnly)
            .build();
        let mut b = ProgramBuilder::new("numa");
        b.load(MemSize::W, Reg::R2, Reg::R1, 8);
        b.load(MemSize::W, Reg::R3, Reg::R1, 12);
        b.mov_imm(Reg::R0, 0);
        b.jmp(JmpOp::Ne, Reg::R2, Reg::R3, "out");
        b.mov_imm(Reg::R0, 1);
        b.label("out");
        b.exit();
        verify(&b.build().unwrap(), &layout).unwrap();
    }
}
