//! The policy interpreter.
//!
//! Runs a (normally verified) program against a context buffer and a
//! [`PolicyEnv`]. Every check the verifier performs statically is repeated
//! dynamically here — tagged pointers, bounds, initialization, context
//! field permissions — so that a verifier bug turns into a clean
//! [`RunError`] instead of memory unsafety. The property tests in
//! `verifier.rs` lean on this: *any accepted program must run without
//! faulting*.
//!
//! This is the legacy reference interpreter: it runs the program as
//! written, slot by slot. The two tiers that hooks run —
//! [`crate::prepare`]'s interpreter and the compiled tier
//! ([`crate::jit`]) — are diffed against it on reports, budgets, faults
//! and map contents (`tests/prepared_differential.rs`,
//! `tests/ctx_differential.rs`).

use std::sync::Arc;

use crate::ctx::CtxLayout;
use crate::error::RunError;
use crate::helpers::{mapops, HelperId, PolicyEnv};
use crate::insn::{AluOp, Insn, MemSize, Operand, Reg, STACK_SIZE};
use crate::map::Map;
use crate::program::Program;

/// Default instruction budget per invocation.
pub const DEFAULT_BUDGET: u64 = 1 << 20;

const TAG_STACK: u64 = 1;
const TAG_CTX: u64 = 2;
const TAG_MAPVAL: u64 = 3;
const TAG_MAPREF: u64 = 4;

fn ptr(tag: u64, index: u64, off: u32) -> u64 {
    (tag << 60) | (index << 32) | u64::from(off)
}

fn ptr_tag(v: u64) -> u64 {
    v >> 60
}

fn ptr_index(v: u64) -> u64 {
    (v >> 32) & 0x0fff_ffff
}

fn ptr_off(v: u64) -> u32 {
    v as u32
}

#[derive(Clone, Copy, Default)]
struct RtVal {
    v: u64,
    init: bool,
}

struct Machine<'a> {
    regs: [RtVal; 11],
    stack: [u8; STACK_SIZE],
    stack_init: [bool; STACK_SIZE],
    ctx: &'a mut [u8],
    layout: &'a CtxLayout,
    prog: &'a Program,
    env: &'a dyn PolicyEnv,
    // Map-value regions live policies hold pointers into: the owning map
    // plus the resolved value slot (kept alive by the `Arc`; slot bytes
    // stay stable until reuse even across a delete).
    map_regions: Vec<(Arc<Map>, u32)>,
    insns_executed: u64,
    budget: u64,
}

/// Outcome counters of one program run (for profiling benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Return value (`r0` at `exit`).
    pub ret: u64,
    /// Instructions executed, including both slots of `ldimm64` as one.
    pub insns: u64,
}

/// Runs `prog` with the default instruction budget.
///
/// # Errors
///
/// Returns [`RunError`] on any dynamic fault; verified programs only ever
/// produce [`RunError::BudgetExhausted`], and only if verified with a
/// smaller budget assumption than given here.
pub fn run_program(
    prog: &Program,
    ctx: &mut [u8],
    layout: &CtxLayout,
    env: &dyn PolicyEnv,
) -> Result<u64, RunError> {
    run_with_budget(prog, ctx, layout, env, DEFAULT_BUDGET).map(|r| r.ret)
}

/// Runs `prog` with an explicit instruction budget, reporting the count of
/// executed instructions.
///
/// # Errors
///
/// See [`run_program`].
pub fn run_with_budget(
    prog: &Program,
    ctx: &mut [u8],
    layout: &CtxLayout,
    env: &dyn PolicyEnv,
    budget: u64,
) -> Result<RunReport, RunError> {
    let mut m = Machine {
        regs: [RtVal::default(); 11],
        stack: [0; STACK_SIZE],
        stack_init: [false; STACK_SIZE],
        ctx,
        layout,
        prog,
        env,
        map_regions: Vec::new(),
        insns_executed: 0,
        budget,
    };
    // r1 = ctx pointer (when a context exists), r10 = frame pointer one past
    // the end of the downward-growing stack.
    if !m.ctx.is_empty() {
        m.regs[1] = RtVal {
            v: ptr(TAG_CTX, 0, 0),
            init: true,
        };
    }
    m.regs[10] = RtVal {
        v: ptr(TAG_STACK, 0, STACK_SIZE as u32),
        init: true,
    };

    let insns = prog.insns();
    let mut pc: usize = 0;
    loop {
        if m.insns_executed >= budget {
            return Err(RunError::BudgetExhausted);
        }
        m.insns_executed += 1;
        let insn = *insns
            .get(pc)
            .ok_or(RunError::PcOutOfBounds { pc: pc as i64 })?;
        match insn {
            Insn::Alu { wide, op, dst, src } => {
                let rhs = m.operand(pc, src)?;
                let lhs = if op == AluOp::Mov {
                    0
                } else {
                    m.read_reg(pc, dst)?
                };
                let out = if wide {
                    fold64(op, lhs, rhs)
                } else {
                    u64::from(fold32(op, lhs as u32, rhs as u32))
                };
                m.write_reg(pc, dst, out)?;
            }
            Insn::LdImm64 { dst, imm } => {
                m.write_reg(pc, dst, imm)?;
            }
            Insn::LdMapRef { dst, map_id } => {
                if prog.map(map_id).is_none() {
                    return Err(RunError::HelperFault {
                        pc,
                        helper: 0,
                        msg: "unknown map id",
                    });
                }
                m.write_reg(pc, dst, ptr(TAG_MAPREF, u64::from(map_id), 0))?;
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                let addr = m.read_reg(pc, base)?.wrapping_add(off as i64 as u64);
                let v = m.mem_load(pc, addr, size)?;
                m.write_reg(pc, dst, v)?;
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                let addr = m.read_reg(pc, base)?.wrapping_add(off as i64 as u64);
                let v = m.operand(pc, src)?;
                m.mem_store(pc, addr, size, v)?;
            }
            Insn::Ja { off } => {
                pc = jump_target(pc, off)?;
                continue;
            }
            Insn::Jmp { op, dst, src, off } => {
                let l = m.read_reg(pc, dst)?;
                let r = m.operand(pc, src)?;
                if op.eval(l, r) {
                    pc = jump_target(pc, off)?;
                    continue;
                }
            }
            Insn::Call { helper } => {
                m.call_helper(pc, helper)?;
            }
            Insn::Exit => {
                let r0 = m.regs[0];
                if !r0.init {
                    return Err(RunError::UninitRegister { pc, reg: 0 });
                }
                return Ok(RunReport {
                    ret: r0.v,
                    insns: m.insns_executed,
                });
            }
        }
        pc += 1;
    }
}

fn jump_target(pc: usize, off: i16) -> Result<usize, RunError> {
    let t = pc as i64 + 1 + i64::from(off);
    if t < 0 {
        Err(RunError::PcOutOfBounds { pc: t })
    } else {
        Ok(t as usize)
    }
}

// The explicit zero checks mirror the eBPF specification text; clippy's
// `checked_div` suggestion would obscure the mod-by-zero = dividend rule.
#[allow(unknown_lints, clippy::manual_checked_ops)]
pub(crate) fn fold64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b as u32 & 63),
        AluOp::Rsh => a.wrapping_shr(b as u32 & 63),
        AluOp::Arsh => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        AluOp::Neg => (a as i64).wrapping_neg() as u64,
        AluOp::Mov => b,
    }
}

#[allow(unknown_lints, clippy::manual_checked_ops)]
pub(crate) fn fold32(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b & 31),
        AluOp::Rsh => a.wrapping_shr(b & 31),
        AluOp::Arsh => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Neg => (a as i32).wrapping_neg() as u32,
        AluOp::Mov => b,
    }
}

impl Machine<'_> {
    fn read_reg(&self, pc: usize, r: Reg) -> Result<u64, RunError> {
        let rv = self.regs[r.0 as usize];
        if rv.init {
            Ok(rv.v)
        } else {
            Err(RunError::UninitRegister { pc, reg: r.0 })
        }
    }

    fn write_reg(&mut self, pc: usize, r: Reg, v: u64) -> Result<(), RunError> {
        if r == Reg::R10 {
            // The verifier rejects this; at runtime it is a plain fault.
            return Err(RunError::BadAccess { pc, addr: v });
        }
        self.regs[r.0 as usize] = RtVal { v, init: true };
        Ok(())
    }

    fn operand(&self, pc: usize, op: Operand) -> Result<u64, RunError> {
        match op {
            Operand::Reg(r) => self.read_reg(pc, r),
            Operand::Imm(i) => Ok(i as i64 as u64),
        }
    }

    fn mem_load(&mut self, pc: usize, addr: u64, size: MemSize) -> Result<u64, RunError> {
        let n = size.bytes();
        let off = ptr_off(addr) as usize;
        match ptr_tag(addr) {
            TAG_STACK => {
                let end = off.checked_add(n).filter(|e| *e <= STACK_SIZE);
                let end = end.ok_or(RunError::BadAccess { pc, addr })?;
                if !off.is_multiple_of(n) {
                    return Err(RunError::BadAccess { pc, addr });
                }
                if !self.stack_init[off..end].iter().all(|b| *b) {
                    return Err(RunError::BadAccess { pc, addr });
                }
                Ok(read_le(&self.stack[off..end]))
            }
            TAG_CTX => {
                self.layout
                    .check_access(pc, off as i64, n, false)
                    .map_err(|_| RunError::BadAccess { pc, addr })?;
                let end = off + n;
                if end > self.ctx.len() {
                    return Err(RunError::BadAccess { pc, addr });
                }
                Ok(read_le(&self.ctx[off..end]))
            }
            TAG_MAPVAL => {
                let idx = ptr_index(addr) as usize;
                let (map, slot) = self
                    .map_regions
                    .get(idx)
                    .ok_or(RunError::BadAccess { pc, addr })?;
                if !off.is_multiple_of(n) {
                    return Err(RunError::BadAccess { pc, addr });
                }
                map.value_load(*slot, off, n)
                    .ok_or(RunError::BadAccess { pc, addr })
            }
            _ => Err(RunError::BadAccess { pc, addr }),
        }
    }

    fn mem_store(&mut self, pc: usize, addr: u64, size: MemSize, val: u64) -> Result<(), RunError> {
        let n = size.bytes();
        let off = ptr_off(addr) as usize;
        match ptr_tag(addr) {
            TAG_STACK => {
                let end = off.checked_add(n).filter(|e| *e <= STACK_SIZE);
                let end = end.ok_or(RunError::BadAccess { pc, addr })?;
                if !off.is_multiple_of(n) {
                    return Err(RunError::BadAccess { pc, addr });
                }
                self.stack[off..end].copy_from_slice(&val.to_le_bytes()[..n]);
                self.stack_init[off..end].fill(true);
                Ok(())
            }
            TAG_CTX => {
                self.layout
                    .check_access(pc, off as i64, n, true)
                    .map_err(|_| RunError::BadAccess { pc, addr })?;
                let end = off + n;
                if end > self.ctx.len() {
                    return Err(RunError::BadAccess { pc, addr });
                }
                self.ctx[off..end].copy_from_slice(&val.to_le_bytes()[..n]);
                Ok(())
            }
            TAG_MAPVAL => {
                let idx = ptr_index(addr) as usize;
                let (map, slot) = self
                    .map_regions
                    .get(idx)
                    .ok_or(RunError::BadAccess { pc, addr })?;
                if !off.is_multiple_of(n) {
                    return Err(RunError::BadAccess { pc, addr });
                }
                if map.value_store(*slot, off, n, val) {
                    Ok(())
                } else {
                    Err(RunError::BadAccess { pc, addr })
                }
            }
            _ => Err(RunError::BadAccess { pc, addr }),
        }
    }

    /// Reads `len` initialized stack bytes pointed to by `addr`.
    fn stack_bytes(&self, pc: usize, addr: u64, len: usize) -> Result<Vec<u8>, RunError> {
        if ptr_tag(addr) != TAG_STACK {
            return Err(RunError::BadAccess { pc, addr });
        }
        let off = ptr_off(addr) as usize;
        let end = off.checked_add(len).filter(|e| *e <= STACK_SIZE);
        let end = end.ok_or(RunError::BadAccess { pc, addr })?;
        if !self.stack_init[off..end].iter().all(|b| *b) {
            return Err(RunError::BadAccess { pc, addr });
        }
        Ok(self.stack[off..end].to_vec())
    }

    fn helper_fault(pc: usize, helper: u32, msg: &'static str) -> RunError {
        RunError::HelperFault { pc, helper, msg }
    }

    fn call_helper(&mut self, pc: usize, helper: u32) -> Result<(), RunError> {
        let id =
            HelperId::from_u32(helper).ok_or(Self::helper_fault(pc, helper, "unknown helper"))?;
        let ret = match id {
            HelperId::KtimeNs => self.env.ktime_ns(),
            HelperId::CpuId => u64::from(self.env.cpu_id()),
            HelperId::NumaId => u64::from(self.env.numa_id()),
            HelperId::Pid => self.env.pid(),
            HelperId::Prandom => self.env.prandom(),
            HelperId::TaskPriority => {
                let tid = self.read_reg(pc, Reg::R1)?;
                self.env.task_priority(tid) as u64
            }
            HelperId::CpuToNode => {
                let cpu = self.read_reg(pc, Reg::R1)?;
                u64::from(self.env.cpu_to_node(cpu as u32))
            }
            HelperId::CpuOnline => {
                let cpu = self.read_reg(pc, Reg::R1)?;
                u64::from(self.env.cpu_online(cpu as u32))
            }
            HelperId::SchedHint => {
                let code = self.read_reg(pc, Reg::R1)?;
                self.env.sched_hint(code)
            }
            HelperId::TracePrintk => {
                let buf = self.read_reg(pc, Reg::R1)?;
                let len = self.read_reg(pc, Reg::R2)? as usize;
                if len > STACK_SIZE {
                    return Err(Self::helper_fault(pc, helper, "trace length too large"));
                }
                let bytes = self.stack_bytes(pc, buf, len)?;
                self.env.trace(&bytes);
                len as u64
            }
            HelperId::TraceEmit => {
                // The fixed TRACE_EMIT_WEIGHT is charged whether or not the
                // telemetry plane is armed, and before any side effect, so
                // `RunReport::insns` matches the prepared engine's weight
                // table exactly: the loop top already charged 1, the rest
                // is charged here behind the same exhaustion predicate
                // (`weight > budget - executed_before`).
                let extra = u64::from(crate::helpers::TRACE_EMIT_WEIGHT) - 1;
                if extra > self.budget - self.insns_executed {
                    return Err(RunError::BudgetExhausted);
                }
                self.insns_executed += extra;
                let buf = self.read_reg(pc, Reg::R1)?;
                let len = self.read_reg(pc, Reg::R2)? as usize;
                if !(1..=crate::helpers::TRACE_EMIT_MAX_PAYLOAD).contains(&len) {
                    return Err(Self::helper_fault(
                        pc,
                        helper,
                        "trace_emit payload length out of bounds",
                    ));
                }
                let bytes = self.stack_bytes(pc, buf, len)?;
                self.env.trace_emit(&bytes);
                0
            }
            HelperId::MapLookup | HelperId::MapUpdate | HelperId::MapDelete => {
                let mref = self.read_reg(pc, Reg::R1)?;
                if ptr_tag(mref) != TAG_MAPREF {
                    return Err(Self::helper_fault(pc, helper, "arg1 is not a map"));
                }
                let map = self
                    .prog
                    .map(ptr_index(mref) as u32)
                    .ok_or(Self::helper_fault(pc, helper, "unknown map id"))?
                    .clone();
                let key_ptr = self.read_reg(pc, Reg::R2)?;
                let key = self.stack_bytes(pc, key_ptr, map.def().key_size)?;
                let cpu = self.env.cpu_id();
                match id {
                    HelperId::MapLookup => match mapops::lookup(&map, &key, cpu) {
                        Some(slot) => {
                            self.map_regions.push((map, slot));
                            ptr(TAG_MAPVAL, (self.map_regions.len() - 1) as u64, 0)
                        }
                        None => 0,
                    },
                    HelperId::MapUpdate => {
                        let val_ptr = self.read_reg(pc, Reg::R3)?;
                        let val = self.stack_bytes(pc, val_ptr, map.def().value_size)?;
                        // r4 = flags, currently ignored but must be valid.
                        let _flags = self.read_reg(pc, Reg::R4)?;
                        mapops::update(&map, &key, &val, cpu)
                    }
                    HelperId::MapDelete => mapops::delete(&map, &key),
                    _ => unreachable!(),
                }
            }
        };
        // Helper calls clobber the caller-saved argument registers.
        for r in 1..=5 {
            self.regs[r] = RtVal::default();
        }
        self.regs[0] = RtVal { v: ret, init: true };
        Ok(())
    }
}

fn read_le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CtxLayout, FieldAccess};
    use crate::helpers::FixedEnv;
    use crate::insn::JmpOp;
    use crate::map::{Map, MapDef, MapKind};
    use crate::program::ProgramBuilder;
    use std::sync::Arc;

    fn run(prog: &Program) -> Result<u64, RunError> {
        run_program(prog, &mut [], &CtxLayout::empty(), &FixedEnv::new())
    }

    #[test]
    fn mov_and_exit() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 1234);
        b.exit();
        assert_eq!(run(&b.build().unwrap()), Ok(1234));
    }

    #[test]
    fn arithmetic_64_and_32() {
        let mut b = ProgramBuilder::new("t");
        b.ld_imm64(Reg::R1, u64::MAX);
        b.mov(Reg::R0, Reg::R1);
        b.alu_imm(AluOp::Add, Reg::R0, 1); // Wraps to 0.
        b.alu_imm(AluOp::Add, Reg::R0, 7); // 7.
        b.alu32_imm(AluOp::Sub, Reg::R0, 9); // 32-bit wrap, zero-extended.
        b.exit();
        assert_eq!(
            run(&b.build().unwrap()),
            Ok(u64::from(7u32.wrapping_sub(9)))
        );
    }

    #[test]
    fn division_by_zero_semantics() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 42);
        b.mov_imm(Reg::R1, 0);
        b.alu(AluOp::Div, Reg::R0, Reg::R1);
        b.exit();
        assert_eq!(run(&b.build().unwrap()), Ok(0));

        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 42);
        b.mov_imm(Reg::R1, 0);
        b.alu(AluOp::Mod, Reg::R0, Reg::R1);
        b.exit();
        assert_eq!(run(&b.build().unwrap()), Ok(42));
    }

    #[test]
    fn stack_store_load_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        b.ld_imm64(Reg::R1, 0xaabb_ccdd_eeff_1122u64); // Arbitrary.
        b.store(MemSize::Dw, Reg::R10, -8, Reg::R1);
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
        b.alu(AluOp::Sub, Reg::R0, Reg::R1);
        b.exit();
        assert_eq!(run(&b.build().unwrap()), Ok(0));
    }

    #[test]
    fn uninit_register_read_faults() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R0, Reg::R7);
        b.exit();
        assert!(matches!(
            run(&b.build().unwrap()),
            Err(RunError::UninitRegister { reg: 7, .. })
        ));
    }

    #[test]
    fn uninit_stack_read_faults() {
        let mut b = ProgramBuilder::new("t");
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -16);
        b.exit();
        assert!(matches!(
            run(&b.build().unwrap()),
            Err(RunError::BadAccess { .. })
        ));
    }

    #[test]
    fn stack_overflow_faults() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 0);
        b.store(MemSize::Dw, Reg::R10, -(STACK_SIZE as i16) - 8, Reg::R1);
        b.exit();
        assert!(matches!(
            run(&b.build().unwrap()),
            Err(RunError::BadAccess { .. })
        ));
    }

    #[test]
    fn ctx_field_access_and_permissions() {
        let layout = CtxLayout::builder()
            .field("in", 8, FieldAccess::ReadOnly)
            .field("out", 8, FieldAccess::ReadWrite)
            .build();
        let mut ctx = vec![0u8; layout.size()];
        layout.write(&mut ctx, "in", 21);

        // out = in * 2; return out.
        let mut b = ProgramBuilder::new("t");
        b.load(MemSize::Dw, Reg::R0, Reg::R1, 0);
        b.alu_imm(AluOp::Mul, Reg::R0, 2);
        b.store(MemSize::Dw, Reg::R1, 8, Reg::R0);
        b.exit();
        let prog = b.build().unwrap();
        let ret = run_program(&prog, &mut ctx, &layout, &FixedEnv::new()).unwrap();
        assert_eq!(ret, 42);
        assert_eq!(layout.read(&ctx, "out"), 42);

        // Writing the read-only field faults at runtime too.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.store(MemSize::Dw, Reg::R1, 0, Reg::R0);
        b.exit();
        let prog = b.build().unwrap();
        assert!(matches!(
            run_program(&prog, &mut ctx, &layout, &FixedEnv::new()),
            Err(RunError::BadAccess { .. })
        ));
    }

    #[test]
    fn helpers_return_env_values_and_clobber_args() {
        let env = FixedEnv::new().cpu(9).numa(2);
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R3, 55); // r3 survives (callee-saved are r6-r9; r3 is clobbered).
        b.call(HelperId::CpuId);
        b.mov(Reg::R6, Reg::R0);
        b.call(HelperId::NumaId);
        b.alu(AluOp::Add, Reg::R0, Reg::R6);
        b.exit();
        let prog = b.build().unwrap();
        let ret = run_program(&prog, &mut [], &CtxLayout::empty(), &env).unwrap();
        assert_eq!(ret, 11);

        // Reading a clobbered register after a call faults.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R3, 55);
        b.call(HelperId::CpuId);
        b.mov(Reg::R0, Reg::R3);
        b.exit();
        assert!(matches!(
            run(&b.build().unwrap()),
            Err(RunError::UninitRegister { reg: 3, .. })
        ));
    }

    #[test]
    fn map_lookup_update_through_program() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        }));
        map.update(&1u32.to_le_bytes(), &10u64.to_le_bytes(), 0)
            .unwrap();

        // v = *lookup(m, 1); if (!v) return 0; *v += 5; return *v.
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(Arc::clone(&map));
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 1);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        b.call(HelperId::MapLookup);
        b.jmp_imm(JmpOp::Ne, Reg::R0, 0, "hit");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        b.label("hit");
        b.load(MemSize::Dw, Reg::R1, Reg::R0, 0);
        b.alu_imm(AluOp::Add, Reg::R1, 5);
        b.store(MemSize::Dw, Reg::R0, 0, Reg::R1);
        b.mov(Reg::R0, Reg::R1);
        b.exit();
        let prog = b.build().unwrap();
        let ret = run(&prog).unwrap();
        assert_eq!(ret, 15);
        assert_eq!(
            map.lookup_copy(&1u32.to_le_bytes(), 0),
            Some(15u64.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn map_lookup_miss_returns_null() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        }));
        let mut b = ProgramBuilder::new("t");
        let mid = b.register_map(map);
        b.ldmap(Reg::R1, mid);
        b.store_imm(MemSize::W, Reg::R10, -4, 9);
        b.mov(Reg::R2, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R2, -4);
        b.call(HelperId::MapLookup);
        b.exit();
        assert_eq!(run(&b.build().unwrap()), Ok(0));
    }

    #[test]
    fn trace_printk_reaches_env() {
        let env = FixedEnv::new();
        let mut b = ProgramBuilder::new("t");
        b.store_imm(MemSize::B, Reg::R10, -2, b'h' as i32);
        b.store_imm(MemSize::B, Reg::R10, -1, b'i' as i32);
        b.mov(Reg::R1, Reg::R10);
        b.alu_imm(AluOp::Add, Reg::R1, -2);
        b.mov_imm(Reg::R2, 2);
        b.call(HelperId::TracePrintk);
        b.exit();
        let prog = b.build().unwrap();
        let ret = run_program(&prog, &mut [], &CtxLayout::empty(), &env).unwrap();
        assert_eq!(ret, 2);
        assert_eq!(env.traces(), vec![b"hi".to_vec()]);
    }

    #[test]
    fn budget_exhaustion_detected() {
        // An intentional infinite loop (the verifier would reject it).
        let prog = Program::new("spin", vec![Insn::Ja { off: -1 }, Insn::Exit], Vec::new());
        let r = run_with_budget(&prog, &mut [], &CtxLayout::empty(), &FixedEnv::new(), 1000);
        assert_eq!(r.unwrap_err(), RunError::BudgetExhausted);
    }

    #[test]
    fn fall_off_end_faults() {
        let prog = Program::new(
            "nop",
            vec![Insn::Alu {
                wide: true,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(0),
            }],
            Vec::new(),
        );
        assert!(matches!(run(&prog), Err(RunError::PcOutOfBounds { .. })));
    }

    #[test]
    fn misaligned_stack_access_faults() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R1, 1);
        b.store(MemSize::Dw, Reg::R10, -9, Reg::R1);
        b.exit();
        assert!(matches!(
            run(&b.build().unwrap()),
            Err(RunError::BadAccess { .. })
        ));
    }
}
