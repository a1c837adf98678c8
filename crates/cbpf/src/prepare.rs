//! The prepared execution form: a one-time, verifier-trusted lowering of a
//! [`Program`] that the fast interpreter loop runs without per-step
//! re-decoding.
//!
//! [`Program::prepare`] resolves everything that is constant across runs:
//!
//! * operands are pre-decoded (immediates sign-extended once, registers as
//!   plain indices);
//! * jump targets become absolute instruction indices, validated once;
//! * map references are checked against the map table once, and the table
//!   itself is bound into the prepared form;
//! * helper ids are resolved to function pointers (for the pure
//!   environment helpers) or typed map/trace operations;
//! * context-field permissions are baked into an O(1) offset-indexed
//!   table instead of the per-access linear field scan.
//!
//! The prepared loop then drops the dynamic plumbing the verifier already
//! guarantees is unnecessary: no register/stack initialization tracking,
//! no alignment re-checks, no `Option` chasing on map ids. What it keeps,
//! bit-for-bit, are the semantics that define results: the instruction
//! budget, eBPF division/modulo-by-zero rules, tagged-pointer dispatch,
//! bounds checks (as clean faults), and helper clobbering.
//!
//! Faults can therefore still occur (e.g. budget exhaustion) and carry the
//! same [`RunError`] values the legacy interpreter produces. Lowering
//! itself is total: statically invalid instructions (frame-pointer
//! writes, out-of-range jump targets, unknown maps or helpers) become
//! trap instructions that fault when *reached* — the verifier accepts
//! such instructions in unreachable code, and only there. For programs
//! the verifier rejects, behavior may differ from [`crate::interp`] in
//! fault detail (uninitialized reads yield zero, traps fire at the start
//! of the offending instruction). Verified programs never observe any
//! difference, which is exactly the trust contract: prepare after
//! verification.

use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};

use crate::ctx::{CtxLayout, FieldAccess};
use crate::error::RunError;
use crate::fault::FaultInjector;
use crate::helpers::{mapops, HelperId, PolicyEnv};
use crate::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg, STACK_SIZE};
use crate::interp::{fold32, fold64, RunReport, DEFAULT_BUDGET};
use crate::map::Map;
use crate::program::Program;

pub(crate) const TAG_STACK: u64 = 1;
pub(crate) const TAG_CTX: u64 = 2;
pub(crate) const TAG_MAPVAL: u64 = 3;
pub(crate) const TAG_MAPREF: u64 = 4;

pub(crate) fn ptr(tag: u64, index: u64, off: u32) -> u64 {
    (tag << 60) | (index << 32) | u64::from(off)
}

pub(crate) fn ptr_tag(v: u64) -> u64 {
    v >> 60
}

pub(crate) fn ptr_index(v: u64) -> u64 {
    (v >> 32) & 0x0fff_ffff
}

pub(crate) fn ptr_off(v: u64) -> u32 {
    v as u32
}

/// Why a lowered [`PInsn::Trap`] faults when reached. Each kind maps to
/// the fault the legacy interpreter raises for the same instruction; the
/// verifier only accepts these instructions in unreachable code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Trap {
    /// The instruction writes the frame pointer.
    WriteR10,
    /// A jump whose absolute target leaves `[0, len]`.
    Jump { target: i64 },
    /// `ldmap` names a map id outside the program's table.
    UnknownMap,
    /// `call` names an unknown helper.
    UnknownHelper { helper: u32 },
}

impl Trap {
    pub(crate) fn to_error(self, pc: usize) -> RunError {
        match self {
            // Legacy reports the written value as `addr`; statically we
            // only know the write is illegal, so report address zero.
            Trap::WriteR10 => RunError::BadAccess { pc, addr: 0 },
            Trap::Jump { target } => RunError::PcOutOfBounds { pc: target },
            Trap::UnknownMap => RunError::HelperFault {
                pc,
                helper: 0,
                msg: "unknown map id",
            },
            Trap::UnknownHelper { helper } => RunError::HelperFault {
                pc,
                helper,
                msg: "unknown helper",
            },
        }
    }
}

/// A pre-decoded operand: register index or sign-extended immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PSrc {
    Reg(u8),
    Imm(u64),
}

/// One lowered instruction, one per source instruction (slot `pc` is
/// source instruction `pc`). Jump targets are absolute indices into the
/// prepared code; a [`PInsn::Halt`] sentinel sits one past the last real
/// instruction so falling off the end is an ordinary dispatch.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PInsn {
    Alu64 {
        op: AluOp,
        dst: u8,
        src: PSrc,
    },
    Alu32 {
        op: AluOp,
        dst: u8,
        src: PSrc,
    },
    // `mov` is by far the most common ALU op in compiled policies, so it
    // gets dedicated variants that skip the operand and opcode dispatch
    // (immediate moves lower to `LdImm64` with the extension pre-applied).
    Mov64R {
        dst: u8,
        src: u8,
    },
    Mov32R {
        dst: u8,
        src: u8,
    },
    LdImm64 {
        dst: u8,
        imm: u64,
    },
    LdMapRef {
        dst: u8,
        map_id: u32,
    },
    Load {
        size: MemSize,
        dst: u8,
        base: u8,
        off: u64,
    },
    Store {
        size: MemSize,
        base: u8,
        off: u64,
        src: PSrc,
    },
    Ja {
        target: u32,
    },
    Jmp {
        op: JmpOp,
        dst: u8,
        src: PSrc,
        target: u32,
    },
    CallEnv0 {
        f: fn(&dyn PolicyEnv) -> u64,
    },
    CallEnv1 {
        f: fn(&dyn PolicyEnv, u64) -> u64,
    },
    CallTrace {
        helper: u32,
    },
    CallMap {
        op: MapOp,
        helper: u32,
    },
    Exit,
    Trap {
        kind: Trap,
    },
    Halt,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MapOp {
    Lookup,
    Update,
    Delete,
}

// The pure environment helpers, as plain functions so `prepare` can bind
// `call` instructions to pointers instead of dispatching on ids per run.
fn env_ktime(env: &dyn PolicyEnv) -> u64 {
    env.ktime_ns()
}

fn env_cpu(env: &dyn PolicyEnv) -> u64 {
    u64::from(env.cpu_id())
}

fn env_numa(env: &dyn PolicyEnv) -> u64 {
    u64::from(env.numa_id())
}

fn env_pid(env: &dyn PolicyEnv) -> u64 {
    env.pid()
}

fn env_prandom(env: &dyn PolicyEnv) -> u64 {
    env.prandom()
}

fn env_task_priority(env: &dyn PolicyEnv, tid: u64) -> u64 {
    env.task_priority(tid) as u64
}

fn env_cpu_to_node(env: &dyn PolicyEnv, cpu: u64) -> u64 {
    u64::from(env.cpu_to_node(cpu as u32))
}

fn env_cpu_online(env: &dyn PolicyEnv, cpu: u64) -> u64 {
    u64::from(env.cpu_online(cpu as u32))
}

fn env_sched_hint(env: &dyn PolicyEnv, code: u64) -> u64 {
    env.sched_hint(code)
}

/// Pins one execution engine — for differential tests and benchmarks
/// that compare the tiers. [`PreparedProgram::run`] always takes
/// [`ExecTier::Jit`]; the two are observationally identical (same
/// [`RunReport`] including the executed-instruction count, same context
/// and map side effects, same faults at every budget).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecTier {
    /// The prepared interpreter loop.
    Interp,
    /// The compiled tier (compiling it on first use if needed).
    Jit,
}

/// O(1) context access control: per byte offset, a bitmask of permitted
/// access widths (bit k ⇔ width `1 << k`), reads and writes separately.
/// Replaces the legacy per-access linear scan over the field list.
pub(crate) struct CtxPerm {
    read: Box<[u8]>,
    write: Box<[u8]>,
}

impl CtxPerm {
    fn build(layout: &CtxLayout) -> Self {
        let mut read = vec![0u8; layout.size()].into_boxed_slice();
        let mut write = vec![0u8; layout.size()].into_boxed_slice();
        for f in layout.fields() {
            let bit = 1u8 << f.size.trailing_zeros();
            read[f.offset] |= bit;
            if f.access == FieldAccess::ReadWrite {
                write[f.offset] |= bit;
            }
        }
        CtxPerm { read, write }
    }

    /// The layout's size in bytes: the shortest context a hook site may
    /// pass.
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.read.len()
    }

    #[inline]
    pub(crate) fn read_ok(&self, off: usize, n: usize) -> bool {
        self.read.get(off).is_some_and(|m| m & (n as u8) != 0)
    }

    #[inline]
    fn write_ok(&self, off: usize, n: usize) -> bool {
        self.write.get(off).is_some_and(|m| m & (n as u8) != 0)
    }
}

/// The verifier-trusted execution form produced by [`Program::prepare`].
pub struct PreparedProgram {
    name: String,
    pub(crate) code: Box<[PInsn]>,
    /// Per-slot budget charge, parallel to `code`: 1 everywhere except
    /// `trace_emit`, which carries [`crate::helpers::TRACE_EMIT_WEIGHT`].
    /// The interpreter charges it slot by slot; the compiled tier sums it
    /// per charge group. Either way the executed-instruction count (and
    /// with it the DES virtual-time accounting) is the legacy
    /// interpreter's on every path and at every budget.
    pub(crate) weights: Box<[u32]>,
    pub(crate) maps: Box<[Arc<Map>]>,
    pub(crate) perm: CtxPerm,
    /// The compiled tier, built at most once per prepared program, by
    /// its first run.
    jit: OnceLock<crate::jit::JitProgram>,
}

impl std::fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("name", &self.name)
            .field("insns", &(self.code.len() - 1))
            .field("maps", &self.maps.len())
            .finish()
    }
}

impl Program {
    /// Lowers the program to its prepared execution form against `layout`.
    ///
    /// Call after verification: the prepared interpreter trusts the
    /// verifier's guarantees (initialization, alignment, jump shape) and
    /// does not re-check them per step. Lowering is total — statically
    /// invalid instructions become traps that fault if ever reached (the
    /// verifier only accepts them in unreachable code).
    ///
    /// The lowering rewrites nothing: it is the compiled tier's input, the
    /// [`ExecTier::Interp`] reference the tier differential tests diff
    /// against, and the fallback for contexts shorter than the layout.
    pub fn prepare(&self, layout: &CtxLayout) -> PreparedProgram {
        let insns = self.insns();
        let len = insns.len();
        let mut code = Vec::with_capacity(len + 1);
        // A jump target in [0, len] is sound (len hits the Halt
        // sentinel); anything else lowers the whole jump to a trap.
        let target_of = |pc: usize, off: i16| -> Result<u32, Trap> {
            let t = pc as i64 + 1 + i64::from(off);
            if t < 0 || t > len as i64 {
                Err(Trap::Jump { target: t })
            } else {
                Ok(t as u32)
            }
        };
        let no_fp = |dst: Reg| -> Result<u8, Trap> {
            if dst == Reg::R10 {
                Err(Trap::WriteR10)
            } else {
                Ok(dst.0)
            }
        };
        let lower_src = |src: Operand| match src {
            Operand::Reg(r) => PSrc::Reg(r.0),
            Operand::Imm(i) => PSrc::Imm(i as i64 as u64),
        };
        for (pc, insn) in insns.iter().enumerate() {
            let lowered = match *insn {
                Insn::Alu { wide, op, dst, src } => no_fp(dst).map(|dst| {
                    match (op, wide, src) {
                        // `mov` ignores the old dst value; pre-truncate
                        // immediates so the 32-bit form is a plain load.
                        (AluOp::Mov, true, Operand::Imm(i)) => PInsn::LdImm64 {
                            dst,
                            imm: i as i64 as u64,
                        },
                        (AluOp::Mov, false, Operand::Imm(i)) => PInsn::LdImm64 {
                            dst,
                            imm: u64::from(i as u32),
                        },
                        (AluOp::Mov, true, Operand::Reg(r)) => PInsn::Mov64R { dst, src: r.0 },
                        (AluOp::Mov, false, Operand::Reg(r)) => PInsn::Mov32R { dst, src: r.0 },
                        (op, true, src) => PInsn::Alu64 {
                            op,
                            dst,
                            src: lower_src(src),
                        },
                        (op, false, src) => PInsn::Alu32 {
                            op,
                            dst,
                            src: lower_src(src),
                        },
                    }
                }),
                Insn::LdImm64 { dst, imm } => no_fp(dst).map(|dst| PInsn::LdImm64 { dst, imm }),
                Insn::LdMapRef { dst, map_id } => {
                    if self.map(map_id).is_none() {
                        // Legacy checks the map table before the register
                        // write, so the map trap wins over WriteR10.
                        Err(Trap::UnknownMap)
                    } else {
                        no_fp(dst).map(|dst| PInsn::LdMapRef { dst, map_id })
                    }
                }
                Insn::Load {
                    size,
                    dst,
                    base,
                    off,
                } => no_fp(dst).map(|dst| PInsn::Load {
                    size,
                    dst,
                    base: base.0,
                    off: off as i64 as u64,
                }),
                Insn::Store {
                    size,
                    base,
                    off,
                    src,
                } => Ok(PInsn::Store {
                    size,
                    base: base.0,
                    off: off as i64 as u64,
                    src: lower_src(src),
                }),
                Insn::Ja { off } => target_of(pc, off).map(|target| PInsn::Ja { target }),
                Insn::Jmp { op, dst, src, off } => target_of(pc, off).map(|target| PInsn::Jmp {
                    op,
                    dst: dst.0,
                    src: lower_src(src),
                    target,
                }),
                Insn::Call { helper } => match HelperId::from_u32(helper) {
                    Some(HelperId::KtimeNs) => Ok(PInsn::CallEnv0 { f: env_ktime }),
                    Some(HelperId::CpuId) => Ok(PInsn::CallEnv0 { f: env_cpu }),
                    Some(HelperId::NumaId) => Ok(PInsn::CallEnv0 { f: env_numa }),
                    Some(HelperId::Pid) => Ok(PInsn::CallEnv0 { f: env_pid }),
                    Some(HelperId::Prandom) => Ok(PInsn::CallEnv0 { f: env_prandom }),
                    Some(HelperId::TaskPriority) => Ok(PInsn::CallEnv1 {
                        f: env_task_priority,
                    }),
                    Some(HelperId::CpuToNode) => Ok(PInsn::CallEnv1 { f: env_cpu_to_node }),
                    Some(HelperId::CpuOnline) => Ok(PInsn::CallEnv1 { f: env_cpu_online }),
                    Some(HelperId::SchedHint) => Ok(PInsn::CallEnv1 { f: env_sched_hint }),
                    Some(HelperId::TracePrintk) | Some(HelperId::TraceEmit) => {
                        Ok(PInsn::CallTrace { helper })
                    }
                    Some(HelperId::MapLookup) => Ok(PInsn::CallMap {
                        op: MapOp::Lookup,
                        helper,
                    }),
                    Some(HelperId::MapUpdate) => Ok(PInsn::CallMap {
                        op: MapOp::Update,
                        helper,
                    }),
                    Some(HelperId::MapDelete) => Ok(PInsn::CallMap {
                        op: MapOp::Delete,
                        helper,
                    }),
                    None => Err(Trap::UnknownHelper { helper }),
                },
                Insn::Exit => Ok(PInsn::Exit),
            };
            code.push(lowered.unwrap_or_else(|kind| PInsn::Trap { kind }));
        }
        // Every source instruction costs 1, except `trace_emit`, which
        // carries its fixed weight so the budget charge is identical to
        // the legacy interpreter's (1 at the loop top + the remainder in
        // the helper) and identical whether tracing is armed or not.
        let mut weights: Vec<u32> = insns
            .iter()
            .map(|i| match i {
                Insn::Call { helper }
                    if HelperId::from_u32(*helper) == Some(HelperId::TraceEmit) =>
                {
                    crate::helpers::TRACE_EMIT_WEIGHT
                }
                _ => 1,
            })
            .collect();
        // The sentinel charges like a real slot so exhausting the budget
        // exactly at the end still reports `BudgetExhausted`, not
        // `PcOutOfBounds` (legacy checks the budget before the fetch).
        code.push(PInsn::Halt);
        weights.push(1);
        PreparedProgram {
            name: self.name().to_string(),
            code: code.into_boxed_slice(),
            weights: weights.into_boxed_slice(),
            maps: self.maps().to_vec().into_boxed_slice(),
            perm: CtxPerm::build(layout),
            jit: OnceLock::new(),
        }
    }
}

/// Map-value regions a run has handed out pointers into, as
/// `(map index, value slot)` pairs. Policies rarely hold more than a
/// couple of live lookups, so the first [`INLINE_REGIONS`] live inline —
/// the hot path never allocates; pathological programs spill to a `Vec`.
/// The inline slots start uninitialised rather than zeroed: no slot is
/// read before `push` writes it.
const INLINE_REGIONS: usize = 16;

pub(crate) struct Regions {
    /// Invariant: every slot below `min(len, INLINE_REGIONS)` was written
    /// by [`Regions::push`], the only writer, before it raised `len`.
    inline: [MaybeUninit<(u32, u32)>; INLINE_REGIONS],
    len: usize,
    spill: Vec<(u32, u32)>,
}

impl Regions {
    #[inline]
    fn new() -> Regions {
        Regions {
            inline: [MaybeUninit::uninit(); INLINE_REGIONS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Registers a region, returning its index.
    #[inline]
    pub(crate) fn push(&mut self, map_idx: u32, slot: u32) -> u64 {
        let idx = self.len;
        if idx < INLINE_REGIONS {
            self.inline[idx].write((map_idx, slot));
        } else {
            self.spill.push((map_idx, slot));
        }
        self.len = idx + 1;
        idx as u64
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<(u32, u32)> {
        if idx >= self.len {
            return None;
        }
        Some(if idx < INLINE_REGIONS {
            // SAFETY: `idx < len` and `idx < INLINE_REGIONS`, so by the
            // field's invariant `push` wrote this slot.
            unsafe { self.inline[idx].assume_init() }
        } else {
            self.spill[idx - INLINE_REGIONS]
        })
    }
}

/// Per-run machine state, shared between the prepared interpreter loop
/// and the [`crate::jit`] tier (which reuses the memory/helper methods so
/// the two tiers cannot drift in fault semantics).
///
/// `FRAME` is how many frame bytes the run gets. The interpreters always
/// take the full [`STACK_SIZE`]; the compiled tier passes 0 for a program
/// none of whose steps can reach its frame (`JitProgram::uses_frame`), so
/// its entry zeroes no frame. `r10` still points at the top of a
/// `STACK_SIZE` frame either way, and on an empty one every frame access
/// would fail the bounds test it already has.
pub(crate) struct Runner<'a, const FRAME: usize = STACK_SIZE> {
    pub(crate) regs: [u64; 11],
    pub(crate) stack: [u8; FRAME],
    pub(crate) ctx: &'a mut [u8],
    pub(crate) env: &'a dyn PolicyEnv,
    pub(crate) maps: &'a [Arc<Map>],
    pub(crate) perm: &'a CtxPerm,
    pub(crate) regions: Regions,
}

#[inline]
pub(crate) fn read_le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

impl<'a, const FRAME: usize> Runner<'a, FRAME> {
    /// Registers and stack at program-entry state: everything zero except
    /// the context pointer (`r1`, when a context exists) and the frame
    /// pointer (`r10`).
    pub(crate) fn new(
        ctx: &'a mut [u8],
        env: &'a dyn PolicyEnv,
        maps: &'a [Arc<Map>],
        perm: &'a CtxPerm,
    ) -> Self {
        let mut m = Runner {
            regs: [0u64; 11],
            stack: [0; FRAME],
            ctx,
            env,
            maps,
            perm,
            regions: Regions::new(),
        };
        if !m.ctx.is_empty() {
            m.regs[1] = ptr(TAG_CTX, 0, 0);
        }
        m.regs[10] = ptr(TAG_STACK, 0, STACK_SIZE as u32);
        m
    }

    /// Reads register `r`.
    ///
    /// SAFETY contract: `prepare` only emits register indices `0..=10`,
    /// so the bound check is provably dead and elided.
    #[inline(always)]
    pub(crate) fn reg(&self, r: u8) -> u64 {
        debug_assert!(r <= 10);
        unsafe { *self.regs.get_unchecked(r as usize) }
    }

    /// Writes register `r`; same prepare-time bound contract as [`Self::reg`].
    #[inline(always)]
    pub(crate) fn set_reg(&mut self, r: u8, v: u64) {
        debug_assert!(r <= 10);
        unsafe { *self.regs.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    pub(crate) fn src(&self, s: PSrc) -> u64 {
        match s {
            PSrc::Reg(r) => self.reg(r),
            PSrc::Imm(v) => v,
        }
    }

    pub(crate) fn load(&mut self, pc: usize, addr: u64, size: MemSize) -> Result<u64, RunError> {
        let n = size.bytes();
        let off = ptr_off(addr) as usize;
        match ptr_tag(addr) {
            TAG_STACK => self
                .stack
                .get(off..off.wrapping_add(n).min(STACK_SIZE + 1))
                .filter(|s| s.len() == n)
                .map(read_le)
                .ok_or(RunError::BadAccess { pc, addr }),
            TAG_CTX => {
                if self.perm.read_ok(off, n) && off + n <= self.ctx.len() {
                    Ok(read_le(&self.ctx[off..off + n]))
                } else {
                    Err(RunError::BadAccess { pc, addr })
                }
            }
            TAG_MAPVAL => {
                let (mi, slot) = self
                    .regions
                    .get(ptr_index(addr) as usize)
                    .ok_or(RunError::BadAccess { pc, addr })?;
                self.maps[mi as usize]
                    .value_load(slot, off, n)
                    .ok_or(RunError::BadAccess { pc, addr })
            }
            _ => Err(RunError::BadAccess { pc, addr }),
        }
    }

    pub(crate) fn store(
        &mut self,
        pc: usize,
        addr: u64,
        size: MemSize,
        val: u64,
    ) -> Result<(), RunError> {
        let n = size.bytes();
        let off = ptr_off(addr) as usize;
        match ptr_tag(addr) {
            TAG_STACK => {
                let dst = self
                    .stack
                    .get_mut(off..off.wrapping_add(n).min(STACK_SIZE + 1))
                    .filter(|s| s.len() == n)
                    .ok_or(RunError::BadAccess { pc, addr })?;
                dst.copy_from_slice(&val.to_le_bytes()[..n]);
                Ok(())
            }
            TAG_CTX => {
                if self.perm.write_ok(off, n) && off + n <= self.ctx.len() {
                    self.ctx[off..off + n].copy_from_slice(&val.to_le_bytes()[..n]);
                    Ok(())
                } else {
                    Err(RunError::BadAccess { pc, addr })
                }
            }
            TAG_MAPVAL => {
                let (mi, slot) = self
                    .regions
                    .get(ptr_index(addr) as usize)
                    .ok_or(RunError::BadAccess { pc, addr })?;
                if self.maps[mi as usize].value_store(slot, off, n, val) {
                    Ok(())
                } else {
                    Err(RunError::BadAccess { pc, addr })
                }
            }
            _ => Err(RunError::BadAccess { pc, addr }),
        }
    }

    /// `len` stack bytes at `addr` (no initialization tracking — the
    /// verifier guarantees helper buffers are written before use).
    pub(crate) fn stack_bytes(&self, pc: usize, addr: u64, len: usize) -> Result<&[u8], RunError> {
        if ptr_tag(addr) != TAG_STACK {
            return Err(RunError::BadAccess { pc, addr });
        }
        let off = ptr_off(addr) as usize;
        self.stack
            .get(off..off.wrapping_add(len).min(STACK_SIZE + 1))
            .filter(|s| s.len() == len)
            .ok_or(RunError::BadAccess { pc, addr })
    }

    /// Map helper dispatch, allocation-free: keys and values are stack
    /// borrows handed straight to the map, and a lookup hit registers a
    /// `(map, slot)` region in the inline table.
    pub(crate) fn call_map(&mut self, pc: usize, op: MapOp, helper: u32) -> Result<u64, RunError> {
        let fault = |msg: &'static str| RunError::HelperFault { pc, helper, msg };
        let mref = self.regs[1];
        if ptr_tag(mref) != TAG_MAPREF {
            return Err(fault("arg1 is not a map"));
        }
        let mi = ptr_index(mref) as usize;
        // Reborrow the slice (not through `&self`) so `map` stays usable
        // across the later `&mut self` region registration.
        let maps = self.maps;
        let map = maps.get(mi).ok_or(fault("unknown map id"))?;
        let cpu = self.env.cpu_id();
        Ok(match op {
            MapOp::Lookup => {
                let slot = {
                    let key = self.stack_bytes(pc, self.regs[2], map.def().key_size)?;
                    mapops::lookup(map, key, cpu)
                };
                match slot {
                    Some(slot) => ptr(TAG_MAPVAL, self.regions.push(mi as u32, slot), 0),
                    None => 0,
                }
            }
            MapOp::Update => {
                let key = self.stack_bytes(pc, self.regs[2], map.def().key_size)?;
                let val = self.stack_bytes(pc, self.regs[3], map.def().value_size)?;
                mapops::update(map, key, val, cpu)
            }
            MapOp::Delete => {
                let key = self.stack_bytes(pc, self.regs[2], map.def().key_size)?;
                mapops::delete(map, key)
            }
        })
    }
}

impl PreparedProgram {
    /// Program name (same as the source [`Program`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the prepared form with the default budget, returning `r0`.
    ///
    /// # Errors
    ///
    /// See [`PreparedProgram::run`].
    pub fn run_program(&self, ctx: &mut [u8], env: &dyn PolicyEnv) -> Result<u64, RunError> {
        self.run(ctx, env, DEFAULT_BUDGET).map(|r| r.ret)
    }

    /// Runs the prepared form on the compiled tier (built by the first
    /// run), producing the same [`RunReport`] (value and
    /// executed-instruction count) the legacy interpreter reports for the
    /// source program.
    ///
    /// # Errors
    ///
    /// [`RunError::BudgetExhausted`] past the instruction budget, plus the
    /// legacy fault set for out-of-contract programs (a verified program
    /// only ever sees the budget error).
    pub fn run(
        &self,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        budget: u64,
    ) -> Result<RunReport, RunError> {
        self.run_tier_with_faults(ExecTier::Jit, ctx, env, budget, None)
    }

    /// Like [`PreparedProgram::run`], but consults a deterministic
    /// [`FaultInjector`] before the first instruction (invocation-trigger
    /// faults) and at every helper call site (per-helper rate faults).
    ///
    /// With `injector` `None` this is exactly `run`; the plain entry
    /// point never pays for injection, so differential tests against the
    /// legacy interpreter keep their meaning.
    ///
    /// # Errors
    ///
    /// The [`PreparedProgram::run`] fault set, plus whatever the injector
    /// schedules.
    pub fn run_with_faults(
        &self,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        budget: u64,
        injector: Option<&FaultInjector>,
    ) -> Result<RunReport, RunError> {
        self.run_tier_with_faults(ExecTier::Jit, ctx, env, budget, injector)
    }

    /// Runs a pinned tier without a fault injector — for
    /// tier-differential tests and benches.
    ///
    /// # Errors
    ///
    /// See [`PreparedProgram::run`]; the tiers produce identical faults.
    pub fn run_tier(
        &self,
        tier: ExecTier,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        budget: u64,
    ) -> Result<RunReport, RunError> {
        self.run_tier_with_faults(tier, ctx, env, budget, None)
    }

    /// [`PreparedProgram::run_tier`] with a [`FaultInjector`], consulted
    /// at exactly the same points in both tiers.
    ///
    /// # Errors
    ///
    /// See [`PreparedProgram::run_with_faults`].
    #[inline]
    pub fn run_tier_with_faults(
        &self,
        tier: ExecTier,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        budget: u64,
        injector: Option<&FaultInjector>,
    ) -> Result<RunReport, RunError> {
        match tier {
            ExecTier::Interp => self.run_interp(ctx, env, budget, injector),
            ExecTier::Jit => {
                let jit = self.jit.get_or_init(|| crate::jit::compile(self));
                crate::jit::run(self, jit, ctx, env, budget, injector)
            }
        }
    }

    /// Compiles the [`crate::jit`] tier for this program without caching
    /// it — lets benchmarks measure the one-time compile cost repeatably.
    pub fn compile_jit(&self) -> crate::jit::JitProgram {
        crate::jit::compile(self)
    }

    /// Whether the compiled tier has been built, i.e. whether the program
    /// has run (or been pinned to [`ExecTier::Jit`]) yet.
    pub fn jit_compiled(&self) -> bool {
        self.jit.get().is_some()
    }

    pub(crate) fn run_interp(
        &self,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        budget: u64,
        injector: Option<&FaultInjector>,
    ) -> Result<RunReport, RunError> {
        if let Some(inj) = injector {
            if let Some(fault) = inj.invocation_fault() {
                return Err(fault);
            }
        }
        let mut m: Runner<'_> = Runner::new(ctx, env, &self.maps, &self.perm);
        let code = &self.code;
        let weights = &self.weights;
        debug_assert_eq!(code.len(), weights.len());
        let mut pc: usize = 0;
        let mut executed: u64 = 0;
        loop {
            // Weighted budget charge before the slot executes, as legacy
            // charges before the fetch. The invariant `executed <= budget`
            // makes the subtraction safe.
            //
            // SAFETY: `prepare` validates every jump target into
            // `[0, len]` and appends the `Halt` sentinel at index `len`
            // (which returns), so `pc` never leaves either slice
            // (`weights` is built parallel to `code`).
            debug_assert!(pc < code.len());
            let w = u64::from(*unsafe { weights.get_unchecked(pc) });
            if w > budget - executed {
                return Err(RunError::BudgetExhausted);
            }
            executed += w;
            match *unsafe { code.get_unchecked(pc) } {
                PInsn::Alu64 { op, dst, src } => {
                    let rhs = m.src(src);
                    m.set_reg(dst, fold64(op, m.reg(dst), rhs));
                }
                PInsn::Alu32 { op, dst, src } => {
                    let rhs = m.src(src);
                    m.set_reg(dst, u64::from(fold32(op, m.reg(dst) as u32, rhs as u32)));
                }
                PInsn::Mov64R { dst, src } => {
                    let v = m.reg(src);
                    m.set_reg(dst, v);
                }
                PInsn::Mov32R { dst, src } => {
                    let v = u64::from(m.reg(src) as u32);
                    m.set_reg(dst, v);
                }
                PInsn::LdImm64 { dst, imm } => m.set_reg(dst, imm),
                PInsn::LdMapRef { dst, map_id } => {
                    m.set_reg(dst, ptr(TAG_MAPREF, u64::from(map_id), 0));
                }
                PInsn::Load {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let addr = m.reg(base).wrapping_add(off);
                    let v = m.load(pc, addr, size)?;
                    m.set_reg(dst, v);
                }
                PInsn::Store {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let addr = m.reg(base).wrapping_add(off);
                    let v = m.src(src);
                    m.store(pc, addr, size, v)?;
                }
                PInsn::Ja { target } => {
                    pc = target as usize;
                    continue;
                }
                PInsn::Jmp {
                    op,
                    dst,
                    src,
                    target,
                } => {
                    let r = m.src(src);
                    if op.eval(m.reg(dst), r) {
                        pc = target as usize;
                        continue;
                    }
                }
                PInsn::CallEnv0 { f } => {
                    if let Some(inj) = injector {
                        if let Some(fault) = inj.helper_fault(pc, 0) {
                            return Err(fault);
                        }
                    }
                    let ret = f(m.env);
                    m.regs[1..6].fill(0);
                    m.regs[0] = ret;
                }
                PInsn::CallEnv1 { f } => {
                    if let Some(inj) = injector {
                        if let Some(fault) = inj.helper_fault(pc, 0) {
                            return Err(fault);
                        }
                    }
                    let ret = f(m.env, m.regs[1]);
                    m.regs[1..6].fill(0);
                    m.regs[0] = ret;
                }
                PInsn::CallTrace { helper } => {
                    if let Some(inj) = injector {
                        if let Some(fault) = inj.helper_fault(pc, helper) {
                            return Err(fault);
                        }
                    }
                    let len = m.regs[2] as usize;
                    if helper == HelperId::TraceEmit as u32 {
                        // Weight already charged at the loop top; only the
                        // bounds check and the emit itself live here.
                        if !(1..=crate::helpers::TRACE_EMIT_MAX_PAYLOAD).contains(&len) {
                            return Err(RunError::HelperFault {
                                pc,
                                helper,
                                msg: "trace_emit payload length out of bounds",
                            });
                        }
                        let bytes = m.stack_bytes(pc, m.regs[1], len)?;
                        m.env.trace_emit(bytes);
                        m.regs[1..6].fill(0);
                        m.regs[0] = 0;
                    } else {
                        if len > STACK_SIZE {
                            return Err(RunError::HelperFault {
                                pc,
                                helper,
                                msg: "trace length too large",
                            });
                        }
                        let bytes = m.stack_bytes(pc, m.regs[1], len)?;
                        m.env.trace(bytes);
                        m.regs[1..6].fill(0);
                        m.regs[0] = len as u64;
                    }
                }
                PInsn::CallMap { op, helper } => {
                    if let Some(inj) = injector {
                        if let Some(fault) = inj.helper_fault(pc, helper) {
                            return Err(fault);
                        }
                    }
                    let ret = m.call_map(pc, op, helper)?;
                    m.regs[1..6].fill(0);
                    m.regs[0] = ret;
                }
                PInsn::Exit => {
                    return Ok(RunReport {
                        ret: m.regs[0],
                        insns: executed,
                    });
                }
                PInsn::Trap { kind } => {
                    return Err(kind.to_error(pc));
                }
                PInsn::Halt => {
                    return Err(RunError::PcOutOfBounds { pc: pc as i64 });
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FieldAccess;
    use crate::helpers::FixedEnv;
    use crate::insn::JmpOp;
    use crate::interp::run_with_budget;
    use crate::map::{MapDef, MapKind};
    use crate::program::ProgramBuilder;

    fn both(prog: &Program) -> (Result<RunReport, RunError>, Result<RunReport, RunError>) {
        let layout = CtxLayout::empty();
        let legacy = run_with_budget(prog, &mut [], &layout, &FixedEnv::new(), DEFAULT_BUDGET);
        let prepared = prog
            .prepare(&layout)
            .run(&mut [], &FixedEnv::new(), DEFAULT_BUDGET);
        (legacy, prepared)
    }

    #[test]
    fn matches_legacy_on_arithmetic() {
        let mut b = ProgramBuilder::new("t");
        b.ld_imm64(Reg::R1, u64::MAX);
        b.mov(Reg::R0, Reg::R1);
        b.alu_imm(AluOp::Add, Reg::R0, 1);
        b.alu_imm(AluOp::Add, Reg::R0, 7);
        b.alu32_imm(AluOp::Sub, Reg::R0, 9);
        b.alu_imm(AluOp::Div, Reg::R0, 0); // div-by-zero → 0
        b.alu_imm(AluOp::Mod, Reg::R0, 0); // mod-by-zero → dividend
        b.exit();
        let prog = b.build().unwrap();
        let (l, p) = both(&prog);
        assert_eq!(l, p);
        assert!(l.is_ok());
    }

    #[test]
    fn matches_legacy_on_stack_and_jumps() {
        let mut b = ProgramBuilder::new("t");
        b.ld_imm64(Reg::R1, 0xaabb_ccdd_eeff_1122u64);
        b.store(MemSize::Dw, Reg::R10, -8, Reg::R1);
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
        b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "zero");
        b.alu(AluOp::Sub, Reg::R0, Reg::R1);
        b.exit();
        b.label("zero");
        b.mov_imm(Reg::R0, 7);
        b.exit();
        let (l, p) = both(&b.build().unwrap());
        assert_eq!(l, p);
        assert_eq!(l.unwrap().ret, 0);
    }

    #[test]
    fn matches_legacy_on_ctx_access() {
        let layout = CtxLayout::builder()
            .field("in", 8, FieldAccess::ReadOnly)
            .field("out", 8, FieldAccess::ReadWrite)
            .build();
        let mut b = ProgramBuilder::new("t");
        b.load(MemSize::Dw, Reg::R0, Reg::R1, 0);
        b.alu_imm(AluOp::Mul, Reg::R0, 2);
        b.store(MemSize::Dw, Reg::R1, 8, Reg::R0);
        b.exit();
        let prog = b.build().unwrap();
        let env = FixedEnv::new();

        let mut ctx_a = vec![0u8; layout.size()];
        layout.write(&mut ctx_a, "in", 21);
        let legacy = run_with_budget(&prog, &mut ctx_a, &layout, &env, DEFAULT_BUDGET).unwrap();

        let mut ctx_b = vec![0u8; layout.size()];
        layout.write(&mut ctx_b, "in", 21);
        let prepared = prog
            .prepare(&layout)
            .run(&mut ctx_b, &env, DEFAULT_BUDGET)
            .unwrap();

        assert_eq!(legacy, prepared);
        assert_eq!(ctx_a, ctx_b, "context side effects must match");
        assert_eq!(layout.read(&ctx_b, "out"), 42);
    }

    #[test]
    fn ctx_write_to_readonly_field_faults() {
        let layout = CtxLayout::builder()
            .field("in", 8, FieldAccess::ReadOnly)
            .build();
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.store(MemSize::Dw, Reg::R1, 0, Reg::R0);
        b.exit();
        let prog = b.build().unwrap();
        let mut ctx = vec![0u8; layout.size()];
        let got = prog
            .prepare(&layout)
            .run(&mut ctx, &FixedEnv::new(), DEFAULT_BUDGET);
        assert!(matches!(got, Err(RunError::BadAccess { .. })));
    }

    #[test]
    fn matches_legacy_on_helpers_and_maps() {
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        }));
        map.update(&1u32.to_le_bytes(), &10u64.to_le_bytes(), 0)
            .unwrap();
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
        b.call(HelperId::CpuId);
        b.load(MemSize::Dw, Reg::R0, Reg::R10, -4);
        b.exit();
        let prog = b.build().unwrap();
        let (l, p) = both(&prog);
        assert_eq!(l, p);
        // Both runs applied `+5` to the map value.
        assert_eq!(
            map.lookup_copy(&1u32.to_le_bytes(), 0),
            Some(20u64.to_le_bytes().to_vec())
        );
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
        let prepared = prog.prepare(&CtxLayout::empty());
        let ret = prepared.run_program(&mut [], &env).unwrap();
        assert_eq!(ret, 2);
        assert_eq!(env.traces(), vec![b"hi".to_vec()]);
    }

    #[test]
    fn budget_exhaustion_matches_legacy() {
        let prog = Program::new("spin", vec![Insn::Ja { off: -1 }, Insn::Exit], Vec::new());
        let prepared = prog.prepare(&CtxLayout::empty());
        let got = prepared.run(&mut [], &FixedEnv::new(), 1000);
        assert_eq!(got.unwrap_err(), RunError::BudgetExhausted);
    }

    #[test]
    fn fall_off_end_faults_like_legacy() {
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
        let prepared = prog.prepare(&CtxLayout::empty());
        let got = prepared.run(&mut [], &FixedEnv::new(), DEFAULT_BUDGET);
        assert!(matches!(got, Err(RunError::PcOutOfBounds { pc: 1 })));
    }

    /// Statically invalid instructions lower to traps that fault when
    /// reached (the verifier accepts them only in unreachable code).
    #[test]
    fn invalid_instructions_trap_when_reached() {
        let run = |insns: Vec<Insn>| {
            Program::new("trap", insns, Vec::new())
                .prepare(&CtxLayout::empty())
                .run(&mut [], &FixedEnv::new(), DEFAULT_BUDGET)
        };

        // Frame-pointer write.
        let got = run(vec![
            Insn::Alu {
                wide: true,
                op: AluOp::Mov,
                dst: Reg::R10,
                src: Operand::Imm(0),
            },
            Insn::Exit,
        ]);
        assert!(matches!(got, Err(RunError::BadAccess { pc: 0, .. })));

        // Jump far outside the program.
        let got = run(vec![Insn::Ja { off: 100 }, Insn::Exit]);
        assert_eq!(got.unwrap_err(), RunError::PcOutOfBounds { pc: 101 });

        // Unknown helper and unknown map.
        let got = run(vec![Insn::Call { helper: 999 }, Insn::Exit]);
        assert_eq!(
            got.unwrap_err(),
            RunError::HelperFault {
                pc: 0,
                helper: 999,
                msg: "unknown helper",
            }
        );
        let got = run(vec![
            Insn::LdMapRef {
                dst: Reg::R1,
                map_id: 3,
            },
            Insn::Exit,
        ]);
        assert_eq!(
            got.unwrap_err(),
            RunError::HelperFault {
                pc: 0,
                helper: 0,
                msg: "unknown map id",
            }
        );

        // An unreachable trap is harmless.
        let prog = Program::new(
            "dead",
            vec![
                Insn::Alu {
                    wide: true,
                    op: AluOp::Mov,
                    dst: Reg::R0,
                    src: Operand::Imm(3),
                },
                Insn::Exit,
                Insn::Alu {
                    wide: true,
                    op: AluOp::Mov,
                    dst: Reg::R10,
                    src: Operand::Imm(0),
                },
            ],
            Vec::new(),
        );
        let got = prog
            .prepare(&CtxLayout::empty())
            .run(&mut [], &FixedEnv::new(), DEFAULT_BUDGET)
            .unwrap();
        assert_eq!(got.ret, 3);
    }

    #[test]
    fn injected_faults_are_deterministic_and_isolated() {
        use crate::error::FaultKind;
        use crate::fault::{FaultInjector, FaultPlan};

        let mut b = ProgramBuilder::new("ok");
        b.call(HelperId::CpuId);
        b.exit();
        let prog = b.build().unwrap();
        let prepared = prog.prepare(&CtxLayout::empty());
        let env = FixedEnv::new().cpu(3);

        // Invocation trigger: runs 1 and 2 succeed, run 3 faults, run 4
        // succeeds again.
        let inj = FaultInjector::new(FaultPlan::on_invocation(3, FaultKind::Budget));
        for i in 1..=4u64 {
            let got = prepared.run_with_faults(&mut [], &env, DEFAULT_BUDGET, Some(&inj));
            if i == 3 {
                assert_eq!(got.unwrap_err(), RunError::BudgetExhausted);
            } else {
                assert_eq!(got.unwrap().ret, 3);
            }
        }

        // Helper-site injection faults at the call pc with the helper id.
        let always = FaultInjector::new(FaultPlan {
            helper_fault_per_mille: 1000,
            ..FaultPlan::inert(9)
        });
        let got = prepared.run_with_faults(&mut [], &env, DEFAULT_BUDGET, Some(&always));
        assert_eq!(got.unwrap_err().fault_kind(), FaultKind::Helper);

        // `run` (no injector) is untouched by an armed plan elsewhere.
        assert_eq!(prepared.run(&mut [], &env, DEFAULT_BUDGET).unwrap().ret, 3);
    }

    #[test]
    fn insn_counts_match_legacy() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R6, 0);
        b.call(HelperId::CpuId);
        b.alu_imm(AluOp::Add, Reg::R6, 1);
        b.mov(Reg::R0, Reg::R6);
        b.exit();
        let (l, p) = both(&b.build().unwrap());
        assert_eq!(l.unwrap().insns, p.unwrap().insns);
    }
}
