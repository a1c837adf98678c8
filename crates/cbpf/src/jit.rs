//! The compiled execution tier: a prepare-time translation of the
//! prepared ([`crate::prepare`]) instruction stream into direct-threaded
//! steps, in pure Rust — no external backend and no `unsafe` codegen.
//!
//! # Dispatch technique
//!
//! The prepared interpreter pays one dispatch, one budget compare and one
//! budget add per slot. The compiled tier folds every maximal run of
//! *pure* instructions (ALU ops, register moves, stack accesses whose
//! address resolves at compile time to an in-bounds frame offset, and
//! context reads whose address resolves at compile time to a field the
//! layout permits at that width) into the `pre` micro-op prefix of the
//! next non-pure step: one dispatch and one budget charge cover the
//! whole group. Non-pure instructions — context writes, unresolved
//! loads, map-value memory, helpers, traces, jumps, exit — each become
//! one [`JStep`], mirroring the prepared arm one-for-one and
//! reusing the shared [`Runner`] methods so the two tiers cannot drift
//! in fault semantics. A pure run whose successor is a jump target
//! cannot merge into it (other paths enter there without the prefix), so
//! it closes as a standalone [`JOp::Nop`] step.
//!
//! On top of the group structure the compiler runs a local constant
//! lattice (registers plus frame bytes, reset at every join point):
//! fully constant ALU results fold to immediate moves, constant register
//! operands of branches and stores become immediates, constant frame
//! stores forward to later loads, and dead register/frame writes are
//! dropped. Registers and the frame are run-local state — a program can
//! only observe them through the instructions that survive — so these
//! rewrites are invisible. This is the only optimizer programs get: the
//! prepared form it starts from is the plain lowering.
//!
//! # Context reads
//!
//! `r1` enters a run as the context pointer, so the lattice is seeded
//! with it at program entry — and keeps it across join points when no
//! slot of the program can write `r1` (no instruction with `dst == r1`,
//! no helper call, which clobbers `r1..r5`). A load whose address then
//! resolves to a context offset the [`CtxPerm`] table permits at that
//! width, ending inside the layout, becomes [`Micro::CtxLd`]: a
//! fixed-width read at an absolute offset, with no tag match, table
//! lookup or dispatch of its own. What makes it fault-free, and so legal
//! inside a charge group, is the guard at the top of [`run`]: a context
//! shorter than the layout never reaches the compiled steps — it runs on
//! the prepared interpreter, whose per-access checks define every fault.
//! Reads the table refuses stay generic [`JOp::Load`] steps and fault at
//! run time exactly as the interpreter does.
//!
//! # Map steps
//!
//! Every helper and every map-value access has its generic step
//! ([`JOp::CallMap`], [`JOp::Load`], [`JOp::Store`]), whose run-time
//! checks are the interpreter's. Two specializations ride on the
//! lattice, the two the measured programs (the profiling counter and
//! `bench_gate`'s `map_mix`) compile to:
//!
//! * **Lookup-then-branch.** A `map_lookup` whose map ref and key window
//!   are compile-time constants, followed by a conditional branch that
//!   no jump lands on, compiles to one [`JOp::MapLookupBr`] step — the
//!   policy idiom "look up, test for null" under one dispatch, with no
//!   argument re-validation. When every key byte is a constant too, the
//!   step carries the key bytes and a per-site cache word; hot runs
//!   revalidate with one generation load instead of hashing, locking and
//!   probing the shard (see [`cached_lookup`]). A lookup whose operands
//!   do not resolve is a `CallMap` step, and its branch a `Jmp` step.
//! * **Counter update.** Along the straight line from entry, the
//!   compiler counts map-value regions a run has provably registered.
//!   Falling through `r0 == 0` after such a lookup proves a hit, so `r0`
//!   becomes a compile-time-constant region pointer. An aligned 8-byte
//!   load through it, pure micro-ops, and an 8-byte store back to the
//!   same word compile to one [`JOp::MapValRmw8`] step. Any other
//!   map-value access stays a generic step.
//!
//! # Weight-table equivalence
//!
//! Budget accounting must be bit-identical to the interpreter: the same
//! `RunReport::insns` on success and `BudgetExhausted` at exactly the
//! same budgets. Every step's `weight` is the sum of the prepared
//! per-slot weights of its pure prefix plus its own slot, charged up
//! front. This is sound because a pure prefix has no observable effect:
//! wherever inside the group the interpreter's budget dies — at a
//! prefix slot or at the step's own loop-top charge — it reports
//! `BudgetExhausted` with identical context/map/trace state (none of
//! the prefix's register or frame writes are observable), and on every
//! surviving path the total charged is the same sum. Faulting steps
//! charge before executing, exactly like the interpreter's loop-top
//! charge, so budget exhaustion still wins over the fault the slot
//! itself would raise.
//!
//! The one step that is not charged all up front is the lookup-then-
//! branch pair: the lookup is observable (it consults the injector and
//! may fault), so a budget that ends on the branch must still run it.
//! The step charges its prefix and the lookup on entry and the branch's
//! own slot once the helper has returned, where the interpreter's loop
//! top charges it.
//!
//! Fault-injection parity follows the same rule: the injector is
//! consulted at helper steps only, keyed by the original program counter
//! and helper id, and pure prefixes contain no helpers — so the
//! injector's deterministic draw sequence is identical across tiers.
//!
//! # Entry
//!
//! A run's entry prepares only what its steps can reach. `compile`
//! records whether any step can address the frame ([`reaches_frame`]),
//! and [`run`] instantiates one step loop twice, over a [`Runner`] with
//! the full frame and over one with none, and picks by that flag. So the
//! context-only policies do not zero 512 bytes per fire. The map-value
//! region table starts uninitialised in both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::RunError;
use crate::fault::FaultInjector;
use crate::helpers::{mapops, HelperId, PolicyEnv};
use crate::insn::{AluOp, JmpOp, MemSize, STACK_SIZE};
use crate::interp::{fold32, fold64, RunReport};
use crate::map::Map;
use crate::prepare::{
    ptr, ptr_index, ptr_off, ptr_tag, read_le, CtxPerm, MapOp, PInsn, PSrc, PreparedProgram,
    Runner, Trap, TAG_CTX, TAG_MAPREF, TAG_MAPVAL, TAG_STACK,
};

/// A pure micro-op inside a step's `pre` prefix: no fault path, no
/// observable effect — it writes registers and compile-time-bounded
/// frame bytes only, and reads those plus compile-time-permitted context
/// fields: `CtxLd` is a read the layout permits at that width, at an
/// absolute offset that ends inside the layout (see [`run`]'s guard).
#[derive(Clone, Copy, Debug)]
enum Micro {
    MovI { dst: u8, imm: u64 },
    Mov64R { dst: u8, src: u8 },
    Mov32R { dst: u8, src: u8 },
    Alu64I { op: AluOp, dst: u8, imm: u64 },
    Alu64R { op: AluOp, dst: u8, src: u8 },
    Alu32I { op: AluOp, dst: u8, imm: u32 },
    Alu32R { op: AluOp, dst: u8, src: u8 },
    StackLd { size: MemSize, dst: u8, off: u16 },
    StackStR { size: MemSize, off: u16, src: u8 },
    StackStI { size: MemSize, off: u16, imm: u64 },
    CtxLd { size: MemSize, dst: u8, off: u32 },
}

/// A compile-time-proven in-bounds frame window (`off + len <= 512`).
#[derive(Clone, Copy, Debug)]
struct StackWin {
    off: u16,
    len: u16,
}

impl StackWin {
    #[inline(always)]
    fn range(self) -> std::ops::Range<usize> {
        self.off as usize..self.off as usize + self.len as usize
    }
}

/// Compile-time-resolved `map_lookup` operands: map index from a
/// constant `r1` map ref, key window from a constant `r2` frame
/// pointer. When on top of that every key *byte* is a compile-time
/// constant and the map is a hash map, `cached` carries the key bytes
/// and a slot-cache index so hot runs skip the hash/lock/probe
/// entirely (see [`cached_lookup`]).
#[derive(Debug)]
struct FastLookup {
    map: u32,
    key: StackWin,
    cached: Option<ConstKey>,
}

#[derive(Debug)]
struct ConstKey {
    cache: u32,
    bytes: Box<[u8]>,
}

/// One direct-threaded step: a pure micro-op prefix plus one non-pure
/// operation, charged as a single group. `weight` is the summed
/// prepared-slot charge of prefix and operation.
#[derive(Debug)]
struct JStep {
    weight: u64,
    pre: Box<[Micro]>,
    op: JOp,
}

/// The non-pure operation of a step. `pc` is the original slot index
/// for fault attribution and injector keying. Jump targets are step
/// indices (patched from slot indices after the walk).
#[derive(Debug)]
enum JOp {
    /// A pure run whose successor is a jump target: prefix only.
    Nop,
    Load {
        pc: u32,
        size: MemSize,
        dst: u8,
        base: u8,
        off: u64,
    },
    Store {
        pc: u32,
        size: MemSize,
        base: u8,
        off: u64,
        src: PSrc,
    },
    /// A fused read-modify-write of one 8-byte map-value word: an
    /// aligned load through a compile-time-constant region pointer, pure
    /// micro-ops, and a store back to the same word, as one charge group.
    /// One bounds check resolves a slab word handle that serves both
    /// halves. Sound to charge up front because the window was proven in
    /// bounds at compile time (the fault arms mirror `Runner::load` and
    /// are unreachable) and the intermediate state is registers only.
    MapValRmw8 {
        pc: u32,
        dst: u8,
        region: u32,
        /// `off / 8`, to add to `slot * stride`.
        word: u32,
        stride: u32,
        ld_addr: u64,
        mid: Box<[Micro]>,
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
        pc: u32,
        f: fn(&dyn PolicyEnv) -> u64,
    },
    CallEnv1 {
        pc: u32,
        f: fn(&dyn PolicyEnv, u64) -> u64,
    },
    CallTrace {
        pc: u32,
        helper: u32,
    },
    CallMap {
        pc: u32,
        op: MapOp,
        helper: u32,
    },
    /// `map_lookup` with compile-time operands and the branch in the
    /// next slot. The step's weight covers the lookup's group; `jw`, the
    /// branch slot's weight, is charged after the helper returns.
    MapLookupBr {
        pc: u32,
        helper: u32,
        fast: FastLookup,
        jw: u64,
        jop: JmpOp,
        jdst: u8,
        jsrc: PSrc,
        target: u32,
    },
    Exit,
    Trap {
        pc: u32,
        kind: Trap,
    },
    Halt {
        pc: u32,
    },
}

/// A compiled program: the direct-threaded step array
/// [`crate::prepare::PreparedProgram`] runs when the JIT tier is
/// selected. Built at most once per prepared program and shared across
/// runs (steps are immutable; the slot caches are atomics, and all
/// other per-run state lives in the [`Runner`]).
pub struct JitProgram {
    steps: Box<[JStep]>,
    /// Constant-key lookup caches, one word per [`ConstKey`] site; see
    /// [`cached_lookup`] for the encoding and revalidation discipline.
    caches: Box<[AtomicU64]>,
    /// Whether any step can address the frame ([`reaches_frame`]). A
    /// program that cannot runs on a [`Runner`] with no frame at all.
    frame: bool,
}

impl JitProgram {
    /// Whether a run needs its 512-byte frame. False when no compiled
    /// step can address it, and then a run's entry zeroes no frame.
    pub fn uses_frame(&self) -> bool {
        self.frame
    }

    /// Number of loads left as generic steps: a dispatch of their own
    /// and the interpreter's run-time tag, permission and bounds checks.
    /// A program that only reads its own frame and fields its layout
    /// grants, through pointers the compiler can follow, has none.
    pub fn generic_load_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, JOp::Load { .. }))
            .count()
    }
}

/// One entry per step: its kind, the length of its pure prefix and its
/// charge. `MapLookupBr+cache` is a lookup with a constant-key cache.
impl std::fmt::Debug for JitProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|s| format!("{} pre={} w={}", s.op.kind(), s.pre.len(), s.weight))
            .collect();
        f.debug_struct("JitProgram")
            .field("steps", &format_args!("[{}]", steps.join(", ")))
            .field("lookup_caches", &self.caches.len())
            .field("frame", &self.frame)
            .finish()
    }
}

impl JOp {
    fn kind(&self) -> &'static str {
        match self {
            JOp::Nop => "Nop",
            JOp::Load { .. } => "Load",
            JOp::Store { .. } => "Store",
            JOp::MapValRmw8 { .. } => "MapValRmw8",
            JOp::Ja { .. } => "Ja",
            JOp::Jmp { .. } => "Jmp",
            JOp::CallEnv0 { .. } => "CallEnv0",
            JOp::CallEnv1 { .. } => "CallEnv1",
            JOp::CallTrace { .. } => "CallTrace",
            JOp::CallMap { .. } => "CallMap",
            JOp::MapLookupBr { fast, .. } if fast.cached.is_some() => "MapLookupBr+cache",
            JOp::MapLookupBr { .. } => "MapLookupBr",
            JOp::Exit => "Exit",
            JOp::Trap { .. } => "Trap",
            JOp::Halt { .. } => "Halt",
        }
    }
}

/// Compile-time facts: per-register and per-frame-byte constants since
/// the last join point, plus the provable count of map-value regions
/// the run has registered. Reset to the boundary state at every leader
/// (jump target), which keeps the analysis sound even for the cyclic
/// programs `prepare`'s totality contract admits.
struct Consts {
    regs: [Option<u64>; 11],
    stack: [Option<u8>; STACK_SIZE],
    /// `Some(k)` ⇔ on every execution reaching this point, exactly `k`
    /// map-value regions have been registered. Known only along the
    /// uninterrupted straight line from entry: leaders reset to `None`
    /// (a jump may arrive with a different count), and any step that
    /// *may* register a region without the compiler knowing (a generic
    /// lookup) forces `None`.
    pushes: Option<u64>,
}

impl Consts {
    /// The state at a join point. `r1` is the context pointer when no
    /// slot of the program can write it, else unknown.
    fn boundary(r1: Option<u64>) -> Consts {
        let mut c = Consts {
            regs: [None; 11],
            stack: [None; STACK_SIZE],
            pushes: None,
        };
        c.regs[1] = r1;
        // The frame pointer can never be written, so it is constant
        // across blocks in every program.
        c.regs[10] = Some(ptr(TAG_STACK, 0, STACK_SIZE as u32));
        c
    }

    #[inline]
    fn reg(&self, r: u8) -> Option<u64> {
        self.regs[r as usize]
    }

    #[inline]
    fn set(&mut self, r: u8, v: Option<u64>) {
        self.regs[r as usize] = v;
    }

    #[inline]
    fn src(&self, s: PSrc) -> Option<u64> {
        match s {
            PSrc::Reg(r) => self.reg(r),
            PSrc::Imm(v) => Some(v),
        }
    }

    /// `s` as an immediate when its value is known here, so the write
    /// that set it can become dead.
    fn imm_src(&self, s: PSrc) -> PSrc {
        self.src(s).map_or(s, PSrc::Imm)
    }

    /// Helper-call clobber: `r0` unknown, `r1..r5` zeroed.
    fn clobber_helper(&mut self) {
        self.regs[0] = None;
        for r in &mut self.regs[1..6] {
            *r = Some(0);
        }
    }

    /// The constant value of `n` frame bytes at `off`, if all are known.
    fn stack_read(&self, off: usize, n: usize) -> Option<u64> {
        let mut b = [0u8; 8];
        for (dst, src) in b.iter_mut().zip(&self.stack[off..off + n]) {
            *dst = (*src)?;
        }
        Some(u64::from_le_bytes(b))
    }

    fn stack_write_const(&mut self, off: usize, n: usize, v: u64) {
        for (dst, src) in self.stack[off..off + n].iter_mut().zip(v.to_le_bytes()) {
            *dst = Some(src);
        }
    }

    fn stack_write_unknown(&mut self, off: usize, n: usize) {
        for b in &mut self.stack[off..off + n] {
            *b = None;
        }
    }

    fn stack_forget(&mut self) {
        self.stack = [None; STACK_SIZE];
    }

    /// Resolves `base + off` as a compile-time in-bounds frame window of
    /// `n` bytes. `None` means "not provably a pure frame access" — the
    /// slot then compiles to a generic step with the interpreter's exact
    /// runtime checks.
    fn stack_win(&self, base: Option<u64>, off: u64, n: usize) -> Option<u16> {
        let addr = base?.wrapping_add(off);
        if ptr_tag(addr) != TAG_STACK {
            return None;
        }
        let o = ptr_off(addr) as usize;
        if o + n <= STACK_SIZE {
            Some(o as u16)
        } else {
            None
        }
    }
}

/// Backward liveness over a step's `pre` micro-ops; drops writes no
/// later reader (inside the prefix or live-out) can see. With
/// `exit_next` (the step's operation is `Exit`) only `r0` is live out;
/// otherwise every register and frame byte is.
fn dead_strip(ops: &mut Vec<Micro>, exit_next: bool) {
    let mut reg_live = [true; 11];
    let mut stack_live = [true; STACK_SIZE];
    if exit_next {
        reg_live = [false; 11];
        reg_live[0] = true;
        stack_live = [false; STACK_SIZE];
    }
    let mut keep = vec![true; ops.len()];
    for i in (0..ops.len()).rev() {
        match ops[i] {
            // The context is never written inside a prefix, so a context
            // read is a plain definition of `dst`.
            Micro::MovI { dst, .. } | Micro::CtxLd { dst, .. } => {
                if reg_live[dst as usize] {
                    reg_live[dst as usize] = false;
                } else {
                    keep[i] = false;
                }
            }
            Micro::Mov64R { dst, src } | Micro::Mov32R { dst, src } => {
                if reg_live[dst as usize] {
                    reg_live[dst as usize] = false;
                    reg_live[src as usize] = true;
                } else {
                    keep[i] = false;
                }
            }
            // ALU ops read their destination, which therefore stays live.
            Micro::Alu64I { dst, .. } | Micro::Alu32I { dst, .. } => {
                if !reg_live[dst as usize] {
                    keep[i] = false;
                }
            }
            Micro::Alu64R { dst, src, .. } | Micro::Alu32R { dst, src, .. } => {
                if reg_live[dst as usize] {
                    reg_live[src as usize] = true;
                } else {
                    keep[i] = false;
                }
            }
            Micro::StackLd { size, dst, off } => {
                if reg_live[dst as usize] {
                    reg_live[dst as usize] = false;
                    for b in &mut stack_live[off as usize..off as usize + size.bytes()] {
                        *b = true;
                    }
                } else {
                    keep[i] = false;
                }
            }
            Micro::StackStR { size, off, src } => {
                let r = off as usize..off as usize + size.bytes();
                if stack_live[r.clone()].iter().any(|&l| l) {
                    for b in &mut stack_live[r] {
                        *b = false;
                    }
                    reg_live[src as usize] = true;
                } else {
                    keep[i] = false;
                }
            }
            Micro::StackStI { size, off, .. } => {
                let r = off as usize..off as usize + size.bytes();
                if stack_live[r.clone()].iter().any(|&l| l) {
                    for b in &mut stack_live[r] {
                        *b = false;
                    }
                } else {
                    keep[i] = false;
                }
            }
        }
    }
    let mut it = keep.iter();
    ops.retain(|_| *it.next().unwrap());
}

/// Whole-program dead-write elimination over the finished step stream.
/// A register or frame write whose value no step anywhere can read at
/// runtime is unobservable (registers and the frame die with the run;
/// reports expose `r0` and the charge total only, faults expose
/// `pc`/`addr`), so it can be dropped — position-insensitively, which
/// makes a coarse global read-set sound. This catches what the
/// per-prefix [`dead_strip`] cannot: operand setup made redundant by a
/// specialization in a *later* step, e.g. the map-ref and key-pointer
/// moves ahead of a compile-time-resolved lookup. Stripping a write can
/// kill the reads feeding it, so iterate to a fixpoint.
fn global_strip(steps: &mut [JStep]) {
    fn scan_micro(m: &Micro, reg_read: &mut [bool; 11], stack_read: &mut bool) {
        match *m {
            Micro::MovI { .. } | Micro::StackStI { .. } | Micro::CtxLd { .. } => {}
            Micro::Mov64R { src, .. } | Micro::Mov32R { src, .. } => {
                reg_read[src as usize] = true;
            }
            Micro::Alu64I { dst, .. } | Micro::Alu32I { dst, .. } => {
                reg_read[dst as usize] = true;
            }
            Micro::Alu64R { dst, src, .. } | Micro::Alu32R { dst, src, .. } => {
                reg_read[dst as usize] = true;
                reg_read[src as usize] = true;
            }
            Micro::StackLd { .. } => *stack_read = true,
            Micro::StackStR { src, .. } => reg_read[src as usize] = true,
        }
    }
    fn scan_src(s: PSrc, reg_read: &mut [bool; 11]) {
        if let PSrc::Reg(r) = s {
            reg_read[r as usize] = true;
        }
    }
    loop {
        let mut reg_read = [false; 11];
        // The run report returns `r0`.
        reg_read[0] = true;
        let mut stack_read = false;
        for s in steps.iter() {
            for m in s.pre.iter() {
                scan_micro(m, &mut reg_read, &mut stack_read);
            }
            match &s.op {
                JOp::Nop | JOp::Exit | JOp::Trap { .. } | JOp::Halt { .. } | JOp::Ja { .. } => {}
                // A generic load may resolve to any frame byte.
                &JOp::Load { base, .. } => {
                    reg_read[base as usize] = true;
                    stack_read = true;
                }
                &JOp::Store { base, src, .. } => {
                    reg_read[base as usize] = true;
                    scan_src(src, &mut reg_read);
                }
                JOp::MapValRmw8 { mid, src, .. } => {
                    for m in mid.iter() {
                        scan_micro(m, &mut reg_read, &mut stack_read);
                    }
                    scan_src(*src, &mut reg_read);
                }
                &JOp::Jmp { dst, src, .. } => {
                    reg_read[dst as usize] = true;
                    scan_src(src, &mut reg_read);
                }
                JOp::CallEnv0 { .. } => {}
                JOp::CallEnv1 { .. } => reg_read[1] = true,
                JOp::CallTrace { .. } => {
                    reg_read[1] = true;
                    reg_read[2] = true;
                    stack_read = true;
                }
                // The generic map call re-reads its argument registers
                // and key/value windows at runtime.
                JOp::CallMap { .. } => {
                    for r in &mut reg_read[1..6] {
                        *r = true;
                    }
                    stack_read = true;
                }
                JOp::MapLookupBr {
                    fast, jdst, jsrc, ..
                } => {
                    // A cached lookup reads its key bytes from the step.
                    if fast.cached.is_none() {
                        stack_read = true;
                    }
                    reg_read[*jdst as usize] = true;
                    scan_src(*jsrc, &mut reg_read);
                }
            }
        }
        let keep = |m: &Micro| -> bool {
            match *m {
                Micro::MovI { dst, .. }
                | Micro::Mov64R { dst, .. }
                | Micro::Mov32R { dst, .. }
                | Micro::Alu64I { dst, .. }
                | Micro::Alu64R { dst, .. }
                | Micro::Alu32I { dst, .. }
                | Micro::Alu32R { dst, .. }
                | Micro::StackLd { dst, .. }
                | Micro::CtxLd { dst, .. } => reg_read[dst as usize],
                Micro::StackStR { .. } | Micro::StackStI { .. } => stack_read,
            }
        };
        let mut changed = false;
        let mut strip = |ops: &mut Box<[Micro]>| {
            if ops.iter().all(&keep) {
                return;
            }
            changed = true;
            let kept: Vec<Micro> = ops.iter().copied().filter(&keep).collect();
            *ops = kept.into_boxed_slice();
        };
        for s in steps.iter_mut() {
            strip(&mut s.pre);
            if let JOp::MapValRmw8 { mid, .. } = &mut s.op {
                strip(mid);
            }
        }
        if !changed {
            break;
        }
    }
}

/// Compiler state: the step stream, the pending pure prefix and its
/// accumulated weight, the constant lattice, the map index each
/// provably-registered region came from (parallel to `Consts::pushes` —
/// entry `k` is only ever read while `pushes` has stayed known, which
/// pins it to the same straight line that wrote it), and the last
/// map-value load a store may fuse with.
struct Cc<'a> {
    steps: Vec<JStep>,
    blk: Vec<Micro>,
    blk_w: u64,
    c: Consts,
    caches: u32,
    region_maps: Vec<u32>,
    rmw_ld: Option<RmwLoad>,
    maps: &'a [Arc<Map>],
    perm: &'a CtxPerm,
}

/// An aligned 8-byte load of a tracked map-value window, compiled as the
/// generic [`JOp::Load`] at index `step`: a store of the same word right
/// behind it fuses the two into [`JOp::MapValRmw8`].
struct RmwLoad {
    step: usize,
    region: u32,
    off: u32,
    addr: u64,
}

impl Cc<'_> {
    /// Closes the pending prefix into a step carrying `op`, which also
    /// covers `w` (the op's own slot weight).
    fn emit(&mut self, w: u64, op: JOp) {
        let mut pre = std::mem::take(&mut self.blk);
        if !pre.is_empty() {
            dead_strip(&mut pre, matches!(op, JOp::Exit));
        }
        self.steps.push(JStep {
            weight: self.blk_w + w,
            pre: pre.into_boxed_slice(),
            op,
        });
        self.blk_w = 0;
    }

    /// Closes the pending prefix as a standalone [`JOp::Nop`] step —
    /// used ahead of a leader, which other paths enter without it.
    fn flush(&mut self) {
        if !self.blk.is_empty() || self.blk_w > 0 {
            self.emit(0, JOp::Nop);
        }
    }

    /// Resolves `base + off` as a load/store through a compile-time
    /// constant map-value region pointer with a compile-time in-bounds
    /// window: `(region, byte offset, full address)`.
    fn mapval_win(&self, base: Option<u64>, off: u64, n: usize) -> Option<(u32, u32, u64)> {
        let addr = base?.wrapping_add(off);
        if ptr_tag(addr) != TAG_MAPVAL {
            return None;
        }
        let k = ptr_index(addr) as usize;
        let mi = *self.region_maps.get(k)? as usize;
        let o = ptr_off(addr) as usize;
        if o + n <= self.maps[mi].def().value_size {
            Some((k as u32, o as u32, addr))
        } else {
            None
        }
    }

    /// Resolves `base + off` as a read of `n` context bytes that cannot
    /// fault on an in-contract context: the same permission and bounds
    /// tests as `Runner::load`, with the layout size standing in for the
    /// context length ([`run`] sends shorter contexts elsewhere).
    fn ctx_win(&self, base: Option<u64>, off: u64, n: usize) -> Option<u32> {
        let addr = base?.wrapping_add(off);
        if ptr_tag(addr) != TAG_CTX {
            return None;
        }
        let o = ptr_off(addr) as usize;
        (self.perm.read_ok(o, n) && o + n <= self.perm.size()).then_some(o as u32)
    }
}

/// Emits one ALU-class micro-op, folding through the constant lattice.
fn emit_alu(blk: &mut Vec<Micro>, c: &mut Consts, wide: bool, op: AluOp, dst: u8, src: PSrc) {
    if op == AluOp::Mov {
        match c.src(src) {
            Some(v) => {
                let v = if wide { v } else { u64::from(v as u32) };
                blk.push(Micro::MovI { dst, imm: v });
                c.set(dst, Some(v));
            }
            None => {
                let PSrc::Reg(r) = src else { unreachable!() };
                blk.push(if wide {
                    Micro::Mov64R { dst, src: r }
                } else {
                    Micro::Mov32R { dst, src: r }
                });
                c.set(dst, None);
            }
        }
        return;
    }
    match (c.reg(dst), c.src(src)) {
        (Some(a), Some(b)) => {
            let v = if wide {
                fold64(op, a, b)
            } else {
                u64::from(fold32(op, a as u32, b as u32))
            };
            blk.push(Micro::MovI { dst, imm: v });
            c.set(dst, Some(v));
        }
        (None, Some(b)) => {
            blk.push(if wide {
                Micro::Alu64I { op, dst, imm: b }
            } else {
                Micro::Alu32I {
                    op,
                    dst,
                    imm: b as u32,
                }
            });
            c.set(dst, None);
        }
        _ => {
            let PSrc::Reg(r) = src else { unreachable!() };
            blk.push(if wide {
                Micro::Alu64R { op, dst, src: r }
            } else {
                Micro::Alu32R { op, dst, src: r }
            });
            c.set(dst, None);
        }
    }
}

/// One load: a pure micro-op when the address resolves to the frame or
/// to a permitted context field, else a generic step with the
/// interpreter's runtime checks (remembered for [`emit_store`] when it
/// is an aligned 8-byte read of a registered region).
fn emit_load(cc: &mut Cc<'_>, pc: u32, w: u64, size: MemSize, base: u8, off: u64, dst: u8) {
    let nb = size.bytes();
    let bv = cc.c.reg(base);
    if let Some(so) = cc.c.stack_win(bv, off, nb) {
        cc.blk_w += w;
        if let Some(v) = cc.c.stack_read(so as usize, nb) {
            // Store-to-load forwarding: the frame bytes are known.
            cc.blk.push(Micro::MovI { dst, imm: v });
            cc.c.set(dst, Some(v));
        } else {
            cc.blk.push(Micro::StackLd { size, dst, off: so });
            cc.c.set(dst, None);
        }
    } else if let Some(co) = cc.ctx_win(bv, off, nb) {
        cc.blk_w += w;
        cc.blk.push(Micro::CtxLd { size, dst, off: co });
        cc.c.set(dst, None);
    } else {
        cc.rmw_ld = match cc.mapval_win(bv, off, nb) {
            Some((region, mo, addr)) if size == MemSize::Dw && mo % 8 == 0 => Some(RmwLoad {
                step: cc.steps.len(),
                region,
                off: mo,
                addr,
            }),
            _ => None,
        };
        cc.emit(
            w,
            JOp::Load {
                pc,
                size,
                dst,
                base,
                off,
            },
        );
        cc.c.set(dst, None);
    }
}

fn emit_store(cc: &mut Cc<'_>, pc: u32, w: u64, size: MemSize, base: u8, off: u64, src: PSrc) {
    let nb = size.bytes();
    let bv = cc.c.reg(base);
    if let Some(so) = cc.c.stack_win(bv, off, nb) {
        cc.blk_w += w;
        match cc.c.src(src) {
            Some(v) => {
                cc.blk.push(Micro::StackStI {
                    size,
                    off: so,
                    imm: v,
                });
                cc.c.stack_write_const(so as usize, nb, v);
            }
            None => {
                let PSrc::Reg(r) = src else { unreachable!() };
                cc.blk.push(Micro::StackStR {
                    size,
                    off: so,
                    src: r,
                });
                cc.c.stack_write_unknown(so as usize, nb);
            }
        }
        return;
    }
    let src = cc.c.imm_src(src);
    // Fuse with an aligned 8-byte load of the same region word that is
    // the last step: a single RMW group. The lattice proving `base` a
    // region pointer guarantees no join point since that load (leaders
    // reset it), so no path enters between the two.
    let ld = cc.rmw_ld.take().filter(|ld| {
        size == MemSize::Dw
            && ld.step + 1 == cc.steps.len()
            && cc.mapval_win(bv, off, nb).map(|(r, mo, _)| (r, mo)) == Some((ld.region, ld.off))
    });
    if let Some(ld) = ld {
        let step = cc.steps.pop().unwrap();
        let JOp::Load { pc, dst, .. } = step.op else {
            unreachable!()
        };
        let mut mid = std::mem::take(&mut cc.blk);
        if !mid.is_empty() {
            dead_strip(&mut mid, false);
        }
        let mi = cc.region_maps[ld.region as usize] as usize;
        cc.steps.push(JStep {
            weight: step.weight + cc.blk_w + w,
            pre: step.pre,
            op: JOp::MapValRmw8 {
                pc,
                dst,
                region: ld.region,
                word: ld.off / 8,
                stride: cc.maps[mi].value_stride() as u32,
                ld_addr: ld.addr,
                mid: mid.into_boxed_slice(),
                src,
            },
        });
        cc.blk_w = 0;
    } else {
        cc.emit(
            w,
            JOp::Store {
                pc,
                size,
                base,
                off,
                src,
            },
        );
        // A store through an unresolved base may alias the frame.
        match bv.map(|b| ptr_tag(b.wrapping_add(off))) {
            Some(t) if t != TAG_STACK => {}
            _ => cc.c.stack_forget(),
        }
    }
}

/// Compile-time operands for a `map_lookup` call site: map index from a
/// constant `r1` map ref, key window from a constant `r2` frame pointer,
/// plus the constant-key slot cache when every key byte is known at
/// compile time and the map kind benefits (hash maps only — array-kind
/// slot resolution is already lock- and hash-free). `caches` allocates
/// one cache word per qualifying site. `None` leaves the site generic.
fn fast_lookup(c: &Consts, maps: &[Arc<Map>], caches: &mut u32) -> Option<FastLookup> {
    let mref = c.reg(1)?;
    if ptr_tag(mref) != TAG_MAPREF {
        return None;
    }
    let mi = ptr_index(mref) as usize;
    let map = maps.get(mi)?;
    let key_size = map.def().key_size;
    let key = StackWin {
        off: c.stack_win(c.reg(2), 0, key_size)?,
        len: key_size as u16,
    };
    let cached = if map.probe_generation().is_some() {
        let bytes: Option<Box<[u8]>> = c.stack[key.range()].iter().copied().collect();
        bytes.map(|bytes| {
            let cache = *caches;
            *caches += 1;
            ConstKey { cache, bytes }
        })
    } else {
        None
    };
    Some(FastLookup {
        map: mi as u32,
        key,
        cached,
    })
}

/// Whether a slot can change `r1`: by naming it as a destination, or by
/// calling a helper (every call zeroes `r1..r5`).
fn may_write_r1(insn: &PInsn) -> bool {
    match *insn {
        PInsn::Alu64 { dst, .. }
        | PInsn::Alu32 { dst, .. }
        | PInsn::Mov64R { dst, .. }
        | PInsn::Mov32R { dst, .. }
        | PInsn::LdImm64 { dst, .. }
        | PInsn::LdMapRef { dst, .. }
        | PInsn::Load { dst, .. } => dst == 1,
        PInsn::CallEnv0 { .. }
        | PInsn::CallEnv1 { .. }
        | PInsn::CallTrace { .. }
        | PInsn::CallMap { .. } => true,
        PInsn::Store { .. }
        | PInsn::Ja { .. }
        | PInsn::Jmp { .. }
        | PInsn::Exit
        | PInsn::Trap { .. }
        | PInsn::Halt => false,
    }
}

/// Lowers a prepared program to its direct-threaded compiled form.
/// Total, like `prepare` itself: every prepared slot has an
/// always-correct generic mirror, and specialization only narrows how a
/// slot executes, never whether it can.
pub(crate) fn compile(p: &PreparedProgram) -> JitProgram {
    let code = &p.code;
    let weights = &p.weights;
    let n = code.len();
    // Leaders (jump targets and the entry) begin fresh steps and reset
    // the constant lattice.
    let mut lead = vec![false; n];
    for insn in code.iter() {
        if let PInsn::Ja { target } | PInsn::Jmp { target, .. } = *insn {
            lead[target as usize] = true;
        }
    }
    // Entry facts hold at slot 0 only if no jump re-enters there.
    let entry_private = !lead[0];
    lead[0] = true;
    // With a non-empty layout every run that reaches the compiled steps
    // has a non-empty context (see `run`), so `r1` enters as the context
    // pointer — and stays it everywhere when nothing can write it.
    let ctx_ptr = (p.perm.size() > 0).then(|| ptr(TAG_CTX, 0, 0));
    let r1_fixed = ctx_ptr.filter(|_| !code.iter().any(may_write_r1));
    let mut cc = Cc {
        steps: Vec::new(),
        blk: Vec::new(),
        blk_w: 0,
        c: Consts::boundary(r1_fixed),
        caches: 0,
        region_maps: Vec::new(),
        rmw_ld: None,
        maps: &p.maps,
        perm: &p.perm,
    };
    // Step index each leader starts, for jump-target patching. A leader
    // flushes the pending prefix, so whatever it compiles to lands in the
    // next step pushed (a map-value store never fuses back into the load
    // before it there: the reset lattice cannot prove its base a region).
    let mut slot_step: Vec<u32> = vec![0; n];
    let mut pc = 0;
    while pc < n {
        if lead[pc] {
            cc.flush();
            slot_step[pc] = cc.steps.len() as u32;
            cc.c = Consts::boundary(r1_fixed);
            if pc == 0 && entry_private {
                // Program entry: provably zero regions registered, and
                // `r1` still holds what `Runner::new` put there.
                cc.c.pushes = Some(0);
                cc.c.regs[1] = ctx_ptr;
            }
        }
        let w = u64::from(weights[pc]);
        let at = pc as u32;
        match code[pc] {
            PInsn::Alu64 { op, dst, src } => {
                cc.blk_w += w;
                emit_alu(&mut cc.blk, &mut cc.c, true, op, dst, src);
            }
            PInsn::Alu32 { op, dst, src } => {
                cc.blk_w += w;
                emit_alu(&mut cc.blk, &mut cc.c, false, op, dst, src);
            }
            PInsn::Mov64R { dst, src } => {
                cc.blk_w += w;
                emit_alu(
                    &mut cc.blk,
                    &mut cc.c,
                    true,
                    AluOp::Mov,
                    dst,
                    PSrc::Reg(src),
                );
            }
            PInsn::Mov32R { dst, src } => {
                cc.blk_w += w;
                emit_alu(
                    &mut cc.blk,
                    &mut cc.c,
                    false,
                    AluOp::Mov,
                    dst,
                    PSrc::Reg(src),
                );
            }
            PInsn::LdImm64 { dst, imm } => {
                cc.blk_w += w;
                cc.blk.push(Micro::MovI { dst, imm });
                cc.c.set(dst, Some(imm));
            }
            PInsn::LdMapRef { dst, map_id } => {
                let v = ptr(TAG_MAPREF, u64::from(map_id), 0);
                cc.blk_w += w;
                cc.blk.push(Micro::MovI { dst, imm: v });
                cc.c.set(dst, Some(v));
            }
            PInsn::Load {
                size,
                dst,
                base,
                off,
            } => emit_load(&mut cc, at, w, size, base, off, dst),
            PInsn::Store {
                size,
                base,
                off,
                src,
            } => emit_store(&mut cc, at, w, size, base, off, src),
            PInsn::Ja { target } => cc.emit(w, JOp::Ja { target }),
            PInsn::Jmp {
                op,
                dst,
                src,
                target,
            } => {
                let src = cc.c.imm_src(src);
                cc.emit(
                    w,
                    JOp::Jmp {
                        op,
                        dst,
                        src,
                        target,
                    },
                );
                // Fall-through keeps the lattice: the branch writes
                // nothing.
            }
            PInsn::CallEnv0 { f } => {
                cc.emit(w, JOp::CallEnv0 { pc: at, f });
                cc.c.clobber_helper();
            }
            PInsn::CallEnv1 { f } => {
                cc.emit(w, JOp::CallEnv1 { pc: at, f });
                cc.c.clobber_helper();
            }
            PInsn::CallTrace { helper } => {
                cc.emit(w, JOp::CallTrace { pc: at, helper });
                cc.c.clobber_helper();
            }
            PInsn::CallMap { op, helper } => {
                // A lookup with resolved operands and the branch on its
                // result right behind it, with no path entering between,
                // is one step.
                let fused = match (op, code[pc + 1]) {
                    (
                        MapOp::Lookup,
                        PInsn::Jmp {
                            op: jop,
                            dst: jdst,
                            src,
                            target,
                        },
                    ) if !lead[pc + 1] => fast_lookup(&cc.c, cc.maps, &mut cc.caches)
                        .map(|fast| (fast, jop, jdst, src, target)),
                    _ => None,
                };
                cc.c.clobber_helper();
                match fused {
                    Some((fast, jop, jdst, src, target)) => {
                        pc += 1;
                        // The branch reads the post-clobber registers.
                        let jsrc = cc.c.imm_src(src);
                        let map = fast.map;
                        cc.emit(
                            w,
                            JOp::MapLookupBr {
                                pc: at,
                                helper,
                                fast,
                                jw: u64::from(weights[pc]),
                                jop,
                                jdst,
                                jsrc,
                                target,
                            },
                        );
                        track_lookup_branch(&mut cc, map, jdst, jsrc, jop);
                    }
                    None => {
                        cc.emit(w, JOp::CallMap { pc: at, op, helper });
                        if op == MapOp::Lookup {
                            // A hit registers a region; whether it hit is
                            // unknown.
                            cc.c.pushes = None;
                        }
                    }
                }
            }
            PInsn::Exit => cc.emit(w, JOp::Exit),
            PInsn::Trap { kind } => cc.emit(w, JOp::Trap { pc: at, kind }),
            PInsn::Halt => cc.emit(w, JOp::Halt { pc: at }),
        }
        pc += 1;
    }
    cc.flush();
    let mut steps = cc.steps;
    global_strip(&mut steps);
    // Retarget jumps from slot indices to step indices. Targets are
    // always leaders, and every leader starts its own step.
    for s in steps.iter_mut() {
        match &mut s.op {
            JOp::Ja { target } | JOp::Jmp { target, .. } | JOp::MapLookupBr { target, .. } => {
                *target = slot_step[*target as usize]
            }
            _ => {}
        }
    }
    // After `global_strip`: a frame store nothing reads is gone by now.
    let frame = steps.iter().any(reaches_frame);
    JitProgram {
        steps: steps.into_boxed_slice(),
        caches: (0..cc.caches).map(|_| AtomicU64::new(0)).collect(),
        frame,
    }
}

/// Whether a step can address the frame: a frame micro-op in its prefix
/// or a fused RMW's middle, a generic load or store (its address is a
/// run-time value), or a trace or map helper (their buffers and keys are
/// frame windows). Read off the compiled steps rather than taken from
/// the verifier, so it holds for the unverified programs the compiled
/// tier also runs.
fn reaches_frame(s: &JStep) -> bool {
    fn micro(m: &Micro) -> bool {
        match m {
            Micro::StackLd { .. } | Micro::StackStR { .. } | Micro::StackStI { .. } => true,
            Micro::MovI { .. }
            | Micro::Mov64R { .. }
            | Micro::Mov32R { .. }
            | Micro::Alu64I { .. }
            | Micro::Alu64R { .. }
            | Micro::Alu32I { .. }
            | Micro::Alu32R { .. }
            | Micro::CtxLd { .. } => false,
        }
    }
    s.pre.iter().any(micro)
        || match &s.op {
            JOp::MapValRmw8 { mid, .. } => mid.iter().any(micro),
            JOp::Load { .. }
            | JOp::Store { .. }
            | JOp::CallTrace { .. }
            | JOp::CallMap { .. }
            | JOp::MapLookupBr { .. } => true,
            JOp::Nop
            | JOp::Ja { .. }
            | JOp::Jmp { .. }
            | JOp::CallEnv0 { .. }
            | JOp::CallEnv1 { .. }
            | JOp::Exit
            | JOp::Trap { .. }
            | JOp::Halt { .. } => false,
        }
}

/// Region tracking across a lookup-then-branch pair on map `map`.
/// Testing `r0` against zero decides hit-ness on the fall-through path,
/// which keeps the region count — and on a proven hit makes `r0` a
/// compile-time-constant region pointer.
fn track_lookup_branch(cc: &mut Cc<'_>, map: u32, jdst: u8, jsrc: PSrc, jop: JmpOp) {
    match (jdst, jsrc, jop) {
        (0, PSrc::Imm(0), JmpOp::Eq) => {
            // Fall-through ⇒ r0 ≠ 0 ⇒ hit ⇒ one region registered.
            if let Some(k) = cc.c.pushes {
                cc.c.set(0, Some(ptr(TAG_MAPVAL, k, 0)));
                debug_assert_eq!(cc.region_maps.len() as u64, k);
                cc.region_maps.push(map);
                cc.c.pushes = Some(k + 1);
            }
        }
        (0, PSrc::Imm(0), JmpOp::Ne) => {
            // Fall-through ⇒ r0 = 0 ⇒ miss ⇒ no region.
            cc.c.set(0, Some(0));
        }
        _ => cc.c.pushes = None,
    }
}

#[inline(always)]
fn exec_micro<const FRAME: usize>(m: &mut Runner<'_, FRAME>, op: Micro) {
    match op {
        Micro::MovI { dst, imm } => m.set_reg(dst, imm),
        Micro::Mov64R { dst, src } => {
            let v = m.reg(src);
            m.set_reg(dst, v);
        }
        Micro::Mov32R { dst, src } => {
            let v = u64::from(m.reg(src) as u32);
            m.set_reg(dst, v);
        }
        Micro::Alu64I { op, dst, imm } => {
            let v = fold64(op, m.reg(dst), imm);
            m.set_reg(dst, v);
        }
        Micro::Alu64R { op, dst, src } => {
            let rhs = m.reg(src);
            let v = fold64(op, m.reg(dst), rhs);
            m.set_reg(dst, v);
        }
        Micro::Alu32I { op, dst, imm } => {
            let v = u64::from(fold32(op, m.reg(dst) as u32, imm));
            m.set_reg(dst, v);
        }
        Micro::Alu32R { op, dst, src } => {
            let rhs = m.reg(src) as u32;
            let v = u64::from(fold32(op, m.reg(dst) as u32, rhs));
            m.set_reg(dst, v);
        }
        Micro::StackLd { size, dst, off } => {
            let o = off as usize;
            let v = read_le(&m.stack[o..o + size.bytes()]);
            m.set_reg(dst, v);
        }
        Micro::StackStR { size, off, src } => {
            let n = size.bytes();
            let v = m.reg(src).to_le_bytes();
            let o = off as usize;
            m.stack[o..o + n].copy_from_slice(&v[..n]);
        }
        Micro::StackStI { size, off, imm } => {
            let n = size.bytes();
            let o = off as usize;
            m.stack[o..o + n].copy_from_slice(&imm.to_le_bytes()[..n]);
        }
        Micro::CtxLd { size, dst, off } => {
            // One fixed-width read per size instead of `read_le`'s
            // variable-length copy. `run` admits only contexts at least
            // as long as the layout, which `off + size` was proven
            // inside at compile time, so the index checks never fire.
            let c = &m.ctx[off as usize..];
            let v = match size {
                MemSize::B => u64::from(c[0]),
                MemSize::H => u64::from(u16::from_le_bytes([c[0], c[1]])),
                MemSize::W => u64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                MemSize::Dw => u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]),
            };
            m.set_reg(dst, v);
        }
    }
}

/// Cache word layout: bit 63 = valid, bits 62..24 = low 39 bits of the
/// map's probe generation, bits 23..0 = slot + 1 (0 encodes a miss).
/// Slot counts are bounded by shards × shard capacity, far below 2²⁴.
const CACHE_VALID: u64 = 1 << 63;
const CACHE_SLOT_BITS: u32 = 24;
const CACHE_SLOT_MASK: u64 = (1 << CACHE_SLOT_BITS) - 1;
const CACHE_GEN_MASK: u64 = (1 << 39) - 1;

/// Constant-key slot resolution through the per-site cache: one
/// generation load and one compare on a hit, a real probe (tagged with
/// the pre-probe generation, so a concurrent layout change invalidates
/// conservatively) on a miss.
///
/// Concurrency: the cached slot is exactly what a [`Map::lookup_slot`]
/// racing the same inserts/deletes could have returned — a stale-by-one
/// generation read linearizes the lookup just before the layout change,
/// and the map's bytes-stable-until-reuse discipline covers the value
/// accesses that follow, same as for the uncached tiers.
#[inline(always)]
fn cached_lookup(map: &Map, cache: &AtomicU64, key: &[u8], env: &dyn PolicyEnv) -> Option<u32> {
    // `cpu_id` is a pure environment read, so it is only queried when a
    // probe actually runs — a cache hit elides it along with the probe.
    let Some(gen) = map.probe_generation() else {
        return mapops::lookup(map, key, env.cpu_id());
    };
    let tag = CACHE_VALID | ((gen & CACHE_GEN_MASK) << CACHE_SLOT_BITS);
    let word = cache.load(Ordering::Relaxed);
    if word & !CACHE_SLOT_MASK == tag {
        let enc = word & CACHE_SLOT_MASK;
        return if enc == 0 {
            None
        } else {
            Some((enc - 1) as u32)
        };
    }
    let slot = mapops::lookup(map, key, env.cpu_id());
    let enc = slot.map_or(0, |s| u64::from(s) + 1);
    cache.store(tag | enc, Ordering::Relaxed);
    slot
}

#[inline(always)]
fn run_fast_lookup<const FRAME: usize>(
    m: &mut Runner<'_, FRAME>,
    jit: &JitProgram,
    f: &FastLookup,
) -> u64 {
    // Reborrow the slice (not through `m`) so the map stays usable
    // across the `&mut` region registration, as in `Runner::call_map`.
    let maps = m.maps;
    let map = &maps[f.map as usize];
    let slot = match &f.cached {
        Some(ck) => cached_lookup(map, &jit.caches[ck.cache as usize], &ck.bytes, m.env),
        None => mapops::lookup(map, &m.stack[f.key.range()], m.env.cpu_id()),
    };
    match slot {
        Some(slot) => ptr(TAG_MAPVAL, m.regions.push(f.map, slot), 0),
        None => 0,
    }
}

/// Runs a compiled program. Observationally identical to
/// [`PreparedProgram::run`]'s interpreter at every budget and with every
/// injector plan: same reports, side effects, faults and fault order.
pub(crate) fn run(
    p: &PreparedProgram,
    jit: &JitProgram,
    ctx: &mut [u8],
    env: &dyn PolicyEnv,
    budget: u64,
    injector: Option<&FaultInjector>,
) -> Result<RunReport, RunError> {
    // A context shorter than the layout is out of contract: `Micro::CtxLd`
    // was proven in bounds against the layout, not against this buffer,
    // and `r1` may not even be a context pointer. The interpreter's
    // per-access checks define every fault such a run can raise.
    if ctx.len() < p.perm.size() {
        return p.run_interp(ctx, env, budget, injector);
    }
    if let Some(inj) = injector {
        if let Some(fault) = inj.invocation_fault() {
            return Err(fault);
        }
    }
    // One step loop, instantiated twice: with the full frame, and with
    // none for a program no step of which can reach it.
    if jit.frame {
        run_steps::<STACK_SIZE>(p, jit, ctx, env, budget, injector)
    } else {
        run_steps::<0>(p, jit, ctx, env, budget, injector)
    }
}

fn run_steps<const FRAME: usize>(
    p: &PreparedProgram,
    jit: &JitProgram,
    ctx: &mut [u8],
    env: &dyn PolicyEnv,
    budget: u64,
    injector: Option<&FaultInjector>,
) -> Result<RunReport, RunError> {
    let mut m = Runner::<FRAME>::new(ctx, env, &p.maps, &p.perm);
    let steps = &jit.steps;
    let mut si: usize = 0;
    let mut executed: u64 = 0;
    loop {
        // SAFETY: `compile` patches every jump target to a valid step
        // index and the final step is `Halt` (which returns), so `si`
        // never leaves the array — the same contract the prepared loop
        // holds for `pc`.
        debug_assert!(si < steps.len());
        let step = unsafe { steps.get_unchecked(si) };
        if step.weight > budget - executed {
            return Err(RunError::BudgetExhausted);
        }
        executed += step.weight;
        for op in step.pre.iter() {
            exec_micro(&mut m, *op);
        }
        match &step.op {
            JOp::Nop => {}
            &JOp::Load {
                pc,
                size,
                dst,
                base,
                off,
            } => {
                let addr = m.reg(base).wrapping_add(off);
                let v = m.load(pc as usize, addr, size)?;
                m.set_reg(dst, v);
            }
            &JOp::Store {
                pc,
                size,
                base,
                off,
                src,
            } => {
                let addr = m.reg(base).wrapping_add(off);
                let v = m.src(src);
                m.store(pc as usize, addr, size, v)?;
            }
            JOp::MapValRmw8 {
                pc,
                dst,
                region,
                word,
                stride,
                ld_addr,
                mid,
                src,
            } => {
                let Some((mi, slot)) = m.regions.get(*region as usize) else {
                    return Err(RunError::BadAccess {
                        pc: *pc as usize,
                        addr: *ld_addr,
                    });
                };
                let maps = m.maps;
                let idx = slot as usize * *stride as usize + *word as usize;
                let Some(w) = maps[mi as usize].value_word(idx) else {
                    return Err(RunError::BadAccess {
                        pc: *pc as usize,
                        addr: *ld_addr,
                    });
                };
                let v = w.load(Ordering::Relaxed);
                m.set_reg(*dst, v);
                for op in mid.iter() {
                    exec_micro(&mut m, *op);
                }
                // The shared in-bounds word handle makes the store
                // infallible (`value_store`'s full-mask path is a plain
                // relaxed store), so no store-side fault arm is needed.
                let v = m.src(*src);
                w.store(v, Ordering::Relaxed);
            }
            &JOp::Ja { target } => {
                si = target as usize;
                continue;
            }
            &JOp::Jmp {
                op,
                dst,
                src,
                target,
            } => {
                let r = m.src(src);
                if op.eval(m.reg(dst), r) {
                    si = target as usize;
                    continue;
                }
            }
            &JOp::CallEnv0 { pc, f } => {
                if let Some(inj) = injector {
                    if let Some(fault) = inj.helper_fault(pc as usize, 0) {
                        return Err(fault);
                    }
                }
                let ret = f(m.env);
                m.regs[1..6].fill(0);
                m.regs[0] = ret;
            }
            &JOp::CallEnv1 { pc, f } => {
                if let Some(inj) = injector {
                    if let Some(fault) = inj.helper_fault(pc as usize, 0) {
                        return Err(fault);
                    }
                }
                let ret = f(m.env, m.regs[1]);
                m.regs[1..6].fill(0);
                m.regs[0] = ret;
            }
            &JOp::CallTrace { pc, helper } => {
                if let Some(inj) = injector {
                    if let Some(fault) = inj.helper_fault(pc as usize, helper) {
                        return Err(fault);
                    }
                }
                let pc = pc as usize;
                let len = m.regs[2] as usize;
                if helper == HelperId::TraceEmit as u32 {
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
            &JOp::CallMap { pc, op, helper } => {
                if let Some(inj) = injector {
                    if let Some(fault) = inj.helper_fault(pc as usize, helper) {
                        return Err(fault);
                    }
                }
                let ret = m.call_map(pc as usize, op, helper)?;
                m.regs[1..6].fill(0);
                m.regs[0] = ret;
            }
            JOp::MapLookupBr {
                pc,
                helper,
                fast,
                jw,
                jop,
                jdst,
                jsrc,
                target,
            } => {
                if let Some(inj) = injector {
                    if let Some(fault) = inj.helper_fault(*pc as usize, *helper) {
                        return Err(fault);
                    }
                }
                let ret = run_fast_lookup(&mut m, jit, fast);
                m.regs[1..6].fill(0);
                m.regs[0] = ret;
                // The branch slot's charge, where the interpreter's loop
                // top takes it: after the lookup ran.
                if *jw > budget - executed {
                    return Err(RunError::BudgetExhausted);
                }
                executed += jw;
                let rhs = m.src(*jsrc);
                if jop.eval(m.reg(*jdst), rhs) {
                    si = *target as usize;
                    continue;
                }
            }
            JOp::Exit => {
                return Ok(RunReport {
                    ret: m.regs[0],
                    insns: executed,
                });
            }
            // Terminal faulting steps: the group charge already ran
            // (budget exhaustion wins, as at the interpreter's loop
            // top), so just fault.
            &JOp::Trap { pc, kind } => {
                return Err(kind.to_error(pc as usize));
            }
            &JOp::Halt { pc } => {
                return Err(RunError::PcOutOfBounds { pc: i64::from(pc) });
            }
        }
        si += 1;
    }
}
