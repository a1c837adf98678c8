//! Instruction set: an eBPF-shaped 64-bit register machine.
//!
//! Eleven registers (`r0`–`r10`), of which `r0` carries return values,
//! `r1`–`r5` carry helper/program arguments, `r6`–`r9` are callee-saved
//! across helper calls and `r10` is the read-only frame pointer addressing a
//! 512-byte stack that grows downwards. Instructions encode to eBPF-shaped
//! slots ([`RawInsn`]: opcode, two registers, 16-bit offset, 32-bit
//! immediate), with `ldimm64` occupying two slots; sealed artifacts carry
//! them in `wire`'s 9-byte form.

use crate::error::DecodeError;

/// Number of general-purpose registers (`r0`–`r10`).
pub const NUM_REGS: u8 = 11;

/// Stack size in bytes addressed downward from `r10`.
pub const STACK_SIZE: usize = 512;

/// Maximum number of instructions a single program may contain.
pub const MAX_INSNS: usize = 4096;

/// A machine register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Reg(pub u8);

impl Reg {
    /// Return-value / scratch register.
    pub const R0: Reg = Reg(0);
    /// First argument register (holds the context pointer on entry).
    pub const R1: Reg = Reg(1);
    /// Second argument register.
    pub const R2: Reg = Reg(2);
    /// Third argument register.
    pub const R3: Reg = Reg(3);
    /// Fourth argument register.
    pub const R4: Reg = Reg(4);
    /// Fifth argument register.
    pub const R5: Reg = Reg(5);
    /// First callee-saved register.
    pub const R6: Reg = Reg(6);
    /// Second callee-saved register.
    pub const R7: Reg = Reg(7);
    /// Third callee-saved register.
    pub const R8: Reg = Reg(8);
    /// Fourth callee-saved register.
    pub const R9: Reg = Reg(9);
    /// Read-only frame pointer.
    pub const R10: Reg = Reg(10);
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Arithmetic/logic operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields 0 (eBPF semantics).
    Div,
    /// Unsigned remainder; modulo zero yields the dividend (eBPF semantics).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to width).
    Lsh,
    /// Logical shift right.
    Rsh,
    /// Arithmetic shift right.
    Arsh,
    /// Two's-complement negation (unary; source operand ignored).
    Neg,
    /// Register/immediate move.
    Mov,
}

impl AluOp {
    /// All operations, for exhaustive tests.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
        AluOp::Arsh,
        AluOp::Neg,
        AluOp::Mov,
    ];

    pub(crate) fn code(self) -> u8 {
        match self {
            AluOp::Add => 0x0,
            AluOp::Sub => 0x1,
            AluOp::Mul => 0x2,
            AluOp::Div => 0x3,
            AluOp::Mod => 0x4,
            AluOp::And => 0x5,
            AluOp::Or => 0x6,
            AluOp::Xor => 0x7,
            AluOp::Lsh => 0x8,
            AluOp::Rsh => 0x9,
            AluOp::Arsh => 0xa,
            AluOp::Neg => 0xb,
            AluOp::Mov => 0xc,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<AluOp> {
        AluOp::ALL.iter().copied().find(|op| op.code() == c)
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Mod => "mod",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Lsh => "lsh",
            AluOp::Rsh => "rsh",
            AluOp::Arsh => "arsh",
            AluOp::Neg => "neg",
            AluOp::Mov => "mov",
        }
    }
}

/// Conditional-jump predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// `dst & src != 0`.
    Set,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl JmpOp {
    /// All predicates, for exhaustive tests.
    pub const ALL: [JmpOp; 11] = [
        JmpOp::Eq,
        JmpOp::Ne,
        JmpOp::Gt,
        JmpOp::Ge,
        JmpOp::Lt,
        JmpOp::Le,
        JmpOp::Set,
        JmpOp::Sgt,
        JmpOp::Sge,
        JmpOp::Slt,
        JmpOp::Sle,
    ];

    pub(crate) fn code(self) -> u8 {
        match self {
            JmpOp::Eq => 0x1,
            JmpOp::Ne => 0x2,
            JmpOp::Gt => 0x3,
            JmpOp::Ge => 0x4,
            JmpOp::Lt => 0x5,
            JmpOp::Le => 0x6,
            JmpOp::Set => 0x7,
            JmpOp::Sgt => 0x8,
            JmpOp::Sge => 0x9,
            JmpOp::Slt => 0xa,
            JmpOp::Sle => 0xb,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<JmpOp> {
        JmpOp::ALL.iter().copied().find(|op| op.code() == c)
    }

    /// Assembler mnemonic (`jeq`, `jne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            JmpOp::Eq => "jeq",
            JmpOp::Ne => "jne",
            JmpOp::Gt => "jgt",
            JmpOp::Ge => "jge",
            JmpOp::Lt => "jlt",
            JmpOp::Le => "jle",
            JmpOp::Set => "jset",
            JmpOp::Sgt => "jsgt",
            JmpOp::Sge => "jsge",
            JmpOp::Slt => "jslt",
            JmpOp::Sle => "jsle",
        }
    }

    /// Evaluates the predicate on 64-bit operands.
    pub fn eval(self, dst: u64, src: u64) -> bool {
        match self {
            JmpOp::Eq => dst == src,
            JmpOp::Ne => dst != src,
            JmpOp::Gt => dst > src,
            JmpOp::Ge => dst >= src,
            JmpOp::Lt => dst < src,
            JmpOp::Le => dst <= src,
            JmpOp::Set => dst & src != 0,
            JmpOp::Sgt => (dst as i64) > (src as i64),
            JmpOp::Sge => (dst as i64) >= (src as i64),
            JmpOp::Slt => (dst as i64) < (src as i64),
            JmpOp::Sle => (dst as i64) <= (src as i64),
        }
    }
}

/// Access width of a memory instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemSize {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    Dw,
}

impl MemSize {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemSize::B => 1,
            MemSize::H => 2,
            MemSize::W => 4,
            MemSize::Dw => 8,
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            MemSize::B => 0,
            MemSize::H => 1,
            MemSize::W => 2,
            MemSize::Dw => 3,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<MemSize> {
        match c {
            0 => Some(MemSize::B),
            1 => Some(MemSize::H),
            2 => Some(MemSize::W),
            3 => Some(MemSize::Dw),
            _ => None,
        }
    }

    /// Assembler suffix (`b`, `h`, `w`, `dw`).
    pub fn suffix(self) -> &'static str {
        match self {
            MemSize::B => "b",
            MemSize::H => "h",
            MemSize::W => "w",
            MemSize::Dw => "dw",
        }
    }
}

/// Second operand of ALU, store and jump instructions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Register source.
    Reg(Reg),
    /// 32-bit immediate, sign-extended to 64 bits where applicable.
    Imm(i32),
}

/// One decoded instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insn {
    /// `dst = dst op src` (64-bit when `wide`, else 32-bit with zero
    /// extension of the result, as in eBPF).
    Alu {
        /// 64-bit operation when true; 32-bit otherwise.
        wide: bool,
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Second operand.
        src: Operand,
    },
    /// `dst = imm` (full 64-bit immediate; occupies two encoded slots).
    LdImm64 {
        /// Destination register.
        dst: Reg,
        /// The immediate.
        imm: u64,
    },
    /// `dst = &map[map_id]` — pseudo load of a map reference, the analog of
    /// eBPF's `ldimm64` with `BPF_PSEUDO_MAP_FD`.
    LdMapRef {
        /// Destination register.
        dst: Reg,
        /// Index into the program's map table.
        map_id: u32,
    },
    /// `dst = *(size*)(base + off)`.
    Load {
        /// Access width.
        size: MemSize,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
    },
    /// `*(size*)(base + off) = src`.
    Store {
        /// Access width.
        size: MemSize,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
        /// Value to store.
        src: Operand,
    },
    /// Unconditional jump by `off` instructions (relative to the next one).
    Ja {
        /// Signed instruction offset.
        off: i16,
    },
    /// Conditional jump: `if dst op src goto pc + 1 + off`.
    Jmp {
        /// Predicate.
        op: JmpOp,
        /// Left operand register.
        dst: Reg,
        /// Right operand.
        src: Operand,
        /// Signed instruction offset.
        off: i16,
    },
    /// Helper call; arguments in `r1`–`r5`, result in `r0`.
    Call {
        /// Helper identifier.
        helper: u32,
    },
    /// Return from the program with the value in `r0`.
    Exit,
}

// Encoding: op byte layout mirrors eBPF classes.
const CLASS_ALU64: u8 = 0x07;
const CLASS_ALU32: u8 = 0x04;
const CLASS_LD: u8 = 0x00; // ldimm64 / ldmapref
const CLASS_LDX: u8 = 0x01;
const CLASS_ST: u8 = 0x02; // store immediate
const CLASS_STX: u8 = 0x03; // store register
const CLASS_JMP: u8 = 0x05;

const SRC_IMM: u8 = 0x0;
const SRC_REG: u8 = 0x8;

/// One encoded instruction slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RawInsn {
    /// Opcode byte: `class | src_flag | (sub_op << 4)`.
    pub op: u8,
    /// Destination register number.
    pub dst: u8,
    /// Source register number.
    pub src: u8,
    /// Signed 16-bit offset.
    pub off: i16,
    /// 32-bit immediate.
    pub imm: i32,
}

fn slots_of(insn: &Insn) -> usize {
    match insn {
        Insn::LdImm64 { .. } | Insn::LdMapRef { .. } => 2,
        _ => 1,
    }
}

/// Encodes a sequence of instructions into raw slots (`ldimm64` and
/// `ldmapref` take two).
///
/// Jump offsets at the [`Insn`] level count decoded instructions; this
/// translates them to raw-slot units as eBPF does, so a jump across an
/// `ldimm64` encodes with a larger raw offset.
///
/// # Panics
///
/// Panics if a translated jump offset does not fit in 16 bits or targets a
/// position outside `[0, len]` (the verifier rejects such programs; callers
/// encode only verified or builder-produced programs).
pub fn encode(insns: &[Insn]) -> Vec<RawInsn> {
    // Raw slot position of each decoded instruction (plus the end position).
    let mut rawpos = Vec::with_capacity(insns.len() + 1);
    let mut pos = 0usize;
    for insn in insns {
        rawpos.push(pos);
        pos += slots_of(insn);
    }
    rawpos.push(pos);
    let raw_jump_off = |i: usize, off: i16| -> i16 {
        let target = i as i64 + 1 + i64::from(off);
        assert!(
            target >= 0 && target <= insns.len() as i64,
            "jump target {target} outside program"
        );
        let raw = rawpos[target as usize] as i64 - rawpos[i] as i64 - 1;
        i16::try_from(raw).expect("raw jump offset fits i16")
    };

    let mut out = Vec::with_capacity(insns.len());
    for (i, insn) in insns.iter().enumerate() {
        match *insn {
            Insn::Alu { wide, op, dst, src } => {
                let class = if wide { CLASS_ALU64 } else { CLASS_ALU32 };
                let (flag, srcreg, imm) = operand_parts(src);
                out.push(RawInsn {
                    op: class | flag | (op.code() << 4),
                    dst: dst.0,
                    src: srcreg,
                    off: 0,
                    imm,
                });
            }
            Insn::LdImm64 { dst, imm } => {
                out.push(RawInsn {
                    op: CLASS_LD | SRC_IMM,
                    dst: dst.0,
                    src: 0,
                    off: 0,
                    imm: imm as u32 as i32,
                });
                out.push(RawInsn {
                    op: 0,
                    dst: 0,
                    src: 0,
                    off: 0,
                    imm: (imm >> 32) as u32 as i32,
                });
            }
            Insn::LdMapRef { dst, map_id } => {
                // src nibble 1 marks the pseudo map reference, like
                // BPF_PSEUDO_MAP_FD.
                out.push(RawInsn {
                    op: CLASS_LD | SRC_IMM,
                    dst: dst.0,
                    src: 1,
                    off: 0,
                    imm: map_id as i32,
                });
                out.push(RawInsn::default());
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                out.push(RawInsn {
                    op: CLASS_LDX | (size.code() << 4),
                    dst: dst.0,
                    src: base.0,
                    off,
                    imm: 0,
                });
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => match src {
                Operand::Reg(r) => out.push(RawInsn {
                    op: CLASS_STX | (size.code() << 4),
                    dst: base.0,
                    src: r.0,
                    off,
                    imm: 0,
                }),
                Operand::Imm(imm) => out.push(RawInsn {
                    op: CLASS_ST | (size.code() << 4),
                    dst: base.0,
                    src: 0,
                    off,
                    imm,
                }),
            },
            Insn::Ja { off } => out.push(RawInsn {
                op: CLASS_JMP | SRC_IMM,
                dst: 0,
                src: 0,
                off: raw_jump_off(i, off),
                imm: 0,
            }),
            Insn::Jmp { op, dst, src, off } => {
                let (flag, srcreg, imm) = operand_parts(src);
                out.push(RawInsn {
                    op: CLASS_JMP | flag | (op.code() << 4),
                    dst: dst.0,
                    src: srcreg,
                    off: raw_jump_off(i, off),
                    imm,
                });
            }
            Insn::Call { helper } => out.push(RawInsn {
                op: CLASS_JMP | (0xc << 4),
                dst: 0,
                src: 0,
                off: 0,
                imm: helper as i32,
            }),
            Insn::Exit => out.push(RawInsn {
                op: CLASS_JMP | (0xd << 4),
                dst: 0,
                src: 0,
                off: 0,
                imm: 0,
            }),
        }
    }
    out
}

fn operand_parts(src: Operand) -> (u8, u8, i32) {
    match src {
        Operand::Reg(r) => (SRC_REG, r.0, 0),
        Operand::Imm(i) => (SRC_IMM, 0, i),
    }
}

/// Decodes raw slots back into instructions.
///
/// Jump offsets are translated from raw-slot units back to decoded
/// instruction units (the inverse of [`encode`]).
///
/// # Errors
///
/// Returns [`DecodeError`] on unknown opcodes, bad register numbers, a
/// truncated two-slot immediate, or a jump landing inside a two-slot
/// instruction or outside the program.
pub fn decode(raw: &[RawInsn]) -> Result<Vec<Insn>, DecodeError> {
    // First pass: decoded index of every raw slot (`None` for second halves
    // of two-slot instructions), for jump retargeting.
    let mut slot_to_decoded: Vec<Option<usize>> = Vec::with_capacity(raw.len() + 1);
    {
        let mut i = 0;
        let mut d = 0;
        while i < raw.len() {
            slot_to_decoded.push(Some(d));
            if raw[i].op & 0x07 == CLASS_LD {
                slot_to_decoded.push(None);
                i += 1;
            }
            i += 1;
            d += 1;
        }
        // One-past-the-end is a valid jump target during decoding; the
        // verifier rejects fall-through separately.
        slot_to_decoded.push(Some(d));
    }
    let retarget = |slot: usize, off: i16, out_len: usize| -> Result<i16, DecodeError> {
        let target = slot as i64 + 1 + i64::from(off);
        let decoded = (target >= 0)
            .then(|| slot_to_decoded.get(target as usize).copied().flatten())
            .flatten()
            .ok_or(DecodeError::BadJumpTarget { pc: slot })?;
        i16::try_from(decoded as i64 - out_len as i64 - 1)
            .map_err(|_| DecodeError::BadJumpTarget { pc: slot })
    };

    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        let r = raw[i];
        let class = r.op & 0x07;
        let sub = r.op >> 4;
        let has_src_reg = r.op & 0x08 != 0;
        let insn = match class {
            CLASS_ALU64 | CLASS_ALU32 => {
                let op = AluOp::from_code(sub).ok_or(DecodeError::BadOpcode { pc: i, op: r.op })?;
                Insn::Alu {
                    wide: class == CLASS_ALU64,
                    op,
                    dst: check_reg(r.dst, i)?,
                    src: if has_src_reg {
                        Operand::Reg(check_reg(r.src, i)?)
                    } else {
                        Operand::Imm(r.imm)
                    },
                }
            }
            CLASS_LD => {
                let next = raw
                    .get(i + 1)
                    .ok_or(DecodeError::TruncatedImm64 { pc: i })?;
                let insn = if r.src == 1 {
                    Insn::LdMapRef {
                        dst: check_reg(r.dst, i)?,
                        map_id: r.imm as u32,
                    }
                } else {
                    let lo = r.imm as u32 as u64;
                    let hi = next.imm as u32 as u64;
                    Insn::LdImm64 {
                        dst: check_reg(r.dst, i)?,
                        imm: lo | (hi << 32),
                    }
                };
                i += 1; // Consume the second slot.
                insn
            }
            CLASS_LDX => Insn::Load {
                size: MemSize::from_code(sub).ok_or(DecodeError::BadOpcode { pc: i, op: r.op })?,
                dst: check_reg(r.dst, i)?,
                base: check_reg(r.src, i)?,
                off: r.off,
            },
            CLASS_ST => Insn::Store {
                size: MemSize::from_code(sub).ok_or(DecodeError::BadOpcode { pc: i, op: r.op })?,
                base: check_reg(r.dst, i)?,
                off: r.off,
                src: Operand::Imm(r.imm),
            },
            CLASS_STX => Insn::Store {
                size: MemSize::from_code(sub).ok_or(DecodeError::BadOpcode { pc: i, op: r.op })?,
                base: check_reg(r.dst, i)?,
                off: r.off,
                src: Operand::Reg(check_reg(r.src, i)?),
            },
            CLASS_JMP => match sub {
                0x0 if !has_src_reg => Insn::Ja {
                    off: retarget(i, r.off, out.len())?,
                },
                0xc => Insn::Call {
                    helper: r.imm as u32,
                },
                0xd => Insn::Exit,
                _ => {
                    let op =
                        JmpOp::from_code(sub).ok_or(DecodeError::BadOpcode { pc: i, op: r.op })?;
                    Insn::Jmp {
                        op,
                        dst: check_reg(r.dst, i)?,
                        src: if has_src_reg {
                            Operand::Reg(check_reg(r.src, i)?)
                        } else {
                            Operand::Imm(r.imm)
                        },
                        off: retarget(i, r.off, out.len())?,
                    }
                }
            },
            _ => return Err(DecodeError::BadOpcode { pc: i, op: r.op }),
        };
        out.push(insn);
        i += 1;
    }
    Ok(out)
}

fn check_reg(n: u8, pc: usize) -> Result<Reg, DecodeError> {
    if n < NUM_REGS {
        Ok(Reg(n))
    } else {
        Err(DecodeError::BadRegister { pc, reg: n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(insns: &[Insn]) {
        let raw = encode(insns);
        let back = decode(&raw).expect("decode");
        assert_eq!(insns, back.as_slice());
    }

    #[test]
    fn alu_roundtrip_all_ops() {
        for wide in [false, true] {
            for op in AluOp::ALL {
                roundtrip(&[
                    Insn::Alu {
                        wide,
                        op,
                        dst: Reg::R3,
                        src: Operand::Reg(Reg::R7),
                    },
                    Insn::Alu {
                        wide,
                        op,
                        dst: Reg::R0,
                        src: Operand::Imm(-42),
                    },
                    Insn::Exit,
                ]);
            }
        }
    }

    #[test]
    fn jmp_roundtrip_all_ops() {
        for op in JmpOp::ALL {
            roundtrip(&[
                Insn::Jmp {
                    op,
                    dst: Reg::R1,
                    src: Operand::Imm(5),
                    off: 1,
                },
                Insn::Jmp {
                    op,
                    dst: Reg::R2,
                    src: Operand::Reg(Reg::R9),
                    off: -1,
                },
                Insn::Exit,
            ]);
        }
    }

    #[test]
    fn mem_roundtrip_all_sizes() {
        for size in [MemSize::B, MemSize::H, MemSize::W, MemSize::Dw] {
            roundtrip(&[
                Insn::Load {
                    size,
                    dst: Reg::R4,
                    base: Reg::R10,
                    off: -16,
                },
                Insn::Store {
                    size,
                    base: Reg::R10,
                    off: -8,
                    src: Operand::Reg(Reg::R4),
                },
                Insn::Store {
                    size,
                    base: Reg::R10,
                    off: -24,
                    src: Operand::Imm(77),
                },
                Insn::Exit,
            ]);
        }
    }

    #[test]
    fn ldimm64_roundtrip_extremes() {
        for imm in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d, 1 << 63] {
            roundtrip(&[Insn::LdImm64 { dst: Reg::R6, imm }, Insn::Exit]);
        }
    }

    #[test]
    fn map_ref_and_call_roundtrip() {
        roundtrip(&[
            Insn::LdMapRef {
                dst: Reg::R1,
                map_id: 3,
            },
            Insn::Call { helper: 12 },
            Insn::Ja { off: 0 },
            Insn::Exit,
        ]);
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let raw = [RawInsn {
            op: 0xff,
            ..Default::default()
        }];
        assert!(matches!(
            decode(&raw),
            Err(DecodeError::BadOpcode { pc: 0, op: 0xff })
        ));
    }

    #[test]
    fn decode_rejects_truncated_ldimm64() {
        let raw = encode(&[Insn::LdImm64 {
            dst: Reg::R0,
            imm: 7,
        }]);
        assert!(matches!(
            decode(&raw[..1]),
            Err(DecodeError::TruncatedImm64 { pc: 0 })
        ));
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut raw = encode(&[Insn::Alu {
            wide: true,
            op: AluOp::Mov,
            dst: Reg::R0,
            src: Operand::Imm(0),
        }]);
        raw[0].dst = 12;
        assert!(matches!(
            decode(&raw),
            Err(DecodeError::BadRegister { pc: 0, reg: 12 })
        ));
    }

    #[test]
    fn jump_across_ldimm64_roundtrips() {
        // Decoded offset of 2 spans an ldimm64 (3 raw slots); encode must
        // widen the raw offset and decode must narrow it back.
        let insns = [
            Insn::Jmp {
                op: JmpOp::Eq,
                dst: Reg::R1,
                src: Operand::Imm(0),
                off: 2,
            },
            Insn::LdImm64 {
                dst: Reg::R0,
                imm: u64::MAX,
            },
            Insn::Exit,
            Insn::Exit,
        ];
        let raw = encode(&insns);
        assert_eq!(raw.len(), 5);
        assert_eq!(raw[0].off, 3, "raw offset counts slots");
        let back = decode(&raw).expect("decode");
        assert_eq!(&insns[..], back.as_slice());
    }

    #[test]
    fn decode_rejects_jump_into_ldimm64() {
        let insns = [
            Insn::Ja { off: 0 },
            Insn::LdImm64 {
                dst: Reg::R0,
                imm: 1,
            },
            Insn::Exit,
        ];
        let mut raw = encode(&insns);
        raw[0].off = 1; // Lands on the second slot of the ldimm64.
        assert!(matches!(
            decode(&raw),
            Err(DecodeError::BadJumpTarget { pc: 0 })
        ));
    }

    #[test]
    fn jmp_eval_signed_vs_unsigned() {
        let minus_one = -1i64 as u64;
        assert!(JmpOp::Gt.eval(minus_one, 1)); // Unsigned: huge > 1.
        assert!(!JmpOp::Sgt.eval(minus_one, 1)); // Signed: -1 < 1.
        assert!(JmpOp::Slt.eval(minus_one, 0));
        assert!(!JmpOp::Lt.eval(minus_one, 0));
        assert!(JmpOp::Set.eval(0b1010, 0b0010));
        assert!(!JmpOp::Set.eval(0b1010, 0b0101));
    }
}
