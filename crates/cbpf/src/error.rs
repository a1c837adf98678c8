//! Error types for decoding, assembling, verifying and running programs.

use std::fmt;

/// Error decoding raw instruction slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Unknown opcode byte at `pc`.
    BadOpcode {
        /// Slot index.
        pc: usize,
        /// Offending opcode byte.
        op: u8,
    },
    /// Register number out of range at `pc`.
    BadRegister {
        /// Slot index.
        pc: usize,
        /// Offending register number.
        reg: u8,
    },
    /// A two-slot `ldimm64` was cut off at the end of the program.
    TruncatedImm64 {
        /// Slot index of the first half.
        pc: usize,
    },
    /// A jump lands inside a two-slot instruction or outside the program.
    BadJumpTarget {
        /// Slot index of the jump.
        pc: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { pc, op } => {
                write!(f, "unknown opcode {op:#04x} at instruction {pc}")
            }
            DecodeError::BadRegister { pc, reg } => {
                write!(f, "bad register r{reg} at instruction {pc}")
            }
            DecodeError::TruncatedImm64 { pc } => {
                write!(f, "truncated ldimm64 at instruction {pc}")
            }
            DecodeError::BadJumpTarget { pc } => {
                write!(f, "jump at slot {pc} targets an invalid position")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error produced by the assembler.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Rejection reason from the verifier.
///
/// Every variant carries the program counter of the offending instruction so
/// the "notify user" step of the Concord workflow (Fig. 1, step 4) can point
/// at the exact policy line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The program is empty or exceeds the instruction limit.
    BadProgramSize {
        /// Number of instructions found.
        len: usize,
    },
    /// A jump leaves the program or splits an instruction.
    JumpOutOfBounds {
        /// Offending pc.
        pc: usize,
    },
    /// A backward jump (loop) — rejected to guarantee termination.
    BackEdge {
        /// Offending pc.
        pc: usize,
    },
    /// Execution can fall off the end without `exit`.
    FallOffEnd,
    /// Read of an uninitialized register.
    UninitRegister {
        /// Offending pc.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// Write to the read-only frame pointer `r10`.
    FramePointerWrite {
        /// Offending pc.
        pc: usize,
    },
    /// A memory access through a non-pointer register.
    NotAPointer {
        /// Offending pc.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// A memory access outside its region.
    OutOfBounds {
        /// Offending pc.
        pc: usize,
        /// Attempted byte offset.
        off: i64,
        /// Access width in bytes.
        size: usize,
    },
    /// Read of uninitialized stack bytes.
    UninitStack {
        /// Offending pc.
        pc: usize,
        /// Stack byte offset below `r10`.
        off: i64,
    },
    /// Unaligned context or map access.
    Unaligned {
        /// Offending pc.
        pc: usize,
        /// Attempted byte offset.
        off: i64,
    },
    /// Context access that does not match a declared field.
    BadCtxAccess {
        /// Offending pc.
        pc: usize,
        /// Attempted byte offset.
        off: i64,
    },
    /// Write to a read-only context field.
    ReadOnlyCtxField {
        /// Offending pc.
        pc: usize,
        /// Field name.
        field: &'static str,
    },
    /// Pointer arithmetic the verifier cannot bound.
    BadPointerArithmetic {
        /// Offending pc.
        pc: usize,
    },
    /// Division or modulo by a constant zero.
    DivByZero {
        /// Offending pc.
        pc: usize,
    },
    /// Unknown helper id.
    UnknownHelper {
        /// Offending pc.
        pc: usize,
        /// Helper id.
        helper: u32,
    },
    /// Helper argument type mismatch.
    BadHelperArg {
        /// Offending pc.
        pc: usize,
        /// Helper id.
        helper: u32,
        /// 1-based argument index.
        arg: u8,
        /// Description of the expected type.
        expected: &'static str,
    },
    /// Dereference of a possibly-null map value pointer.
    PossiblyNullDeref {
        /// Offending pc.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// Reference to a map id not present in the program's map table.
    UnknownMap {
        /// Offending pc.
        pc: usize,
        /// Map id.
        map_id: u32,
    },
    /// `exit` with an uninitialized or non-scalar `r0`.
    BadReturnValue {
        /// Offending pc.
        pc: usize,
    },
    /// The verifier's state budget was exhausted (program too branchy).
    TooComplex {
        /// States explored before giving up.
        states: usize,
    },
    /// A lock-safety rule imposed by the hook was violated (e.g., a
    /// decision hook returning a pointer).
    HookRule {
        /// Description of the violated rule.
        rule: &'static str,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadProgramSize { len } => {
                write!(f, "program size {len} outside [1, 4096]")
            }
            VerifyError::JumpOutOfBounds { pc } => write!(f, "pc {pc}: jump out of bounds"),
            VerifyError::BackEdge { pc } => {
                write!(f, "pc {pc}: backward jump (loops are not allowed)")
            }
            VerifyError::FallOffEnd => write!(f, "control can fall off the end"),
            VerifyError::UninitRegister { pc, reg } => {
                write!(f, "pc {pc}: read of uninitialized r{reg}")
            }
            VerifyError::FramePointerWrite { pc } => {
                write!(f, "pc {pc}: write to read-only frame pointer r10")
            }
            VerifyError::NotAPointer { pc, reg } => {
                write!(f, "pc {pc}: memory access via non-pointer r{reg}")
            }
            VerifyError::OutOfBounds { pc, off, size } => {
                write!(
                    f,
                    "pc {pc}: access of {size} bytes at offset {off} out of bounds"
                )
            }
            VerifyError::UninitStack { pc, off } => {
                write!(f, "pc {pc}: read of uninitialized stack at offset {off}")
            }
            VerifyError::Unaligned { pc, off } => {
                write!(f, "pc {pc}: unaligned access at offset {off}")
            }
            VerifyError::BadCtxAccess { pc, off } => {
                write!(
                    f,
                    "pc {pc}: context access at offset {off} matches no field"
                )
            }
            VerifyError::ReadOnlyCtxField { pc, field } => {
                write!(f, "pc {pc}: write to read-only context field `{field}`")
            }
            VerifyError::BadPointerArithmetic { pc } => {
                write!(f, "pc {pc}: unbounded pointer arithmetic")
            }
            VerifyError::DivByZero { pc } => write!(f, "pc {pc}: division by constant zero"),
            VerifyError::UnknownHelper { pc, helper } => {
                write!(f, "pc {pc}: unknown helper {helper}")
            }
            VerifyError::BadHelperArg {
                pc,
                helper,
                arg,
                expected,
            } => write!(
                f,
                "pc {pc}: helper {helper} argument {arg} must be {expected}"
            ),
            VerifyError::PossiblyNullDeref { pc, reg } => {
                write!(
                    f,
                    "pc {pc}: r{reg} may be null; test it before dereferencing"
                )
            }
            VerifyError::UnknownMap { pc, map_id } => {
                write!(f, "pc {pc}: map id {map_id} not in program map table")
            }
            VerifyError::BadReturnValue { pc } => {
                write!(f, "pc {pc}: exit requires r0 to hold an initialized scalar")
            }
            VerifyError::TooComplex { states } => {
                write!(f, "program too complex: exceeded {states} verifier states")
            }
            VerifyError::HookRule { rule } => write!(f, "hook safety rule violated: {rule}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Failure of a host-side or helper map operation.
///
/// Maps are fixed-capacity slabs (see [`crate::map`]), so every failure
/// mode is a static-shape violation or capacity exhaustion — there is no
/// allocation to fail. Inside policies the interpreters flatten these to
/// the eBPF `-1` helper return; host callers (concord, `c3ctl`, tests)
/// get the typed reason.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapError {
    /// Key length differs from the map definition's `key_size`.
    KeySizeMismatch,
    /// Value length differs from the map definition's `value_size`.
    ValueSizeMismatch,
    /// Array index at or beyond `max_entries`.
    IndexOutOfRange,
    /// Hash map already holds `max_entries` live entries (or the probed
    /// shard is saturated — see the map module docs on sharding).
    Full,
    /// Delete of a key that is not present.
    NoSuchKey,
    /// Delete on an array kind (array entries always exist).
    DeleteOnArray,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MapError::KeySizeMismatch => "key size mismatch",
            MapError::ValueSizeMismatch => "value size mismatch",
            MapError::IndexOutOfRange => "index out of range",
            MapError::Full => "map full",
            MapError::NoSuchKey => "no such key",
            MapError::DeleteOnArray => "delete on array map",
        })
    }
}

impl std::error::Error for MapError {}

/// Coarse classification of a runtime fault — the taxonomy Concord's
/// containment layer keys its fault counters and breaker decisions on.
///
/// The verifier proves memory and termination safety, so for verified
/// programs only [`FaultKind::Budget`] (defense-in-depth instruction
/// budget) and injected faults are reachable; the other kinds exist for
/// out-of-contract programs and the fault-injection harness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// The per-invocation instruction budget ran out.
    Budget,
    /// The program trapped: bad pc, bad memory access, uninitialized
    /// register, or fell off the end.
    Trap,
    /// A non-map helper call failed at runtime.
    Helper,
    /// A map helper call failed (bad map ref, unknown map, bad key/value
    /// buffer).
    Map,
}

impl FaultKind {
    /// All kinds, in counter-index order (see [`FaultKind::index`]).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Budget,
        FaultKind::Trap,
        FaultKind::Helper,
        FaultKind::Map,
    ];

    /// Stable dense index for per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::Budget => 0,
            FaultKind::Trap => 1,
            FaultKind::Helper => 2,
            FaultKind::Map => 3,
        }
    }

    /// Stable name for reports and quarantine records.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Budget => "budget",
            FaultKind::Trap => "trap",
            FaultKind::Helper => "helper",
            FaultKind::Map => "map",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runtime fault from the interpreter.
///
/// A verified program never produces any of these except
/// [`RunError::BudgetExhausted`]; the interpreter checks everything anyway
/// (defense in depth), which is what the verifier soundness property tests
/// rely on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// Program counter left the program.
    PcOutOfBounds {
        /// Offending pc.
        pc: i64,
    },
    /// Read of an uninitialized register (interpreter tracks validity).
    UninitRegister {
        /// Offending pc.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// Memory access outside any live region.
    BadAccess {
        /// Offending pc.
        pc: usize,
        /// The raw pointer value.
        addr: u64,
    },
    /// Instruction budget exhausted.
    BudgetExhausted,
    /// Helper call failed (unknown helper or bad arguments at runtime).
    HelperFault {
        /// Offending pc.
        pc: usize,
        /// Helper id.
        helper: u32,
        /// Description.
        msg: &'static str,
    },
    /// `exit` never executed (program ended without it).
    NoExit,
}

impl RunError {
    /// Classifies the fault for the containment taxonomy.
    ///
    /// Map helpers occupy ids 1–3 (`map_lookup_elem`, `map_update_elem`,
    /// `map_delete_elem`); the `ldmap` unknown-map trap reports helper 0
    /// with a map message — both classify as [`FaultKind::Map`].
    pub fn fault_kind(&self) -> FaultKind {
        match self {
            RunError::BudgetExhausted => FaultKind::Budget,
            RunError::HelperFault { helper: 1..=3, .. } => FaultKind::Map,
            RunError::HelperFault { helper: 0, msg, .. } if msg.contains("map") => FaultKind::Map,
            RunError::HelperFault { .. } => FaultKind::Helper,
            RunError::PcOutOfBounds { .. }
            | RunError::UninitRegister { .. }
            | RunError::BadAccess { .. }
            | RunError::NoExit => FaultKind::Trap,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::PcOutOfBounds { pc } => write!(f, "pc {pc} out of bounds"),
            RunError::UninitRegister { pc, reg } => {
                write!(f, "pc {pc}: read of uninitialized r{reg}")
            }
            RunError::BadAccess { pc, addr } => {
                write!(f, "pc {pc}: bad memory access at {addr:#x}")
            }
            RunError::BudgetExhausted => write!(f, "instruction budget exhausted"),
            RunError::HelperFault { pc, helper, msg } => {
                write!(f, "pc {pc}: helper {helper} fault: {msg}")
            }
            RunError::NoExit => write!(f, "program ended without exit"),
        }
    }
}

impl std::error::Error for RunError {}

/// Error opening a compiled-policy wire artifact ([`crate::wire::open`]).
///
/// The variants are ordered by the check that produced them: artifact
/// integrity first (magic, version, checksum, structure), then
/// provenance (the verification-context digest), then the verifier
/// itself. An artifact that fails *any* check never becomes runnable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer does not start with the `C3PW` magic.
    BadMagic,
    /// The artifact's format version is not one this build speaks.
    UnsupportedVersion {
        /// Version found in the artifact.
        version: u16,
    },
    /// The buffer ends before the structure it declares.
    Truncated,
    /// The whole-artifact checksum does not match — the bytes were
    /// corrupted or tampered with after sealing.
    ChecksumMismatch,
    /// The verification-context digest does not match the load host's
    /// layout and rules — the artifact was sealed against a different
    /// hook context (or its payload was rewritten).
    DigestMismatch,
    /// A structural bound was violated (count, size or name field).
    Malformed(&'static str),
    /// The instruction stream does not decode.
    Decode(DecodeError),
    /// The program decoded but failed re-verification on the load host.
    Verify(VerifyError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a compiled-policy artifact (bad magic)"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported wire format version {version}")
            }
            WireError::Truncated => write!(f, "artifact truncated"),
            WireError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            WireError::DigestMismatch => {
                write!(
                    f,
                    "verification-context digest mismatch (wrong hook or tampered payload)"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            WireError::Decode(e) => write!(f, "artifact instruction stream: {e}"),
            WireError::Verify(e) => write!(f, "re-verification failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Decode(e) => Some(e),
            WireError::Verify(e) => Some(e),
            _ => None,
        }
    }
}
