//! An eBPF-analog policy engine: ISA, assembler, verifier, interpreter,
//! maps, helpers and an object store.
//!
//! The Concord framework of *Contextual Concurrency Control* (HotOS '21)
//! lets a privileged userspace process express lock policies as eBPF
//! programs that the kernel verifies before patching them into lock slow
//! paths. This crate reproduces that machinery:
//!
//! * [`insn`] — a 64-bit register ISA closely modeled on eBPF (eleven
//!   registers, 512-byte stack, ALU32/64, sized loads/stores, conditional
//!   jumps, helper calls), with a binary encoding and round-trip decoding;
//! * [`asm`] — a textual assembler/disassembler so policies can be written
//!   the way the paper's users would write restricted C;
//! * [`verifier`] — a path-sensitive abstract interpreter enforcing the
//!   safety rules the paper leans on (§4.2): bounded programs (no back
//!   edges), typed registers, in-bounds and initialized memory access,
//!   helper signature checking, per-field context access control so a
//!   policy can never corrupt lock state it was not granted;
//! * [`interp`] — the runtime, with an instruction budget as a second
//!   guard and eBPF division semantics;
//! * [`map`] — array / hash / per-CPU-array maps shared between userspace
//!   and policies;
//! * [`helpers`] — the helper registry (`cpu_id`, `numa_id`, `ktime_ns`,
//!   map operations, `trace_printk`, …) behind the [`PolicyEnv`] trait so
//!   the same policy runs against real hardware or the `ksim` machine;
//! * [`store`] — an in-memory analog of the BPF filesystem where verified
//!   programs are pinned (Fig. 1 step 5).
//!
//! # Examples
//!
//! Assemble, verify and run a trivial policy that returns the CPU id:
//!
//! ```
//! use cbpf::asm::assemble;
//! use cbpf::ctx::CtxLayout;
//! use cbpf::helpers::FixedEnv;
//! use cbpf::interp::run_program;
//! use cbpf::verifier::verify;
//!
//! let prog = assemble(
//!     r#"
//!     call cpu_id
//!     exit
//!     "#,
//! )
//! .unwrap();
//! let layout = CtxLayout::empty();
//! verify(&prog, &layout).unwrap();
//! let env = FixedEnv::new().cpu(7);
//! let ret = run_program(&prog, &mut [], &layout, &env).unwrap();
//! assert_eq!(ret, 7);
//! ```

pub mod asm;
pub mod ctx;
pub mod dsl;
pub mod error;
pub mod fault;
pub mod helpers;
pub mod insn;
pub mod interp;
pub mod jit;
pub mod map;
pub mod prepare;
pub mod program;
pub mod store;
pub mod verifier;
pub mod wire;

pub use ctx::{CtxLayout, FieldAccess, FieldDef};
pub use dsl::compile as compile_dsl;
pub use error::MapError;
pub use error::WireError;
pub use error::{AsmError, FaultKind, RunError, VerifyError};
pub use fault::{FaultInjector, FaultPlan};
pub use helpers::{FixedEnv, HelperId, PolicyEnv};
pub use insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
pub use interp::run_program;
pub use jit::JitProgram;
pub use map::{Map, MapDef, MapKind, MAX_MAP_ENTRIES};
pub use prepare::{ExecTier, PreparedProgram};
pub use program::{Program, ProgramBuilder};
pub use store::{ObjectStore, VerifiedProgram};
pub use verifier::verify;
