//! Programs and a label-based builder API.
//!
//! A [`Program`] bundles decoded instructions with its map table — the
//! analog of a loaded eBPF object. Policies can be produced three ways:
//! hand-written assembly ([`crate::asm`]), the [`ProgramBuilder`] (used by
//! Concord's prebuilt policy library), or raw instruction vectors in tests.

use std::sync::Arc;

use crate::error::AsmError;
use crate::helpers::HelperId;
use crate::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
use crate::map::Map;

/// A policy program plus its referenced maps.
#[derive(Clone)]
pub struct Program {
    name: String,
    insns: Vec<Insn>,
    maps: Vec<Arc<Map>>,
}

impl Program {
    /// Creates a program from parts.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>, maps: Vec<Arc<Map>>) -> Self {
        Program {
            name: name.into(),
            insns,
            maps,
        }
    }

    /// Program name (used by the object store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The map table.
    pub fn maps(&self) -> &[Arc<Map>] {
        &self.maps
    }

    /// Resolves a map id from the table.
    pub fn map(&self, id: u32) -> Option<&Arc<Map>> {
        self.maps.get(id as usize)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("insns", &self.insns.len())
            .field("maps", &self.maps.len())
            .finish()
    }
}

#[derive(Clone, Debug)]
enum PendingJump {
    None,
    Label(String),
}

/// Fluent program builder with forward-reference labels.
///
/// # Examples
///
/// ```
/// use cbpf::program::ProgramBuilder;
/// use cbpf::insn::{JmpOp, Reg};
/// use cbpf::helpers::HelperId;
///
/// // return numa_id() == 0 ? 1 : 0
/// let mut b = ProgramBuilder::new("is_node0");
/// b.call(HelperId::NumaId);
/// b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "yes");
/// b.mov_imm(Reg::R0, 0);
/// b.exit();
/// b.label("yes");
/// b.mov_imm(Reg::R0, 1);
/// b.exit();
/// let prog = b.build().unwrap();
/// assert_eq!(prog.len(), 6);
/// ```
pub struct ProgramBuilder {
    name: String,
    insns: Vec<Insn>,
    jumps: Vec<PendingJump>,
    labels: Vec<(String, usize)>,
    maps: Vec<Arc<Map>>,
}

impl ProgramBuilder {
    /// Starts a program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            insns: Vec::new(),
            jumps: Vec::new(),
            labels: Vec::new(),
            maps: Vec::new(),
        }
    }

    /// Registers a map and returns its id for [`ProgramBuilder::ldmap`].
    pub fn register_map(&mut self, map: Arc<Map>) -> u32 {
        self.maps.push(map);
        (self.maps.len() - 1) as u32
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        self.labels.push((name.into(), self.insns.len()));
        self
    }

    fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self.jumps.push(PendingJump::None);
        self
    }

    /// `dst = src` (64-bit).
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Insn::Alu {
            wide: true,
            op: AluOp::Mov,
            dst,
            src: Operand::Reg(src),
        })
    }

    /// `dst = imm` (sign-extended 32-bit immediate).
    pub fn mov_imm(&mut self, dst: Reg, imm: i32) -> &mut Self {
        self.push(Insn::Alu {
            wide: true,
            op: AluOp::Mov,
            dst,
            src: Operand::Imm(imm),
        })
    }

    /// `dst = imm` (full 64 bits).
    pub fn ld_imm64(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Insn::LdImm64 { dst, imm })
    }

    /// `dst = &maps[map_id]`.
    pub fn ldmap(&mut self, dst: Reg, map_id: u32) -> &mut Self {
        self.push(Insn::LdMapRef { dst, map_id })
    }

    /// `dst = dst op src` (64-bit).
    pub fn alu(&mut self, op: AluOp, dst: Reg, src: Reg) -> &mut Self {
        self.push(Insn::Alu {
            wide: true,
            op,
            dst,
            src: Operand::Reg(src),
        })
    }

    /// `dst = dst op imm` (64-bit).
    pub fn alu_imm(&mut self, op: AluOp, dst: Reg, imm: i32) -> &mut Self {
        self.push(Insn::Alu {
            wide: true,
            op,
            dst,
            src: Operand::Imm(imm),
        })
    }

    /// `dst = dst op imm` (32-bit, zero-extending).
    pub fn alu32_imm(&mut self, op: AluOp, dst: Reg, imm: i32) -> &mut Self {
        self.push(Insn::Alu {
            wide: false,
            op,
            dst,
            src: Operand::Imm(imm),
        })
    }

    /// `dst = *(size*)(base + off)`.
    pub fn load(&mut self, size: MemSize, dst: Reg, base: Reg, off: i16) -> &mut Self {
        self.push(Insn::Load {
            size,
            dst,
            base,
            off,
        })
    }

    /// `*(size*)(base + off) = src`.
    pub fn store(&mut self, size: MemSize, base: Reg, off: i16, src: Reg) -> &mut Self {
        self.push(Insn::Store {
            size,
            base,
            off,
            src: Operand::Reg(src),
        })
    }

    /// `*(size*)(base + off) = imm`.
    pub fn store_imm(&mut self, size: MemSize, base: Reg, off: i16, imm: i32) -> &mut Self {
        self.push(Insn::Store {
            size,
            base,
            off,
            src: Operand::Imm(imm),
        })
    }

    /// Unconditional jump to `label`.
    pub fn ja(&mut self, label: impl Into<String>) -> &mut Self {
        self.insns.push(Insn::Ja { off: 0 });
        self.jumps.push(PendingJump::Label(label.into()));
        self
    }

    /// Conditional jump (register RHS) to `label`.
    pub fn jmp(&mut self, op: JmpOp, dst: Reg, src: Reg, label: impl Into<String>) -> &mut Self {
        self.insns.push(Insn::Jmp {
            op,
            dst,
            src: Operand::Reg(src),
            off: 0,
        });
        self.jumps.push(PendingJump::Label(label.into()));
        self
    }

    /// Conditional jump (immediate RHS) to `label`.
    pub fn jmp_imm(
        &mut self,
        op: JmpOp,
        dst: Reg,
        imm: i32,
        label: impl Into<String>,
    ) -> &mut Self {
        self.insns.push(Insn::Jmp {
            op,
            dst,
            src: Operand::Imm(imm),
            off: 0,
        });
        self.jumps.push(PendingJump::Label(label.into()));
        self
    }

    /// Helper call.
    pub fn call(&mut self, helper: HelperId) -> &mut Self {
        self.push(Insn::Call {
            helper: helper as u32,
        })
    }

    /// Program exit (returns `r0`).
    pub fn exit(&mut self) -> &mut Self {
        self.push(Insn::Exit)
    }

    /// Resolves labels and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on an undefined or duplicate label, or a jump
    /// offset that does not fit in 16 bits.
    pub fn build(self) -> Result<Program, AsmError> {
        let mut insns = self.insns;
        for (name, _) in &self.labels {
            if self.labels.iter().filter(|(n, _)| n == name).count() > 1 {
                return Err(AsmError {
                    line: 0,
                    msg: format!("duplicate label `{name}`"),
                });
            }
        }
        for (pc, pending) in self.jumps.iter().enumerate() {
            if let PendingJump::Label(name) = pending {
                let target = self
                    .labels
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, pos)| *pos)
                    .ok_or_else(|| AsmError {
                        line: 0,
                        msg: format!("undefined label `{name}`"),
                    })?;
                let rel = target as i64 - pc as i64 - 1;
                let off = i16::try_from(rel).map_err(|_| AsmError {
                    line: 0,
                    msg: format!("jump to `{name}` out of i16 range"),
                })?;
                match &mut insns[pc] {
                    Insn::Ja { off: o } => *o = off,
                    Insn::Jmp { off: o, .. } => *o = off,
                    _ => unreachable!("pending jump recorded for non-jump"),
                }
            }
        }
        Ok(Program {
            name: self.name,
            insns,
            maps: self.maps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{MapDef, MapKind};

    #[test]
    fn labels_resolve_forward_and_backward_refused_later_by_verifier() {
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "end");
        b.mov_imm(Reg::R0, 1);
        b.label("end");
        b.exit();
        let p = b.build().unwrap();
        match p.insns()[1] {
            Insn::Jmp { off, .. } => assert_eq!(off, 1),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.ja("nowhere");
        b.exit();
        let err = b.build().unwrap_err();
        assert!(err.msg.contains("undefined label"));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.label("x");
        b.mov_imm(Reg::R0, 0);
        b.label("x");
        b.exit();
        let err = b.build().unwrap_err();
        assert!(err.msg.contains("duplicate label"));
    }

    #[test]
    fn maps_registered_in_order() {
        let mut b = ProgramBuilder::new("t");
        let m1 = Arc::new(Map::new(MapDef {
            name: "one".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        }));
        let m2 = Arc::new(Map::new(MapDef {
            name: "two".into(),
            kind: MapKind::Hash,
            key_size: 8,
            value_size: 8,
            max_entries: 8,
        }));
        assert_eq!(b.register_map(m1), 0);
        assert_eq!(b.register_map(m2), 1);
        b.mov_imm(Reg::R0, 0);
        b.exit();
        let p = b.build().unwrap();
        assert_eq!(p.map(0).unwrap().def().name, "one");
        assert_eq!(p.map(1).unwrap().def().name, "two");
        assert!(p.map(2).is_none());
    }

    #[test]
    fn jump_to_own_label_is_offset_minus_one() {
        // A jump targeting itself (label right before it) resolves to -1;
        // the verifier will reject it as a back edge, but the builder must
        // encode it faithfully.
        let mut b = ProgramBuilder::new("t");
        b.mov_imm(Reg::R0, 0);
        b.label("self");
        b.ja("self");
        b.exit();
        let p = b.build().unwrap();
        match p.insns()[1] {
            Insn::Ja { off } => assert_eq!(off, -1),
            ref other => panic!("unexpected {other:?}"),
        }
    }
}
