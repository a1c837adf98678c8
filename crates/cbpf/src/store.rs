//! In-memory object store — the analog of the BPF filesystem.
//!
//! Step 5 of the Concord workflow (Fig. 1) stores the compiled, verified
//! policy "in the file system" so it can be attached later and survive the
//! attaching process. This store pins verified programs and maps under
//! hierarchical paths (`"locks/mmap_sem/cmp_node"`).
//!
//! Only verified programs can be pinned: [`ObjectStore::pin_program`] takes
//! a [`VerifiedProgram`] token, which is only produced by
//! [`VerifiedProgram::new`] running the verifier.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ctx::CtxLayout;
use crate::error::VerifyError;
use crate::map::Map;
use crate::prepare::PreparedProgram;
use crate::program::Program;
use crate::verifier::{verify_with_rules, HookRules};

/// A program that has passed verification against a specific layout and
/// hook rules; the only currency [`ObjectStore`] accepts.
///
/// Verification also lowers the program to its [`PreparedProgram`] fast
/// execution form once, so every attach site shares the pre-decoded code.
#[derive(Clone)]
pub struct VerifiedProgram {
    prog: Arc<Program>,
    layout: CtxLayout,
    rules: HookRules,
    prepared: Arc<PreparedProgram>,
}

impl VerifiedProgram {
    /// Verifies `prog` and wraps it on success.
    ///
    /// # Errors
    ///
    /// Propagates the verifier's rejection.
    pub fn new(prog: Program, layout: &CtxLayout, rules: &HookRules) -> Result<Self, VerifyError> {
        verify_with_rules(&prog, layout, rules)?;
        let prepared = prog.prepare(layout);
        Ok(VerifiedProgram {
            prog: Arc::new(prog),
            layout: layout.clone(),
            rules: rules.clone(),
            prepared: Arc::new(prepared),
        })
    }

    /// The same verified code over fresh, empty instances of its maps:
    /// what one more attach site gets when map state must not be shared
    /// with the sites that already run `self`.
    ///
    /// The verifier is not run again. Its verdict is a function of the
    /// instructions, the maps' [`MapDef`](crate::map::MapDef)s, the
    /// layout and the rules — it never looks at a map's contents — and
    /// all four are copied unchanged; only the lowering, which captures
    /// the map instances, is redone. A program without maps has no state
    /// to keep apart, so it comes back shared, lowering and all.
    pub fn with_fresh_maps(&self) -> VerifiedProgram {
        if self.prog.maps().is_empty() {
            return self.clone();
        }
        let maps = self
            .prog
            .maps()
            .iter()
            .map(|m| Arc::new(Map::new(m.def().clone())))
            .collect();
        let prog = Program::new(self.prog.name(), self.prog.insns().to_vec(), maps);
        let prepared = prog.prepare(&self.layout);
        VerifiedProgram {
            prog: Arc::new(prog),
            layout: self.layout.clone(),
            rules: self.rules.clone(),
            prepared: Arc::new(prepared),
        }
    }

    /// The hook rules the program was verified under.
    pub fn rules(&self) -> &HookRules {
        &self.rules
    }

    /// Serializes this verified policy into a [`crate::wire`] artifact,
    /// sealed against exactly the layout and rules it verified under.
    pub fn seal(&self) -> Vec<u8> {
        crate::wire::seal(self, &self.rules)
    }

    /// The verified program.
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// The layout the program was verified against.
    pub fn layout(&self) -> &CtxLayout {
        &self.layout
    }

    /// The pre-decoded execution form; the path hook tables should run.
    pub fn prepared(&self) -> &Arc<PreparedProgram> {
        &self.prepared
    }
}

impl std::fmt::Debug for VerifiedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedProgram")
            .field("name", &self.prog.name())
            .finish()
    }
}

/// Pinned-object namespace for verified programs and maps.
#[derive(Default)]
pub struct ObjectStore {
    programs: RwLock<BTreeMap<String, VerifiedProgram>>,
    maps: RwLock<BTreeMap<String, Arc<Map>>>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Pins a verified program at `path`, replacing any previous object.
    pub fn pin_program(&self, path: &str, prog: VerifiedProgram) {
        self.programs.write().insert(path.to_string(), prog);
    }

    /// Fetches a pinned program.
    pub fn get_program(&self, path: &str) -> Option<VerifiedProgram> {
        self.programs.read().get(path).cloned()
    }

    /// Removes a pinned program; returns it if present.
    #[cfg(test)]
    pub fn unlink_program(&self, path: &str) -> Option<VerifiedProgram> {
        self.programs.write().remove(path)
    }

    /// Pins a map at `path`.
    pub fn pin_map(&self, path: &str, map: Arc<Map>) {
        self.maps.write().insert(path.to_string(), map);
    }

    /// Fetches a pinned map.
    #[cfg(test)]
    pub fn get_map(&self, path: &str) -> Option<Arc<Map>> {
        self.maps.read().get(path).cloned()
    }

    /// Removes a pinned map; returns it if present.
    #[cfg(test)]
    pub fn unlink_map(&self, path: &str) -> Option<Arc<Map>> {
        self.maps.write().remove(path)
    }

    /// Program paths under `prefix`, sorted.
    pub fn list_programs(&self, prefix: &str) -> Vec<String> {
        self.programs
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Map paths under `prefix`, sorted.
    pub fn list_maps(&self, prefix: &str) -> Vec<String> {
        self.maps
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Reg;
    use crate::map::{MapDef, MapKind};
    use crate::program::ProgramBuilder;

    fn verified() -> VerifiedProgram {
        let mut b = ProgramBuilder::new("p");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        VerifiedProgram::new(
            b.build().unwrap(),
            &CtxLayout::empty(),
            &HookRules::permissive(),
        )
        .unwrap()
    }

    #[test]
    fn only_verified_programs_can_exist() {
        let bad = Program::new("bad", vec![], vec![]);
        assert!(matches!(
            VerifiedProgram::new(bad, &CtxLayout::empty(), &HookRules::permissive()),
            Err(VerifyError::BadProgramSize { .. })
        ));
    }

    #[test]
    fn fresh_maps_keep_the_defs_and_share_no_instance() {
        let def = MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        };
        let mut b = ProgramBuilder::new("p");
        let mid = b.register_map(Arc::new(Map::new(def.clone())));
        b.ldmap(Reg::R1, mid);
        b.mov_imm(Reg::R0, 0);
        b.exit();
        let first = VerifiedProgram::new(
            b.build().unwrap(),
            &CtxLayout::empty(),
            &HookRules::permissive(),
        )
        .unwrap();
        first.program().maps()[0]
            .update(&0u32.to_le_bytes(), &7u64.to_le_bytes(), 0)
            .unwrap();

        let second = first.with_fresh_maps();
        assert_eq!(second.program().insns(), first.program().insns());
        assert_eq!(second.program().name(), "p");
        let (old, new) = (&first.program().maps()[0], &second.program().maps()[0]);
        assert!(!Arc::ptr_eq(old, new));
        assert_eq!(new.def(), &def);
        let value = |m: &Map| m.lookup_copy(&0u32.to_le_bytes(), 0);
        assert_eq!(value(old), Some(7u64.to_le_bytes().to_vec()));
        assert_eq!(value(new), Some(0u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn a_program_without_maps_stays_shared() {
        let first = verified();
        let second = first.with_fresh_maps();
        assert!(Arc::ptr_eq(first.program(), second.program()));
        assert!(Arc::ptr_eq(first.prepared(), second.prepared()));
    }

    #[test]
    fn pin_get_unlink_program() {
        let store = ObjectStore::new();
        store.pin_program("locks/mmap_sem/cmp_node", verified());
        assert!(store.get_program("locks/mmap_sem/cmp_node").is_some());
        assert!(store.get_program("locks/other").is_none());
        assert!(store.unlink_program("locks/mmap_sem/cmp_node").is_some());
        assert!(store.get_program("locks/mmap_sem/cmp_node").is_none());
        assert!(store.unlink_program("locks/mmap_sem/cmp_node").is_none());
    }

    #[test]
    fn list_by_prefix_sorted() {
        let store = ObjectStore::new();
        store.pin_program("locks/b", verified());
        store.pin_program("locks/a", verified());
        store.pin_program("profile/x", verified());
        assert_eq!(store.list_programs("locks/"), vec!["locks/a", "locks/b"]);
        assert_eq!(
            store.list_programs(""),
            vec!["locks/a", "locks/b", "profile/x"]
        );
    }

    #[test]
    fn maps_pin_roundtrip() {
        let store = ObjectStore::new();
        let m = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        }));
        store.pin_map("maps/m", Arc::clone(&m));
        let got = store.get_map("maps/m").unwrap();
        assert_eq!(got.def().name, "m");
        assert_eq!(store.list_maps("maps/"), vec!["maps/m"]);
        assert!(store.unlink_map("maps/m").is_some());
        assert!(store.get_map("maps/m").is_none());
    }

    #[test]
    fn pin_replaces_previous() {
        let store = ObjectStore::new();
        store.pin_program("x", verified());
        let mut b = ProgramBuilder::new("second");
        b.mov_imm(Reg::R0, 1);
        b.exit();
        let v2 = VerifiedProgram::new(
            b.build().unwrap(),
            &CtxLayout::empty(),
            &HookRules::permissive(),
        )
        .unwrap();
        store.pin_program("x", v2);
        assert_eq!(store.get_program("x").unwrap().program().name(), "second");
    }
}
