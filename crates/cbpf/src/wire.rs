//! The compiled-policy wire format: a versioned, checksummed byte
//! encoding of a verified policy, for shipping between the compile host
//! and the load host (the `c3ctl policy compile` / `policy load` pair).
//!
//! # Trust model
//!
//! The artifact is **evidence, not authority**. [`seal`] records the
//! program alongside a digest of the exact verification context it
//! passed (context-layout ABI, hook rules, map definitions, instruction
//! stream); [`open`] recomputes that digest against the *load host's*
//! layout and rules, rejects on any mismatch — and then re-runs the
//! verifier anyway via [`VerifiedProgram::new`]. A wire artifact can
//! therefore never make an unverified program runnable: tampering is
//! caught by the whole-artifact checksum, a stale or cross-hook artifact
//! by the verification digest, and a hostile-but-consistent artifact by
//! re-verification. What the format buys is *provenance* (fail loudly on
//! mismatch instead of verifying something other than what was
//! compiled) and a stable on-disk/on-wire encoding.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! magic      4  b"C3PW"
//! version    u16  (currently 1)
//! flags      u16  (reserved, must be zero)
//! name       u16 length + bytes (UTF-8)
//! maps       u16 count, then per map:
//!              kind u8, key_size u32, value_size u32,
//!              max_entries u32, name (u16 length + bytes)
//! insns      u32 raw-slot count, then 9 bytes per slot:
//!              op u8, dst u8, src u8, off i16, imm i32
//! digest     16  verification-context digest (see [`verify_digest`])
//! checksum   16  whole-artifact digest of every byte above
//! ```
//!
//! Map *definitions* travel; map *contents* do not — a loaded policy
//! starts with fresh, empty (or zero-initialized, for array kinds) maps,
//! exactly like a freshly built program.

use std::sync::Arc;

use crate::ctx::{CtxLayout, FieldAccess};
use crate::error::WireError;
use crate::insn::{self, RawInsn};
use crate::map::{Map, MapDef, MapKind, MAX_MAP_ENTRIES};
use crate::program::Program;
use crate::store::VerifiedProgram;
use crate::verifier::HookRules;

/// Artifact magic: "C3PW" (Concord policy wire).
pub const MAGIC: [u8; 4] = *b"C3PW";
/// Current format version. Bumped on any layout change; [`open`]
/// rejects versions it does not speak.
pub const VERSION: u16 = 1;

/// Caps decoding work on hostile input; far above any real policy
/// (the verifier's own limits are much tighter).
const MAX_WIRE_INSNS: u32 = 1 << 20;
const MAX_WIRE_MAPS: u16 = 1 << 10;
const MAX_WIRE_NAME: u16 = 1 << 10;
/// Map-shape caps: [`open`] materializes maps before verification, so a
/// hostile artifact must not be able to demand an absurd allocation (or
/// trip [`Map::new`]'s own panics) just by writing large sizes.
const MAX_WIRE_KEY_SIZE: usize = 512;
const MAX_WIRE_VALUE_SIZE: usize = 4096;

// --- digest -----------------------------------------------------------

/// 128-bit digest as two independent 64-bit FNV-1a streams over the same
/// bytes (different offset bases, second stream also folds the length),
/// so a collision must defeat both simultaneously. Not cryptographic —
/// the trust model above never depends on that — but plenty to make
/// accidental corruption and casual tampering fail loudly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digest128 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_B: u64 = 0x6c62_272e_07bb_0142;

struct DigestState {
    a: u64,
    b: u64,
    len: u64,
}

impl DigestState {
    fn new() -> Self {
        DigestState {
            a: FNV_BASIS_A,
            b: FNV_BASIS_B,
            len: 0,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte).rotate_left(17)).wrapping_mul(FNV_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    fn finish(mut self) -> Digest128 {
        let len = self.len;
        self.update(&len.to_le_bytes());
        Digest128 {
            a: self.a,
            b: self.b,
        }
    }
}

fn digest_bytes(bytes: &[u8]) -> Digest128 {
    let mut st = DigestState::new();
    st.update(bytes);
    st.finish()
}

impl Digest128 {
    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..].copy_from_slice(&self.b.to_le_bytes());
        out
    }
}

/// Digest of the verification context plus program identity: layout ABI,
/// hook rules, map definitions and the raw instruction stream. Computed
/// at seal time from what actually verified; recomputed at open time
/// from the load host's layout and rules. Any drift — different field
/// offsets, looser rules, edited instructions — changes the digest.
fn verify_digest(
    layout: &CtxLayout,
    rules: &HookRules,
    maps: &[MapDef],
    raw: &[RawInsn],
) -> Digest128 {
    let mut st = DigestState::new();
    st.update(b"layout:");
    for f in layout.fields() {
        st.update(f.name.as_bytes());
        st.update(&[0]);
        st.update(&(f.offset as u64).to_le_bytes());
        st.update(&(f.size as u64).to_le_bytes());
        st.update(&[match f.access {
            FieldAccess::ReadOnly => 0,
            FieldAccess::ReadWrite => 1,
        }]);
    }
    st.update(b"rules:");
    match rules.max_insns {
        None => st.update(&[0]),
        Some(n) => {
            st.update(&[1]);
            st.update(&(n as u64).to_le_bytes());
        }
    }
    match &rules.allowed_helpers {
        None => st.update(&[0]),
        Some(ids) => {
            st.update(&[1]);
            st.update(&(ids.len() as u64).to_le_bytes());
            for id in ids {
                st.update(&(*id as u32).to_le_bytes());
            }
        }
    }
    st.update(&[u8::from(rules.allow_ctx_writes)]);
    st.update(b"maps:");
    for def in maps {
        push_mapdef_digest(&mut st, def);
    }
    st.update(b"insns:");
    for r in raw {
        st.update(&raw_to_bytes(*r));
    }
    st.finish()
}

fn push_mapdef_digest(st: &mut DigestState, def: &MapDef) {
    st.update(&[map_kind_code(def.kind)]);
    st.update(&(def.key_size as u64).to_le_bytes());
    st.update(&(def.value_size as u64).to_le_bytes());
    st.update(&(def.max_entries as u64).to_le_bytes());
    st.update(def.name.as_bytes());
    st.update(&[0]);
}

// --- primitive writers/readers ----------------------------------------

fn map_kind_code(kind: MapKind) -> u8 {
    match kind {
        MapKind::Array => 0,
        MapKind::Hash => 1,
        MapKind::PerCpuArray => 2,
    }
}

fn map_kind_from(code: u8) -> Option<MapKind> {
    match code {
        0 => Some(MapKind::Array),
        1 => Some(MapKind::Hash),
        2 => Some(MapKind::PerCpuArray),
        _ => None,
    }
}

fn raw_to_bytes(r: RawInsn) -> [u8; 9] {
    let off = r.off.to_le_bytes();
    let imm = r.imm.to_le_bytes();
    [
        r.op, r.dst, r.src, off[0], off[1], imm[0], imm[1], imm[2], imm[3],
    ]
}

fn raw_from_bytes(b: &[u8]) -> RawInsn {
    RawInsn {
        op: b[0],
        dst: b[1],
        src: b[2],
        off: i16::from_le_bytes([b[3], b[4]]),
        imm: i32::from_le_bytes([b[5], b[6], b[7], b[8]]),
    }
}

/// Bounded sequential reader over the artifact body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn name(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u16()?;
        if len > MAX_WIRE_NAME {
            return Err(WireError::Malformed(what));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed(what))
    }
}

fn push_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= MAX_WIRE_NAME as usize);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

// --- seal / open -------------------------------------------------------

/// Serializes a verified policy into a wire artifact, binding it to the
/// verification context (`rules` must be the rules it verified under —
/// [`VerifiedProgram::seal`] guarantees that pairing).
pub fn seal(prog: &VerifiedProgram, rules: &HookRules) -> Vec<u8> {
    let p = prog.program();
    let raw = insn::encode(p.insns());
    let defs: Vec<MapDef> = p.maps().iter().map(|m| m.def().clone()).collect();

    let mut out = Vec::with_capacity(64 + raw.len() * 9);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    push_name(&mut out, p.name());
    out.extend_from_slice(&(defs.len() as u16).to_le_bytes());
    for def in &defs {
        out.push(map_kind_code(def.kind));
        out.extend_from_slice(&(def.key_size as u32).to_le_bytes());
        out.extend_from_slice(&(def.value_size as u32).to_le_bytes());
        out.extend_from_slice(&(def.max_entries as u32).to_le_bytes());
        push_name(&mut out, &def.name);
    }
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    for r in &raw {
        out.extend_from_slice(&raw_to_bytes(*r));
    }
    out.extend_from_slice(&verify_digest(prog.layout(), rules, &defs, &raw).to_bytes());
    let sum = digest_bytes(&out);
    out.extend_from_slice(&sum.to_bytes());
    out
}

/// Deserializes a wire artifact and **re-verifies** it against the load
/// host's `layout` and `rules`. Order of checks: checksum (tamper),
/// magic/version (format), structure (truncation/bounds), verification
/// digest (provenance), then the verifier itself. Only a program that
/// passes all five comes back as a [`VerifiedProgram`].
///
/// # Errors
///
/// Any [`WireError`]; see the variant docs for which check failed.
pub fn open(
    bytes: &[u8],
    layout: &CtxLayout,
    rules: &HookRules,
) -> Result<VerifiedProgram, WireError> {
    // Magic first (is this even our format?), then checksum over the
    // rest, so a wrong-file error reads as BadMagic rather than a
    // checksum complaint.
    if bytes.len() < MAGIC.len() {
        return Err(WireError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 2 + 2 + 16 + 16 {
        return Err(WireError::Truncated);
    }
    let (body, sum) = bytes.split_at(bytes.len() - 16);
    if digest_bytes(body).to_bytes() != sum {
        return Err(WireError::ChecksumMismatch);
    }

    let mut r = Reader {
        buf: body,
        pos: MAGIC.len(),
    };
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    let flags = r.u16()?;
    if flags != 0 {
        return Err(WireError::Malformed("reserved flags set"));
    }
    let name = r.name("program name")?;

    let map_count = r.u16()?;
    if map_count > MAX_WIRE_MAPS {
        return Err(WireError::Malformed("map count"));
    }
    let mut defs = Vec::with_capacity(map_count as usize);
    for _ in 0..map_count {
        let kind = map_kind_from(r.take(1)?[0]).ok_or(WireError::Malformed("unknown map kind"))?;
        let key_size = r.u32()? as usize;
        let value_size = r.u32()? as usize;
        let max_entries = r.u32()? as usize;
        if key_size == 0 || key_size > MAX_WIRE_KEY_SIZE {
            return Err(WireError::Malformed("map key_size"));
        }
        if value_size == 0 || value_size > MAX_WIRE_VALUE_SIZE {
            return Err(WireError::Malformed("map value_size"));
        }
        if max_entries == 0 || max_entries > MAX_MAP_ENTRIES {
            return Err(WireError::Malformed("map max_entries"));
        }
        if matches!(kind, MapKind::Array | MapKind::PerCpuArray) && key_size != 4 {
            return Err(WireError::Malformed("array map key_size"));
        }
        let map_name = r.name("map name")?;
        defs.push(MapDef {
            name: map_name,
            kind,
            key_size,
            value_size,
            max_entries,
        });
    }

    let insn_count = r.u32()?;
    if insn_count > MAX_WIRE_INSNS {
        return Err(WireError::Malformed("instruction count"));
    }
    let mut raw = Vec::with_capacity(insn_count as usize);
    for _ in 0..insn_count {
        raw.push(raw_from_bytes(r.take(9)?));
    }

    let stored_digest: [u8; 16] = r.take(16)?.try_into().expect("fixed-size take");
    if r.pos != body.len() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    if verify_digest(layout, rules, &defs, &raw).to_bytes() != stored_digest {
        return Err(WireError::DigestMismatch);
    }

    let insns = insn::decode(&raw).map_err(WireError::Decode)?;
    let maps: Vec<Arc<Map>> = defs.into_iter().map(|d| Arc::new(Map::new(d))).collect();
    let prog = Program::new(name, insns, maps);
    VerifiedProgram::new(prog, layout, rules).map_err(WireError::Verify)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_bytes(b"ab");
        let b = digest_bytes(b"ba");
        assert_ne!(a, b);
    }

    #[test]
    fn digest_folds_length() {
        // Same-content prefixes of different lengths must differ even
        // when the trailing bytes are zero (zero bytes still mix, but
        // the length fold catches pathological cases too).
        let a = digest_bytes(&[0u8; 4]);
        let b = digest_bytes(&[0u8; 5]);
        assert_ne!(a, b);
    }
}
