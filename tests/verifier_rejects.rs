//! A corpus of hostile policies that the Concord workflow must reject —
//! each one written the way an adversarial (or merely buggy) user would,
//! in assembly, and each checked for the *right* rejection reason.

use cbpf::asm::assemble;
use cbpf::ctx::CtxLayout;
use cbpf::error::DecodeError;
use cbpf::insn::{decode, RawInsn};
use cbpf::map::{Map, MapDef, MapKind, MAX_MAP_ENTRIES};
use cbpf::store::VerifiedProgram;
use cbpf::verifier::HookRules;
use concord::{Concord, ConcordError, PolicySpec};
use locks::hooks::HookKind;

fn rejects(hook: HookKind, asm: &str) -> String {
    let c = Concord::new();
    match c.load(PolicySpec::from_asm("hostile", hook, asm)) {
        Err(ConcordError::Verify(e)) => e.to_string(),
        Err(other) => panic!("expected verifier rejection, got: {other}"),
        Ok(_) => panic!("hostile policy was accepted:\n{asm}"),
    }
}

#[test]
fn infinite_loop() {
    let msg = rejects(HookKind::CmpNode, "top:\n mov r0, 0\n ja top\n exit");
    assert!(msg.contains("backward"), "{msg}");
}

#[test]
fn self_loop() {
    let msg = rejects(HookKind::CmpNode, "mov r0, 0\nx:\n jeq r0, 0, x\n exit");
    assert!(msg.contains("backward"), "{msg}");
}

#[test]
fn stack_out_of_bounds_write() {
    let msg = rejects(
        HookKind::CmpNode,
        "mov r1, 1\n stxdw [r10-520], r1\n mov r0, 0\n exit",
    );
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn stack_uninitialized_read() {
    let msg = rejects(HookKind::CmpNode, "ldxdw r0, [r10-8]\n exit");
    assert!(msg.contains("uninitialized stack"), "{msg}");
}

#[test]
fn uninitialized_register() {
    let msg = rejects(HookKind::CmpNode, "mov r0, r6\n exit");
    assert!(msg.contains("uninitialized r6"), "{msg}");
}

#[test]
fn missing_return_value() {
    let msg = rejects(HookKind::CmpNode, "exit");
    assert!(msg.contains("r0"), "{msg}");
}

#[test]
fn ctx_out_of_bounds_read() {
    // Way past the cmp_node context.
    let msg = rejects(HookKind::CmpNode, "ldxdw r0, [r1+4096]\n exit");
    assert!(msg.contains("matches no field"), "{msg}");
}

#[test]
fn ctx_write_forbidden() {
    // Writing any context field from a decision hook is refused (all
    // fields are read-only AND the hook bans ctx writes).
    let msg = rejects(
        HookKind::CmpNode,
        "mov r2, 0\n stxdw [r1], r2\n mov r0, 0\n exit",
    );
    assert!(
        msg.contains("read-only") || msg.contains("forbids context writes"),
        "{msg}"
    );
}

#[test]
fn misaligned_ctx_read() {
    let msg = rejects(HookKind::CmpNode, "ldxw r0, [r1+2]\n exit");
    assert!(msg.contains("matches no field"), "{msg}");
}

#[test]
fn frame_pointer_clobber() {
    let msg = rejects(HookKind::CmpNode, "mov r10, 0\n mov r0, 0\n exit");
    assert!(msg.contains("frame pointer"), "{msg}");
}

#[test]
fn pointer_arithmetic_escape() {
    // Trying to fabricate a pointer from arithmetic on r10.
    let msg = rejects(
        HookKind::CmpNode,
        "mov r1, r10\n mul r1, 8\n mov r0, 0\n exit",
    );
    assert!(msg.contains("pointer"), "{msg}");
}

#[test]
fn variable_offset_stack_access() {
    let msg = rejects(
        HookKind::CmpNode,
        "call cpu_id\n mov r1, r10\n add r1, r0\n mov r2, 0\n stxdw [r1-8], r2\n mov r0, 0\n exit",
    );
    assert!(msg.contains("pointer"), "{msg}");
}

#[test]
fn division_by_constant_zero() {
    let msg = rejects(HookKind::CmpNode, "mov r0, 7\n div r0, 0\n exit");
    assert!(msg.contains("zero"), "{msg}");
}

#[test]
fn unknown_helper() {
    let msg = rejects(HookKind::CmpNode, "call 777\n exit");
    assert!(msg.contains("unknown helper"), "{msg}");
}

#[test]
fn trace_in_decision_hook() {
    let msg = rejects(
        HookKind::CmpNode,
        "stb [r10-1], 65\n mov r1, r10\n add r1, -1\n mov r2, 1\n call trace_printk\n exit",
    );
    assert!(msg.contains("helper not allowed"), "{msg}");
}

#[test]
fn trace_emit_zero_length_rejected() {
    // An empty emit is meaningless; the verifier refuses it statically.
    let msg = rejects(
        HookKind::CmpNode,
        "stb [r10-1], 65\n mov r1, r10\n add r1, -1\n mov r2, 0\n call trace_emit\n mov r0, 0\n exit",
    );
    assert!(msg.contains("trace_emit payload length"), "{msg}");
}

#[test]
fn trace_emit_oversized_payload_rejected() {
    // 17 bytes: one past the trace record's inline payload capacity.
    let msg = rejects(
        HookKind::CmpNode,
        "stb [r10-1], 65\n mov r1, r10\n add r1, -1\n mov r2, 17\n call trace_emit\n mov r0, 0\n exit",
    );
    assert!(msg.contains("trace_emit payload length"), "{msg}");
}

#[test]
fn trace_emit_at_capacity_accepted_in_decision_hook() {
    // Unlike trace_printk (rejected above), trace_emit is decision-hook
    // safe: bounded payload, fixed weight, lock-free ring. A full
    // 16-byte payload is the accept boundary.
    let c = Concord::new();
    let asm = "mov r3, 0\n stxdw [r10-8], r3\n stxdw [r10-16], r3\n \
               mov r1, r10\n add r1, -16\n mov r2, 16\n call trace_emit\n mov r0, 0\n exit";
    assert!(
        c.load(PolicySpec::from_asm("emit16", HookKind::CmpNode, asm))
            .is_ok(),
        "16-byte trace_emit must verify in a decision hook"
    );
}

#[test]
fn oversized_decision_policy() {
    // 200 no-ops blow the 128-instruction budget for decision hooks.
    let mut asm = String::new();
    for _ in 0..200 {
        asm.push_str("mov r0, 0\n");
    }
    asm.push_str("exit");
    let msg = rejects(HookKind::CmpNode, &asm);
    assert!(msg.contains("instruction limit"), "{msg}");
    // The same program is fine as a profiling hook (512 budget).
    let c = Concord::new();
    assert!(c
        .load(PolicySpec::from_asm("big", HookKind::LockAcquired, &asm))
        .is_ok());
}

#[test]
fn clobbered_register_after_helper() {
    let msg = rejects(
        HookKind::CmpNode,
        "mov r3, 5\n call cpu_id\n mov r0, r3\n exit",
    );
    assert!(msg.contains("uninitialized r3"), "{msg}");
}

#[test]
fn fall_off_end() {
    let msg = rejects(HookKind::CmpNode, "mov r0, 0");
    assert!(msg.contains("fall off"), "{msg}");
}

// ---------------------------------------------------------------------------
// The ISA is closed. Execution forms are internal representations only —
// the prepared slots, and the compiled tier's steps, one of which runs a
// `map_lookup` together with the branch after it — and must be
// unreachable from every external input channel: the assembler, the
// binary decoder, and the map/program constructors.
// ---------------------------------------------------------------------------

#[test]
fn fused_mnemonics_do_not_assemble() {
    // No assembly spelling names a fused or no-op form (these are the
    // mnemonics such forms would take); a user cannot hand the loader code
    // the verifier has no rule for.
    for asm in [
        "nop\n exit",
        "alu2 r0, r1\n exit",
        "load2 r0, [r10-8], r1, [r10-16]\n exit",
        "call_map_lookup_br r1, ok\nok:\n exit",
        "map_lookup_br r1, 0\n exit",
    ] {
        let err = assemble(asm).expect_err(asm).to_string();
        assert!(err.contains("unknown mnemonic"), "{asm}: {err}");
    }
}

#[test]
fn raw_bytecode_cannot_name_fused_opcodes() {
    // `decode` returns the public `Insn` enum, which has no internal
    // variants — so internal forms are unrepresentable by construction.
    // Sweep the whole opcode byte space to pin down that everything
    // outside the public ISA is rejected, not silently mapped.
    let mut accepted = 0u32;
    for op in 0..=u8::MAX {
        let raw = [RawInsn {
            op,
            ..Default::default()
        }];
        if decode(&raw).is_ok() {
            accepted += 1;
        }
    }
    assert!(
        accepted < 128,
        "opcode space unexpectedly permissive: {accepted}/256 bytes decode"
    );
    // Class 0x06 is unassigned in this ISA and 0xff's ALU sub-op does
    // not exist; both must fail loudly.
    for hostile in [0x06u8, 0xfe, 0xff] {
        let raw = [RawInsn {
            op: hostile,
            ..Default::default()
        }];
        assert!(
            matches!(decode(&raw), Err(DecodeError::BadOpcode { pc: 0, op }) if op == hostile),
            "opcode {hostile:#04x} must be rejected"
        );
    }
}

#[test]
#[should_panic(expected = "over the 65536 cap")]
fn oversized_map_capacity_is_unconstructible() {
    // Slab sizing happens once, at construction; capacities beyond the
    // cap are refused outright rather than clamped.
    let _ = Map::new(MapDef {
        name: "huge".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: MAX_MAP_ENTRIES + 1,
    });
}

#[test]
fn tampered_programs_cannot_reach_the_fast_path() {
    // `VerifiedProgram` is the only currency the object store and hook
    // tables accept, its fields are private, and its sole constructor
    // runs the verifier before lowering — so a program that fails
    // verification can never be prepared through the public API, and a
    // prepared form can never be swapped in after the fact.
    let hostile = assemble("ldxdw r0, [r10-8]\n exit").unwrap();
    assert!(
        VerifiedProgram::new(hostile, &CtxLayout::empty(), &HookRules::permissive()).is_err(),
        "unverifiable program must not yield a VerifiedProgram"
    );
}

#[test]
fn dead_branch_does_not_hide_errors() {
    // The bad access sits on a branch that IS reachable (cpu_id unknown).
    let msg = rejects(
        HookKind::CmpNode,
        "call cpu_id\n jeq r0, 0, ok\n ldxdw r0, [r10-16]\nok:\n mov r0, 0\n exit",
    );
    assert!(msg.contains("uninitialized stack"), "{msg}");
}

// ---------------------------------------------------------------------------
// Compiled-policy wire artifacts (`cbpf::wire`). The artifact is
// evidence, not authority: every mutation of the bytes must fail loudly
// (checksum), every context drift must fail loudly (digest), and even a
// byte-perfect forgery must still pass the verifier on the load host
// before anything runnable comes back.
// ---------------------------------------------------------------------------

mod wire_support {
    /// Independent reimplementation of the wire digest from its spec
    /// (dual-basis FNV-1a, second stream rotates each byte by 17, length
    /// folded at the end) so these tests can forge checksums and prove
    /// each rejection is its own check — not just a ride on the
    /// checksum. Drifting from `cbpf::wire` breaks the forgery tests,
    /// which is exactly the point: the encoding is a stable contract.
    pub fn digest(bytes: &[u8]) -> [u8; 16] {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut a = 0xcbf2_9ce4_8422_2325u64;
        let mut b = 0x6c62_272e_07bb_0142u64;
        let step = |x: &mut u64, y: &mut u64, byte: u8| {
            *x = (*x ^ u64::from(byte)).wrapping_mul(PRIME);
            *y = (*y ^ u64::from(byte).rotate_left(17)).wrapping_mul(PRIME);
        };
        for &byte in bytes {
            step(&mut a, &mut b, byte);
        }
        for byte in (bytes.len() as u64).to_le_bytes() {
            step(&mut a, &mut b, byte);
        }
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        out
    }

    /// Re-seals a mutated artifact body with a freshly forged checksum,
    /// so the mutation reaches the check it targets.
    pub fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 16;
        let sum = digest(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum);
        bytes
    }
}

fn sealed_policy() -> (Vec<u8>, CtxLayout, HookRules) {
    let layout = CtxLayout::empty();
    let rules = HookRules::permissive();
    let counters = std::sync::Arc::new(Map::new(MapDef {
        name: "counters".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 8,
    }));
    let prog = cbpf::asm::assemble_named(
        "bump",
        "ldmap r1, counters\n stw [r10-4], 1\n mov r2, r10\n add r2, -4\n \
         call map_lookup_elem\n jeq r0, 0, miss\n ldxdw r1, [r0]\n add r1, 1\n \
         stxdw [r0], r1\n mov r0, 1\n exit\nmiss:\n mov r0, 0\n exit",
        &[counters],
    )
    .unwrap();
    let verified = VerifiedProgram::new(prog, &layout, &rules).unwrap();
    (verified.seal(), layout, rules)
}

#[test]
fn wire_roundtrip_is_stable() {
    let (bytes, layout, rules) = sealed_policy();
    let reopened = cbpf::wire::open(&bytes, &layout, &rules).expect("valid artifact must open");
    assert_eq!(reopened.program().name(), "bump");
    assert_eq!(reopened.program().maps().len(), 1);
    assert_eq!(reopened.program().maps()[0].def().name, "counters");
    // Re-sealing the opened program reproduces the artifact bit-for-bit:
    // the encoding is canonical, so digests are stable across hops.
    assert_eq!(reopened.seal(), bytes, "re-seal must be byte-identical");
}

#[test]
fn wire_truncation_rejected_at_every_length() {
    let (bytes, layout, rules) = sealed_policy();
    for len in 0..bytes.len() {
        assert!(
            cbpf::wire::open(&bytes[..len], &layout, &rules).is_err(),
            "prefix of {len}/{} bytes must not open",
            bytes.len()
        );
    }
}

#[test]
fn wire_tamper_rejected_at_every_byte() {
    let (bytes, layout, rules) = sealed_policy();
    for i in 0..bytes.len() {
        let mut t = bytes.clone();
        t[i] ^= 0x40;
        assert!(
            cbpf::wire::open(&t, &layout, &rules).is_err(),
            "byte {i} flipped must not open"
        );
    }
}

#[test]
fn wire_version_mismatch_is_its_own_rejection() {
    let (bytes, layout, rules) = sealed_policy();
    let mut t = bytes.clone();
    t[4..6].copy_from_slice(&9u16.to_le_bytes());
    // With a forged checksum the version check itself must fire.
    let t = wire_support::reseal(t);
    assert!(
        matches!(
            cbpf::wire::open(&t, &layout, &rules),
            Err(cbpf::WireError::UnsupportedVersion { version: 9 })
        ),
        "future version must be rejected as unsupported"
    );
}

#[test]
fn wire_digest_binds_the_verification_context() {
    let (bytes, _, rules) = sealed_policy();
    // Same bytes, different load-host layout: the artifact was not
    // verified against this context, so it must not open — before the
    // verifier even runs.
    let other_layout = CtxLayout::builder()
        .field("waiters", 8, cbpf::FieldAccess::ReadOnly)
        .build();
    assert!(
        matches!(
            cbpf::wire::open(&bytes, &other_layout, &rules),
            Err(cbpf::WireError::DigestMismatch)
        ),
        "layout drift must be a digest mismatch"
    );
    // Different rules, same effect.
    let strict = HookRules {
        allowed_helpers: Some(vec![]),
        ..HookRules::permissive()
    };
    assert!(
        matches!(
            cbpf::wire::open(&bytes, &CtxLayout::empty(), &strict),
            Err(cbpf::WireError::DigestMismatch)
        ),
        "rules drift must be a digest mismatch"
    );
}

#[test]
fn wire_forgery_still_faces_the_verifier() {
    // A byte-perfect artifact (magic, version, digest and checksum all
    // correct for the load context) whose program is hostile: the open
    // path must still run the verifier and reject it. This is the
    // "never runnable without re-verification evidence" guarantee — a
    // compromised compile host cannot smuggle an unverifiable program
    // past a healthy load host.
    let hostile = assemble("ldxdw r0, [r10-8]\n exit").unwrap();
    let raw = cbpf::insn::encode(hostile.insns());
    let mut body = Vec::new();
    body.extend_from_slice(b"C3PW");
    body.extend_from_slice(&1u16.to_le_bytes()); // version
    body.extend_from_slice(&0u16.to_le_bytes()); // flags
    body.extend_from_slice(&(b"forged".len() as u16).to_le_bytes());
    body.extend_from_slice(b"forged");
    body.extend_from_slice(&0u16.to_le_bytes()); // no maps
    body.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    let mut insn_bytes = Vec::new();
    for r in &raw {
        insn_bytes.push(r.op);
        insn_bytes.push(r.dst);
        insn_bytes.push(r.src);
        insn_bytes.extend_from_slice(&r.off.to_le_bytes());
        insn_bytes.extend_from_slice(&r.imm.to_le_bytes());
    }
    body.extend_from_slice(&insn_bytes);
    // Verification digest for (empty layout, permissive rules, no
    // maps, these insns), per the spec'd encoding.
    let mut ctx = Vec::new();
    ctx.extend_from_slice(b"layout:");
    ctx.extend_from_slice(b"rules:");
    ctx.push(0); // max_insns: none
    ctx.push(0); // allowed_helpers: none
    ctx.push(1); // allow_ctx_writes
    ctx.extend_from_slice(b"maps:");
    ctx.extend_from_slice(b"insns:");
    ctx.extend_from_slice(&insn_bytes);
    body.extend_from_slice(&wire_support::digest(&ctx));
    let sum = wire_support::digest(&body);
    let mut artifact = body;
    artifact.extend_from_slice(&sum);

    match cbpf::wire::open(&artifact, &CtxLayout::empty(), &HookRules::permissive()) {
        Err(cbpf::WireError::Verify(_)) => {}
        other => panic!("forged hostile artifact must die in the verifier, got {other:?}"),
    }
}
