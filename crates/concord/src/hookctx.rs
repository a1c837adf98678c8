//! Hook context layouts, marshalling and per-hook safety rules.
//!
//! This module is the contract between the lock side (crate `locks`'s hook
//! contexts) and the policy side (crate `cbpf`'s verifier and interpreter):
//! for each Table 1 hook it defines the byte layout a policy sees, the
//! field permissions, and the extra [`HookRules`] the verifier enforces —
//! the "more safety properties with respect to locks" of §4.2.

use std::sync::OnceLock;

use cbpf::ctx::{CtxLayout, FieldAccess};
use cbpf::helpers::HelperId;
use cbpf::verifier::HookRules;
use locks::hooks::{
    CmpNodeCtx, HookKind, LockEventCtx, NodeView, ScheduleWaiterCtx, SkipShuffleCtx,
};

/// One context field: name and width in bytes.
pub(crate) type Field = (&'static str, usize);
/// A context's fields in declaration order, as runs of fields that several
/// contexts share. All are read-only: decision hooks return decisions,
/// they never mutate lock state (§4.2).
///
/// These tables are the single source of both the [`CtxLayout`] a policy
/// is verified against and the compile-time offsets and buffer sizes the
/// marshalling below writes through, so the two cannot drift apart.
pub(crate) type Fields = &'static [&'static [Field]];

macro_rules! node_fields {
    ($prefix:literal) => {
        &[
            (concat!($prefix, "_tid"), 8),
            (concat!($prefix, "_cpu"), 4),
            (concat!($prefix, "_socket"), 4),
            (concat!($prefix, "_prio"), 8),
            (concat!($prefix, "_cs_hint"), 8),
            (concat!($prefix, "_held"), 4),
            (concat!($prefix, "_wait_ns"), 8),
        ]
    };
}

const LOCK_ID: &[Field] = &[("lock_id", 8)];
const SHUFFLER: &[Field] = node_fields!("shuffler");
const CURR: &[Field] = node_fields!("curr");

const CMP_NODE_FIELDS: Fields = &[LOCK_ID, SHUFFLER, CURR];
const SKIP_SHUFFLE_FIELDS: Fields = &[LOCK_ID, SHUFFLER];
const SCHEDULE_WAITER_FIELDS: Fields = &[LOCK_ID, CURR, &[("waited_ns", 8)]];
const EVENT_FIELDS: Fields = &[&[
    ("lock_id", 8),
    ("tid", 8),
    ("cpu", 4),
    ("socket", 4),
    ("now_ns", 8),
    // Appended after the original five fields so their offsets (and
    // every compiled policy's instruction stream) stay unchanged.
    ("owner_tid", 8),
]];

/// Size in bytes of a marshalled `cmp_node` context.
pub const CMP_NODE_CTX_BYTES: usize = packed(CMP_NODE_FIELDS, None);
/// Size in bytes of a marshalled `skip_shuffle` context.
pub const SKIP_SHUFFLE_CTX_BYTES: usize = packed(SKIP_SHUFFLE_FIELDS, None);
/// Size in bytes of a marshalled `schedule_waiter` context.
pub const SCHEDULE_WAITER_CTX_BYTES: usize = packed(SCHEDULE_WAITER_FIELDS, None);
/// Size in bytes of a marshalled event context.
pub const EVENT_CTX_BYTES: usize = packed(EVENT_FIELDS, None);

/// Packs `fields` the way [`cbpf::ctx::CtxLayoutBuilder`] does (declaration
/// order, natural alignment, total rounded up to 8) and returns the offset
/// of field `name`, or the total size for `None`. Evaluated at compile
/// time only; naming a field the table lacks fails the build.
pub(crate) const fn packed(fields: Fields, name: Option<&str>) -> usize {
    let mut at = 0;
    let mut run = 0;
    while run < fields.len() {
        let mut i = 0;
        while i < fields[run].len() {
            let (field, width) = fields[run][i];
            at = (at + width - 1) & !(width - 1);
            if let Some(name) = name {
                if str_eq(field, name) {
                    return at;
                }
            }
            at += width;
            i += 1;
        }
        run += 1;
    }
    assert!(name.is_none(), "no such context field");
    (at + 7) & !7
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

pub(crate) fn build_layout(fields: Fields) -> CtxLayout {
    let mut b = CtxLayout::builder();
    for &(name, width) in fields.iter().copied().flatten() {
        b = b.field(name, width, FieldAccess::ReadOnly);
    }
    b.build()
}

/// Layout of the `cmp_node` context: lock id + shuffler view + curr view.
pub fn cmp_node_layout() -> &'static CtxLayout {
    static L: OnceLock<CtxLayout> = OnceLock::new();
    L.get_or_init(|| build_layout(CMP_NODE_FIELDS))
}

/// Layout of the `skip_shuffle` context: lock id + shuffler view.
pub fn skip_shuffle_layout() -> &'static CtxLayout {
    static L: OnceLock<CtxLayout> = OnceLock::new();
    L.get_or_init(|| build_layout(SKIP_SHUFFLE_FIELDS))
}

/// Layout of the `schedule_waiter` context: lock id + curr view + waited_ns.
pub fn schedule_waiter_layout() -> &'static CtxLayout {
    static L: OnceLock<CtxLayout> = OnceLock::new();
    L.get_or_init(|| build_layout(SCHEDULE_WAITER_FIELDS))
}

/// Layout of the four profiling-event contexts.
pub fn event_layout() -> &'static CtxLayout {
    static L: OnceLock<CtxLayout> = OnceLock::new();
    L.get_or_init(|| build_layout(EVENT_FIELDS))
}

/// The layout for a hook.
pub fn layout_for(kind: HookKind) -> &'static CtxLayout {
    match kind {
        HookKind::CmpNode => cmp_node_layout(),
        HookKind::SkipShuffle => skip_shuffle_layout(),
        HookKind::ScheduleWaiter => schedule_waiter_layout(),
        _ => event_layout(),
    }
}

/// Lock-safety verifier rules for a hook (§4.2).
///
/// Decision hooks sit on the shuffler's path: they get a tight instruction
/// budget and may not call `trace_printk` (unbounded critical-section
/// growth belongs to the profiling hooks, where Table 1 declares that
/// hazard). `trace_emit` *is* allowed everywhere: its payload is bounded
/// at 16 bytes, its cost is a fixed instruction weight charged to the
/// budget, and it lands in a lock-free ring — safe even on the shuffler's
/// path. No hook may write its context.
pub fn rules_for(kind: HookKind) -> HookRules {
    let decision_helpers = vec![
        HelperId::MapLookup,
        HelperId::MapUpdate,
        HelperId::KtimeNs,
        HelperId::CpuId,
        HelperId::NumaId,
        HelperId::Pid,
        HelperId::Prandom,
        HelperId::TaskPriority,
        HelperId::CpuToNode,
        HelperId::CpuOnline,
        HelperId::TraceEmit,
    ];
    match kind {
        HookKind::CmpNode | HookKind::SkipShuffle | HookKind::ScheduleWaiter => HookRules {
            max_insns: Some(128),
            allowed_helpers: Some(decision_helpers),
            allow_ctx_writes: false,
        },
        _ => HookRules {
            max_insns: Some(512),
            allowed_helpers: None, // Profiling may trace and delete.
            allow_ctx_writes: false,
        },
    }
}

/// Compile-time byte offsets of one node view's fields (marshalling runs
/// on lock paths; name lookups and allocation are too slow there).
struct NodeOffsets {
    tid: usize,
    cpu: usize,
    socket: usize,
    prio: usize,
    cs_hint: usize,
    held: usize,
    wait_ns: usize,
}

macro_rules! node_offsets {
    ($fields:expr, $prefix:literal) => {
        NodeOffsets {
            tid: packed($fields, Some(concat!($prefix, "_tid"))),
            cpu: packed($fields, Some(concat!($prefix, "_cpu"))),
            socket: packed($fields, Some(concat!($prefix, "_socket"))),
            prio: packed($fields, Some(concat!($prefix, "_prio"))),
            cs_hint: packed($fields, Some(concat!($prefix, "_cs_hint"))),
            held: packed($fields, Some(concat!($prefix, "_held"))),
            wait_ns: packed($fields, Some(concat!($prefix, "_wait_ns"))),
        }
    };
}

#[inline]
pub(crate) fn put64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

// Inlined into each marshaller so the constant offsets fold into the
// stores and the bounds checks against the fixed-size buffer disappear.
#[inline(always)]
fn write_node(buf: &mut [u8], o: &NodeOffsets, v: &NodeView) {
    put64(buf, o.tid, v.tid);
    put32(buf, o.cpu, v.cpu);
    put32(buf, o.socket, v.socket);
    put64(buf, o.prio, v.prio as u64);
    put64(buf, o.cs_hint, v.cs_hint);
    put32(buf, o.held, v.held_locks);
    put64(buf, o.wait_ns, v.wait_start_ns);
}

/// Marshals a `cmp_node` context into a stack buffer.
#[inline]
pub fn cmp_node_bytes(ctx: &CmpNodeCtx) -> [u8; CMP_NODE_CTX_BYTES] {
    const F: Fields = CMP_NODE_FIELDS;
    const SHUFFLER: NodeOffsets = node_offsets!(F, "shuffler");
    const CURR: NodeOffsets = node_offsets!(F, "curr");
    let mut buf = [0u8; CMP_NODE_CTX_BYTES];
    put64(&mut buf, const { packed(F, Some("lock_id")) }, ctx.lock_id);
    write_node(&mut buf, &SHUFFLER, &ctx.shuffler);
    write_node(&mut buf, &CURR, &ctx.curr);
    buf
}

/// Marshals a `skip_shuffle` context into a stack buffer.
#[inline]
pub fn skip_shuffle_bytes(ctx: &SkipShuffleCtx) -> [u8; SKIP_SHUFFLE_CTX_BYTES] {
    const F: Fields = SKIP_SHUFFLE_FIELDS;
    const SHUFFLER: NodeOffsets = node_offsets!(F, "shuffler");
    let mut buf = [0u8; SKIP_SHUFFLE_CTX_BYTES];
    put64(&mut buf, const { packed(F, Some("lock_id")) }, ctx.lock_id);
    write_node(&mut buf, &SHUFFLER, &ctx.shuffler);
    buf
}

/// Marshals a `schedule_waiter` context into a stack buffer.
#[inline]
pub fn schedule_waiter_bytes(ctx: &ScheduleWaiterCtx) -> [u8; SCHEDULE_WAITER_CTX_BYTES] {
    const F: Fields = SCHEDULE_WAITER_FIELDS;
    const CURR: NodeOffsets = node_offsets!(F, "curr");
    let mut buf = [0u8; SCHEDULE_WAITER_CTX_BYTES];
    put64(&mut buf, const { packed(F, Some("lock_id")) }, ctx.lock_id);
    write_node(&mut buf, &CURR, &ctx.curr);
    put64(
        &mut buf,
        const { packed(F, Some("waited_ns")) },
        ctx.waited_ns,
    );
    buf
}

/// Marshals an event context into a stack buffer.
#[inline]
pub fn event_bytes(ctx: &LockEventCtx) -> [u8; EVENT_CTX_BYTES] {
    const F: Fields = EVENT_FIELDS;
    let mut buf = [0u8; EVENT_CTX_BYTES];
    put64(&mut buf, const { packed(F, Some("lock_id")) }, ctx.lock_id);
    put64(&mut buf, const { packed(F, Some("tid")) }, ctx.tid);
    put32(&mut buf, const { packed(F, Some("cpu")) }, ctx.cpu);
    put32(&mut buf, const { packed(F, Some("socket")) }, ctx.socket);
    put64(&mut buf, const { packed(F, Some("now_ns")) }, ctx.now_ns);
    put64(
        &mut buf,
        const { packed(F, Some("owner_tid")) },
        ctx.owner_tid,
    );
    buf
}

/// [`cmp_node_bytes`] on the heap, for callers that keep contexts around
/// (benchmarks, tests); hook paths use the stack form.
pub fn marshal_cmp_node(ctx: &CmpNodeCtx) -> Vec<u8> {
    cmp_node_bytes(ctx).to_vec()
}

/// [`event_bytes`] on the heap; see [`marshal_cmp_node`].
pub fn marshal_event(ctx: &LockEventCtx) -> Vec<u8> {
    event_bytes(ctx).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The stack buffers are sized from the tables the layouts are built
    // from, so a layout cannot outgrow its buffer. What can happen is that
    // a table changes: that moves the offsets stored policies were compiled
    // against, and it stops the test suite from building until the sizes
    // pinned here are changed on purpose.
    const _: () = {
        assert!(CMP_NODE_CTX_BYTES == 104);
        assert!(SKIP_SHUFFLE_CTX_BYTES == 56);
        assert!(SCHEDULE_WAITER_CTX_BYTES == 64);
        assert!(EVENT_CTX_BYTES == 40);
    };

    fn view(tid: u64, cpu: u32) -> NodeView {
        NodeView {
            tid,
            cpu,
            socket: cpu / 10,
            prio: -7,
            cs_hint: 1234,
            held_locks: 2,
            wait_start_ns: 99,
        }
    }

    /// The marshalling this module used before the stack form: a heap
    /// buffer of the layout's size, every field written at the offset the
    /// layout reports for its name. Kept as the oracle.
    struct Oracle {
        layout: &'static CtxLayout,
        buf: Vec<u8>,
    }

    impl Oracle {
        fn new(layout: &'static CtxLayout, lock_id: u64) -> Oracle {
            let buf = vec![0u8; layout.size()];
            Oracle { layout, buf }.put("lock_id", lock_id)
        }

        fn put(mut self, name: &str, v: u64) -> Oracle {
            self.layout.write(&mut self.buf, name, v);
            self
        }

        fn node(self, prefix: &str, v: &NodeView) -> Oracle {
            self.put(&format!("{prefix}_tid"), v.tid)
                .put(&format!("{prefix}_cpu"), u64::from(v.cpu))
                .put(&format!("{prefix}_socket"), u64::from(v.socket))
                .put(&format!("{prefix}_prio"), v.prio as u64)
                .put(&format!("{prefix}_cs_hint"), v.cs_hint)
                .put(&format!("{prefix}_held"), u64::from(v.held_locks))
                .put(&format!("{prefix}_wait_ns"), v.wait_start_ns)
        }
    }

    type ViewParts = (u64, u32, u32, i64, u64, u32, u64);

    fn any_view() -> impl Strategy<Value = ViewParts> {
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<i64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
        )
    }

    fn to_view(
        (tid, cpu, socket, prio, cs_hint, held_locks, wait_start_ns): ViewParts,
    ) -> NodeView {
        NodeView {
            tid,
            cpu,
            socket,
            prio,
            cs_hint,
            held_locks,
            wait_start_ns,
        }
    }

    proptest! {
        #[test]
        fn cmp_node_stack_form_matches_oracle(lock_id in any::<u64>(), s in any_view(), c in any_view()) {
            let ctx = CmpNodeCtx { lock_id, shuffler: to_view(s), curr: to_view(c) };
            let want = Oracle::new(cmp_node_layout(), lock_id)
                .node("shuffler", &ctx.shuffler)
                .node("curr", &ctx.curr);
            prop_assert_eq!(&cmp_node_bytes(&ctx)[..], &want.buf[..]);
            prop_assert_eq!(marshal_cmp_node(&ctx), want.buf);
        }

        #[test]
        fn skip_shuffle_stack_form_matches_oracle(lock_id in any::<u64>(), s in any_view()) {
            let ctx = SkipShuffleCtx { lock_id, shuffler: to_view(s) };
            let want = Oracle::new(skip_shuffle_layout(), lock_id).node("shuffler", &ctx.shuffler);
            prop_assert_eq!(&skip_shuffle_bytes(&ctx)[..], &want.buf[..]);
        }

        #[test]
        fn schedule_waiter_stack_form_matches_oracle(
            lock_id in any::<u64>(),
            c in any_view(),
            waited_ns in any::<u64>(),
        ) {
            let ctx = ScheduleWaiterCtx { lock_id, curr: to_view(c), waited_ns };
            let want = Oracle::new(schedule_waiter_layout(), lock_id)
                .node("curr", &ctx.curr)
                .put("waited_ns", waited_ns);
            prop_assert_eq!(&schedule_waiter_bytes(&ctx)[..], &want.buf[..]);
        }

        #[test]
        fn event_stack_form_matches_oracle(
            ids in (any::<u64>(), any::<u64>(), any::<u64>()),
            cpu in any::<u32>(),
            socket in any::<u32>(),
            now_ns in any::<u64>(),
        ) {
            let (lock_id, tid, owner_tid) = ids;
            let ctx = LockEventCtx { lock_id, tid, cpu, socket, now_ns, owner_tid };
            let want = Oracle::new(event_layout(), lock_id)
                .put("tid", tid)
                .put("cpu", u64::from(cpu))
                .put("socket", u64::from(socket))
                .put("now_ns", now_ns)
                .put("owner_tid", owner_tid);
            prop_assert_eq!(&event_bytes(&ctx)[..], &want.buf[..]);
            prop_assert_eq!(marshal_event(&ctx), want.buf);
        }
    }

    #[test]
    fn buffer_constants_equal_layout_sizes() {
        assert_eq!(CMP_NODE_CTX_BYTES, cmp_node_layout().size());
        assert_eq!(SKIP_SHUFFLE_CTX_BYTES, skip_shuffle_layout().size());
        assert_eq!(SCHEDULE_WAITER_CTX_BYTES, schedule_waiter_layout().size());
        assert_eq!(EVENT_CTX_BYTES, event_layout().size());
        // The compile-time packing is the builder's, field by field.
        for (fields, layout) in [
            (CMP_NODE_FIELDS, cmp_node_layout()),
            (SKIP_SHUFFLE_FIELDS, skip_shuffle_layout()),
            (SCHEDULE_WAITER_FIELDS, schedule_waiter_layout()),
            (EVENT_FIELDS, event_layout()),
        ] {
            for &(name, width) in fields.iter().copied().flatten() {
                let f = layout
                    .field(name)
                    .expect("layouts are built from the tables");
                assert_eq!(
                    (f.offset, f.size),
                    (packed(fields, Some(name)), width),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn cmp_node_marshal_roundtrip() {
        let ctx = CmpNodeCtx {
            lock_id: 42,
            shuffler: view(10, 31),
            curr: view(11, 55),
        };
        let buf = marshal_cmp_node(&ctx);
        let l = cmp_node_layout();
        assert_eq!(l.read(&buf, "lock_id"), 42);
        assert_eq!(l.read(&buf, "shuffler_tid"), 10);
        assert_eq!(l.read(&buf, "shuffler_socket"), 3);
        assert_eq!(l.read(&buf, "curr_cpu"), 55);
        assert_eq!(l.read(&buf, "curr_prio") as i64, -7);
        assert_eq!(l.read(&buf, "curr_cs_hint"), 1234);
        assert_eq!(l.read(&buf, "curr_held"), 2);
    }

    #[test]
    fn layouts_have_expected_fields() {
        assert!(skip_shuffle_layout().field("shuffler_wait_ns").is_some());
        assert!(skip_shuffle_layout().field("curr_tid").is_none());
        assert!(schedule_waiter_layout().field("waited_ns").is_some());
        assert!(event_layout().field("now_ns").is_some());
        for kind in HookKind::ALL {
            assert!(layout_for(kind).size() > 0);
        }
    }

    #[test]
    fn decision_rules_are_tight() {
        let r = rules_for(HookKind::CmpNode);
        assert_eq!(r.max_insns, Some(128));
        assert!(!r.allow_ctx_writes);
        let allowed = r.allowed_helpers.unwrap();
        assert!(!allowed.contains(&HelperId::TracePrintk));
        assert!(allowed.contains(&HelperId::NumaId));
        assert!(
            allowed.contains(&HelperId::TraceEmit),
            "bounded trace_emit is decision-hook safe"
        );
        let e = rules_for(HookKind::LockAcquired);
        assert_eq!(e.max_insns, Some(512));
        assert!(e.allowed_helpers.is_none());
    }

    #[test]
    fn event_marshal() {
        let ctx = LockEventCtx {
            lock_id: 7,
            tid: 3,
            cpu: 12,
            socket: 1,
            now_ns: 500,
            owner_tid: 9,
        };
        let buf = marshal_event(&ctx);
        let l = event_layout();
        assert_eq!(l.read(&buf, "lock_id"), 7);
        assert_eq!(l.read(&buf, "cpu"), 12);
        assert_eq!(l.read(&buf, "now_ns"), 500);
        assert_eq!(l.read(&buf, "owner_tid"), 9);
    }
}
