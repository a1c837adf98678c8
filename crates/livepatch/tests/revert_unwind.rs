//! One unwind against the per-target loop it replaces.
//!
//! `PatchManager::revert_transaction` pulls a whole set of patches by
//! detaching everything from the lowest target up, reverting that tail
//! once and re-applying the survivors once. The reference kept here is
//! the loop it replaces: one single-handle pull per target, in the
//! caller's order, each unwinding and re-applying everything above its
//! target. Over random stacks both must leave the same world — point
//! values, active flags, live order, surviving handles — and emit the
//! same `PatchRevert` records, while the unwind runs each patch above the
//! lowest target exactly once in each direction.
//!
//! Patches restore what they found when built, as an attach does, and no
//! two targets share a point, as in the sets a tagged revert builds (one
//! patch per lock). Where two targets do share a point the per-target
//! loop can end on a pulled patch's value; the unit tests beside
//! `revert_transaction` pin what one unwind does there.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use livepatch::{Patch, PatchHandle, PatchManager, PatchPoint};
use proptest::prelude::*;
use telemetry::EventKind;

const POINTS: usize = 4;

/// One stack, built from per-patch point masks.
struct World {
    points: Vec<Arc<PatchPoint<u32>>>,
    /// Per point, the active flag a hook attach sets.
    flags: Vec<Arc<AtomicBool>>,
    /// Per patch, how often its apply and its revert ran.
    applied: Vec<Arc<AtomicU64>>,
    reverted: Vec<Arc<AtomicU64>>,
    masks: Vec<u8>,
    mgr: PatchManager,
    handles: Vec<PatchHandle>,
}

fn counter(c: &Arc<AtomicU64>) -> impl Fn() + Send + Sync + 'static {
    let c = Arc::clone(c);
    move || {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

fn build(masks: &[u8]) -> World {
    // A counting clock orders the drained records as they were emitted.
    let tick = AtomicU64::new(0);
    let clock: Box<dyn Fn() -> u64 + Send + Sync> =
        Box::new(move || tick.fetch_add(1, Ordering::Relaxed));
    let mgr = PatchManager::with_clock(clock);
    let points: Vec<_> = (0..POINTS).map(|_| Arc::new(PatchPoint::new(0))).collect();
    let flags: Vec<_> = (0..POINTS)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let mut world = World {
        points,
        flags,
        applied: Vec::new(),
        reverted: Vec::new(),
        masks: masks.to_vec(),
        mgr,
        handles: Vec::new(),
    };
    for (i, &mask) in masks.iter().enumerate() {
        let mut patch = Patch::new(format!("p{i}"));
        for p in (0..POINTS).filter(|p| mask & (1 << p) != 0) {
            let point = &world.points[p];
            patch.swap(point, (i * POINTS + p + 1) as u32, *point.get());
            let flag = Arc::clone(&world.flags[p]);
            let was = flag.load(Ordering::Relaxed);
            let on = Arc::clone(&flag);
            patch.action(
                move || on.store(true, Ordering::Relaxed),
                move || flag.store(was, Ordering::Relaxed),
            );
        }
        let (a, r) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        patch.action(counter(&a), counter(&r));
        world.applied.push(a);
        world.reverted.push(r);
        world.handles.push(world.mgr.apply(patch));
    }
    world
}

/// What a pull leaves behind: values, flags, live order, which handles
/// still name a patch, and the `PatchRevert` records, in order.
type Outcome = (
    Vec<u32>,
    Vec<bool>,
    Vec<String>,
    Vec<bool>,
    Vec<(u64, u64, u64)>,
);

fn outcome(world: &World) -> Outcome {
    (
        world.points.iter().map(|p| *p.get()).collect(),
        world
            .flags
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .collect(),
        world.mgr.live(),
        (0..world.handles.len())
            .map(|i| world.mgr.find(&format!("p{i}")) == Some(world.handles[i]))
            .collect(),
        telemetry::drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::PatchRevert)
            .map(|e| (e.a, e.b, e.c))
            .collect(),
    )
}

/// Targets in caller order: each pick names a patch (modulo the stack);
/// a patch already picked, or one sharing a point with a pick, is
/// skipped.
fn targets(masks: &[u8], picks: &[usize]) -> Vec<usize> {
    let mut taken = 0u8;
    let mut out = Vec::new();
    for &pick in picks {
        let i = pick % masks.len();
        if taken & masks[i] == 0 {
            taken |= masks[i];
            out.push(i);
        }
    }
    out
}

proptest! {
    #[test]
    fn one_unwind_matches_the_per_target_loop(
        masks in proptest::collection::vec(1u8..16, 1..14),
        picks in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let picked = targets(&masks, &picks);
        telemetry::set_armed(true);

        let reference = build(&masks);
        telemetry::drain();
        for &i in &picked {
            reference.mgr.revert_transaction(reference.handles[i]).unwrap();
        }
        let want = outcome(&reference);

        let world = build(&masks);
        telemetry::drain();
        let set: Vec<PatchHandle> = picked.iter().map(|&i| world.handles[i]).collect();
        let reapplied = world.mgr.revert_transaction(&set).unwrap();
        let got = outcome(&world);
        telemetry::set_armed(false);

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.4.len(), picked.len());

        // Each patch above the lowest target runs once each way; a
        // target only reverts; the rest are untouched.
        let low = picked.iter().copied().min().unwrap_or(world.masks.len());
        let mut survivors = Vec::new();
        for i in 0..world.masks.len() {
            let runs = (
                world.applied[i].load(Ordering::Relaxed),
                world.reverted[i].load(Ordering::Relaxed),
            );
            let expect = if picked.contains(&i) {
                (1, 1)
            } else if i > low {
                survivors.push(format!("p{i}"));
                (2, 1)
            } else {
                (1, 0)
            };
            prop_assert_eq!(runs, expect, "patch p{}", i);
        }
        prop_assert_eq!(reapplied, survivors);
    }
}
