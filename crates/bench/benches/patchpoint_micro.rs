//! Livepatch patch-point overhead: the epoch-pinned indirect call against
//! a direct call, and the cost of swapping under readers.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use livepatch::PatchPoint;

type F = Arc<dyn Fn(u64) -> u64 + Send + Sync>;

fn bench_patchpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("patchpoint");
    let direct: F = Arc::new(|x| x.wrapping_mul(2654435761));
    g.bench_function("direct_call", |b| b.iter(|| direct(42)));

    let point: PatchPoint<F> = PatchPoint::new(Arc::new(|x| x.wrapping_mul(2654435761)));
    g.bench_function("patched_call", |b| b.iter(|| (point.get())(42)));

    g.bench_function("get_only", |b| b.iter(|| drop(point.get())));

    g.bench_function("replace", |b| {
        b.iter(|| point.replace(Arc::new(|x| x.wrapping_add(1))))
    });

    // An Option slot with an active-flag guard, as the lock hook tables use.
    let hooks = locks::hooks::ShflHooks::new();
    let ctx = locks::hooks::LockEventCtx {
        lock_id: 1,
        tid: 1,
        cpu: 0,
        socket: 0,
        now_ns: 0,
        owner_tid: 0,
    };
    g.bench_function("vacant_hook_fire", |b| {
        b.iter(|| hooks.fire_event(locks::hooks::HookKind::LockAcquired, &ctx))
    });
    hooks.lock_acquired.replace(Some(Arc::new(|_| {})));
    hooks.set_active(locks::hooks::HookKind::LockAcquired, true);
    g.bench_function("installed_noop_hook_fire", |b| {
        b.iter(|| hooks.fire_event(locks::hooks::HookKind::LockAcquired, &ctx))
    });
    g.finish();
}

criterion_group!(benches, bench_patchpoint);
criterion_main!(benches);
