//! Uncontended lock/unlock latency of the real-thread locks, and the
//! cost a vacant (unpatched) hook table adds to the shuffle lock —
//! supporting data for DESIGN.md's claim that the no-policy fast path is
//! one relaxed load.

use criterion::{criterion_group, criterion_main, Criterion};
use locks::{Bravo, NeutralRwLock, RawLock, RawRwLock, ShflLock};

fn bench_mutexes(c: &mut Criterion) {
    let mut g = c.benchmark_group("uncontended_lock_unlock");
    locks::topo::pin_thread(0);

    let shfl = ShflLock::new();
    g.bench_function("shfl_fifo", |b| b.iter(|| drop(shfl.lock())));
    let shfl_numa = ShflLock::with_numa_policy();
    g.bench_function("shfl_numa_policy", |b| b.iter(|| drop(shfl_numa.lock())));
    let mutex = ShflLock::blocking();
    g.bench_function("shfl_mutex", |b| b.iter(|| drop(mutex.lock())));
    g.finish();
}

fn bench_rwlocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("uncontended_rwlock");
    locks::topo::pin_thread(0);

    let neutral = NeutralRwLock::new();
    g.bench_function("neutral_read", |b| b.iter(|| drop(neutral.read())));
    g.bench_function("neutral_write", |b| b.iter(|| drop(neutral.write())));
    let bravo = Bravo::new(NeutralRwLock::new());
    g.bench_function("bravo_read_biased", |b| b.iter(|| drop(bravo.read())));
    let bravo_off = Bravo::new(NeutralRwLock::new());
    bravo_off.set_bias_enabled(false);
    g.bench_function("bravo_read_unbiased", |b| b.iter(|| drop(bravo_off.read())));
    g.finish();
}

criterion_group!(benches, bench_mutexes, bench_rwlocks);
criterion_main!(benches);
