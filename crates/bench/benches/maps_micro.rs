//! Policy-map operation costs (lookup/update per kind), on the
//! allocation-free slot API policies use plus the host-side copy path.
//! 8-thread contention costs live in the `maps_contend` bin (criterion
//! here is single-threaded).

use cbpf::map::{Map, MapDef, MapKind};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_maps(c: &mut Criterion) {
    let mut g = c.benchmark_group("maps");

    let array = Map::new(MapDef {
        name: "a".into(),
        kind: MapKind::Array,
        key_size: 4,
        value_size: 8,
        max_entries: 256,
    });
    let k = 7u32.to_le_bytes();
    g.bench_function("array_lookup", |b| b.iter(|| array.lookup_slot(&k, 0)));
    g.bench_function("array_update", |b| {
        b.iter(|| array.update(&k, &42u64.to_le_bytes(), 0).unwrap())
    });
    let slot = array.lookup_slot(&k, 0).unwrap();
    g.bench_function("array_value_rmw", |b| {
        // The fused-idiom body: load a word, bump it, store it back.
        b.iter(|| {
            let v = array.value_load(slot, 0, 8).unwrap();
            array.value_store(slot, 0, 8, v + 1)
        })
    });

    let hash = Map::new(MapDef {
        name: "h".into(),
        kind: MapKind::Hash,
        key_size: 8,
        value_size: 8,
        max_entries: 1024,
    });
    for i in 0..512u64 {
        hash.update(&i.to_le_bytes(), &i.to_le_bytes(), 0).unwrap();
    }
    let hk = 123u64.to_le_bytes();
    g.bench_function("hash_lookup_hit", |b| b.iter(|| hash.lookup_slot(&hk, 0)));
    let miss = 9999u64.to_le_bytes();
    g.bench_function("hash_lookup_miss", |b| {
        b.iter(|| hash.lookup_slot(&miss, 0))
    });
    g.bench_function("hash_lookup_copy", |b| b.iter(|| hash.lookup_copy(&hk, 0)));
    g.bench_function("hash_update_existing", |b| {
        b.iter(|| hash.update(&hk, &7u64.to_le_bytes(), 0).unwrap())
    });

    let percpu = Map::with_cpus(
        MapDef {
            name: "p".into(),
            kind: MapKind::PerCpuArray,
            key_size: 4,
            value_size: 8,
            max_entries: 8,
        },
        80,
    );
    let pk = 0u32.to_le_bytes();
    g.bench_function("percpu_lookup", |b| b.iter(|| percpu.lookup_slot(&pk, 5)));
    g.bench_function("percpu_sum_80cpus", |b| b.iter(|| percpu.percpu_sum(&pk)));
    g.finish();
}

criterion_group!(benches, bench_maps);
criterion_main!(benches);
