//! Microbenchmarks for the cache crate's hot kernels: the flat-layout
//! `Cache::access`/`Cache::fill` pair — the inner loops every simulated
//! fetch goes through.

use criterion::{criterion_group, criterion_main, Criterion};
use swip_cache::{Cache, CacheConfig, ReplacementKind};
use swip_types::Addr;

fn l1i() -> Cache {
    Cache::new(CacheConfig::with_capacity_kib(
        "L1I",
        32,
        8,
        4,
        8,
        ReplacementKind::Lru,
    ))
}

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_hot");
    g.bench_function("access_hit", |b| {
        let mut cache = l1i();
        for n in 0..512u64 {
            cache.fill(Addr::new(n * 64).line(), false);
        }
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 1) % 512;
            std::hint::black_box(cache.access(Addr::new(n * 64).line(), false))
        });
    });
    g.bench_function("access_miss", |b| {
        let mut cache = l1i();
        let mut n = 0u64;
        b.iter(|| {
            // A footprint far beyond capacity keeps every access a miss
            // without ever filling, so this isolates the lookup loop.
            n = n.wrapping_add(64 * 513);
            std::hint::black_box(cache.access(Addr::new(n).line(), false))
        });
    });
    g.finish();
}

fn bench_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_hot");
    for (name, kind) in [
        ("fill_evict_lru", ReplacementKind::Lru),
        ("fill_evict_srrip", ReplacementKind::Srrip),
    ] {
        g.bench_function(name, |b| {
            let mut cache = Cache::new(CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, kind));
            let mut n = 0u64;
            b.iter(|| {
                // Streaming far past capacity: every fill after warm-up
                // selects a victim in the borrowed set slice.
                n += 64;
                std::hint::black_box(cache.fill(Addr::new(n).line(), n.is_multiple_of(3)))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_access, bench_fill);
criterion_main!(benches);
