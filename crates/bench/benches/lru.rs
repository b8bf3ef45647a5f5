//! Cache-substrate micro-benchmarks: LRU / ranked policies / tiered LRU.

use baps_core::{ByteLru, Policy};
use baps_sim::{AnyCache, DocCache, TieredLru};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 100_000;

fn workload(seed: u64) -> Vec<(u32, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..OPS)
        .map(|_| {
            // Zipf-ish key reuse via squaring a uniform variate.
            let u: f64 = rng.gen();
            let key = (u * u * 50_000.0) as u32;
            let size = rng.gen_range(200..20_000) as u64;
            (key, size)
        })
        .collect()
}

fn drive<C: DocCache<u32>>(cache: &mut C, ops: &[(u32, u64)]) -> u64 {
    let mut hits = 0;
    for &(key, size) in ops {
        if cache.touch(&key).is_some() {
            hits += 1;
        } else {
            cache.insert(key, size);
        }
    }
    hits
}

fn bench_policies(c: &mut Criterion) {
    let ops = workload(3);
    let mut group = c.benchmark_group("cache_policies");
    group.throughput(Throughput::Elements(OPS as u64));
    for policy in Policy::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &ops,
            |b, ops| {
                b.iter(|| {
                    let mut cache = AnyCache::new(policy, 64 << 20);
                    drive(&mut cache, ops)
                });
            },
        );
    }
    group.finish();
}

fn bench_tiered_vs_flat(c: &mut Criterion) {
    let ops = workload(4);
    let mut group = c.benchmark_group("lru_variants");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("flat_byte_lru", |b| {
        b.iter(|| {
            let mut cache = ByteLru::new(64 << 20);
            drive(&mut cache, &ops)
        });
    });
    group.bench_function("tiered_lru_10pct_mem", |b| {
        b.iter(|| {
            let mut cache = TieredLru::with_mem_fraction(64 << 20, 0.1);
            let mut hits = 0u64;
            for &(key, size) in &ops {
                if cache.touch(&key).is_some() {
                    hits += 1;
                } else {
                    cache.insert(key, size);
                }
            }
            hits
        });
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_tiered_vs_flat);
criterion_main!(benches);
