//! Browser-index micro-benchmarks: the exact directory and each batched
//! model (delayed directory, Bloom summaries, counting-Bloom filters).

use baps_core::ExactIndex;
use baps_sim::index::{AnyIndex, BloomFilter};
use baps_sim::IndexModel;
use baps_trace::{ClientId, DocId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 100_000;
const CLIENTS: u32 = 256;
const DOCS: u32 = 50_000;

#[derive(Clone, Copy)]
enum Op {
    Store(u32, u32),
    Evict(u32, u32),
    Lookup(u32, u32),
}

fn workload(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..OPS)
        .map(|_| {
            let c = rng.gen_range(0..CLIENTS);
            let d = rng.gen_range(0..DOCS);
            match rng.gen_range(0..10) {
                0..=4 => Op::Store(c, d),
                5..=6 => Op::Evict(c, d),
                _ => Op::Lookup(c, d),
            }
        })
        .collect()
}

fn bench_index_models(c: &mut Criterion) {
    let ops = workload(5);
    let models = [
        ("exact", IndexModel::Exact),
        ("delayed-10pct", IndexModel::Delayed { threshold: 0.10 }),
        (
            "bloom-10b",
            IndexModel::Bloom {
                bits_per_item: 10,
                threshold: 0.05,
            },
        ),
        (
            "cbloom-16k",
            IndexModel::CountingBloom {
                slots: 16_384,
                threshold: 0.05,
            },
        ),
    ];
    let mut group = c.benchmark_group("index_models");
    group.throughput(Throughput::Elements(OPS as u64));
    for (name, model) in models {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ops, |b, ops| {
            b.iter(|| {
                let mut index = AnyIndex::new(model, CLIENTS);
                let mut found = 0u64;
                for op in ops {
                    match *op {
                        Op::Store(c, d) => index.on_store(ClientId(c), DocId(d)),
                        Op::Evict(c, d) => index.on_evict(ClientId(c), DocId(d)),
                        Op::Lookup(c, d) => {
                            found += !index.candidates(DocId(d), ClientId(c)).is_empty() as u64;
                        }
                    }
                }
                found
            });
        });
    }
    group.finish();
}

fn bench_bloom_ops(c: &mut Criterion) {
    let mut filter = BloomFilter::for_items(10_000, 10, 4);
    for i in 0..10_000 {
        filter.insert(DocId(i));
    }
    c.bench_function("bloom_contains", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            filter.contains(DocId(i % 60_000))
        });
    });
    c.bench_function("exact_index_lookup", |b| {
        let mut index = ExactIndex::new();
        for i in 0..10_000u32 {
            index.on_store(ClientId(i % CLIENTS), DocId(i % DOCS));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            index.lookup(DocId(i % DOCS), ClientId(0))
        });
    });
}

criterion_group!(benches, bench_index_models, bench_bloom_ops);
criterion_main!(benches);
