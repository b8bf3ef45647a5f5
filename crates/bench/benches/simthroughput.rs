//! End-to-end simulator throughput: requests replayed per second for each
//! caching organization, plus generator throughput.

use baps_core::LatencyParams;
use baps_sim::{run, Organization, SystemConfig};
use baps_trace::{SynthConfig, TraceStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_replay(c: &mut Criterion) {
    let synth = SynthConfig::small(); // 20k requests
    let trace = synth.generate(9);
    let stats = TraceStats::compute(&trace);
    let latency = LatencyParams::paper();
    let mut group = c.benchmark_group("replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for org in Organization::all() {
        let cfg = SystemConfig::paper_default(org, stats.infinite_cache_bytes / 10);
        group.bench_with_input(BenchmarkId::from_parameter(org.short()), &cfg, |b, cfg| {
            b.iter(|| run(&trace, &stats, cfg, &latency));
        });
    }
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let synth = SynthConfig::small();
    let mut group = c.benchmark_group("generate");
    group.throughput(Throughput::Elements(synth.n_requests));
    group.sample_size(20);
    group.bench_function("synthetic_trace", |b| {
        b.iter(|| synth.generate(10));
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_generation);
criterion_main!(benches);
