//! MD5 digest throughput (the hash behind URL signatures and watermarks).
//!
//! Every body is hashed once per hop (DESIGN.md §5): at the origin fetch,
//! at the disk boundary, and in the client's `verify_document`. That pass
//! is the largest CPU term of a disk hit and of a large origin fetch, so
//! the rows to watch are `md5/8192` (the median document) and
//! `md5/1048576` (the heavy tail); `scripts/ci.sh` prints both. The kernel
//! is latency-bound — each of the 64 steps waits for the one before — so
//! bytes/s is flat from 8 KiB up and a drop means the step chain got
//! longer, not that memory got slower. `sign_digest` / `verify_digest`
//! are what `ProxySigner::sign` / `verify_hashed` cost once the digest is
//! in hand.

use baps_crypto::{md5, sign_digest, verify_digest, KeyPair};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_md5(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("md5");
    for size in [64usize, 1 << 10, 8 << 10, 64 << 10, 1 << 20] {
        let mut data = vec![0u8; size];
        rng.fill(data.as_mut_slice());
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| md5(data));
        });
    }
    group.finish();
}

fn bench_watermark(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let kp = KeyPair::generate(&mut rng);
    let digest = md5(b"a typical cached document digest");
    c.bench_function("sign_digest", |b| {
        b.iter(|| sign_digest(&kp.private, &digest));
    });
    let sig = sign_digest(&kp.private, &digest);
    c.bench_function("verify_digest", |b| {
        b.iter(|| verify_digest(&kp.public, &digest, &sig));
    });
}

criterion_group!(benches, bench_md5, bench_watermark);
criterion_main!(benches);
