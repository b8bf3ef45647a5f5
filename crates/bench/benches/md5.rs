//! MD5 digest throughput (the hash behind URL signatures and watermarks),
//! and the CRC32C that checks the disk tier's entries at rest.
//!
//! A body is MD5-hashed where it is authored and where it is accepted
//! (DESIGN.md §5): once per version at the origin, whose declared digest
//! the proxy signs and stores unhashed, and in the client's
//! `verify_document`; a miss or a hit is one pass, the browser's, as the
//! proxy's disk read checks the entry's CRC32C instead. The MD5 pass is the
//! largest CPU term of any hop that moves a body, so the rows to watch are `md5/8192` (the median document) and
//! `md5/1048576` (the heavy tail); `scripts/ci.sh` prints both, tagged
//! with the kernel that produced them (the `md5 kernel:` line: `avx512`
//! where CPUID reports avx512f + avx512vl, `portable` elsewhere). Either
//! kernel is latency-bound — each of the 64 steps waits for the one
//! before — so bytes/s is flat from 8 KiB up and a drop means the step
//! chain got longer, not that memory got slower: ≈ 4 cycles a byte on the
//! AVX-512 kernel, ≈ 4.5–5 on the portable one. `crc32c/8192` and
//! `crc32c/65536` (the largest body an event loop checks itself) are the
//! disk read's check, tagged by the `crc32c kernel:` line (`sse4.2` or
//! `portable`). `sign_digest` / `verify_digest` are what
//! `ProxySigner::sign` / `verify_hashed` cost once the digest is in hand.

use baps_crypto::{crc32c, md5, sign_digest, verify_digest, KeyPair};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_md5(c: &mut Criterion) {
    println!("md5 kernel: {}", baps_crypto::md5::kernel());
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

fn bench_crc32c(c: &mut Criterion) {
    println!("crc32c kernel: {}", baps_crypto::crc32c::kernel());
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("crc32c");
    for size in [8usize << 10, 64 << 10] {
        let mut data = vec![0u8; size];
        rng.fill(data.as_mut_slice());
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| crc32c(data));
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

criterion_group!(benches, bench_md5, bench_crc32c, bench_watermark);
criterion_main!(benches);
