//! Document-digest and MD5 throughput, and the CRC32C that checks the disk
//! tier's entries at rest.
//!
//! A body is hashed by `document_digest` where it is authored and where it
//! is accepted (DESIGN.md §5): once per version at the origin, whose
//! declared digest the proxy signs and stores unhashed, and in the client's
//! `verify_document`; a miss or a hit is one pass, the browser's, as the
//! proxy's disk read checks the entry's CRC32C instead. That pass is the
//! largest CPU term of any hop that moves a body, so the rows to watch are
//! `digest/8192` (the median document) and `digest/1048576` (the heavy
//! tail); `scripts/ci.sh` prints both, tagged with the kernel that produced
//! them (the `digest kernel:` line: `avx512` where CPUID reports avx512f,
//! `portable` elsewhere). The AVX-512 kernel advances sixteen MD5 chains in
//! one step, ≈ 0.25 cycles a byte from 8 KiB up; below 1 KiB the lanes'
//! padding block and the 264-byte root dominate. The `md5` rows are plain
//! RFC 1321 on one chain (the root's hash): ≈ 4.5 cycles a byte, ≈ 2.4×
//! what the portable kernel's four interleaved chains cost per byte.
//! `crc32c/8192` and `crc32c/65536`
//! (the largest body an event loop checks itself) are the disk read's
//! check, tagged by the `crc32c kernel:` line (`sse4.2` or `portable`).
//! `sign_digest` / `verify_digest` are what `ProxySigner::sign` /
//! `verify_hashed` cost once the digest is in hand.

use baps_crypto::{crc32c, document_digest, md5, sign_digest, verify_digest, KeyPair};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 5] = [64, 1 << 10, 8 << 10, 64 << 10, 1 << 20];

fn bench_hash(c: &mut Criterion, name: &str, seed: u64, hash: fn(&[u8]) -> baps_crypto::Digest) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut group = c.benchmark_group(name);
    for size in SIZES {
        let mut data = vec![0u8; size];
        rng.fill(data.as_mut_slice());
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| hash(data));
        });
    }
    group.finish();
}

fn bench_digest(c: &mut Criterion) {
    println!("digest kernel: {}", baps_crypto::md5::kernel());
    bench_hash(c, "digest", 4, document_digest);
}

fn bench_md5(c: &mut Criterion) {
    bench_hash(c, "md5", 1, md5);
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
    let digest = document_digest(b"a typical cached document digest");
    c.bench_function("sign_digest", |b| {
        b.iter(|| sign_digest(&kp.private, &digest));
    });
    let sig = sign_digest(&kp.private, &digest);
    c.bench_function("verify_digest", |b| {
        b.iter(|| verify_digest(&kp.public, &digest, &sig));
    });
}

criterion_group!(
    benches,
    bench_digest,
    bench_md5,
    bench_crc32c,
    bench_watermark
);
criterion_main!(benches);
