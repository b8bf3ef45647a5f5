//! The benchmark's own seeded input generator: RNG, Zipf sampler, size
//! model, corpus bodies and the per-driver request schedule.
//!
//! Nothing here comes from the `rand` shim or `baps-trace::scenarios`, so a
//! later change to either cannot silently change a workload. Every workload
//! prints an FNV-64 `inputs_hash` over what this module produced.

use crate::workload::{SizeModel, WorkloadSpec, DRIVERS};
use std::sync::Arc;

/// Zipf exponent of every workload's popularity law.
pub const ZIPF_ALPHA: f64 = 0.8;
/// Schedule length per driver; the timed pass wraps around it.
pub const SCHED_LEN: usize = 1 << 18;
/// The schedule is built in blocks of this many ops per driver. Inside a
/// block the Zipf draws are *stratified* (one draw per 1/BLOCK of
/// probability mass) and then shuffled: the order is random, but every
/// block requests almost exactly the Zipf mix. With
/// independent draws, which documents happen to fall into a 0.5 s slice —
/// above all how many multi-MiB ones in `heavy-tail` — moves a slice's
/// rate by ±10 % and hit ratios across seeds by several percent.
pub const BLOCK: usize = 512;
/// Documents republished by one publisher op.
pub const PUBLISH_BATCH: usize = 4;

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn seeded(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
        Rng(std::array::from_fn(|_| splitmix64(&mut s)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// Zipf(α) over ranks `0..n` by inverse-CDF table lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at quantile `u ∈ [0, 1)` of the popularity law.
    pub fn rank_at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_at(rng.unit())
    }

    /// Probability mass of ranks `0..k`.
    pub fn mass_below(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error below 1.2e-9 — far finer than a byte of document size).
fn inv_norm(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

impl SizeModel {
    /// Document size at quantile `u ∈ (0, 1)` of the model.
    pub fn quantile(&self, u: f64) -> u32 {
        match *self {
            SizeModel::Uniform { lo, hi } => lo + ((hi - lo) as f64 * u) as u32,
            SizeModel::HeavyTail => {
                // The low 80 % of strata are the lognormal body, the top
                // 20 % the Pareto tail, so the split is exact at any n.
                let bytes = if u < 0.8 {
                    let p = (u / 0.8).clamp(1e-9, 1.0 - 1e-9);
                    (16384.0f64.ln() + inv_norm(p)).exp()
                } else {
                    let p = ((u - 0.8) / 0.2).min(1.0 - 1e-9);
                    131072.0 * (1.0 - p).powf(-1.0 / 1.1)
                };
                bytes.clamp(1024.0, (1u32 << 20) as f64) as u32
            }
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Sizes of documents `0..n` (index = popularity rank of an unrotated
/// agent). Sizes are *stratified* and the same for every seed: rank `r`
/// gets the midpoint of stratum `r·m mod n` of the size distribution (`m`
/// ≈ 0.618·n, coprime to `n`). Every seed therefore sees the same corpus
/// size, the same size distribution and the same (absent) size–popularity
/// correlation — which is what keeps byte hit ratio, memory and throughput
/// comparable across seeds. The seed decides the bytes and the order of
/// requests, not how heavy the tail happens to be.
pub fn doc_sizes(model: SizeModel, n: usize) -> Vec<u32> {
    let mut m = ((n as f64 * 0.618_033_988_749_895) as usize) | 1;
    while gcd(m, n) != 1 {
        m += 2;
    }
    (0..n)
        .map(|r| model.quantile((((r * m) % n) as f64 + 0.5) / n as f64))
        .collect()
}

/// Body of `doc` at `version`: seeded noise, so a wrong, stale-by-two or
/// truncated body cannot pass a byte comparison by accident.
pub fn body(seed: u64, doc: usize, version: u32, len: usize) -> Arc<[u8]> {
    let mut rng = Rng::seeded(
        seed,
        0xb0d7_0000_0000 | ((version as u64) << 24) | doc as u64,
    );
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf);
    buf.into()
}

pub fn url(seed: u64, doc: usize) -> String {
    format!("http://origin/s{seed}/doc/{doc}")
}

/// One scheduled fetch: `agent` (index into the bed's clients) gets `doc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub agent: u16,
    pub doc: u16,
}

/// Everything a run feeds the deployment, derived from `(spec, seed)` alone.
pub struct Inputs {
    pub sizes: Vec<u32>,
    /// `ops[d]` is driver `d`'s schedule; the sequential count pass
    /// interleaves them (`ops[i % D][i / D]`).
    pub ops: Vec<Vec<Op>>,
    /// Publisher batches, consumed in order by driver 0 at every
    /// `publish_every`-th op position (empty when the workload has none).
    pub publishes: Vec<[u16; PUBLISH_BATCH]>,
    pub hash: u64,
}

/// The agents driver `d` owns: a contiguous block of `agents / DRIVERS`.
pub fn driver_agents(spec: &WorkloadSpec, d: usize) -> std::ops::Range<usize> {
    let per = spec.agents / DRIVERS;
    d * per..(d + 1) * per
}

pub fn generate(spec: &WorkloadSpec, seed: u64) -> Inputs {
    assert!(spec.docs <= 1 << 16 && spec.agents.is_multiple_of(DRIVERS));
    let sizes = doc_sizes(spec.sizes, spec.docs);
    let zipf = Zipf::new(spec.docs, ZIPF_ALPHA);
    let ops: Vec<Vec<Op>> = (0..DRIVERS)
        .map(|d| {
            let mut rng = Rng::seeded(seed, 0x100 + d as u64);
            let agents = driver_agents(spec, d);
            let mut ops = Vec::with_capacity(SCHED_LEN);
            let mut ranks = Vec::with_capacity(BLOCK);
            while ops.len() < SCHED_LEN {
                ranks.clear();
                ranks.extend(
                    (0..BLOCK).map(|j| zipf.rank_at((j as f64 + rng.unit()) / BLOCK as f64)),
                );
                // Fisher–Yates.
                for i in (1..BLOCK).rev() {
                    ranks.swap(i, rng.below(i as u64 + 1) as usize);
                }
                // Agents take turns over the *shuffled* block, so each sees
                // a fresh random subset of the strata in every block.
                for (j, &rank) in ranks.iter().enumerate() {
                    let agent = agents.start + j % agents.len();
                    // Agent c's popularity ranking is the global one
                    // rotated by c·rotate, so one browser's hot set is its
                    // neighbours' warm set.
                    ops.push(Op {
                        agent: agent as u16,
                        doc: ((rank + agent * spec.rotate) % spec.docs) as u16,
                    });
                }
            }
            ops
        })
        .collect();
    // One batch per publisher position of the schedule (none if it has none).
    let mut rng = Rng::seeded(seed, 0x200);
    let publishes = (0..SCHED_LEN.checked_div(spec.publish_every).unwrap_or(0))
        .map(|_| std::array::from_fn(|_| zipf.sample(&mut rng) as u16))
        .collect::<Vec<[u16; PUBLISH_BATCH]>>();
    let mut hash = Fnv64::new();
    for s in &sizes {
        hash.write(&s.to_le_bytes());
    }
    for op in ops.iter().flatten() {
        hash.write(&op.agent.to_le_bytes());
        hash.write(&op.doc.to_le_bytes());
    }
    for doc in publishes.iter().flatten() {
        hash.write(&doc.to_le_bytes());
    }
    Inputs {
        sizes,
        ops,
        publishes,
        hash: hash.0,
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv64(pub u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &WORKLOADS {
            let a = generate(spec, 7);
            let b = generate(spec, 7);
            let c = generate(spec, 8);
            assert_eq!(a.hash, b.hash, "{}", spec.name);
            assert_eq!(a.sizes, b.sizes);
            assert_eq!(a.ops, b.ops);
            assert_ne!(a.hash, c.hash, "{}", spec.name);
            assert_eq!(body(7, 3, 0, 100), body(7, 3, 0, 100));
            assert_ne!(body(7, 3, 0, 100), body(7, 3, 1, 100));
        }
    }

    #[test]
    fn seed_1_hashes_are_the_recorded_ones() {
        for spec in &WORKLOADS {
            assert_eq!(
                generate(spec, 1).hash,
                spec.seed1_inputs_hash,
                "{}: the generator or the workload table changed; re-record \
                 the hash only together with a new baseline",
                spec.name
            );
        }
    }

    #[test]
    fn zipf_mass_matches_the_closed_form() {
        let n = 4096;
        let z = Zipf::new(n, ZIPF_ALPHA);
        let h = |k: usize| (1..=k).map(|i| (i as f64).powf(-ZIPF_ALPHA)).sum::<f64>();
        assert!((z.mass_below(64) - h(64) / h(n)).abs() < 1e-12);
        assert!((z.mass_below(n) - 1.0).abs() < 1e-12);
        // Empirical mass of the top 64 ranks agrees with the table.
        let mut rng = Rng::seeded(3, 0);
        let draws = 200_000;
        let top = (0..draws).filter(|_| z.sample(&mut rng) < 64).count();
        let got = top as f64 / draws as f64;
        assert!((got - z.mass_below(64)).abs() < 0.005, "{got}");
    }

    #[test]
    fn sizes_are_stratified_and_in_range() {
        let s = doc_sizes(SizeModel::HeavyTail, 256);
        assert!(s.iter().all(|&b| (1024..=1 << 20).contains(&b)));
        // 20 % of 256 strata are Pareto: all at least 128 KiB.
        assert!(s.iter().filter(|&&b| b >= 131072).count() >= 51);
        let total: u64 = s.iter().map(|&b| b as u64).sum();
        assert!((16 << 20..24 << 20).contains(&total), "{total}");

        let mut u = doc_sizes(SizeModel::Uniform { lo: 256, hi: 2048 }, 512);
        u.sort_unstable();
        // One document at the midpoint of each stratum of width (hi-lo)/n.
        for (i, b) in u.iter().enumerate() {
            let mid = 256.0 + 1792.0 * (i as f64 + 0.5) / 512.0;
            assert!((*b as f64 - mid).abs() <= 1.0, "{b} vs {mid}");
        }
    }

    #[test]
    fn inv_norm_hits_known_quantiles() {
        assert!(inv_norm(0.5).abs() < 1e-9);
        assert!((inv_norm(0.975) - 1.959964).abs() < 1e-5);
        assert!((inv_norm(0.001) + 3.090232).abs() < 1e-5);
    }
}
