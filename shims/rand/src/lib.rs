//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small, API-compatible subset of `rand` 0.8: the [`Rng`] / [`RngCore`] /
//! [`SeedableRng`] traits and a seeded [`rngs::StdRng`] built on
//! xoshiro256** (seeded through SplitMix64). All BAPS randomness is already
//! funneled through explicitly seeded `StdRng` instances, so determinism is
//! preserved. The concrete streams differ from upstream `rand`, and every
//! seeded record in the workspace depends on them
//! (`crates/trace/tests/rng_stream.rs` pins them).

#![warn(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<T: Standard, const N: usize> Standard for [T; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        std::array::from_fn(|_| T::sample(rng))
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value of an inferable type uniformly.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }

    /// Fills a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs that can be constructed from a seed (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator, seeded via SplitMix64.
    ///
    /// Stand-in for `rand::rngs::StdRng`; deterministic for a given seed
    /// but *not* stream-compatible with upstream `rand`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(3usize..=5);
            assert!((3..=5).contains(&w));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
            let i = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn unit_f64_not_constant() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = rng.gen::<f64>();
        let b = rng.gen::<f64>();
        assert_ne!(a, b);
    }
}
