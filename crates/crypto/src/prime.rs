//! Primality testing and prime generation over `u64`.
//!
//! Supports the textbook-RSA key generation in [`crate::rsa`]. The
//! Miller–Rabin test below is *deterministic* for all 64-bit integers
//! thanks to the known minimal witness set.

use rand::Rng;

/// Modular multiplication without overflow (via `u128`): a 128-bit
/// division per product. The path of even moduli, and the reference the
/// Montgomery path is checked against.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation `base^exp mod m` (square-and-multiply): in
/// Montgomery form for an odd modulus — every RSA modulus — so no step
/// divides; through [`mul_mod`] for an even one.
pub fn pow_mod(base: u64, exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    if m % 2 == 1 {
        let [x] = Montgomery::new(m).pow([base], exp);
        return x;
    }
    pow_mod_reference(base, exp, m)
}

/// `bases[i]^exp mod m` for four bases under one exponent — the four
/// words of a signature — in one square-and-multiply loop, so the four
/// independent chains overlap in the pipeline.
pub fn pow_mod4(bases: [u64; 4], exp: u64, m: u64) -> [u64; 4] {
    if m == 1 {
        return [0; 4];
    }
    if m % 2 == 1 {
        return Montgomery::new(m).pow(bases, exp);
    }
    bases.map(|base| pow_mod_reference(base, exp, m))
}

/// Square-and-multiply through [`mul_mod`], for any modulus above 1.
fn pow_mod_reference(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Arithmetic modulo an odd `m` in Montgomery form, `x·2^64 mod m`: a
/// product is one 128-bit multiply and a reduction by multiplies and one
/// subtraction, no division.
struct Montgomery {
    m: u64,
    /// `m⁻¹ mod 2^64`.
    inv: u64,
    /// `2^128 mod m`: multiplying by it enters the form.
    r2: u64,
}

impl Montgomery {
    fn new(m: u64) -> Montgomery {
        debug_assert!(m % 2 == 1, "Montgomery form needs an odd modulus");
        // Newton's iteration doubles the correct low bits each step; `m`
        // is its own inverse modulo 8, so five steps reach 96 ≥ 64.
        let mut inv = m;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        let m128 = u128::from(m);
        let r2 = ((u128::MAX % m128 + 1) % m128) as u64;
        Montgomery { m, inv, r2 }
    }

    /// `t·2^-64 mod m` for `t < m·2^64`. The subtracting form: with `u =
    /// t·m⁻¹ mod 2^64`, `t` and `u·m` share their low word, so `(t − u·m) /
    /// 2^64` is the difference of their high words — in `(−m, m)`, fixed
    /// by one addition of `m` — and nothing overflows, even for `m > 2^63`.
    #[inline]
    fn reduce(&self, t: u128) -> u64 {
        let u = (t as u64).wrapping_mul(self.inv);
        let um = (u128::from(u) * u128::from(self.m)) >> 64;
        let (diff, borrow) = ((t >> 64) as u64).overflowing_sub(um as u64);
        if borrow {
            diff.wrapping_add(self.m)
        } else {
            diff
        }
    }

    /// The product of two numbers in the form, in the form.
    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce(u128::from(a) * u128::from(b))
    }

    /// `bases[i]^exp mod m`, each chain in the form from its first square
    /// to the last multiply.
    fn pow<const N: usize>(&self, bases: [u64; N], mut exp: u64) -> [u64; N] {
        let one = self.mul(1, self.r2);
        let mut acc = [one; N];
        let mut base = bases.map(|b| self.mul(b % self.m, self.r2));
        while exp > 0 {
            if exp & 1 == 1 {
                for (a, b) in acc.iter_mut().zip(&base) {
                    *a = self.mul(*a, *b);
                }
            }
            for b in &mut base {
                *b = self.mul(*b, *b);
            }
            exp >>= 1;
        }
        acc.map(|x| self.reduce(u128::from(x)))
    }
}

/// Deterministic Miller–Rabin for `u64` using the minimal witness set
/// {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n - 1 = d * 2^r with d odd.
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Greatest common divisor (binary-free Euclid).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Modular inverse of `a` modulo `m` via extended Euclid, if it exists.
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        let tr = old_r - q * r;
        old_r = r;
        r = tr;
        let ts = old_s - q * s;
        old_s = s;
        s = ts;
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % m as i128;
    if inv < 0 {
        inv += m as i128;
    }
    Some(inv as u64)
}

/// Samples a random prime uniformly from `[lo, hi)` by rejection.
///
/// # Panics
/// Panics if the range is empty or contains no prime (after a generous
/// number of attempts, which cannot happen for ranges of width ≥ 2·ln(hi)).
pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty range");
    for _ in 0..1_000_000 {
        let mut candidate = rng.gen_range(lo..hi);
        candidate |= 1; // odd candidates only (2 handled by is_prime anyway)
        if candidate >= hi {
            continue;
        }
        if is_prime(candidate) {
            return candidate;
        }
    }
    panic!("no prime found in [{lo}, {hi}) after many attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 97, 101, 65537];
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 6601];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that fool weak tests.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 75361] {
            assert!(!is_prime(c), "carmichael {c}");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1 (Mersenne)
        assert!(is_prime(4_294_967_291)); // largest prime < 2^32
        assert!(!is_prime(4_294_967_295)); // 2^32 - 1 = 3·5·17·257·65537
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
    }

    #[test]
    fn pow_mod_matches_naive() {
        for (b, e, m) in [(3u64, 4u64, 5u64), (10, 0, 7), (2, 10, 1024), (7, 3, 1)] {
            let naive = if m == 1 {
                0
            } else {
                (0..e).fold(1u64, |acc, _| acc * b % m)
            };
            assert_eq!(pow_mod(b, e, m), naive);
        }
    }

    #[test]
    fn pow_mod_fermat() {
        // Fermat's little theorem: a^(p-1) ≡ 1 (mod p).
        let p = 4_294_967_291u64;
        for a in [2u64, 3, 12345, 987654321] {
            assert_eq!(pow_mod(a, p - 1, p), 1);
        }
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(0, 5), 5);
        let inv = mod_inverse(3, 11).unwrap();
        assert_eq!(3 * inv % 11, 1);
        assert_eq!(mod_inverse(4, 8), None); // not coprime
        let inv2 = mod_inverse(65537, 4_294_967_291).unwrap();
        assert_eq!(mul_mod(65537, inv2, 4_294_967_291), 1);
    }

    #[test]
    fn random_prime_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let p = random_prime(&mut rng, 1 << 31, 1 << 32);
            assert!((1 << 31..1 << 32).contains(&p));
            assert!(is_prime(p));
        }
    }

    /// Montgomery exponentiation equals the `u128` reference on 10 000
    /// seeded odd moduli — a fifth of them at or above 2^63, where a
    /// non-subtracting reduction would overflow — and arbitrary bases and
    /// exponents; the four-base form equals four single ones.
    #[test]
    fn montgomery_pow_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(2002);
        for i in 0..10_000 {
            let m = match i % 5 {
                0 => rng.gen_range(1u64 << 63..=u64::MAX),
                1 => rng.gen_range(3u64..1 << 16),
                _ => rng.gen::<u64>() >> rng.gen_range(0..62),
            } | 1;
            let m = m.max(3);
            let bases = [rng.gen::<u64>(), rng.gen(), rng.gen_range(0..m), m - 1];
            let exp = match i % 3 {
                0 => rng.gen_range(0u64..64),
                _ => rng.gen::<u64>(),
            };
            let want = bases.map(|b| pow_mod_reference(b, exp, m));
            assert_eq!(pow_mod4(bases, exp, m), want, "m {m} exp {exp}");
            assert_eq!(pow_mod(bases[0], exp, m), want[0], "m {m} exp {exp}");
        }
        // Even moduli take the reference path.
        assert_eq!(pow_mod4([3, 5, 7, 9], 3, 10), [7, 5, 3, 9]);
    }

    #[test]
    fn mul_mod_no_overflow() {
        let big = u64::MAX - 58; // the largest u64 prime
        assert_eq!(mul_mod(big - 1, big - 1, big), 1); // (-1)^2 = 1 mod p
    }
}
