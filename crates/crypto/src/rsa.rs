//! Textbook RSA over 64-bit moduli.
//!
//! The paper's §6.1 watermark assumes the proxy owns a public/private key
//! pair whose public half every browser knows. This module provides the
//! *shape* of RSA — key generation and digest signing — over `n = p·q`
//! with 32-bit primes.
//!
//! **This is a demonstration-grade substitute, not secure cryptography**: a
//! 64-bit modulus is factorable instantly and textbook RSA lacks padding.
//! Real deployments would use a vetted library; the reproduction is
//! restricted to the approved offline crate set, and protocol behaviour
//! (message flow, overhead ordering) is unaffected by key size.

use crate::error::CryptoError;
use crate::md5::Digest;
use crate::prime::{gcd, mod_inverse, pow_mod, random_prime};
use rand::Rng;

/// RSA public key `(n, e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Modulus.
    pub n: u64,
    /// Public exponent.
    pub e: u64,
}

/// RSA private key `(n, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey {
    /// Modulus.
    pub n: u64,
    /// Private exponent.
    pub d: u64,
}

/// A full key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// The shareable half.
    pub public: PublicKey,
    /// The secret half.
    pub private: PrivateKey,
}

impl KeyPair {
    /// Generates a key pair with 32-bit primes (so every 4-byte block is
    /// strictly smaller than the modulus).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> KeyPair {
        loop {
            let p = random_prime(rng, 1 << 31, 1 << 32);
            let q = random_prime(rng, 1 << 31, 1 << 32);
            if p == q {
                continue;
            }
            let n = p.checked_mul(q).expect("32-bit primes fit in u64");
            let phi = (p - 1) * (q - 1);
            let e = 65537u64;
            if gcd(e, phi) != 1 {
                continue;
            }
            let d = mod_inverse(e, phi).expect("e coprime to phi");
            return KeyPair {
                public: PublicKey { n, e },
                private: PrivateKey { n, d },
            };
        }
    }
}

/// A signature over an MD5 digest: the four 4-byte words of the digest,
/// each raised to the private exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u64; 4]);

impl Signature {
    /// Serialises to 32 bytes (little-endian words).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses 32 bytes produced by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, CryptoError> {
        if bytes.len() != 32 {
            return Err(CryptoError::MalformedSignature);
        }
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        Ok(Signature(words))
    }
}

/// Signs an MD5 digest with `key`: each 4-byte word of the digest (always
/// `< 2^32 ≤ n`) is RSA-decrypted (i.e. raised to `d`).
pub fn sign_digest(key: &PrivateKey, digest: &Digest) -> Signature {
    let mut words = [0u64; 4];
    for (i, chunk) in digest.0.chunks_exact(4).enumerate() {
        let m = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as u64;
        words[i] = pow_mod(m, key.d, key.n);
    }
    Signature(words)
}

/// Verifies a digest signature with the matching public key.
pub fn verify_digest(key: &PublicKey, digest: &Digest, sig: &Signature) -> bool {
    for (i, chunk) in digest.0.chunks_exact(4).enumerate() {
        let expect = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as u64;
        if sig.0[i] >= key.n {
            return false;
        }
        if pow_mod(sig.0[i], key.e, key.n) != expect {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::md5;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(3);
        let d = md5(b"the quick brown fox");
        let sig = sign_digest(&kp.private, &d);
        assert!(verify_digest(&kp.public, &d, &sig));
    }

    #[test]
    fn tampered_digest_fails_verification() {
        let kp = keypair(4);
        let d = md5(b"original");
        let sig = sign_digest(&kp.private, &d);
        let tampered = md5(b"tampered");
        assert!(!verify_digest(&kp.public, &tampered, &sig));
    }

    #[test]
    fn wrong_key_fails_verification() {
        let kp1 = keypair(5);
        let kp2 = keypair(6);
        let d = md5(b"doc");
        let sig = sign_digest(&kp1.private, &d);
        assert!(!verify_digest(&kp2.public, &d, &sig));
    }

    #[test]
    fn forged_signature_fails() {
        let kp = keypair(7);
        let d = md5(b"doc");
        let mut sig = sign_digest(&kp.private, &d);
        sig.0[2] ^= 1;
        assert!(!verify_digest(&kp.public, &d, &sig));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = keypair(8);
        let sig = sign_digest(&kp.private, &md5(b"x"));
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(back, sig);
        assert!(Signature::from_bytes(&[0u8; 31]).is_err());
    }

    #[test]
    fn distinct_keypairs() {
        assert_ne!(keypair(11).public, keypair(12).public);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(keypair(13), keypair(13));
    }
}
