//! XTEA block cipher with CBC mode and PKCS#7-style padding.
//!
//! The paper's anonymity protocol assumes a symmetric cipher (it names DES).
//! DES is obsolete and export-grade; XTEA (Wheeler & Needham, 1997) is a
//! contemporaneous 64-bit block cipher that is far simpler to implement
//! correctly, so it stands in for DES here. The substitution is documented
//! in DESIGN.md: the protocols only require *some* shared-key cipher with a
//! 64-bit block, and overhead comparisons are unaffected.

use super::AnonymityError;
use rand::Rng;

const ROUNDS: u32 = 32;
const DELTA: u32 = 0x9e37_79b9;

/// A 128-bit XTEA key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XteaKey(pub [u32; 4]);

impl XteaKey {
    /// Generates a random key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> XteaKey {
        XteaKey([rng.gen(), rng.gen(), rng.gen(), rng.gen()])
    }

    /// Builds a key from 16 bytes (little-endian words).
    pub fn from_bytes(bytes: &[u8; 16]) -> XteaKey {
        let mut words = [0u32; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        XteaKey(words)
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        let mut v0 = (block >> 32) as u32;
        let mut v1 = block as u32;
        let mut sum = 0u32;
        for _ in 0..ROUNDS {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.0[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(DELTA);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.0[((sum >> 11) & 3) as usize])),
            );
        }
        ((v0 as u64) << 32) | v1 as u64
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        let mut v0 = (block >> 32) as u32;
        let mut v1 = block as u32;
        let mut sum = DELTA.wrapping_mul(ROUNDS);
        for _ in 0..ROUNDS {
            v1 = v1.wrapping_sub(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.0[((sum >> 11) & 3) as usize])),
            );
            sum = sum.wrapping_sub(DELTA);
            v0 = v0.wrapping_sub(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.0[(sum & 3) as usize])),
            );
        }
        ((v0 as u64) << 32) | v1 as u64
    }

    /// CBC-encrypts `plaintext` with a random IV (prepended to the output).
    /// Padding is PKCS#7 over 8-byte blocks.
    pub fn encrypt_cbc<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let pad = 8 - (plaintext.len() % 8);
        let mut padded = Vec::with_capacity(plaintext.len() + pad);
        padded.extend_from_slice(plaintext);
        padded.extend(std::iter::repeat_n(pad as u8, pad));

        let iv: u64 = rng.gen();
        let mut out = Vec::with_capacity(8 + padded.len());
        out.extend_from_slice(&iv.to_le_bytes());
        let mut prev = iv;
        for chunk in padded.chunks_exact(8) {
            let block = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            let ct = self.encrypt_block(block ^ prev);
            out.extend_from_slice(&ct.to_le_bytes());
            prev = ct;
        }
        out
    }

    /// Decrypts a CBC ciphertext produced by [`XteaKey::encrypt_cbc`].
    pub fn decrypt_cbc(&self, ciphertext: &[u8]) -> Result<Vec<u8>, AnonymityError> {
        if ciphertext.len() < 16 || !ciphertext.len().is_multiple_of(8) {
            return Err(AnonymityError::MalformedCiphertext);
        }
        let mut prev = u64::from_le_bytes(ciphertext[..8].try_into().expect("8 bytes"));
        let mut out = Vec::with_capacity(ciphertext.len() - 8);
        for chunk in ciphertext[8..].chunks_exact(8) {
            let ct = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            let pt = self.decrypt_block(ct) ^ prev;
            out.extend_from_slice(&pt.to_le_bytes());
            prev = ct;
        }
        let pad = *out.last().expect("at least one block") as usize;
        if pad == 0 || pad > 8 || pad > out.len() {
            return Err(AnonymityError::BadPadding);
        }
        if out[out.len() - pad..].iter().any(|&b| b as usize != pad) {
            return Err(AnonymityError::BadPadding);
        }
        out.truncate(out.len() - pad);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn block_roundtrip() {
        let key = XteaKey([1, 2, 3, 4]);
        for block in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            assert_eq!(key.decrypt_block(key.encrypt_block(block)), block);
        }
    }

    #[test]
    fn known_vector() {
        // Widely cited XTEA vector: all-zero key, all-zero plaintext
        // encrypts to dee9d4d8 f7131ed9 with 32 cycles.
        let key = XteaKey([0, 0, 0, 0]);
        assert_eq!(key.encrypt_block(0), 0xdee9d4d8f7131ed9);
    }

    #[test]
    fn different_keys_differ() {
        let a = XteaKey([1, 2, 3, 4]);
        let b = XteaKey([1, 2, 3, 5]);
        assert_ne!(a.encrypt_block(42), b.encrypt_block(42));
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let key = XteaKey::generate(&mut rng());
        let mut r = rng();
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = key.encrypt_cbc(&mut r, &msg);
            assert_eq!(key.decrypt_cbc(&ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn cbc_same_plaintext_distinct_ciphertexts() {
        let key = XteaKey::generate(&mut rng());
        let mut r = rng();
        let a = key.encrypt_cbc(&mut r, b"hello world");
        let b = key.encrypt_cbc(&mut r, b"hello world");
        assert_ne!(a, b); // random IVs
        assert_eq!(key.decrypt_cbc(&a).unwrap(), key.decrypt_cbc(&b).unwrap());
    }

    #[test]
    fn cbc_tamper_detected_by_padding_or_garbage() {
        let key = XteaKey::generate(&mut rng());
        let mut r = rng();
        let mut ct = key.encrypt_cbc(&mut r, b"sensitive document body");
        let last = ct.len() - 1;
        ct[last] ^= 0xff;
        match key.decrypt_cbc(&ct) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"sensitive document body"),
        }
    }

    #[test]
    fn cbc_wrong_key_fails_or_garbles() {
        let key = XteaKey::generate(&mut rng());
        let other = XteaKey([9, 9, 9, 9]);
        let ct = key.encrypt_cbc(&mut rng(), b"payload");
        match other.decrypt_cbc(&ct) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"payload"),
        }
    }

    #[test]
    fn cbc_truncated_rejected() {
        let key = XteaKey::generate(&mut rng());
        let ct = key.encrypt_cbc(&mut rng(), b"abc");
        assert!(key.decrypt_cbc(&ct[..ct.len() - 3]).is_err());
        assert!(key.decrypt_cbc(&ct[..8]).is_err());
    }

    #[test]
    fn key_from_bytes() {
        let bytes: [u8; 16] = [
            0x03, 0x02, 0x01, 0x00, 0x07, 0x06, 0x05, 0x04, 0x0b, 0x0a, 0x09, 0x08, 0x0f, 0x0e,
            0x0d, 0x0c,
        ];
        assert_eq!(
            XteaKey::from_bytes(&bytes),
            XteaKey([0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f])
        );
    }
}
