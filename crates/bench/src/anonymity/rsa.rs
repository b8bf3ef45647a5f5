//! Textbook RSA encryption: how the secure relay seals a session key for
//! one browser.
//!
//! Built on `baps_crypto`'s key pairs, whose public `n`, `e` and `d` are
//! all a block needs. Like the keys it is demonstration-grade: a 64-bit
//! modulus and no padding.

use super::AnonymityError;
use baps_crypto::prime::pow_mod;
use baps_crypto::{PrivateKey, PublicKey};

/// Raw RSA on one block: `m^e mod n`. `m` must be `< n`.
fn encrypt_block(key: &PublicKey, m: u64) -> Result<u64, AnonymityError> {
    if m >= key.n {
        return Err(AnonymityError::BlockTooLarge);
    }
    Ok(pow_mod(m, key.e, key.n))
}

/// Raw RSA on one block: `c^d mod n`.
fn decrypt_block(key: &PrivateKey, c: u64) -> Result<u64, AnonymityError> {
    if c >= key.n {
        return Err(AnonymityError::BlockTooLarge);
    }
    Ok(pow_mod(c, key.d, key.n))
}

/// Encrypts an arbitrary byte message for `key` by chunking into 4-byte
/// blocks (length-prefixed, zero-padded). Output is one `u64` per block.
pub fn encrypt_message(key: &PublicKey, msg: &[u8]) -> Result<Vec<u64>, AnonymityError> {
    let mut framed = Vec::with_capacity(4 + msg.len());
    framed.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    framed.extend_from_slice(msg);
    while framed.len() % 4 != 0 {
        framed.push(0);
    }
    framed
        .chunks_exact(4)
        .map(|c| {
            let m = u32::from_le_bytes(c.try_into().expect("4 bytes")) as u64;
            encrypt_block(key, m)
        })
        .collect()
}

/// Decrypts a message produced by [`encrypt_message`].
pub fn decrypt_message(key: &PrivateKey, blocks: &[u64]) -> Result<Vec<u8>, AnonymityError> {
    let mut bytes = Vec::with_capacity(blocks.len() * 4);
    for &c in blocks {
        let m = decrypt_block(key, c)?;
        if m > u32::MAX as u64 {
            return Err(AnonymityError::MalformedCiphertext);
        }
        bytes.extend_from_slice(&(m as u32).to_le_bytes());
    }
    if bytes.len() < 4 {
        return Err(AnonymityError::MalformedCiphertext);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > bytes.len() - 4 {
        return Err(AnonymityError::MalformedCiphertext);
    }
    Ok(bytes[4..4 + len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn block_roundtrip() {
        let kp = keypair(1);
        for m in [0u64, 1, 42, u32::MAX as u64, (1u64 << 40) + 12345] {
            let c = encrypt_block(&kp.public, m).unwrap();
            assert_eq!(decrypt_block(&kp.private, c).unwrap(), m);
        }
    }

    #[test]
    fn block_too_large_rejected() {
        let kp = keypair(2);
        assert!(matches!(
            encrypt_block(&kp.public, kp.public.n),
            Err(AnonymityError::BlockTooLarge)
        ));
    }

    #[test]
    fn message_roundtrip_various_lengths() {
        let kp = keypair(9);
        for len in [0usize, 1, 3, 4, 5, 16, 255] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let ct = encrypt_message(&kp.public, &msg).unwrap();
            let pt = decrypt_message(&kp.private, &ct).unwrap();
            assert_eq!(pt, msg, "len {len}");
        }
    }

    #[test]
    fn decrypt_garbage_fails_gracefully() {
        let kp = keypair(10);
        assert!(decrypt_message(&kp.private, &[]).is_err());
    }
}
