//! Digital watermarks for data integrity (paper §6.1).
//!
//! When the proxy first fetches a document from the server it produces a
//! *digital watermark*: the MD5 digest of the document, encrypted with the
//! proxy's private key. The watermark travels with the document into browser
//! caches. When a peer later serves the document out of its browser cache,
//! the requesting client recomputes the MD5 digest and checks it against the
//! watermark decrypted with the proxy's **public** key. No client can tamper
//! with a document and forge a matching watermark, because only the proxy
//! knows its private key.

use crate::error::CryptoError;
use crate::md5::{md5, Digest};
use crate::rsa::{sign_digest, verify_digest, KeyPair, PublicKey, Signature};
use rand::Rng;

/// A watermark: signature over the document's MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// The signed signature blocks.
    pub signature: Signature,
}

impl Watermark {
    /// Serialises to 32 bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        self.signature.to_bytes()
    }

    /// Parses 32 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Watermark, CryptoError> {
        Ok(Watermark {
            signature: Signature::from_bytes(bytes)?,
        })
    }

    /// Renders as hex (for wire headers).
    pub fn to_hex(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(64);
        for b in self.to_bytes() {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        }
        out
    }

    /// Parses the hex form produced by [`Watermark::to_hex`].
    pub fn from_hex(s: &str) -> Result<Watermark, CryptoError> {
        let s = s.trim();
        if s.len() != 64 || !s.is_char_boundary(0) {
            return Err(CryptoError::MalformedSignature);
        }
        let mut bytes = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char)
                .to_digit(16)
                .ok_or(CryptoError::MalformedSignature)?;
            let lo = (chunk[1] as char)
                .to_digit(16)
                .ok_or(CryptoError::MalformedSignature)?;
            bytes[i] = ((hi << 4) | lo) as u8;
        }
        Watermark::from_bytes(&bytes)
    }
}

/// The proxy-side signer holding the key pair.
#[derive(Debug, Clone)]
pub struct ProxySigner {
    keys: KeyPair,
}

impl ProxySigner {
    /// Generates a signer with a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> ProxySigner {
        ProxySigner {
            keys: KeyPair::generate(rng),
        }
    }

    /// Wraps an existing key pair.
    pub fn from_keys(keys: KeyPair) -> ProxySigner {
        ProxySigner { keys }
    }

    /// The public key clients use for verification.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public
    }

    /// Produces the watermark for a document body: [`md5`] then
    /// [`ProxySigner::sign`].
    pub fn watermark(&self, document: &[u8]) -> Watermark {
        self.sign(&md5(document))
    }

    /// Signs a digest the caller already holds, so a body that was hashed
    /// for another purpose on this hop is not hashed again.
    pub fn sign(&self, digest: &Digest) -> Watermark {
        Watermark {
            signature: sign_digest(&self.keys.private, digest),
        }
    }
}

/// Client-side verification: recompute the digest ([`md5`]) and check the
/// signature against the proxy's public key ([`verify_hashed`]).
pub fn verify_document(
    proxy_key: &PublicKey,
    document: &[u8],
    watermark: &Watermark,
) -> Result<Digest, CryptoError> {
    let digest = md5(document);
    verify_hashed(proxy_key, &digest, watermark)?;
    Ok(digest)
}

/// Checks `watermark` against a digest the caller already holds. The
/// digest must have been computed from the very bytes about to be
/// trusted — this only spares hashing them a second time.
pub fn verify_hashed(
    proxy_key: &PublicKey,
    digest: &Digest,
    watermark: &Watermark,
) -> Result<(), CryptoError> {
    if verify_digest(proxy_key, digest, &watermark.signature) {
        Ok(())
    } else {
        Err(CryptoError::WatermarkMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signer() -> ProxySigner {
        ProxySigner::generate(&mut StdRng::seed_from_u64(21))
    }

    #[test]
    fn intact_document_verifies() {
        let s = signer();
        let doc = b"<html>cached page</html>";
        let wm = s.watermark(doc);
        let digest = verify_document(&s.public_key(), doc, &wm).unwrap();
        assert_eq!(digest, md5(doc));
    }

    #[test]
    fn tampered_document_rejected() {
        let s = signer();
        let wm = s.watermark(b"<html>cached page</html>");
        let err = verify_document(&s.public_key(), b"<html>evil page!</html>", &wm).unwrap_err();
        assert_eq!(err, CryptoError::WatermarkMismatch);
    }

    #[test]
    fn single_bit_flip_rejected() {
        let s = signer();
        let mut doc = b"payload bytes".to_vec();
        let wm = s.watermark(&doc);
        doc[5] ^= 0x01;
        assert!(verify_document(&s.public_key(), &doc, &wm).is_err());
    }

    #[test]
    fn peer_cannot_forge_watermark() {
        let proxy = signer();
        // A malicious client generates its own keys and signs a modified doc.
        let evil = ProxySigner::generate(&mut StdRng::seed_from_u64(99));
        let forged = evil.watermark(b"modified doc");
        // Verification against the *proxy's* public key must fail.
        assert!(verify_document(&proxy.public_key(), b"modified doc", &forged).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let s = signer();
        let wm = s.watermark(b"doc");
        let back = Watermark::from_hex(&wm.to_hex()).unwrap();
        assert_eq!(back, wm);
        assert!(Watermark::from_hex("zz").is_err());
        assert!(Watermark::from_hex(&"g".repeat(64)).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let s = signer();
        let wm = s.watermark(b"doc2");
        assert_eq!(Watermark::from_bytes(&wm.to_bytes()).unwrap(), wm);
    }

    #[test]
    fn empty_document_watermarkable() {
        let s = signer();
        let wm = s.watermark(b"");
        assert!(verify_document(&s.public_key(), b"", &wm).is_ok());
        assert!(verify_document(&s.public_key(), b"x", &wm).is_err());
    }
}
