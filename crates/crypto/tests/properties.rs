//! Property-based tests of the crypto layer.

use baps_crypto::{
    decrypt_message, document_digest, encrypt_message, md5, sign_digest, verify_digest, KeyPair,
    ProxySigner, Watermark, XteaKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// RSA message encryption round-trips for arbitrary payloads.
    #[test]
    fn rsa_message_roundtrip(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
        let ct = encrypt_message(&kp.public, &msg).unwrap();
        let pt = decrypt_message(&kp.private, &ct).unwrap();
        prop_assert_eq!(pt, msg);
    }

    /// Signatures verify iff the digest is unchanged.
    #[test]
    fn signature_soundness(
        seed in any::<u64>(),
        doc in proptest::collection::vec(any::<u8>(), 0..512),
        flip in any::<u8>(),
    ) {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
        let d = md5(&doc);
        let sig = sign_digest(&kp.private, &d);
        prop_assert!(verify_digest(&kp.public, &d, &sig));
        // Any single-byte change to the doc changes the digest -> rejection.
        let mut tampered = doc.clone();
        if tampered.is_empty() {
            tampered.push(flip);
        } else {
            let idx = flip as usize % tampered.len();
            tampered[idx] = tampered[idx].wrapping_add(1);
        }
        let d2 = md5(&tampered);
        prop_assert!(d2 != d);
        prop_assert!(!verify_digest(&kp.public, &d2, &sig));
    }

    /// XTEA-CBC round-trips for arbitrary payloads and keys.
    #[test]
    fn xtea_cbc_roundtrip(
        key in any::<[u32; 4]>(),
        rng_seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let k = XteaKey(key);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let ct = k.encrypt_cbc(&mut rng, &msg);
        prop_assert_eq!(k.decrypt_cbc(&ct).unwrap(), msg);
    }

    /// Watermarks verify intact documents and reject any corruption.
    #[test]
    fn watermark_soundness(
        seed in any::<u64>(),
        doc in proptest::collection::vec(any::<u8>(), 1..512),
        idx in any::<usize>(),
    ) {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(seed));
        let wm = signer.watermark(&doc);
        prop_assert!(baps_crypto::verify_document(&signer.public_key(), &doc, &wm).is_ok());
        let mut bad = doc.clone();
        let i = idx % bad.len();
        bad[i] = bad[i].wrapping_add(1);
        prop_assert!(baps_crypto::verify_document(&signer.public_key(), &bad, &wm).is_err());
    }

    /// The digest-carrying API is the document API with the hash lifted
    /// out: `watermark = sign ∘ document_digest`, and `verify_document`
    /// accepts exactly what `verify_hashed ∘ document_digest` accepts (same
    /// digest out, same refusals), for the right document, a different one,
    /// and a forged watermark. A watermark over the body's plain MD5 is
    /// refused: there is no legacy acceptance.
    #[test]
    fn digest_carrying_api_equals_document_api(
        seed in any::<u64>(),
        doc in proptest::collection::vec(any::<u8>(), 0..512),
        other in proptest::collection::vec(any::<u8>(), 0..512),
        sig_byte in 0usize..32,
    ) {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(seed));
        let key = signer.public_key();
        let wm = signer.watermark(&doc);
        prop_assert_eq!(wm, signer.sign(&document_digest(&doc)));

        let mut forged_bytes = wm.to_bytes();
        forged_bytes[sig_byte] ^= 1;
        let forged = Watermark::from_bytes(&forged_bytes).unwrap();
        for (body, mark) in [(&doc, &wm), (&other, &wm), (&doc, &forged)] {
            let digest = document_digest(body);
            prop_assert_eq!(
                baps_crypto::verify_document(&key, body, mark),
                baps_crypto::verify_hashed(&key, &digest, mark).map(|()| digest)
            );
        }
        prop_assert!(baps_crypto::verify_hashed(&key, &document_digest(&doc), &wm).is_ok());
        let legacy = signer.sign(&md5(&doc));
        prop_assert!(baps_crypto::verify_document(&key, &doc, &legacy).is_err());
    }

    /// Each edit a transfer or a forger could make moves the document
    /// digest: any byte flipped, one byte cut from or added to the end, and
    /// two unequal words in different lanes swapped (which keeps every
    /// byte of the body, only not in its lane).
    #[test]
    fn every_edit_moves_the_document_digest(
        doc in proptest::collection::vec(any::<u8>(), 8..3000),
        at in any::<usize>(),
        flip in 1u8..=255,
        extra in any::<u8>(),
        words in (any::<usize>(), 1usize..16),
    ) {
        let digest = document_digest(&doc);
        let mut flipped = doc.clone();
        flipped[at % doc.len()] ^= flip;
        prop_assert_ne!(document_digest(&flipped), digest);
        prop_assert_ne!(document_digest(&doc[..doc.len() - 1]), digest);
        let mut longer = doc.clone();
        longer.push(extra);
        prop_assert_ne!(document_digest(&longer), digest);

        // Word `i` sits in lane `i mod 16`.
        let whole = doc.len() / 4;
        let (i, k) = (words.0 % whole, (words.0 % whole + words.1) % whole);
        prop_assume!(k % 16 != i % 16);
        prop_assume!(doc[4 * i..4 * i + 4] != doc[4 * k..4 * k + 4]);
        let mut swapped = doc.clone();
        for b in 0..4 {
            swapped.swap(4 * i + b, 4 * k + b);
        }
        prop_assert_ne!(document_digest(&swapped), digest);
    }

    /// The full §6.1 tamper matrix: a flipped byte, a truncated body, and
    /// a forged (bit-flipped) watermark must each fail verification — a
    /// peer can never make wrong bytes verify.
    #[test]
    fn watermark_tamper_matrix(
        seed in any::<u64>(),
        doc in proptest::collection::vec(any::<u8>(), 2..512),
        idx in any::<usize>(),
        sig_byte in any::<usize>(),
        sig_bit in 0u32..8,
    ) {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(seed));
        let key = signer.public_key();
        let wm = signer.watermark(&doc);
        prop_assert!(baps_crypto::verify_document(&key, &doc, &wm).is_ok());

        // Flipped byte anywhere in the body.
        let mut flipped = doc.clone();
        let i = idx % flipped.len();
        flipped[i] ^= 0xff;
        prop_assert!(baps_crypto::verify_document(&key, &flipped, &wm).is_err());

        // Truncated body (a well-formed frame can still carry one).
        prop_assert!(baps_crypto::verify_document(&key, &doc[..doc.len() / 2], &wm).is_err());

        // Forged watermark: any single bit flipped in the signature. It
        // still parses as a watermark but must not verify the real bytes.
        let mut forged_bytes = wm.to_bytes();
        forged_bytes[sig_byte % 32] ^= 1u8 << sig_bit;
        let forged = Watermark::from_bytes(&forged_bytes).unwrap();
        prop_assert!(baps_crypto::verify_document(&key, &doc, &forged).is_err());

        // The forgery survives the hex wire encoding and is still caught.
        let rewired = Watermark::from_hex(&forged.to_hex()).unwrap();
        prop_assert!(baps_crypto::verify_document(&key, &doc, &rewired).is_err());
    }
}
