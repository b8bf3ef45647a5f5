//! Property-based tests of the crypto layer.

use baps_crypto::{
    decrypt_message, encrypt_message, md5, sign_digest, verify_digest, KeyPair, Md5, ProxySigner,
    Watermark, XteaKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Incremental MD5 over arbitrary chunkings equals one-shot MD5.
    #[test]
    fn md5_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        splits in proptest::collection::vec(0usize..2048, 0..8),
    ) {
        let oneshot = md5(&data);
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut ctx = Md5::new();
        for w in cuts.windows(2) {
            ctx.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(ctx.finalize(), oneshot);
    }

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
    /// out: `watermark = sign ∘ md5`, and `verify_document` accepts exactly
    /// what `verify_hashed ∘ md5` accepts (same digest out, same refusals),
    /// for the right document, a different one, and a forged watermark.
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
        prop_assert_eq!(wm, signer.sign(&md5(&doc)));

        let mut forged_bytes = wm.to_bytes();
        forged_bytes[sig_byte] ^= 1;
        let forged = Watermark::from_bytes(&forged_bytes).unwrap();
        for (body, mark) in [(&doc, &wm), (&other, &wm), (&doc, &forged)] {
            let digest = md5(body);
            prop_assert_eq!(
                baps_crypto::verify_document(&key, body, mark),
                baps_crypto::verify_hashed(&key, &digest, mark).map(|()| digest)
            );
        }
        prop_assert!(baps_crypto::verify_hashed(&key, &md5(&doc), &wm).is_ok());
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
