//! Round-trip properties of the anonymity protocol's ciphers, over 64
//! seeded random cases each.

use baps_bench::anonymity::{decrypt_message, encrypt_message, XteaKey};
use baps_crypto::KeyPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen()).collect()
}

/// RSA message encryption round-trips for arbitrary payloads.
#[test]
fn rsa_message_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let kp = KeyPair::generate(&mut rng);
        let msg = bytes(&mut rng, 256);
        let ct = encrypt_message(&kp.public, &msg).unwrap();
        let pt = decrypt_message(&kp.private, &ct).unwrap();
        assert_eq!(pt, msg, "case {case}");
    }
}

/// XTEA-CBC round-trips for arbitrary payloads and keys.
#[test]
fn xtea_cbc_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let k = XteaKey([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
        let msg = bytes(&mut rng, 1024);
        let ct = k.encrypt_cbc(&mut rng, &msg);
        assert_eq!(k.decrypt_cbc(&ct).unwrap(), msg, "case {case}");
    }
}
