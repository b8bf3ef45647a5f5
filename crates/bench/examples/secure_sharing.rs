//! Reliability protocols walkthrough (paper §6): digital-watermark data
//! integrity and anonymous peer-to-peer document exchange — including the
//! content-blind secure relay where even the proxy never sees plaintext.
//!
//! ```sh
//! cargo run --release -p baps-bench --example secure_sharing
//! ```

use baps_bench::anonymity::{
    requester_open, target_serve, AnonymizingProxy, FetchReply, PeerId, SecureRelay,
};
use baps_crypto::{verify_document, KeyPair, ProxySigner};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2002);

    // --- §6.1: data integrity via digital watermarks. ---------------------
    let proxy_signer = ProxySigner::generate(&mut rng);
    let document = b"<html><body>A cached research paper</body></html>".to_vec();
    let watermark = proxy_signer.watermark(&document);
    println!("proxy issued watermark {}...", &watermark.to_hex()[..16]);

    // A peer serves the intact document: verification succeeds.
    verify_document(&proxy_signer.public_key(), &document, &watermark)
        .expect("intact document verifies");
    println!("intact document verified against the proxy's public key");

    // A malicious peer modifies one byte: verification fails, and the peer
    // cannot forge a watermark because it lacks the proxy's private key.
    let mut tampered = document.clone();
    tampered[10] ^= 0x01;
    let err = verify_document(&proxy_signer.public_key(), &tampered, &watermark).unwrap_err();
    println!("tampered document rejected: {err}");

    // --- §6.2: communication anonymity (base mode). -----------------------
    let mut relay = AnonymizingProxy::new();
    let order = relay.begin(PeerId(7), "http://site/page");
    println!(
        "\nanonymous exchange: target sees only txn #{} + URL {:?} (no requester id)",
        order.txn.0, order.url
    );
    let reply = FetchReply {
        txn: order.txn,
        body: document.clone(),
        watermark,
    };
    let (deliver_to, delivery) = relay.complete(reply).unwrap();
    println!(
        "proxy matched txn #{} back to requester {:?}; delivery carries no peer id",
        delivery.txn.0, deliver_to
    );

    // --- Content-blind secure relay (HPL-2001-204 variant). ---------------
    let requester_keys = KeyPair::generate(&mut rng);
    let target_keys = KeyPair::generate(&mut rng);
    let mut secure = SecureRelay::new();
    let sealed = secure
        .begin(&mut rng, PeerId(7), &target_keys.public, "http://site/page")
        .unwrap();
    let reply = target_serve(&mut rng, &target_keys, &sealed, &document, watermark).unwrap();
    assert_ne!(reply.body, document, "relay only ever sees ciphertext");
    println!(
        "\nsecure relay: body transits the proxy as {} ciphertext bytes",
        reply.body.len()
    );
    let (_, sealed_delivery) = secure.complete(reply, &requester_keys.public).unwrap();
    let plaintext = requester_open(&requester_keys, &sealed_delivery).unwrap();
    assert_eq!(plaintext, document);
    verify_document(
        &proxy_signer.public_key(),
        &plaintext,
        &sealed_delivery.delivery.watermark,
    )
    .expect("end-to-end integrity");
    println!(
        "requester decrypted {} bytes and verified the watermark end-to-end",
        plaintext.len()
    );
}
