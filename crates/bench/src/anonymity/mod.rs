//! Communication-anonymity protocols (paper §6.2), modelled at protocol
//! level: no live component runs them, and `experiments security` times
//! them beside the §6.1 watermark the proxy does run.
//!
//! The browsers-aware proxy hides the identities of both the requesting
//! browser and the serving browser: a client always talks to the proxy, the
//! proxy contacts the target client and relays the content. The target never
//! learns who asked; the requester never learns who served. This module
//! models the protocol as explicit message types — none of the messages that
//! cross the proxy boundary carry a peer identity — plus the bookkeeping the
//! proxy keeps per transaction.
//!
//! Two modes are provided:
//!
//! * [`AnonymizingProxy`] — the paper's base design: the proxy relays
//!   plaintext documents (it is trusted with content anyway, being a cache).
//! * [`SecureRelay`] — the stronger variant sketched from the companion
//!   HP Labs report (Xu, Xiao, Zhang, HPL-2001-204): the proxy provisions a
//!   one-time session key per transaction, delivered to each endpoint under
//!   that endpoint's public key ([`encrypt_message`]); the document body
//!   transits the proxy only as XTEA ciphertext ([`XteaKey`]), so even the
//!   relay cannot read it while still keeping the endpoints mutually
//!   anonymous.

mod rsa;
mod xtea;

pub use rsa::{decrypt_message, encrypt_message};
pub use xtea::XteaKey;

use baps_crypto::{KeyPair, PublicKey, Watermark};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Failures raised by the anonymity protocol and its ciphers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnonymityError {
    /// A raw RSA block was not smaller than the modulus.
    BlockTooLarge,
    /// A ciphertext could not be parsed (wrong length, framing, or range).
    MalformedCiphertext,
    /// CBC padding was invalid after decryption (tampering or wrong key).
    BadPadding,
    /// A protocol message referenced an unknown transaction.
    UnknownTransaction,
}

impl fmt::Display for AnonymityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AnonymityError::BlockTooLarge => "RSA block not smaller than modulus",
            AnonymityError::MalformedCiphertext => "malformed ciphertext",
            AnonymityError::BadPadding => "bad CBC padding (tampering or wrong key)",
            AnonymityError::UnknownTransaction => "unknown anonymity transaction",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AnonymityError {}

/// Opaque peer identity, known only to the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeerId(pub u32);

/// Per-exchange transaction identifier (the only correlation token peers
/// ever see).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

/// Proxy → target: "serve this document". Carries **no requester identity**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOrder {
    /// Transaction token.
    pub txn: TxnId,
    /// The document URL to serve from the browser cache.
    pub url: String,
}

/// Target → proxy: the served document. Carries **no target identity**
/// beyond the transport connection the proxy already owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchReply {
    /// Transaction token.
    pub txn: TxnId,
    /// Document body (plaintext in base mode, ciphertext in secure mode).
    pub body: Vec<u8>,
    /// The proxy-issued integrity watermark stored with the document.
    pub watermark: Watermark,
}

/// Proxy → requester: the delivered document. Carries **no target identity**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Transaction token.
    pub txn: TxnId,
    /// Document body.
    pub body: Vec<u8>,
    /// Integrity watermark for client-side verification.
    pub watermark: Watermark,
}

/// The base anonymizing proxy: plaintext relay with identity indirection.
#[derive(Debug, Default)]
pub struct AnonymizingProxy {
    next_txn: u64,
    pending: HashMap<TxnId, PeerId>,
}

impl AnonymizingProxy {
    /// Creates an empty relay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight transactions.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Starts a transaction on behalf of `requester`; returns the order to
    /// forward to the chosen target. The requester's identity is recorded
    /// only in the proxy's private table.
    pub fn begin(&mut self, requester: PeerId, url: &str) -> FetchOrder {
        self.next_txn += 1;
        let txn = TxnId(self.next_txn);
        self.pending.insert(txn, requester);
        FetchOrder {
            txn,
            url: url.to_owned(),
        }
    }

    /// Completes a transaction with the target's reply; returns who to
    /// deliver to (known only to the proxy) and the identity-free delivery.
    pub fn complete(&mut self, reply: FetchReply) -> Result<(PeerId, Delivery), AnonymityError> {
        let requester = self
            .pending
            .remove(&reply.txn)
            .ok_or(AnonymityError::UnknownTransaction)?;
        Ok((
            requester,
            Delivery {
                txn: reply.txn,
                body: reply.body,
                watermark: reply.watermark,
            },
        ))
    }

    /// Drops a transaction (e.g. target no longer holds the document).
    pub fn abort(&mut self, txn: TxnId) -> Result<PeerId, AnonymityError> {
        self.pending
            .remove(&txn)
            .ok_or(AnonymityError::UnknownTransaction)
    }
}

/// A fetch order whose session key is sealed for the target's public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedOrder {
    /// The identity-free order.
    pub order: FetchOrder,
    /// One-time XTEA session key, RSA-encrypted for the target.
    pub sealed_key: Vec<u64>,
}

/// A delivery whose session key is sealed for the requester's public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedDelivery {
    /// The identity-free delivery (body is ciphertext).
    pub delivery: Delivery,
    /// One-time XTEA session key, RSA-encrypted for the requester.
    pub sealed_key: Vec<u64>,
}

/// The content-blind relay: mutual anonymity plus content privacy.
#[derive(Debug, Default)]
pub struct SecureRelay {
    next_txn: u64,
    pending: HashMap<TxnId, (PeerId, XteaKey)>,
}

impl SecureRelay {
    /// Creates an empty relay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a secure transaction: mints a one-time session key, seals it
    /// for the target, and remembers (requester, key) privately.
    pub fn begin<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        requester: PeerId,
        target_key: &PublicKey,
        url: &str,
    ) -> Result<SealedOrder, AnonymityError> {
        self.next_txn += 1;
        let txn = TxnId(self.next_txn);
        let session = XteaKey::generate(rng);
        let mut key_bytes = [0u8; 16];
        for (i, w) in session.0.iter().enumerate() {
            key_bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let sealed_key = encrypt_message(target_key, &key_bytes)?;
        self.pending.insert(txn, (requester, session));
        Ok(SealedOrder {
            order: FetchOrder {
                txn,
                url: url.to_owned(),
            },
            sealed_key,
        })
    }

    /// Relays the (encrypted) reply to the requester, re-sealing the session
    /// key for the requester's public key. The body is **not** decrypted.
    pub fn complete(
        &mut self,
        reply: FetchReply,
        requester_key: &PublicKey,
    ) -> Result<(PeerId, SealedDelivery), AnonymityError> {
        let (requester, session) = self
            .pending
            .remove(&reply.txn)
            .ok_or(AnonymityError::UnknownTransaction)?;
        let mut key_bytes = [0u8; 16];
        for (i, w) in session.0.iter().enumerate() {
            key_bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let sealed_key = encrypt_message(requester_key, &key_bytes)?;
        Ok((
            requester,
            SealedDelivery {
                delivery: Delivery {
                    txn: reply.txn,
                    body: reply.body,
                    watermark: reply.watermark,
                },
                sealed_key,
            },
        ))
    }
}

/// Target-side helper: unseal the session key and encrypt the document body.
pub fn target_serve<R: Rng + ?Sized>(
    rng: &mut R,
    target_keys: &KeyPair,
    order: &SealedOrder,
    document: &[u8],
    watermark: Watermark,
) -> Result<FetchReply, AnonymityError> {
    let key_bytes = decrypt_message(&target_keys.private, &order.sealed_key)?;
    let key_arr: [u8; 16] = key_bytes
        .try_into()
        .map_err(|_| AnonymityError::MalformedCiphertext)?;
    let session = XteaKey::from_bytes(&key_arr);
    Ok(FetchReply {
        txn: order.order.txn,
        body: session.encrypt_cbc(rng, document),
        watermark,
    })
}

/// Requester-side helper: unseal the session key and decrypt the body.
pub fn requester_open(
    requester_keys: &KeyPair,
    delivery: &SealedDelivery,
) -> Result<Vec<u8>, AnonymityError> {
    let key_bytes = decrypt_message(&requester_keys.private, &delivery.sealed_key)?;
    let key_arr: [u8; 16] = key_bytes
        .try_into()
        .map_err(|_| AnonymityError::MalformedCiphertext)?;
    let session = XteaKey::from_bytes(&key_arr);
    session.decrypt_cbc(&delivery.delivery.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_crypto::{verify_document, ProxySigner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn display_is_informative() {
        assert!(AnonymityError::BadPadding.to_string().contains("padding"));
    }

    #[test]
    fn base_relay_roundtrip_hides_identities() {
        let mut proxy = AnonymizingProxy::new();
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(1));
        let doc = b"shared page".to_vec();
        let wm = signer.watermark(&doc);

        let order = proxy.begin(PeerId(7), "http://x/page");
        // The order the target sees has no requester identity: only txn+url.
        assert_eq!(order.url, "http://x/page");

        let reply = FetchReply {
            txn: order.txn,
            body: doc.clone(),
            watermark: wm,
        };
        let (deliver_to, delivery) = proxy.complete(reply).unwrap();
        assert_eq!(deliver_to, PeerId(7));
        assert_eq!(delivery.body, doc);
        assert!(verify_document(&signer.public_key(), &delivery.body, &delivery.watermark).is_ok());
        assert_eq!(proxy.pending(), 0);
    }

    #[test]
    fn unknown_txn_rejected() {
        let mut proxy = AnonymizingProxy::new();
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(2));
        let reply = FetchReply {
            txn: TxnId(999),
            body: vec![],
            watermark: signer.watermark(b""),
        };
        assert_eq!(
            proxy.complete(reply).unwrap_err(),
            AnonymityError::UnknownTransaction
        );
    }

    #[test]
    fn txn_single_use() {
        let mut proxy = AnonymizingProxy::new();
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(3));
        let order = proxy.begin(PeerId(1), "u");
        let mk_reply = || FetchReply {
            txn: order.txn,
            body: b"d".to_vec(),
            watermark: signer.watermark(b"d"),
        };
        proxy.complete(mk_reply()).unwrap();
        // Replays are rejected.
        assert!(proxy.complete(mk_reply()).is_err());
    }

    #[test]
    fn abort_releases_txn() {
        let mut proxy = AnonymizingProxy::new();
        let order = proxy.begin(PeerId(4), "u");
        assert_eq!(proxy.abort(order.txn).unwrap(), PeerId(4));
        assert!(proxy.abort(order.txn).is_err());
        assert_eq!(proxy.pending(), 0);
    }

    #[test]
    fn txn_ids_are_unique() {
        let mut proxy = AnonymizingProxy::new();
        let a = proxy.begin(PeerId(1), "u1");
        let b = proxy.begin(PeerId(2), "u2");
        assert_ne!(a.txn, b.txn);
        assert_eq!(proxy.pending(), 2);
    }

    #[test]
    fn secure_relay_end_to_end() {
        let mut rng = StdRng::seed_from_u64(10);
        let requester_keys = KeyPair::generate(&mut rng);
        let target_keys = KeyPair::generate(&mut rng);
        let signer = ProxySigner::generate(&mut rng);
        let doc = b"<html>private document body</html>".to_vec();
        let wm = signer.watermark(&doc);

        let mut relay = SecureRelay::new();
        let sealed = relay
            .begin(&mut rng, PeerId(3), &target_keys.public, "http://x/doc")
            .unwrap();

        // Target serves: the body leaving the target is ciphertext.
        let reply = target_serve(&mut rng, &target_keys, &sealed, &doc, wm).unwrap();
        assert_ne!(reply.body, doc, "body must not transit in plaintext");

        // Proxy relays without decrypting.
        let (deliver_to, delivery) = relay.complete(reply, &requester_keys.public).unwrap();
        assert_eq!(deliver_to, PeerId(3));
        assert_ne!(delivery.delivery.body, doc);

        // Requester opens and verifies integrity of the plaintext.
        let plain = requester_open(&requester_keys, &delivery).unwrap();
        assert_eq!(plain, doc);
        assert!(
            verify_document(&signer.public_key(), &plain, &delivery.delivery.watermark).is_ok()
        );
    }

    #[test]
    fn secure_relay_wrong_requester_key_cannot_open() {
        let mut rng = StdRng::seed_from_u64(11);
        let requester_keys = KeyPair::generate(&mut rng);
        let eavesdropper_keys = KeyPair::generate(&mut rng);
        let target_keys = KeyPair::generate(&mut rng);
        let signer = ProxySigner::generate(&mut rng);
        let doc = b"secret".to_vec();
        let wm = signer.watermark(&doc);

        let mut relay = SecureRelay::new();
        let sealed = relay
            .begin(&mut rng, PeerId(3), &target_keys.public, "u")
            .unwrap();
        let reply = target_serve(&mut rng, &target_keys, &sealed, &doc, wm).unwrap();
        let (_, delivery) = relay.complete(reply, &requester_keys.public).unwrap();

        match requester_open(&eavesdropper_keys, &delivery) {
            Err(_) => {}
            Ok(plain) => assert_ne!(plain, doc),
        }
    }

    #[test]
    fn secure_relay_unknown_txn() {
        let mut rng = StdRng::seed_from_u64(12);
        let keys = KeyPair::generate(&mut rng);
        let signer = ProxySigner::generate(&mut rng);
        let mut relay = SecureRelay::new();
        let reply = FetchReply {
            txn: TxnId(42),
            body: vec![],
            watermark: signer.watermark(b""),
        };
        assert_eq!(
            relay.complete(reply, &keys.public).unwrap_err(),
            AnonymityError::UnknownTransaction
        );
    }
}
