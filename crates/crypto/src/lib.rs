//! # baps-crypto — integrity and anonymity protocols for BAPS
//!
//! Implements the reliability layer of the paper's §6:
//!
//! * [`mod@md5`] — MD5 per RFC 1321 (the paper's digest for URL signatures and
//!   watermarks), implemented from scratch with RFC test vectors, and
//!   [`document_digest`], the sixteen-lane MD5 tree a body is hashed by;
//! * [`mod@crc32c`] — CRC32C (RFC 3720), the disk tier's at-rest check;
//! * [`rsa`] — textbook RSA over 64-bit moduli with deterministic
//!   Miller–Rabin key generation ([`prime`]);
//! * [`xtea`] — XTEA-CBC standing in for DES as the symmetric cipher;
//! * [`watermark`] — the §6.1 digital-watermark data-integrity protocol;
//! * [`anonymity`] — the §6.2 anonymizing-proxy protocol plus a
//!   content-blind secure relay variant.
//!
//! **Security disclaimer**: every primitive here is demonstration-grade,
//! sized to reproduce the *protocols* and their overhead ordering without
//! depending on crates outside the approved offline set. A 64-bit RSA
//! modulus offers no real security; MD5 is broken. Do not reuse this code
//! outside the reproduction.

#![warn(missing_docs)]

pub mod anonymity;
pub mod crc32c;
pub mod error;
pub mod md5;
pub mod prime;
pub mod rsa;
pub mod watermark;
pub mod xtea;

pub use anonymity::{
    requester_open, target_serve, AnonymizingProxy, Delivery, FetchOrder, FetchReply, PeerId,
    SealedDelivery, SealedOrder, SecureRelay, TxnId,
};
pub use crc32c::{crc32c, Crc32c};
pub use error::CryptoError;
pub use md5::{document_digest, md5, Digest};
pub use rsa::{
    decrypt_message, encrypt_message, sign_digest, verify_digest, KeyPair, PrivateKey, PublicKey,
    Signature,
};
pub use watermark::{verify_document, verify_hashed, ProxySigner, Watermark};
pub use xtea::XteaKey;
