//! Document bodies: the origin's corpus and the byte-budgeted body caches
//! used by the live proxy and client agents.

use crate::protocol::Body;
use baps_core::ByteLru;
use baps_crypto::{document_digest, Digest, Watermark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// The origin server's document corpus. Bodies are shared [`Body`] values
/// so serving a document is a refcount bump, not a copy. Each version is
/// hashed ([`document_digest`]) once, when it is stored: the digest is
/// what the origin declares with every `200` and compares an `If-Digest`
/// against, so serving never hashes (DESIGN.md §5).
#[derive(Debug, Clone, Default)]
pub struct DocumentStore {
    docs: HashMap<String, (Body, Digest)>,
}

/// A document version as the store keeps it: the body and its digest,
/// minted here, once.
pub(crate) fn authored(body: impl Into<Body>) -> (Body, Digest) {
    let body = body.into();
    let digest = document_digest(&body);
    (body, digest)
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a document.
    pub fn insert(&mut self, url: impl Into<String>, body: impl Into<Body>) {
        self.docs.insert(url.into(), authored(body));
    }

    /// Fetches a document body.
    pub fn get(&self, url: &str) -> Option<&[u8]> {
        self.docs.get(url).map(|(b, _)| &b[..])
    }

    /// Fetches a document body as a shared handle (no copy) with the
    /// digest minted when that version was stored.
    pub fn get_shared(&self, url: &str) -> Option<(Body, Digest)> {
        self.docs.get(url).cloned()
    }

    /// Mutates a document in place (tests document-change behaviour).
    pub fn mutate(&mut self, url: &str, body: impl Into<Body>) -> bool {
        self.replace(url, authored(body))
    }

    /// [`mutate`](Self::mutate) with the new version already [`authored`],
    /// so a caller holding the store behind a lock hashes outside it.
    pub(crate) fn replace(&mut self, url: &str, version: (Body, Digest)) -> bool {
        match self.docs.get_mut(url) {
            Some(slot) => {
                *slot = version;
                true
            }
            None => false,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All URLs in unspecified order.
    pub fn urls(&self) -> impl Iterator<Item = &str> {
        self.docs.keys().map(String::as_str)
    }

    /// Generates `n` synthetic documents named `http://origin/doc/<i>` with
    /// deterministic pseudo-random bodies between `min_size` and `max_size`
    /// bytes.
    pub fn synthetic(n: usize, min_size: usize, max_size: usize, seed: u64) -> DocumentStore {
        assert!(min_size <= max_size && max_size > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = DocumentStore::new();
        for i in 0..n {
            let size = rng.gen_range(min_size..=max_size);
            let mut body = vec![0u8; size];
            rng.fill(body.as_mut_slice());
            store.insert(format!("http://origin/doc/{i}"), body);
        }
        store
    }
}

/// A cached document: its body plus the proxy-issued integrity watermark.
/// Cloning shares the body (refcount bump).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedDoc {
    /// Document body (shared, immutable).
    pub body: Body,
    /// §6.1 digital watermark.
    pub watermark: Watermark,
}

impl CachedDoc {
    /// The bytes this document charges against a cache budget. Every
    /// occupancy gauge — memory-tier LRU accounting, disk-tier accounting,
    /// the Prometheus byte gauges — funnels through this one definition so
    /// the gauges can never drift from each other or from the actual body
    /// bytes.
    pub fn byte_size(&self) -> u64 {
        self.body.len() as u64
    }
}

/// A [`BodyCache`]'s counters, the five `METRICS` exports as
/// `baps_cache_{hits,misses,inserts,evictions,evicted_bytes}_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Documents admitted.
    pub inserts: u64,
    /// Documents dropped to make room, or purged when an oversize update
    /// replaced them.
    pub evictions: u64,
    /// Body bytes those documents held.
    pub evicted_bytes: u64,
}

impl CacheCounters {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.evicted_bytes += other.evicted_bytes;
    }
}

/// Byte-budgeted LRU cache of document bodies, keyed by URL. A URL is
/// held exactly as long as its document: nothing outlives an eviction.
#[derive(Debug)]
pub struct BodyCache {
    lru: ByteLru<Arc<str>, CachedDoc>,
    stats: CacheCounters,
}

impl BodyCache {
    /// Creates a cache holding at most `capacity` body bytes.
    pub fn new(capacity: u64) -> Self {
        BodyCache {
            lru: ByteLru::new(capacity),
            stats: CacheCounters::default(),
        }
    }

    /// Looks up `url`, promoting it on a hit. Hits and misses are tallied
    /// (see [`BodyCache::stats`]).
    pub fn get(&mut self, url: &str) -> Option<&CachedDoc> {
        let found = self.lru.get(url);
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Inserts a document; returns the URLs evicted to make room, least
    /// recent first, each with the body bytes it held (a browser turns
    /// these into `Evicted:` notices). If the document is too large to
    /// admit and a stale copy was purged, the URL itself is included in
    /// the evicted list.
    pub fn insert(&mut self, url: &str, doc: CachedDoc) -> Vec<(Arc<str>, u64)> {
        let (held, used) = (self.lru.len(), self.lru.used());
        let out = self.lru.insert(url.into(), doc.byte_size(), doc);
        let mut evicted = out.evicted;
        if out.admitted {
            self.stats.inserts += 1;
        } else if self.lru.len() < held {
            // Rejected inserts evict nothing, so a shorter cache means the
            // stale copy went, and the bytes it freed were its size.
            evicted.push((url.into(), used - self.lru.used()));
        }
        self.stats.evictions += evicted.len() as u64;
        self.stats.evicted_bytes += evicted.iter().map(|(_, bytes)| bytes).sum::<u64>();
        evicted
    }

    /// Access/eviction counters accumulated since construction.
    pub fn stats(&self) -> &CacheCounters {
        &self.stats
    }

    /// Removes `url`; returns whether it was cached.
    pub fn remove(&mut self, url: &str) -> bool {
        self.lru.remove(url).is_some()
    }

    /// The most recent document but `url` ([`crate::TamperMode::Substitute`]).
    pub fn another(&mut self, url: &str) -> Option<&CachedDoc> {
        let other = Arc::clone(self.lru.iter_mru().map(|(u, _)| u).find(|u| &***u != url)?);
        self.lru.peek_mut(&other).map(|doc| &*doc)
    }

    /// Bytes stored.
    pub fn used(&self) -> u64 {
        self.lru.used()
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_crypto::ProxySigner;

    fn doc(signer: &ProxySigner, body: &[u8]) -> CachedDoc {
        CachedDoc {
            body: body.into(),
            watermark: signer.watermark(body),
        }
    }

    fn signer() -> ProxySigner {
        ProxySigner::generate(&mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn synthetic_store_deterministic() {
        let a = DocumentStore::synthetic(10, 100, 1000, 7);
        let b = DocumentStore::synthetic(10, 100, 1000, 7);
        assert_eq!(a.len(), 10);
        for url in a.urls() {
            assert_eq!(a.get(url), b.get(url));
            let len = a.get(url).unwrap().len();
            assert!((100..=1000).contains(&len));
        }
    }

    #[test]
    fn store_mutate() {
        let mut s = DocumentStore::synthetic(2, 10, 20, 1);
        assert!(s.mutate("http://origin/doc/0", vec![1, 2, 3]));
        assert_eq!(s.get("http://origin/doc/0"), Some(&[1u8, 2, 3][..]));
        assert!(!s.mutate("http://origin/doc/99", vec![]));
    }

    /// Every way a version enters the store leaves its digest beside it.
    #[test]
    fn stored_digest_is_the_document_digest_after_insert_synthetic_and_mutate() {
        let holds_its_digest = |s: &DocumentStore, url: &str| {
            let (body, digest) = s.get_shared(url).unwrap();
            assert_eq!(digest, document_digest(&body), "{url}");
        };
        let mut s = DocumentStore::synthetic(8, 1, 3000, 5);
        let urls: Vec<String> = s.urls().map(str::to_owned).collect();
        for url in &urls {
            holds_its_digest(&s, url);
        }
        s.insert("http://origin/new", b"inserted body".to_vec());
        holds_its_digest(&s, "http://origin/new");
        let before = s.get_shared(&urls[0]).unwrap().1;
        assert!(s.mutate(&urls[0], b"the next version".to_vec()));
        holds_its_digest(&s, &urls[0]);
        assert_ne!(s.get_shared(&urls[0]).unwrap().1, before);
    }

    #[test]
    fn body_cache_roundtrip() {
        let sg = signer();
        let mut c = BodyCache::new(1000);
        let d = doc(&sg, b"hello world");
        assert!(c.insert("http://a", d.clone()).is_empty());
        assert_eq!(c.get("http://a"), Some(&d));
        assert!(c.lru.contains("http://a"));
        assert_eq!(c.used(), 11);
        assert!(c.remove("http://a"));
        assert!(!c.remove("http://a"));
        assert!(c.get("http://a").is_none());
    }

    /// A cache hit hands back the same allocation that was inserted —
    /// cloning the `CachedDoc` bumps a refcount instead of copying bytes.
    #[test]
    fn cache_hit_shares_body_no_copy() {
        let sg = signer();
        let mut c = BodyCache::new(1000);
        let body: Body = Arc::from(&b"zero copy body"[..]);
        let d = CachedDoc {
            body: Arc::clone(&body),
            watermark: sg.watermark(&body),
        };
        c.insert("u", d);
        let hit = c.get("u").unwrap().clone();
        assert!(Arc::ptr_eq(&hit.body, &body));
        let again = c.get("u").unwrap().clone();
        assert!(Arc::ptr_eq(&again.body, &hit.body));
    }

    #[test]
    fn body_cache_evicts_lru_and_reports_urls() {
        let sg = signer();
        let mut c = BodyCache::new(25);
        c.insert("u1", doc(&sg, &[0u8; 10]));
        c.insert("u2", doc(&sg, &[0u8; 10]));
        c.get("u1"); // promote
        let evicted = c.insert("u3", doc(&sg, &[0u8; 10]));
        assert_eq!(evicted, vec![("u2".into(), 10)]);
        assert!(c.lru.contains("u1"));
        assert!(!c.lru.contains("u2"));
    }

    #[test]
    fn body_cache_stats_track_hits_misses_evictions() {
        let sg = signer();
        let mut c = BodyCache::new(25);
        assert!(c.get("u1").is_none()); // miss
        c.insert("u1", doc(&sg, &[0u8; 10]));
        c.insert("u2", doc(&sg, &[0u8; 10]));
        assert!(c.get("u1").is_some()); // hit
        c.insert("u3", doc(&sg, &[0u8; 10])); // evicts u2
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 10);
    }

    #[test]
    fn oversize_body_rejected() {
        let sg = signer();
        let mut c = BodyCache::new(5);
        let evicted = c.insert("big", doc(&sg, &[0u8; 10]));
        assert!(evicted.is_empty());
        assert!(!c.lru.contains("big"));
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn oversize_update_reports_the_purged_copy() {
        let sg = signer();
        let mut c = BodyCache::new(5);
        c.insert("u", doc(&sg, b"tiny"));
        let evicted = c.insert("u", doc(&sg, &[0u8; 10]));
        assert_eq!(evicted, vec![("u".into(), 4)]);
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evicted_bytes, 4);
    }

    /// A small cache that has seen many URLs holds only what its budget
    /// admits: every evicted body (and with it the entry's URL) is freed,
    /// not parked in a name table beside the LRU.
    #[test]
    fn cycling_many_urls_keeps_nothing_evicted() {
        let sg = signer();
        let watermark = sg.watermark(b"any");
        let mut c = BodyCache::new(1 << 10);
        let bodies: Vec<Body> = (0..10_000u32)
            .map(|i| {
                let body: Body = vec![i as u8; 100].into();
                c.insert(
                    &format!("http://origin/doc/{i}"),
                    CachedDoc {
                        body: Arc::clone(&body),
                        watermark,
                    },
                );
                body
            })
            .collect();
        assert_eq!((c.len(), c.used()), (10, 1000));
        let held = bodies.iter().filter(|b| Arc::strong_count(b) > 1).count();
        assert_eq!(held, c.len(), "only resident bodies are still shared");
        assert_eq!(c.stats().evictions, 10_000 - 10);
    }

    #[test]
    fn reinsert_replaces_body() {
        let sg = signer();
        let mut c = BodyCache::new(100);
        c.insert("u", doc(&sg, b"old"));
        c.insert("u", doc(&sg, b"newer body"));
        assert_eq!(&c.get("u").unwrap().body[..], b"newer body");
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 10);
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
