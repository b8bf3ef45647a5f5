//! Document bodies: the origin's corpus and the byte-budgeted body caches
//! used by the live proxy and client agents.

use crate::protocol::Body;
use baps_cache::{ByteLru, CacheStats, Tier};
use baps_crypto::Watermark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// The origin server's document corpus. Bodies are shared [`Body`] values
/// so serving a document is a refcount bump, not a copy.
#[derive(Debug, Clone, Default)]
pub struct DocumentStore {
    docs: HashMap<String, Body>,
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a document.
    pub fn insert(&mut self, url: impl Into<String>, body: impl Into<Body>) {
        self.docs.insert(url.into(), body.into());
    }

    /// Fetches a document body.
    pub fn get(&self, url: &str) -> Option<&[u8]> {
        self.docs.get(url).map(|b| &b[..])
    }

    /// Fetches a document body as a shared handle (no copy).
    pub fn get_shared(&self, url: &str) -> Option<Body> {
        self.docs.get(url).cloned()
    }

    /// Mutates a document in place (tests document-change behaviour).
    pub fn mutate(&mut self, url: &str, body: impl Into<Body>) -> bool {
        match self.docs.get_mut(url) {
            Some(slot) => {
                *slot = body.into();
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

/// Byte-budgeted LRU cache of document bodies, keyed by URL. A URL is
/// held exactly as long as its document: nothing outlives an eviction.
#[derive(Debug)]
pub struct BodyCache {
    lru: ByteLru<Arc<str>, CachedDoc>,
    stats: CacheStats,
}

impl BodyCache {
    /// Creates a cache holding at most `capacity` body bytes.
    pub fn new(capacity: u64) -> Self {
        BodyCache {
            lru: ByteLru::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Looks up `url`, promoting it on a hit. Hits and misses are tallied
    /// in the embedded [`CacheStats`] block (see [`BodyCache::stats`]).
    pub fn get(&mut self, url: &str) -> Option<&CachedDoc> {
        let found = self.lru.get(url);
        match found {
            Some(doc) => self.stats.record_hit(doc.byte_size(), Tier::Memory),
            None => self.stats.record_miss(0),
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
        self.stats.record_insert(&out.evicted);
        let mut evicted = out.evicted;
        // Rejected inserts evict nothing, so a shorter cache means the
        // stale copy went, and the bytes it freed were its size.
        if !out.admitted && self.lru.len() < held {
            self.stats.evictions += 1;
            evicted.push((url.into(), used - self.lru.used()));
        }
        evicted
    }

    /// Access/eviction counters accumulated since construction.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Removes `url`; returns whether it was cached.
    pub fn remove(&mut self, url: &str) -> bool {
        self.lru.remove(url).is_some()
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
        assert_eq!(s.hit_bytes, 10);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 10);
        assert_eq!(s.requests(), 2);
    }

    #[test]
    fn oversize_body_rejected() {
        let sg = signer();
        let mut c = BodyCache::new(5);
        let evicted = c.insert("big", doc(&sg, &[0u8; 10]));
        assert!(evicted.is_empty());
        assert!(!c.lru.contains("big"));
        assert!(c.is_empty());
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
