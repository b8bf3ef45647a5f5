//! Bloom-filter cache summaries (Summary-Cache style).
//!
//! Instead of an exact per-URL directory, the proxy can hold one Bloom
//! filter per client, rebuilt whenever a threshold fraction of that client's
//! cache has changed. This shrinks the index by an order of magnitude
//! (paper §5: "a storage of 2 MB is sufficient for the browsers with a
//! tolerant inaccuracy") at the cost of false positives — remote probes to
//! clients that do not actually hold the document — and staleness between
//! rebuilds.

use super::bloom::BloomFilter;
use baps_core::{ClientId, DocId};
use baps_index::IndexStats;
use std::collections::HashSet;

/// Configuration of the summary index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryConfig {
    /// Bits per cached document in each client's filter (8–16 typical).
    pub bits_per_item: u64,
    /// Number of hash functions.
    pub hashes: u32,
    /// Rebuild a client's filter when this fraction of its cache changed.
    pub rebuild_threshold: f64,
    /// Expected documents per client (initial filter sizing).
    pub expected_items: u64,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig {
            bits_per_item: 10,
            hashes: 4,
            rebuild_threshold: 0.05,
            expected_items: 1024,
        }
    }
}

#[derive(Debug, Clone)]
struct ClientSummary {
    /// Ground-truth cache contents.
    actual: HashSet<DocId>,
    /// The published (possibly stale) filter.
    filter: BloomFilter,
    /// Changes since the last rebuild.
    dirty: u64,
}

/// A per-client Bloom-summary browser index.
#[derive(Debug, Clone)]
pub struct BloomSummaryIndex {
    clients: Vec<ClientSummary>,
    config: SummaryConfig,
    stats: IndexStats,
}

impl BloomSummaryIndex {
    /// Creates summaries for `n_clients` clients.
    pub fn new(n_clients: u32, config: SummaryConfig) -> Self {
        assert!(config.rebuild_threshold > 0.0);
        let mk = || ClientSummary {
            actual: HashSet::new(),
            filter: BloomFilter::for_items(
                config.expected_items,
                config.bits_per_item,
                config.hashes,
            ),
            dirty: 0,
        };
        BloomSummaryIndex {
            clients: (0..n_clients).map(|_| mk()).collect(),
            config,
            stats: IndexStats::default(),
        }
    }

    /// Records that `client` cached `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        if state.actual.insert(doc) {
            state.dirty += 1;
        }
        self.maybe_rebuild(client);
    }

    /// Records that `client` evicted `doc`.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        if state.actual.remove(&doc) {
            state.dirty += 1;
        }
        self.maybe_rebuild(client);
    }

    fn maybe_rebuild(&mut self, client: ClientId) {
        let state = &self.clients[client.index()];
        let threshold =
            ((state.actual.len().max(16) as f64) * self.config.rebuild_threshold).ceil() as u64;
        if state.dirty >= threshold.max(1) {
            self.rebuild(client);
        }
    }

    /// Rebuilds (and "transmits") a client's filter from its true contents.
    pub fn rebuild(&mut self, client: ClientId) {
        let config = self.config;
        let state = &mut self.clients[client.index()];
        // Re-size for the current population to keep the FP rate stable.
        state.filter = BloomFilter::for_items(
            (state.actual.len() as u64).max(config.expected_items / 4),
            config.bits_per_item,
            config.hashes,
        );
        for &doc in &state.actual {
            state.filter.insert(doc);
        }
        state.dirty = 0;
        self.stats.flushes += 1;
        self.stats.messages += 1;
        self.stats.update_bytes += state.filter.byte_size();
    }

    /// Rebuilds every client's filter.
    pub fn rebuild_all(&mut self) {
        for i in 0..self.clients.len() {
            self.rebuild(ClientId(i as u32));
        }
    }

    /// All clients whose published filter claims `doc` (false positives and
    /// stale entries possible), excluding the requester.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.stats.lookups += 1;
        let found: Vec<ClientId> = self
            .clients
            .iter()
            .enumerate()
            .filter(|&(i, s)| ClientId(i as u32) != exclude && s.filter.contains(doc))
            .map(|(i, _)| ClientId(i as u32))
            .collect();
        if !found.is_empty() {
            self.stats.index_hits += 1;
        }
        found
    }

    /// First candidate holder (lowest client id), if any.
    pub fn lookup(&mut self, doc: DocId, exclude: ClientId) -> Option<ClientId> {
        self.lookup_all(doc, exclude).into_iter().next()
    }

    /// Ground truth: does the client's cache really hold the doc?
    pub fn actually_holds(&self, client: ClientId, doc: DocId) -> bool {
        self.clients[client.index()].actual.contains(&doc)
    }

    /// Total bytes of all published filters (the §5 space argument).
    pub fn memory_bytes(&self) -> u64 {
        self.clients.iter().map(|s| s.filter.byte_size()).sum()
    }

    /// Access statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ClientId {
        ClientId(i)
    }
    fn d(i: u32) -> DocId {
        DocId(i)
    }

    fn eager() -> SummaryConfig {
        SummaryConfig {
            rebuild_threshold: 1e-9, // rebuild on every change
            ..Default::default()
        }
    }

    #[test]
    fn stored_docs_are_found() {
        let mut idx = BloomSummaryIndex::new(4, eager());
        idx.on_store(c(1), d(42));
        let holders = idx.lookup_all(d(42), c(0));
        assert!(holders.contains(&c(1)));
        assert!(!holders.contains(&c(0)));
    }

    #[test]
    fn requester_excluded() {
        let mut idx = BloomSummaryIndex::new(4, eager());
        idx.on_store(c(1), d(42));
        assert!(!idx.lookup_all(d(42), c(1)).contains(&c(1)));
    }

    #[test]
    fn eviction_visible_after_rebuild() {
        let mut idx = BloomSummaryIndex::new(2, eager());
        idx.on_store(c(0), d(1));
        idx.on_evict(c(0), d(1));
        assert!(!idx.actually_holds(c(0), d(1)));
        // Eager rebuild means the published filter is already clean.
        assert!(idx.lookup_all(d(1), c(1)).is_empty());
    }

    #[test]
    fn lazy_threshold_leaves_staleness() {
        let cfg = SummaryConfig {
            rebuild_threshold: 10.0, // effectively never
            ..Default::default()
        };
        let mut idx = BloomSummaryIndex::new(2, cfg);
        idx.on_store(c(0), d(1));
        // Never rebuilt: the published (empty) filter misses the doc.
        assert!(idx.lookup_all(d(1), c(1)).is_empty());
        idx.rebuild(c(0));
        assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)]);
    }

    #[test]
    fn rebuild_traffic_accounted() {
        let mut idx = BloomSummaryIndex::new(2, eager());
        idx.on_store(c(0), d(1));
        let s = idx.stats();
        assert!(s.flushes >= 1);
        assert!(s.update_bytes > 0);
    }

    #[test]
    fn memory_is_compact_relative_to_exact() {
        let mut idx = BloomSummaryIndex::new(1, SummaryConfig::default());
        for i in 0..1024 {
            idx.on_store(c(0), d(i));
        }
        idx.rebuild_all();
        // 10 bits/doc ≈ 1.25 B/doc vs 28 B/doc exact: > 10x smaller.
        let exact_bytes = 1024 * baps_index::BYTES_PER_ENTRY;
        assert!(idx.memory_bytes() * 10 < exact_bytes * 2);
    }

    #[test]
    fn no_false_negatives_after_rebuild() {
        let mut idx = BloomSummaryIndex::new(2, eager());
        for i in 0..500 {
            idx.on_store(c(0), d(i));
        }
        idx.rebuild_all();
        for i in 0..500 {
            assert!(
                idx.lookup_all(d(i), c(1)).contains(&c(0)),
                "false negative {i}"
            );
        }
    }
}
