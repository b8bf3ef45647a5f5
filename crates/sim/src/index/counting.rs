//! Counting-Bloom summaries with incremental delta updates.
//!
//! Summary Cache's counting Bloom filter supports *removal*, so instead of
//! periodically rebuilding each client's summary (as
//! [`BloomSummaryIndex`](super::BloomSummaryIndex) does), the proxy-side
//! filter can be patched incrementally: each batched update message carries
//! the insert / delete keys since the last flush (16-byte signatures), and
//! the proxy applies them to its counting filter. Update traffic scales with
//! churn rather than cache size, trading away the rebuild's self-cleaning.

use super::bloom::CountingBloom;
use baps_core::{ClientId, DocId, IndexStats};
use std::collections::HashSet;

/// Bytes per delta entry in an update message (MD5 signature + op flag).
const DELTA_ENTRY_BYTES: u64 = 17;

/// Configuration of the counting-Bloom index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountingConfig {
    /// Counters per client filter.
    pub slots: u64,
    /// Hash functions.
    pub hashes: u32,
    /// Flush a client's delta batch when it exceeds this fraction of its
    /// cached documents.
    pub flush_threshold: f64,
}

impl Default for CountingConfig {
    fn default() -> Self {
        CountingConfig {
            slots: 16_384,
            hashes: 4,
            flush_threshold: 0.05,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delta {
    Insert(DocId),
    Remove(DocId),
}

#[derive(Debug, Clone)]
struct ClientFilter {
    /// Ground truth contents.
    actual: HashSet<DocId>,
    /// Proxy-side (published) counting filter.
    published: CountingBloom,
    /// Deltas not yet flushed to the proxy.
    pending: Vec<Delta>,
}

/// A per-client counting-Bloom browser index with delta updates.
#[derive(Debug, Clone)]
pub struct CountingBloomIndex {
    clients: Vec<ClientFilter>,
    config: CountingConfig,
    stats: IndexStats,
}

impl CountingBloomIndex {
    /// Creates filters for `n_clients` clients.
    pub fn new(n_clients: u32, config: CountingConfig) -> Self {
        assert!(config.flush_threshold > 0.0);
        CountingBloomIndex {
            clients: (0..n_clients)
                .map(|_| ClientFilter {
                    actual: HashSet::new(),
                    published: CountingBloom::new(config.slots, config.hashes),
                    pending: Vec::new(),
                })
                .collect(),
            config,
            stats: IndexStats::default(),
        }
    }

    /// Records that `client` cached `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        if state.actual.insert(doc) {
            state.pending.push(Delta::Insert(doc));
        }
        self.maybe_flush(client);
    }

    /// Records that `client` evicted `doc`.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        if state.actual.remove(&doc) {
            state.pending.push(Delta::Remove(doc));
        }
        self.maybe_flush(client);
    }

    fn maybe_flush(&mut self, client: ClientId) {
        let state = &self.clients[client.index()];
        let threshold =
            ((state.actual.len().max(16) as f64) * self.config.flush_threshold).ceil() as usize;
        if state.pending.len() >= threshold.max(1) {
            self.flush(client);
        }
    }

    /// Transmits and applies a client's pending deltas.
    pub fn flush(&mut self, client: ClientId) {
        let state = &mut self.clients[client.index()];
        if state.pending.is_empty() {
            return;
        }
        let deltas = std::mem::take(&mut state.pending);
        self.stats.flushes += 1;
        self.stats.messages += 1;
        self.stats.update_bytes += deltas.len() as u64 * DELTA_ENTRY_BYTES;
        for delta in deltas {
            match delta {
                Delta::Insert(doc) => state.published.insert(doc),
                Delta::Remove(doc) => state.published.remove(doc),
            }
        }
    }

    /// Flushes every client.
    pub fn flush_all(&mut self) {
        for i in 0..self.clients.len() {
            self.flush(ClientId(i as u32));
        }
    }

    /// All clients whose published filter claims `doc` (false positives and
    /// staleness possible), excluding the requester.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.stats.lookups += 1;
        let found: Vec<ClientId> = self
            .clients
            .iter()
            .enumerate()
            .filter(|&(i, s)| ClientId(i as u32) != exclude && s.published.contains(doc))
            .map(|(i, _)| ClientId(i as u32))
            .collect();
        if !found.is_empty() {
            self.stats.index_hits += 1;
        }
        found
    }

    /// Ground truth.
    pub fn actually_holds(&self, client: ClientId, doc: DocId) -> bool {
        self.clients[client.index()].actual.contains(&doc)
    }

    /// Proxy-side filter memory (1 byte per counter).
    pub fn memory_bytes(&self) -> u64 {
        self.clients.iter().map(|s| s.published.byte_size()).sum()
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

    fn eager() -> CountingConfig {
        CountingConfig {
            flush_threshold: 1e-9,
            ..Default::default()
        }
    }

    #[test]
    fn store_then_found_after_flush() {
        let mut idx = CountingBloomIndex::new(3, eager());
        idx.on_store(c(1), d(5));
        assert!(idx.lookup_all(d(5), c(0)).contains(&c(1)));
        assert!(!idx.lookup_all(d(5), c(1)).contains(&c(1)));
    }

    #[test]
    fn evict_removes_after_flush() {
        let mut idx = CountingBloomIndex::new(2, eager());
        idx.on_store(c(0), d(1));
        idx.on_evict(c(0), d(1));
        assert!(idx.lookup_all(d(1), c(1)).is_empty());
        assert!(!idx.actually_holds(c(0), d(1)));
    }

    #[test]
    fn lazy_deltas_stay_pending() {
        let cfg = CountingConfig {
            flush_threshold: 10.0,
            ..Default::default()
        };
        let mut idx = CountingBloomIndex::new(2, cfg);
        idx.on_store(c(0), d(1));
        assert!(idx.lookup_all(d(1), c(1)).is_empty(), "not yet flushed");
        idx.flush_all();
        assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)]);
    }

    #[test]
    fn delta_traffic_scales_with_churn_not_size() {
        let mut idx = CountingBloomIndex::new(1, eager());
        for i in 0..1000 {
            idx.on_store(c(0), d(i));
        }
        let after_build = idx.stats().update_bytes;
        // One more churn event costs one delta, not a rebuild.
        idx.on_evict(c(0), d(0));
        let churn_cost = idx.stats().update_bytes - after_build;
        assert_eq!(churn_cost, DELTA_ENTRY_BYTES);
        // Compare: a rebuild-style summary would resend the whole filter.
        assert!(churn_cost < idx.memory_bytes() / 10);
    }

    #[test]
    fn no_false_negatives_under_churn() {
        let mut idx = CountingBloomIndex::new(2, eager());
        for i in 0..500 {
            idx.on_store(c(0), d(i));
        }
        for i in 0..250 {
            idx.on_evict(c(0), d(i));
        }
        for i in 250..500 {
            assert!(
                idx.lookup_all(d(i), c(1)).contains(&c(0)),
                "false negative at {i}"
            );
        }
    }

    #[test]
    fn duplicate_store_is_one_delta() {
        let mut idx = CountingBloomIndex::new(1, eager());
        idx.on_store(c(0), d(1));
        let bytes = idx.stats().update_bytes;
        idx.on_store(c(0), d(1)); // already present: no delta
        assert_eq!(idx.stats().update_bytes, bytes);
    }
}
