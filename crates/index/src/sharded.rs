//! Doc-sharded exact index: N independent [`ExactIndex`] shards routed by
//! a [`DocId`] hash.
//!
//! Every [`ExactIndex`] operation is keyed by document, so partitioning the
//! document space across shards preserves the exact semantics while letting
//! a concurrent caller (the live proxy wraps each shard in its own lock)
//! touch only one shard per operation. The routing function is a fixed
//! multiplicative hash so the shard assignment is deterministic across
//! runs and processes — the property tests and the proxy's per-shard
//! occupancy gauges rely on that.

use crate::exact::ExactIndex;
use crate::stats::IndexStats;
use baps_trace::{ClientId, DocId};

/// Default shard count used by the live proxy (see DESIGN.md for the
/// sizing argument).
pub const DEFAULT_SHARDS: usize = 16;

/// Deterministic shard routing: Fibonacci multiplicative hashing spreads
/// dense interner-assigned ids evenly instead of clustering neighbours.
pub fn shard_of(doc: DocId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (((doc.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n_shards
}

/// An [`ExactIndex`] partitioned into doc-keyed shards, observationally
/// equivalent to a single exact index.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<ExactIndex>,
}

impl ShardedIndex {
    /// Creates an empty index with `n_shards` shards (at least one).
    pub fn new(n_shards: usize) -> Self {
        ShardedIndex {
            shards: (0..n_shards.max(1)).map(|_| ExactIndex::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_mut(&mut self, doc: DocId) -> &mut ExactIndex {
        let i = shard_of(doc, self.shards.len());
        &mut self.shards[i]
    }

    /// Records that `client` now caches `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.shard_mut(doc).on_store(client, doc);
    }

    /// Records that `client` evicted `doc`.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.shard_mut(doc).on_evict(client, doc);
    }

    /// Preferred holder of `doc` other than `exclude` (most recent first).
    pub fn lookup(&mut self, doc: DocId, exclude: ClientId) -> Option<ClientId> {
        self.shard_mut(doc).lookup(doc, exclude)
    }

    /// All holders of `doc` other than `exclude`, most recent first.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.shard_mut(doc).lookup_all(doc, exclude)
    }

    /// Whether the index believes `client` caches `doc`.
    pub fn contains(&self, client: ClientId, doc: DocId) -> bool {
        self.shards[shard_of(doc, self.shards.len())].contains(client, doc)
    }

    /// Total (client, doc) entries across all shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(ExactIndex::entries).sum()
    }

    /// Per-shard entry counts (occupancy report).
    pub fn shard_entries(&self) -> Vec<u64> {
        self.shards.iter().map(ExactIndex::entries).collect()
    }

    /// Total distinct indexed documents across all shards (shards partition
    /// the doc space, so the sum is exact).
    pub fn distinct_docs(&self) -> usize {
        self.shards.iter().map(ExactIndex::distinct_docs).sum()
    }

    /// Estimated memory footprint (paper §5 accounting).
    pub fn memory_bytes(&self) -> u64 {
        self.shards.iter().map(ExactIndex::memory_bytes).sum()
    }

    /// Access statistics merged across shards.
    pub fn stats(&self) -> IndexStats {
        let mut out = IndexStats::default();
        for shard in &self.shards {
            out.merge(&shard.stats());
        }
        out
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

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 16] {
            for id in 0..1000 {
                let s = shard_of(d(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(d(id), n), "stable per (doc, n)");
            }
        }
    }

    #[test]
    fn dense_ids_spread_across_shards() {
        let n = 16;
        let mut hist = vec![0u32; n];
        for id in 0..160 {
            hist[shard_of(d(id), n)] += 1;
        }
        let occupied = hist.iter().filter(|&&h| h > 0).count();
        assert!(occupied >= n / 2, "dense ids clustered: {hist:?}");
    }

    #[test]
    fn behaves_like_exact_index() {
        let mut sharded = ShardedIndex::new(4);
        let mut exact = ExactIndex::new();
        for i in 0..64 {
            sharded.on_store(c(i % 5), d(i % 13));
            exact.on_store(c(i % 5), d(i % 13));
        }
        for i in 0..16 {
            sharded.on_evict(c(i % 5), d(i % 13));
            exact.on_evict(c(i % 5), d(i % 13));
        }
        assert_eq!(sharded.entries(), exact.entries());
        assert_eq!(sharded.distinct_docs(), exact.distinct_docs());
        assert_eq!(sharded.memory_bytes(), exact.memory_bytes());
        for doc in 0..13 {
            assert_eq!(
                sharded.lookup_all(d(doc), c(99)),
                exact.lookup_all(d(doc), c(99))
            );
        }
    }

    #[test]
    fn shard_entries_sum_to_total() {
        let mut idx = ShardedIndex::new(8);
        for i in 0..100 {
            idx.on_store(c(i % 7), d(i));
        }
        assert_eq!(idx.shard_entries().iter().sum::<u64>(), idx.entries());
        assert_eq!(idx.shard_entries().len(), 8);
    }

    #[test]
    fn single_shard_is_plain_exact() {
        let mut idx = ShardedIndex::new(1);
        idx.on_store(c(0), d(7));
        idx.on_store(c(1), d(7));
        assert_eq!(idx.lookup(d(7), c(9)), Some(c(1)));
        assert_eq!(idx.n_shards(), 1);
    }
}
