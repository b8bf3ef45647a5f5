//! The browser index: a directory, kept at the proxy, of which documents
//! live in which client's browser cache (paper §2). [`ExactIndex`] is the
//! paper's base design, exact and invalidation-driven: the live proxy
//! stripes it across locks, and the simulator runs it as its base model.
//! The cheaper §5 models are simulator-only (`baps_sim::index`).
//!
//! The proxy learns about browser-cache contents from two event streams:
//! an index item is **added** when the proxy sends a document to a
//! browser, and **removed** when the browser sends an invalidation message
//! on eviction. With both streams applied synchronously the index mirrors
//! the union of all browser caches exactly.

use crate::ids::{ClientId, DocId};
use std::collections::HashMap;

/// Estimated bytes per index entry: a 16-byte MD5 URL signature plus a
/// client id and list overhead (paper §5 sizes the index this way).
pub const BYTES_PER_ENTRY: u64 = 16 + 4 + 8;

/// Counters accumulated by an index implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Lookup operations performed.
    pub lookups: u64,
    /// Lookups that returned at least one candidate holder.
    pub index_hits: u64,
    /// Update operations applied (stores + evictions).
    pub updates: u64,
    /// Update messages actually transmitted browser → proxy (delayed
    /// models batch several updates per message).
    pub messages: u64,
    /// Bytes of update traffic (16-byte signature per entry, paper §5).
    pub update_bytes: u64,
}

impl IndexStats {
    /// Fraction of lookups that found at least one candidate holder
    /// (0 when no lookups have happened).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.index_hits as f64 / self.lookups as f64
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &IndexStats) {
        self.lookups += other.lookups;
        self.index_hits += other.index_hits;
        self.updates += other.updates;
        self.messages += other.messages;
        self.update_bytes += other.update_bytes;
    }
}

/// Exact directory of which clients cache which documents.
#[derive(Debug, Clone, Default)]
pub struct ExactIndex {
    /// doc -> holders, most recently stored last.
    holders: HashMap<DocId, Vec<ClientId>>,
    /// Total number of (client, doc) entries.
    entries: u64,
    stats: IndexStats,
}

impl ExactIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `client` now caches `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        let list = self.holders.entry(doc).or_default();
        if let Some(pos) = list.iter().position(|&c| c == client) {
            // Refresh recency within the holder list.
            list.remove(pos);
        } else {
            self.entries += 1;
        }
        list.push(client);
        self.stats.updates += 1;
    }

    /// Records that `client` evicted `doc`. Returns whether an entry was
    /// actually removed — `false` means the notice was stale (already
    /// applied, or the index never held it), which lets callers treat
    /// replayed eviction notices idempotently.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) -> bool {
        let mut removed = false;
        if let Some(list) = self.holders.get_mut(&doc) {
            if let Some(pos) = list.iter().position(|&c| c == client) {
                list.remove(pos);
                self.entries -= 1;
                removed = true;
                if list.is_empty() {
                    self.holders.remove(&doc);
                }
            }
        }
        self.stats.updates += 1;
        removed
    }

    /// Returns the preferred holder of `doc` other than `exclude`
    /// (most recently stored first, so the copy is least likely stale).
    pub fn lookup(&mut self, doc: DocId, exclude: ClientId) -> Option<ClientId> {
        self.stats.lookups += 1;
        let found = self
            .holders
            .get(&doc)
            .and_then(|list| list.iter().rev().find(|&&c| c != exclude).copied());
        if found.is_some() {
            self.stats.index_hits += 1;
        }
        found
    }

    /// Returns all holders of `doc` other than `exclude`, most recent first.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.stats.lookups += 1;
        let found: Vec<ClientId> = self
            .holders
            .get(&doc)
            .map(|list| {
                list.iter()
                    .rev()
                    .filter(|&&c| c != exclude)
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        if !found.is_empty() {
            self.stats.index_hits += 1;
        }
        found
    }

    /// Whether the index believes `client` caches `doc` (no stats effects).
    pub fn contains(&self, client: ClientId, doc: DocId) -> bool {
        self.holders
            .get(&doc)
            .is_some_and(|list| list.contains(&client))
    }

    /// Number of (client, doc) entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Estimated memory footprint of the index (paper §5 accounting).
    pub fn memory_bytes(&self) -> u64 {
        self.entries * BYTES_PER_ENTRY
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

    #[test]
    fn store_and_lookup() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        assert_eq!(idx.lookup(d(7), c(1)), Some(c(0)));
        assert_eq!(idx.lookup(d(7), c(0)), None, "requester excluded");
        assert_eq!(idx.lookup(d(8), c(1)), None);
        assert_eq!(idx.entries(), 1);
    }

    #[test]
    fn evict_removes_entry() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        idx.on_evict(c(0), d(7));
        assert_eq!(idx.lookup(d(7), c(1)), None);
        assert_eq!(idx.entries(), 0);
    }

    #[test]
    fn evict_unknown_is_noop() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        idx.on_evict(c(1), d(7));
        idx.on_evict(c(0), d(9));
        assert_eq!(idx.entries(), 1);
        assert!(idx.contains(c(0), d(7)));
    }

    #[test]
    fn most_recent_holder_preferred() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        idx.on_store(c(1), d(7));
        idx.on_store(c(2), d(7));
        assert_eq!(idx.lookup(d(7), c(9)), Some(c(2)));
        // Excluding the most recent falls back to the next.
        assert_eq!(idx.lookup(d(7), c(2)), Some(c(1)));
        // Re-storing refreshes recency.
        idx.on_store(c(0), d(7));
        assert_eq!(idx.lookup(d(7), c(9)), Some(c(0)));
        assert_eq!(idx.entries(), 3);
    }

    #[test]
    fn lookup_all_order_and_exclusion() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        idx.on_store(c(1), d(7));
        idx.on_store(c(2), d(7));
        assert_eq!(idx.lookup_all(d(7), c(1)), vec![c(2), c(0)]);
    }

    #[test]
    fn duplicate_store_counts_once() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(7));
        idx.on_store(c(0), d(7));
        assert_eq!(idx.entries(), 1);
        assert_eq!(idx.memory_bytes(), BYTES_PER_ENTRY);
    }

    #[test]
    fn stats_track_traffic() {
        let mut idx = ExactIndex::new();
        idx.on_store(c(0), d(1));
        idx.lookup(d(1), c(5));
        idx.lookup(d(2), c(5));
        let s = idx.stats();
        assert_eq!(s.updates, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.index_hits, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IndexStats {
            lookups: 1,
            index_hits: 1,
            updates: 2,
            messages: 1,
            update_bytes: 16,
        };
        let b = IndexStats {
            lookups: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lookups, 4);
        assert_eq!(a.updates, 2);
    }

    #[test]
    fn hit_ratio_handles_empty() {
        assert_eq!(IndexStats::default().hit_ratio(), 0.0);
        let s = IndexStats {
            lookups: 4,
            index_hits: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.25).abs() < 1e-12);
    }
}
