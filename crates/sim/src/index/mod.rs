//! The browser-index models the simulator evaluates (paper §5).
//!
//! The live proxy runs one index, the exact directory of
//! [`baps_core::ExactIndex`]. §5 asks what it costs in space and update
//! traffic and how much a cheaper index loses; the simulator answers with
//! [`BatchedIndex`], where browsers send their changes in batches and the
//! proxy publishes a delayed directory, Bloom summaries or counting-Bloom
//! filters from them.
//!
//! [`AnyIndex`] holds either, chosen by
//! [`SystemConfig::index_model`](crate::SystemConfig::index_model).

pub mod batched;
pub mod bloom;

pub use batched::BatchedIndex;
pub use bloom::{BloomFilter, CountingBloom};

use crate::IndexModel;
use baps_core::{ClientId, DocId, ExactIndex, IndexStats};

/// Bytes per change a browser sends a directory: the 16-byte MD5 URL
/// signature.
const DIRECTORY_CHANGE_BYTES: u64 = 16;

/// The exact directory or a batched model.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Exact directory. The proxy learns a store from the document it
    /// sends; each eviction costs the browser one message.
    Exact {
        /// The directory.
        directory: ExactIndex,
        /// Eviction messages sent (evictions that removed an entry).
        evictions: u64,
    },
    /// A delayed directory, Bloom summaries or counting-Bloom filters.
    Batched(BatchedIndex),
}

impl AnyIndex {
    /// Instantiates `model` for `n_clients` clients.
    pub fn new(model: IndexModel, n_clients: u32) -> AnyIndex {
        BatchedIndex::new(model, n_clients).map_or_else(
            || AnyIndex::Exact {
                directory: ExactIndex::new(),
                evictions: 0,
            },
            AnyIndex::Batched,
        )
    }

    /// Records that `client` now caches `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        match self {
            AnyIndex::Exact { directory, .. } => directory.on_store(client, doc),
            AnyIndex::Batched(i) => i.on_store(client, doc),
        }
    }

    /// Records that `client` evicted `doc`.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        match self {
            AnyIndex::Exact {
                directory,
                evictions,
            } => {
                if directory.on_evict(client, doc) {
                    *evictions += 1;
                }
            }
            AnyIndex::Batched(i) => i.on_evict(client, doc),
        }
    }

    /// Candidate holders of `doc`, preference-ordered, excluding `exclude`.
    pub fn candidates(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        match self {
            AnyIndex::Exact { directory, .. } => directory.lookup_all(doc, exclude),
            AnyIndex::Batched(i) => i.lookup_all(doc, exclude),
        }
    }

    /// Estimated index memory (paper §5 accounting).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            AnyIndex::Exact { directory, .. } => directory.memory_bytes(),
            AnyIndex::Batched(i) => i.memory_bytes(),
        }
    }

    /// Access/traffic statistics.
    pub fn stats(&self) -> IndexStats {
        match self {
            AnyIndex::Exact {
                directory,
                evictions,
            } => IndexStats {
                messages: *evictions,
                update_bytes: evictions * DIRECTORY_CHANGE_BYTES,
                ..directory.stats()
            },
            AnyIndex::Batched(i) => i.stats(),
        }
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
    fn exact_any_index_roundtrip() {
        let mut idx = AnyIndex::new(IndexModel::Exact, 4);
        idx.on_store(c(2), d(9));
        assert_eq!(idx.candidates(d(9), c(0)), vec![c(2)]);
        idx.on_evict(c(2), d(9));
        assert!(idx.candidates(d(9), c(0)).is_empty());
        assert!(idx.stats().lookups >= 2);
    }

    #[test]
    fn exact_counts_one_message_per_eviction() {
        let mut idx = AnyIndex::new(IndexModel::Exact, 4);
        idx.on_store(c(1), d(1));
        idx.on_store(c(2), d(2));
        idx.on_evict(c(1), d(1));
        // A stale notice removes nothing and costs nothing.
        idx.on_evict(c(3), d(2));
        let stats = idx.stats();
        assert_eq!((stats.messages, stats.update_bytes), (1, 16));
    }

    #[test]
    fn delayed_any_index_has_staleness() {
        let model = IndexModel::Delayed { threshold: 10.0 };
        let mut idx = AnyIndex::new(model, 4);
        idx.on_store(c(2), d(9));
        // High threshold: not yet published.
        assert!(idx.candidates(d(9), c(0)).is_empty());
    }

    #[test]
    fn bloom_any_index_finds_holders() {
        let model = IndexModel::Bloom {
            bits_per_item: 10,
            threshold: 1e-9,
        };
        let mut idx = AnyIndex::new(model, 4);
        idx.on_store(c(1), d(5));
        assert!(idx.candidates(d(5), c(0)).contains(&c(1)));
        assert!(idx.memory_bytes() > 0);
    }
}
