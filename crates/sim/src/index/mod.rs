//! The browser-index models the simulator evaluates (paper §5).
//!
//! The live proxy runs one index, the exact directory of
//! [`baps_index::ExactIndex`]. §5 asks what it costs in space and update
//! traffic and how much a cheaper index loses; the simulator answers with
//! three more models:
//!
//! * [`DelayedIndex`] — batched updates with a staleness threshold (§5's
//!   overhead mitigation);
//! * [`BloomSummaryIndex`] — per-client Bloom-filter summaries rebuilt at a
//!   churn threshold (Summary-Cache style compression, §5's space argument);
//! * [`CountingBloomIndex`] — per-client counting-Bloom filters patched by
//!   incremental delta messages (traffic scales with churn, not size).
//!
//! [`AnyIndex`] dispatches over the four, chosen by
//! [`SystemConfig::index_model`](baps_core::SystemConfig::index_model).

pub mod bloom;
pub mod counting;
pub mod delayed;
pub mod summary;

pub use bloom::{BloomFilter, CountingBloom};
pub use counting::{CountingBloomIndex, CountingConfig};
pub use delayed::{DelayedIndex, UpdatePolicy};
pub use summary::{BloomSummaryIndex, SummaryConfig};

use baps_core::{ClientId, DocId, IndexModel};
use baps_index::{ExactIndex, IndexStats};

/// Enum dispatch over the four index implementations.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Exact directory.
    Exact(ExactIndex),
    /// Threshold-batched directory.
    Delayed(DelayedIndex),
    /// Bloom summaries.
    Bloom(BloomSummaryIndex),
    /// Counting-Bloom filters with delta updates.
    Counting(CountingBloomIndex),
}

impl AnyIndex {
    /// Instantiates `model` for `n_clients` clients.
    pub fn new(model: IndexModel, n_clients: u32) -> AnyIndex {
        match model {
            IndexModel::Exact => AnyIndex::Exact(ExactIndex::new()),
            IndexModel::Delayed {
                threshold,
                interval_ms,
            } => AnyIndex::Delayed(DelayedIndex::new(
                n_clients,
                UpdatePolicy {
                    threshold_frac: threshold,
                    min_pending: 2,
                    interval_ms,
                },
            )),
            IndexModel::Bloom {
                bits_per_item,
                threshold,
            } => AnyIndex::Bloom(BloomSummaryIndex::new(
                n_clients,
                SummaryConfig {
                    bits_per_item,
                    rebuild_threshold: threshold,
                    ..SummaryConfig::default()
                },
            )),
            IndexModel::CountingBloom { slots, threshold } => {
                AnyIndex::Counting(CountingBloomIndex::new(
                    n_clients,
                    CountingConfig {
                        slots,
                        flush_threshold: threshold,
                        ..CountingConfig::default()
                    },
                ))
            }
        }
    }

    /// Records that `client` now caches `doc`.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        match self {
            AnyIndex::Exact(i) => i.on_store(client, doc),
            AnyIndex::Delayed(i) => i.on_store(client, doc),
            AnyIndex::Bloom(i) => i.on_store(client, doc),
            AnyIndex::Counting(i) => i.on_store(client, doc),
        }
    }

    /// Records that `client` evicted `doc`.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        match self {
            AnyIndex::Exact(i) => {
                i.on_evict(client, doc);
            }
            AnyIndex::Delayed(i) => i.on_evict(client, doc),
            AnyIndex::Bloom(i) => i.on_evict(client, doc),
            AnyIndex::Counting(i) => i.on_evict(client, doc),
        }
    }

    /// Advances simulated time (drives interval-based flushing).
    pub fn advance_time(&mut self, now_ms: u64) {
        if let AnyIndex::Delayed(i) = self {
            i.advance_time(now_ms);
        }
    }

    /// Candidate holders of `doc`, preference-ordered, excluding `exclude`.
    pub fn candidates(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        match self {
            AnyIndex::Exact(i) => i.lookup_all(doc, exclude),
            AnyIndex::Delayed(i) => i.lookup_all(doc, exclude),
            AnyIndex::Bloom(i) => i.lookup_all(doc, exclude),
            AnyIndex::Counting(i) => i.lookup_all(doc, exclude),
        }
    }

    /// Estimated index memory (paper §5 accounting).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            AnyIndex::Exact(i) => i.memory_bytes(),
            AnyIndex::Delayed(i) => i.memory_bytes(),
            AnyIndex::Bloom(i) => i.memory_bytes(),
            AnyIndex::Counting(i) => i.memory_bytes(),
        }
    }

    /// Access/traffic statistics.
    pub fn stats(&self) -> IndexStats {
        match self {
            AnyIndex::Exact(i) => i.stats(),
            AnyIndex::Delayed(i) => i.stats(),
            AnyIndex::Bloom(i) => i.stats(),
            AnyIndex::Counting(i) => i.stats(),
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
    fn delayed_any_index_has_staleness() {
        let model = IndexModel::Delayed {
            threshold: 10.0,
            interval_ms: None,
        };
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
