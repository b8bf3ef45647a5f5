//! # baps-index — browser-cache index structures for BAPS
//!
//! The browsers-aware proxy's distinguishing data structure is the *browser
//! index*: a directory, kept at the proxy, of which documents currently live
//! in which client's browser cache (paper §2). This crate provides four
//! fidelity/space points:
//!
//! * [`ExactIndex`] — invalidation-driven exact directory (the base design);
//! * [`DelayedIndex`] — batched updates with a staleness threshold (§5's
//!   overhead mitigation);
//! * [`BloomSummaryIndex`] — per-client Bloom-filter summaries rebuilt at a
//!   churn threshold (Summary-Cache style compression, §5's space argument);
//! * [`CountingBloomIndex`] — per-client counting-Bloom filters patched by
//!   incremental delta messages (traffic scales with churn, not size).
//!
//! [`AnyIndex`] provides enum dispatch so the simulator and the live proxy
//! can switch models from configuration. [`shard_of`] is the doc-hash
//! routing the live proxy stripes an exact directory's locks by, without
//! changing observable behaviour.

#![warn(missing_docs)]

pub mod bloom;
pub mod counting;
pub mod delayed;
pub mod exact;
pub mod sharded;
pub mod stats;
pub mod summary;

pub use bloom::{BloomFilter, CountingBloom};
pub use counting::{CountingBloomIndex, CountingConfig};
pub use delayed::{DelayedIndex, UpdatePolicy};
pub use exact::{ExactIndex, BYTES_PER_ENTRY};
pub use sharded::{shard_of, DEFAULT_SHARDS};
pub use stats::IndexStats;
pub use summary::{BloomSummaryIndex, SummaryConfig};

use baps_trace::{ClientId, DocId};
use serde::{Deserialize, Serialize};

/// Declarative choice of index model (used in experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndexModel {
    /// Exact invalidation-driven directory.
    Exact,
    /// Batched updates flushed past a pending-fraction threshold.
    Delayed {
        /// Flush threshold as a fraction of cached documents (e.g. 0.1).
        threshold: f64,
        /// Optional periodic flush interval in simulated milliseconds.
        interval_ms: Option<u64>,
    },
    /// Per-client Bloom summaries.
    Bloom {
        /// Bits per cached document.
        bits_per_item: u64,
        /// Rebuild threshold as a fraction of cached documents.
        threshold: f64,
    },
    /// Per-client counting-Bloom filters patched by delta messages.
    CountingBloom {
        /// Counters per client filter.
        slots: u64,
        /// Flush threshold as a fraction of cached documents.
        threshold: f64,
    },
}

impl IndexModel {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            IndexModel::Exact => "exact".to_owned(),
            IndexModel::Delayed { threshold, .. } => format!("delayed({:.0}%)", threshold * 100.0),
            IndexModel::Bloom {
                bits_per_item,
                threshold,
            } => {
                format!("bloom({bits_per_item}b,{:.0}%)", threshold * 100.0)
            }
            IndexModel::CountingBloom { slots, threshold } => {
                format!("cbloom({slots},{:.0}%)", threshold * 100.0)
            }
        }
    }

    /// Instantiates the model for `n_clients` clients.
    pub fn build(&self, n_clients: u32) -> AnyIndex {
        match *self {
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
}

/// Enum dispatch over the three index implementations.
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
    fn model_labels() {
        assert_eq!(IndexModel::Exact.label(), "exact");
        assert_eq!(
            IndexModel::Delayed {
                threshold: 0.1,
                interval_ms: None
            }
            .label(),
            "delayed(10%)"
        );
        assert!(IndexModel::Bloom {
            bits_per_item: 10,
            threshold: 0.05
        }
        .label()
        .starts_with("bloom"));
    }

    #[test]
    fn exact_any_index_roundtrip() {
        let mut idx = IndexModel::Exact.build(4);
        idx.on_store(c(2), d(9));
        assert_eq!(idx.candidates(d(9), c(0)), vec![c(2)]);
        idx.on_evict(c(2), d(9));
        assert!(idx.candidates(d(9), c(0)).is_empty());
        assert!(idx.stats().lookups >= 2);
    }

    #[test]
    fn delayed_any_index_has_staleness() {
        let mut idx = IndexModel::Delayed {
            threshold: 10.0,
            interval_ms: None,
        }
        .build(4);
        idx.on_store(c(2), d(9));
        // High threshold: not yet published.
        assert!(idx.candidates(d(9), c(0)).is_empty());
    }

    #[test]
    fn bloom_any_index_finds_holders() {
        let mut idx = IndexModel::Bloom {
            bits_per_item: 10,
            threshold: 1e-9,
        }
        .build(4);
        idx.on_store(c(1), d(5));
        assert!(idx.candidates(d(5), c(0)).contains(&c(1)));
        assert!(idx.memory_bytes() > 0);
    }
}
