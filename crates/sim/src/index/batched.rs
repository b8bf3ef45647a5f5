//! §5's cheap indexes: browsers send their index updates late and in
//! batches.
//!
//! The paper argues the index costs little because a browser need not tell
//! the proxy about every change at once: citing Fan et al., it batches them
//! until a fixed share of its cached documents has changed (1%–10%
//! thresholds cost only ~0.2%–1.7% of hit ratio), and the proxy may keep a
//! compressed summary instead of a directory (Summary Cache). A
//! [`BatchedIndex`] keeps, per browser, what it really holds and its batch
//! of unsent changes. When a batch is due the browser sends it as one
//! update message, and the proxy applies it to the view it publishes:
//!
//! * a directory ([`IndexModel::Delayed`]): the changes in order, 16 B each;
//! * a Bloom filter per browser ([`IndexModel::Bloom`]): rebuilt from what
//!   the browser holds and sent whole;
//! * a counting-Bloom filter per browser ([`IndexModel::CountingBloom`]):
//!   patched with the changes, 17 B each (signature plus op flag).
//!
//! Between flushes the published view is stale both ways: a lookup can name
//! a browser that already evicted the document (the simulator counts a
//! wasted probe) and miss one that recently cached it. The filters add
//! false positives.

use super::bloom::{BloomFilter, CountingBloom};
use super::DIRECTORY_CHANGE_BYTES;
use crate::IndexModel;
use baps_core::{ClientId, DocId, ExactIndex, IndexStats};
use std::collections::HashSet;

/// Hash functions per Bloom or counting-Bloom filter.
const HASHES: u32 = 4;
/// Documents a browser's Bloom filter is sized for before its first
/// update; a rebuilt filter is sized for at least a quarter of this.
const EXPECTED_ITEMS: u64 = 1024;
/// Bytes per change in a counting-Bloom update: the signature plus an op
/// flag.
const COUNTING_CHANGE_BYTES: u64 = 17;

/// What the proxy publishes from the batches it receives.
#[derive(Debug, Clone)]
enum View {
    Directory(ExactIndex),
    Bloom {
        bits_per_item: u64,
        filters: Vec<BloomFilter>,
    },
    Counting(Vec<CountingBloom>),
}

#[derive(Debug, Clone, Default)]
struct Browser {
    /// What the browser really holds.
    held: HashSet<DocId>,
    /// Changes not yet sent, in order: a document and whether it was
    /// stored (`true`) or evicted.
    batch: Vec<(DocId, bool)>,
}

/// A browser index whose published view lags the browsers by a batch.
#[derive(Debug, Clone)]
pub struct BatchedIndex {
    view: View,
    browsers: Vec<Browser>,
    threshold: f64,
    stats: IndexStats,
}

impl BatchedIndex {
    /// Builds `model` for `n_clients` browsers, or `None` for
    /// [`IndexModel::Exact`], which publishes every change at once.
    pub fn new(model: IndexModel, n_clients: u32) -> Option<BatchedIndex> {
        let n = n_clients as usize;
        let (view, threshold) = match model {
            IndexModel::Exact => return None,
            IndexModel::Delayed { threshold } => (View::Directory(ExactIndex::new()), threshold),
            IndexModel::Bloom {
                bits_per_item,
                threshold,
            } => {
                let filter = BloomFilter::for_items(EXPECTED_ITEMS, bits_per_item, HASHES);
                let filters = vec![filter; n];
                (
                    View::Bloom {
                        bits_per_item,
                        filters,
                    },
                    threshold,
                )
            }
            IndexModel::CountingBloom { slots, threshold } => (
                View::Counting(vec![CountingBloom::new(slots, HASHES); n]),
                threshold,
            ),
        };
        assert!(threshold >= 0.0, "batch threshold {threshold} is negative");
        Some(BatchedIndex {
            view,
            browsers: vec![Browser::default(); n],
            threshold,
            stats: IndexStats::default(),
        })
    }

    /// Records that `client` cached `doc`; may send its batch.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.change(client, doc, true);
    }

    /// Records that `client` evicted `doc`; may send its batch.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.change(client, doc, false);
    }

    /// Queues a change that alters what `client` holds, and sends the batch
    /// once its length reaches `ceil(max(held, floor) × threshold)`, at
    /// least `min` changes.
    fn change(&mut self, client: ClientId, doc: DocId, stored: bool) {
        self.stats.updates += 1;
        let browser = &mut self.browsers[client.index()];
        let altered = if stored {
            browser.held.insert(doc)
        } else {
            browser.held.remove(&doc)
        };
        if !altered {
            return;
        }
        browser.batch.push((doc, stored));
        let (floor, min) = match self.view {
            View::Directory(_) => (0, 2),
            View::Bloom { .. } | View::Counting(_) => (16, 1),
        };
        let due = (browser.held.len().max(floor) as f64 * self.threshold).ceil() as usize;
        if browser.batch.len() >= due.max(min) {
            self.flush(client);
        }
    }

    /// Sends `client`'s batch as one update message and applies it to the
    /// published view. An empty batch sends nothing.
    pub fn flush(&mut self, client: ClientId) {
        let browser = &mut self.browsers[client.index()];
        if browser.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut browser.batch);
        let changes = batch.len() as u64;
        self.stats.flushes += 1;
        self.stats.messages += 1;
        self.stats.update_bytes += match &mut self.view {
            View::Directory(directory) => {
                for (doc, stored) in batch {
                    if stored {
                        directory.on_store(client, doc);
                    } else {
                        directory.on_evict(client, doc);
                    }
                }
                changes * DIRECTORY_CHANGE_BYTES
            }
            View::Bloom {
                bits_per_item,
                filters,
            } => {
                // Sized for the current population, so the false-positive
                // rate stays put as the browser's cache grows.
                let items = (browser.held.len() as u64).max(EXPECTED_ITEMS / 4);
                let mut filter = BloomFilter::for_items(items, *bits_per_item, HASHES);
                for &doc in &browser.held {
                    filter.insert(doc);
                }
                let bytes = filter.byte_size();
                filters[client.index()] = filter;
                bytes
            }
            View::Counting(filters) => {
                let filter = &mut filters[client.index()];
                for (doc, stored) in batch {
                    if stored {
                        filter.insert(doc);
                    } else {
                        filter.remove(doc);
                    }
                }
                changes * COUNTING_CHANGE_BYTES
            }
        };
    }

    /// Sends every browser's batch.
    pub fn flush_all(&mut self) {
        for i in 0..self.browsers.len() {
            self.flush(ClientId(i as u32));
        }
    }

    /// Every browser but `exclude` the published view names for `doc`: the
    /// directory most recent holder first, the filters in client-id order.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.stats.lookups += 1;
        let found = match &mut self.view {
            View::Directory(directory) => directory.lookup_all(doc, exclude),
            View::Bloom { filters, .. } => claimants(filters, exclude, |f| f.contains(doc)),
            View::Counting(filters) => claimants(filters, exclude, |f| f.contains(doc)),
        };
        if !found.is_empty() {
            self.stats.index_hits += 1;
        }
        found
    }

    /// Bytes of the published view (the §5 space argument).
    pub fn memory_bytes(&self) -> u64 {
        match &self.view {
            View::Directory(directory) => directory.memory_bytes(),
            View::Bloom { filters, .. } => filters.iter().map(BloomFilter::byte_size).sum(),
            View::Counting(filters) => filters.iter().map(CountingBloom::byte_size).sum(),
        }
    }

    /// Lookup and update-traffic counters (the directory view's own lookup
    /// counters are not included: they would count each lookup twice).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }
}

/// The clients but `exclude` whose filter `claims` the document.
fn claimants<F>(filters: &[F], exclude: ClientId, claims: impl Fn(&F) -> bool) -> Vec<ClientId> {
    (0..filters.len() as u32)
        .map(ClientId)
        .filter(|&c| c != exclude && claims(&filters[c.index()]))
        .collect()
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

    fn delayed(threshold: f64) -> IndexModel {
        IndexModel::Delayed { threshold }
    }
    fn bloom(threshold: f64) -> IndexModel {
        IndexModel::Bloom {
            bits_per_item: 10,
            threshold,
        }
    }
    fn counting(threshold: f64) -> IndexModel {
        IndexModel::CountingBloom {
            slots: 16_384,
            threshold,
        }
    }

    fn index(model: IndexModel, n_clients: u32) -> BatchedIndex {
        BatchedIndex::new(model, n_clients).expect("a batched model")
    }

    /// An index whose browser 0 already holds documents `0..n`, all sent.
    fn holding(model: IndexModel, n: u32) -> BatchedIndex {
        let mut idx = index(model, 2);
        for i in 0..n {
            idx.on_store(c(0), d(i));
        }
        idx.flush_all();
        idx
    }

    #[test]
    fn delayed_at_one_percent_sends_two_changes_at_32_bytes() {
        let mut idx = holding(delayed(0.01), 10);
        let before = idx.stats();
        idx.on_store(c(0), d(100));
        assert_eq!(idx.stats().messages, before.messages, "1 change < 2");
        idx.on_evict(c(0), d(0));
        let after = idx.stats();
        assert_eq!(after.messages, before.messages + 1);
        assert_eq!(after.update_bytes - before.update_bytes, 32);
        assert_eq!(idx.lookup_all(d(100), c(1)), vec![c(0)]);
        assert!(idx.lookup_all(d(0), c(1)).is_empty());
    }

    #[test]
    fn bloom_at_five_percent_sends_the_first_change_whole() {
        // ceil(max(held, 16) × 5%) = 1 change for up to 20 documents.
        let mut idx = index(bloom(0.05), 2);
        for i in 0..20 {
            let before = idx.stats();
            idx.on_store(c(0), d(i));
            let after = idx.stats();
            assert_eq!(after.messages, before.messages + 1, "store {i}");
            // Sized for max(held, 256) documents at 10 bits each.
            assert_eq!(after.update_bytes - before.update_bytes, 256 * 10 / 8);
        }
        assert_eq!(idx.lookup_all(d(7), c(1)), vec![c(0)]);
        assert_eq!(idx.memory_bytes(), 256 * 10 / 8 + 1024 * 10 / 8);
    }

    #[test]
    fn counting_sends_17_bytes_per_change() {
        let mut idx = index(counting(10.0), 1);
        for i in 0..5 {
            idx.on_store(c(0), d(i));
        }
        idx.on_evict(c(0), d(0));
        idx.flush(c(0));
        assert_eq!(idx.stats().messages, 1);
        assert_eq!(idx.stats().update_bytes, 6 * 17);
    }

    #[test]
    fn changes_that_alter_nothing_are_not_batched() {
        // One change each: 16 B, a whole 256-document filter, 17 B.
        for (model, bytes) in [
            (delayed(10.0), 16),
            (bloom(10.0), 320),
            (counting(10.0), 17),
        ] {
            let mut idx = index(model, 2);
            idx.on_store(c(0), d(1));
            idx.on_store(c(0), d(1));
            idx.on_evict(c(0), d(2));
            idx.flush_all();
            let s = idx.stats();
            assert_eq!(s.updates, 3, "{model:?}");
            assert_eq!((s.messages, s.update_bytes), (1, bytes), "{model:?}");
        }
    }

    #[test]
    fn eviction_staleness_window() {
        for model in [delayed(10.0), bloom(10.0), counting(10.0)] {
            let mut idx = holding(model, 1);
            idx.on_evict(c(0), d(0));
            // Not yet sent: the published view still names browser 0.
            assert_eq!(idx.lookup_all(d(0), c(1)), vec![c(0)], "{model:?}");
            idx.flush(c(0));
            assert!(idx.lookup_all(d(0), c(1)).is_empty(), "{model:?}");
        }
    }

    #[test]
    fn lazy_threshold_leaves_staleness() {
        for model in [delayed(10.0), bloom(10.0), counting(10.0)] {
            let mut idx = index(model, 2);
            idx.on_store(c(0), d(1));
            assert!(idx.lookup_all(d(1), c(1)).is_empty(), "{model:?}");
            idx.flush_all();
            assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)], "{model:?}");
            // A lookup never names the browser that asks.
            assert!(idx.lookup_all(d(1), c(0)).is_empty(), "{model:?}");
            // Flushing with nothing pending sends nothing.
            let messages = idx.stats().messages;
            idx.flush_all();
            assert_eq!(idx.stats().messages, messages, "{model:?}");
        }
    }

    #[test]
    fn directory_applies_changes_in_order() {
        let mut idx = index(delayed(10.0), 2);
        idx.on_store(c(0), d(1));
        idx.on_evict(c(0), d(1));
        idx.on_store(c(0), d(1));
        idx.flush(c(0));
        assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)]);
        assert_eq!(idx.stats().update_bytes, 3 * 16);
    }

    #[test]
    fn filters_have_no_false_negatives_under_churn() {
        for model in [bloom(1e-9), counting(1e-9)] {
            let mut idx = index(model, 2);
            for i in 0..500 {
                idx.on_store(c(0), d(i));
            }
            for i in 0..250 {
                idx.on_evict(c(0), d(i));
            }
            for i in 250..500 {
                assert!(idx.lookup_all(d(i), c(1)).contains(&c(0)), "{model:?} {i}");
            }
        }
    }

    #[test]
    fn counting_traffic_scales_with_churn_not_size() {
        let mut idx = holding(counting(1e-9), 1000);
        let before = idx.stats().update_bytes;
        idx.on_evict(c(0), d(0));
        let churn_cost = idx.stats().update_bytes - before;
        assert_eq!(churn_cost, COUNTING_CHANGE_BYTES);
        // A Bloom summary would resend the whole filter.
        assert!(churn_cost < idx.memory_bytes() / 10);
    }

    #[test]
    fn bloom_is_compact_relative_to_a_directory() {
        let idx = holding(bloom(0.05), 1024);
        // 10 bits/doc ≈ 1.25 B/doc vs 28 B/doc exact: > 10x smaller.
        let one_browser = idx.memory_bytes() - 1024 * 10 / 8;
        assert!(one_browser * 10 < 1024 * baps_core::BYTES_PER_ENTRY);
    }
}
