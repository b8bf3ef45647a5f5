//! §5's browser indexes: browsers send their evictions late and in
//! batches.
//!
//! A store needs no message at all: the proxy learns it from the document
//! it sends, as the live proxy does, and applies it to the view it
//! publishes at once. A [`BatchedIndex`] keeps, per browser, what it
//! really holds and its batch of unsent evictions. When the batch goes
//! depends on the model:
//!
//! * the exact directory ([`IndexModel::Exact`]), which the live proxy
//!   runs: the batch rides the browser's next request to the proxy (the
//!   `Evicted` header of its next GET, sent after a local-browser miss),
//!   so it costs no message, only its 16 B per eviction;
//! * the others follow the paper, citing Fan et al.: a browser batches its
//!   evictions until a fixed share of its cached documents has changed
//!   (1%–10% thresholds cost only ~0.2%–1.7% of hit ratio) and sends them
//!   as one update message.
//!
//! The proxy applies a batch to what it publishes:
//!
//! * a directory ([`IndexModel::Exact`], [`IndexModel::Delayed`]): the
//!   evictions, 16 B each;
//! * a Bloom filter per browser ([`IndexModel::Bloom`]): rebuilt from what
//!   the browser holds and sent whole. The proxy also rebuilds it, at no
//!   traffic, when the stores it has seen outgrow its sizing;
//! * a counting-Bloom filter per browser ([`IndexModel::CountingBloom`]):
//!   patched with the evictions, 17 B each (signature plus op flag).
//!
//! Between batches the published view is stale one way only: a lookup can
//! name a browser that already evicted the document (the simulator counts
//! a wasted probe), never miss one that holds it. A directory then drops
//! the holder it probed in vain, as the live proxy does; the filters add
//! false positives and cannot drop one.

use super::bloom::{BloomFilter, CountingBloom};
use crate::IndexModel;
use baps_core::{ClientId, DocId, ExactIndex, IndexStats};
use std::collections::HashSet;

/// Hash functions per Bloom or counting-Bloom filter.
const HASHES: u32 = 4;
/// Documents a browser's Bloom filter is sized for before its first
/// rebuild; a rebuilt filter is sized for at least a quarter of this.
const EXPECTED_ITEMS: u64 = 1024;
/// Bytes per change a browser sends a directory: the 16-byte MD5 URL
/// signature.
const DIRECTORY_CHANGE_BYTES: u64 = 16;
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
    /// Evictions not yet sent: documents the published view still names.
    batch: Vec<DocId>,
}

/// A browser index whose published view lags the browsers by a batch.
#[derive(Debug, Clone)]
pub struct BatchedIndex {
    view: View,
    browsers: Vec<Browser>,
    /// The share of its documents a browser's batch must reach before it is
    /// sent; `None` when the batch rides the browser's next request.
    threshold: Option<f64>,
    stats: IndexStats,
    /// Evictions a directory applied that removed an entry.
    applied: u64,
}

impl BatchedIndex {
    /// Builds `model` for `n_clients` browsers.
    pub fn new(model: IndexModel, n_clients: u32) -> BatchedIndex {
        let n = n_clients as usize;
        let (view, threshold) = match model {
            IndexModel::Exact => (View::Directory(ExactIndex::new()), None),
            IndexModel::Delayed { threshold } => {
                (View::Directory(ExactIndex::new()), Some(threshold))
            }
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
                    Some(threshold),
                )
            }
            IndexModel::CountingBloom { slots, threshold } => (
                View::Counting(vec![CountingBloom::new(slots, HASHES); n]),
                Some(threshold),
            ),
        };
        if let Some(threshold) = threshold {
            assert!(threshold >= 0.0, "batch threshold {threshold} is negative");
        }
        BatchedIndex {
            view,
            browsers: vec![Browser::default(); n],
            threshold,
            stats: IndexStats::default(),
            applied: 0,
        }
    }

    /// Records that `client` cached `doc`, which the proxy learns from
    /// the document it sent: the published view shows it at once, and no
    /// message is sent.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let browser = &mut self.browsers[client.index()];
        let new = browser.held.insert(doc);
        // An unsent eviction of it is void: the view never dropped it.
        let pending = browser.batch.iter().position(|&d| d == doc);
        if let Some(i) = pending {
            browser.batch.swap_remove(i);
        }
        match &mut self.view {
            View::Directory(directory) => directory.on_store(client, doc),
            View::Bloom {
                bits_per_item,
                filters,
            } => {
                let filter = &mut filters[client.index()];
                // Outgrown: the proxy resizes it from what it has seen sent.
                if browser.held.len() as u64 * *bits_per_item > filter.byte_size() * 8 {
                    *filter = summary(&browser.held, *bits_per_item);
                } else {
                    filter.insert(doc);
                }
            }
            View::Counting(filters) => {
                if new && pending.is_none() {
                    filters[client.index()].insert(doc);
                }
            }
        }
    }

    /// Records that `client` evicted `doc`. An eviction of something it
    /// holds joins its batch. Under a threshold the batch is sent once its
    /// length reaches `ceil(max(held, floor) × threshold)`, at least `min`
    /// evictions; otherwise it waits for [`on_request`](Self::on_request).
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let browser = &mut self.browsers[client.index()];
        if !browser.held.remove(&doc) {
            return;
        }
        browser.batch.push(doc);
        let Some(threshold) = self.threshold else {
            return;
        };
        let (floor, min) = match self.view {
            View::Directory(_) => (0, 2),
            View::Bloom { .. } | View::Counting(_) => (16, 1),
        };
        let due = (browser.held.len().max(floor) as f64 * threshold).ceil() as usize;
        if browser.batch.len() >= due.max(min) {
            self.flush(client);
        }
    }

    /// `client`'s request reached the proxy: the exact directory's batch
    /// rides it.
    pub fn on_request(&mut self, client: ClientId) {
        if self.threshold.is_none() {
            self.flush(client);
        }
    }

    /// A probe of `peer` for `doc` found no copy it could serve: a
    /// directory drops the entry, as the live proxy does; a filter cannot.
    pub fn on_wasted_probe(&mut self, peer: ClientId, doc: DocId) {
        if let View::Directory(directory) = &mut self.view {
            directory.on_evict(peer, doc);
        }
    }

    /// Sends `client`'s batch, as one update message unless it rides a
    /// request, and applies it to the published view. An empty batch sends
    /// nothing.
    pub fn flush(&mut self, client: ClientId) {
        let browser = &mut self.browsers[client.index()];
        if browser.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut browser.batch);
        let changes = batch.len() as u64;
        self.stats.messages += u64::from(self.threshold.is_some());
        self.stats.update_bytes += match &mut self.view {
            View::Directory(directory) => {
                for doc in batch {
                    self.applied += u64::from(directory.on_evict(client, doc));
                }
                changes * DIRECTORY_CHANGE_BYTES
            }
            View::Bloom {
                bits_per_item,
                filters,
            } => {
                let filter = summary(&browser.held, *bits_per_item);
                let bytes = filter.byte_size();
                filters[client.index()] = filter;
                bytes
            }
            View::Counting(filters) => {
                let filter = &mut filters[client.index()];
                for doc in batch {
                    filter.remove(doc);
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

    /// Evictions a directory applied that removed an entry: the live
    /// proxy's `baps_invalidations_total`.
    pub fn applied_evictions(&self) -> u64 {
        self.applied
    }
}

/// A browser's Bloom summary of `held`, sized for `max(held, 256)`
/// documents so its false-positive rate stays put as the cache grows.
fn summary(held: &HashSet<DocId>, bits_per_item: u64) -> BloomFilter {
    let items = (held.len() as u64).max(EXPECTED_ITEMS / 4);
    let mut filter = BloomFilter::for_items(items, bits_per_item, HASHES);
    for &doc in held {
        filter.insert(doc);
    }
    filter
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

    /// An index whose browser 0 already holds documents `0..n`, all sent.
    fn holding(model: IndexModel, n: u32) -> BatchedIndex {
        let mut idx = BatchedIndex::new(model, 2);
        for i in 0..n {
            idx.on_store(c(0), d(i));
        }
        idx.flush_all();
        idx
    }

    #[test]
    fn stores_cost_nothing_and_show_at_once() {
        for model in [
            IndexModel::Exact,
            delayed(0.01),
            bloom(0.05),
            counting(0.01),
        ] {
            let mut idx = BatchedIndex::new(model, 2);
            for i in 0..100 {
                idx.on_store(c(0), d(i));
            }
            let s = idx.stats();
            assert_eq!(
                (s.updates, s.messages, s.update_bytes),
                (100, 0, 0),
                "{model:?}"
            );
            assert_eq!(idx.lookup_all(d(42), c(1)), vec![c(0)], "{model:?}");
        }
    }

    #[test]
    fn exact_directory_names_an_evicted_holder_until_its_next_request() {
        let mut idx = holding(IndexModel::Exact, 3);
        idx.on_evict(c(0), d(0));
        idx.on_evict(c(0), d(1));
        // However long the batch, it waits for the browser's request.
        assert_eq!(idx.lookup_all(d(0), c(1)), vec![c(0)]);
        idx.on_request(c(1));
        assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)]);
        assert_eq!(idx.applied_evictions(), 0);
        idx.on_request(c(0));
        assert!(idx.lookup_all(d(0), c(1)).is_empty());
        assert!(idx.lookup_all(d(1), c(1)).is_empty());
        assert_eq!(idx.lookup_all(d(2), c(1)), vec![c(0)]);
        // It rode the request: no message of its own, 16 B per eviction.
        let s = idx.stats();
        assert_eq!((s.messages, s.update_bytes), (0, 2 * 16));
        assert_eq!((s.lookups, s.index_hits), (5, 3));
        assert_eq!(idx.applied_evictions(), 2);
        idx.on_request(c(0));
        assert_eq!(idx.stats().update_bytes, 2 * 16, "nothing left to send");
    }

    #[test]
    fn a_wasted_probe_drops_a_directory_holder_not_a_filter_one() {
        for model in [IndexModel::Exact, delayed(10.0)] {
            let mut idx = holding(model, 2);
            idx.on_evict(c(0), d(0));
            idx.on_wasted_probe(c(0), d(0));
            assert!(idx.lookup_all(d(0), c(1)).is_empty(), "{model:?}");
            assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)], "{model:?}");
            // The notice that follows finds nothing left to remove.
            idx.flush(c(0));
            assert_eq!(idx.applied_evictions(), 0, "{model:?}");
        }
        for model in [bloom(10.0), counting(10.0)] {
            let mut idx = holding(model, 2);
            idx.on_evict(c(0), d(0));
            idx.on_wasted_probe(c(0), d(0));
            assert_eq!(idx.lookup_all(d(0), c(1)), vec![c(0)], "{model:?}");
        }
    }

    #[test]
    fn a_bloom_filter_grows_with_the_stores_it_sees() {
        let mut idx = BatchedIndex::new(bloom(0.05), 1);
        for i in 0..2000 {
            idx.on_store(c(0), d(i));
        }
        assert!(
            idx.memory_bytes() * 8 >= 2000 * 10,
            "{}",
            idx.memory_bytes()
        );
        // The proxy resized it on its own: nothing was sent.
        let s = idx.stats();
        assert_eq!((s.messages, s.update_bytes), (0, 0));
        for i in 0..2000 {
            assert_eq!(idx.lookup_all(d(i), c(1)), vec![c(0)], "doc {i}");
        }
    }

    #[test]
    fn delayed_at_one_percent_sends_two_evictions_at_32_bytes() {
        let mut idx = holding(delayed(0.01), 10);
        idx.on_evict(c(0), d(0));
        assert_eq!(idx.stats().messages, 0, "1 eviction < 2");
        idx.on_evict(c(0), d(1));
        let s = idx.stats();
        assert_eq!((s.messages, s.update_bytes), (1, 32));
        assert!(idx.lookup_all(d(0), c(1)).is_empty());
        assert_eq!(idx.lookup_all(d(2), c(1)), vec![c(0)]);
    }

    #[test]
    fn bloom_at_five_percent_sends_each_eviction_whole() {
        // ceil(max(held, 16) × 5%) = 1 eviction for up to 20 documents.
        let mut idx = holding(bloom(0.05), 20);
        for i in 0..4 {
            let before = idx.stats();
            idx.on_evict(c(0), d(i));
            let after = idx.stats();
            assert_eq!(after.messages, before.messages + 1, "eviction {i}");
            // Sized for max(held, 256) documents at 10 bits each.
            assert_eq!(after.update_bytes - before.update_bytes, 256 * 10 / 8);
        }
        assert_eq!(idx.lookup_all(d(7), c(1)), vec![c(0)]);
        assert_eq!(idx.memory_bytes(), 256 * 10 / 8 + 1024 * 10 / 8);
    }

    #[test]
    fn counting_sends_17_bytes_per_eviction() {
        let mut idx = BatchedIndex::new(counting(10.0), 1);
        for i in 0..5 {
            idx.on_store(c(0), d(i));
        }
        idx.on_evict(c(0), d(0));
        idx.on_evict(c(0), d(1));
        idx.flush(c(0));
        assert_eq!(idx.stats().messages, 1);
        assert_eq!(idx.stats().update_bytes, 2 * 17);
    }

    #[test]
    fn evictions_of_what_is_not_held_are_not_batched() {
        // One eviction each: 16 B (riding a request, or in a message of
        // its own), a whole 256-document filter, 17 B.
        for (model, messages, bytes) in [
            (IndexModel::Exact, 0, 16),
            (delayed(10.0), 1, 16),
            (bloom(10.0), 1, 320),
            (counting(10.0), 1, 17),
        ] {
            let mut idx = BatchedIndex::new(model, 2);
            idx.on_store(c(0), d(1));
            idx.on_store(c(0), d(1));
            idx.on_evict(c(0), d(2));
            idx.on_evict(c(0), d(1));
            idx.on_evict(c(0), d(1));
            idx.flush_all();
            let s = idx.stats();
            assert_eq!(s.updates, 5, "{model:?}");
            assert_eq!((s.messages, s.update_bytes), (messages, bytes), "{model:?}");
        }
    }

    #[test]
    fn eviction_staleness_window() {
        for model in [
            IndexModel::Exact,
            delayed(10.0),
            bloom(10.0),
            counting(10.0),
        ] {
            let mut idx = holding(model, 1);
            idx.on_evict(c(0), d(0));
            // Not yet sent: the published view still names browser 0.
            assert_eq!(idx.lookup_all(d(0), c(1)), vec![c(0)], "{model:?}");
            idx.flush(c(0));
            assert!(idx.lookup_all(d(0), c(1)).is_empty(), "{model:?}");
            // A lookup never names the browser that asks.
            idx.on_store(c(0), d(1));
            assert!(idx.lookup_all(d(1), c(0)).is_empty(), "{model:?}");
            // Flushing with nothing pending sends nothing.
            let messages = idx.stats().messages;
            idx.flush_all();
            assert_eq!(idx.stats().messages, messages, "{model:?}");
        }
    }

    #[test]
    fn a_store_voids_the_unsent_eviction_of_it() {
        for model in [
            IndexModel::Exact,
            delayed(10.0),
            bloom(10.0),
            counting(10.0),
        ] {
            let mut idx = BatchedIndex::new(model, 2);
            idx.on_store(c(0), d(1));
            idx.on_evict(c(0), d(1));
            idx.on_store(c(0), d(1));
            idx.flush(c(0));
            assert_eq!(idx.lookup_all(d(1), c(1)), vec![c(0)], "{model:?}");
            assert_eq!(idx.stats().messages, 0, "{model:?}");
            // Held once, so one eviction clears it.
            idx.on_evict(c(0), d(1));
            idx.flush(c(0));
            assert!(idx.lookup_all(d(1), c(1)).is_empty(), "{model:?}");
        }
    }

    #[test]
    fn filters_have_no_false_negatives_under_churn() {
        for model in [bloom(1e-9), counting(1e-9)] {
            let mut idx = BatchedIndex::new(model, 2);
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
