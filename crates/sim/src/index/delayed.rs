//! Delayed (batched) index updates.
//!
//! §5 of the paper argues index-update overhead is tolerable because updates
//! can be delayed: citing Fan et al., updates are batched until a fixed
//! percentage of a browser's cached documents have changed (1%–10%
//! thresholds degrade hit ratio by only ~0.2%–1.7%). [`DelayedIndex`] models
//! exactly that: each client accumulates pending store/evict notifications
//! and only flushes them to the proxy's published directory when the pending
//! fraction crosses a threshold (or a wall-clock interval elapses).
//!
//! Between flushes the published directory is stale in both directions:
//! lookups can return clients that already evicted the document (*stale
//! hits* — the simulator falls back to the server and counts the penalty)
//! and can miss clients that recently cached it (*missed opportunities*).

use baps_core::{ClientId, DocId, ExactIndex, IndexStats};
use std::collections::HashSet;

/// Per-entry bytes in an update message: the 16-byte MD5 URL signature.
const UPDATE_ENTRY_BYTES: u64 = 16;

/// When a client's batch is flushed to the proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdatePolicy {
    /// Flush when pending ops exceed this fraction of the client's cached
    /// documents (the paper's 1%–10% "delay threshold").
    pub threshold_frac: f64,
    /// Never flush before this many ops are pending (avoids chatty updates
    /// from near-empty caches).
    pub min_pending: u64,
    /// Also flush every client at least this often (simulated ms), if set.
    pub interval_ms: Option<u64>,
}

impl UpdatePolicy {
    /// The paper's lenient end: 10% threshold.
    pub fn ten_percent() -> Self {
        UpdatePolicy {
            threshold_frac: 0.10,
            min_pending: 8,
            interval_ms: None,
        }
    }

    /// The paper's eager end: 1% threshold.
    pub fn one_percent() -> Self {
        UpdatePolicy {
            threshold_frac: 0.01,
            min_pending: 2,
            interval_ms: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingOp {
    Store(DocId),
    Evict(DocId),
}

#[derive(Debug, Clone, Default)]
struct ClientState {
    /// The browser's true contents (what an immediate flush would publish).
    actual: HashSet<DocId>,
    /// Ops not yet applied to the published directory, in order.
    pending: Vec<PendingOp>,
    last_flush_ms: u64,
}

/// A browser index whose published view lags the browsers by a batching
/// policy.
#[derive(Debug, Clone)]
pub struct DelayedIndex {
    published: ExactIndex,
    clients: Vec<ClientState>,
    policy: UpdatePolicy,
    now_ms: u64,
    stats: IndexStats,
}

impl DelayedIndex {
    /// Creates an index for `n_clients` clients under `policy`.
    pub fn new(n_clients: u32, policy: UpdatePolicy) -> Self {
        assert!(policy.threshold_frac >= 0.0);
        DelayedIndex {
            published: ExactIndex::new(),
            clients: vec![ClientState::default(); n_clients as usize],
            policy,
            now_ms: 0,
            stats: IndexStats::default(),
        }
    }

    /// Records that `client` cached `doc`; may trigger a flush.
    pub fn on_store(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        state.actual.insert(doc);
        state.pending.push(PendingOp::Store(doc));
        self.maybe_flush(client);
    }

    /// Records that `client` evicted `doc`; may trigger a flush.
    pub fn on_evict(&mut self, client: ClientId, doc: DocId) {
        self.stats.updates += 1;
        let state = &mut self.clients[client.index()];
        state.actual.remove(&doc);
        state.pending.push(PendingOp::Evict(doc));
        self.maybe_flush(client);
    }

    /// Advances simulated time; flushes clients whose interval expired.
    pub fn advance_time(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        if let Some(interval) = self.policy.interval_ms {
            for i in 0..self.clients.len() {
                let state = &self.clients[i];
                if !state.pending.is_empty()
                    && self.now_ms.saturating_sub(state.last_flush_ms) >= interval
                {
                    self.flush(ClientId(i as u32));
                }
            }
        }
    }

    fn maybe_flush(&mut self, client: ClientId) {
        let state = &self.clients[client.index()];
        let threshold = ((state.actual.len() as f64) * self.policy.threshold_frac)
            .ceil()
            .max(self.policy.min_pending as f64) as usize;
        if state.pending.len() >= threshold.max(1) {
            self.flush(client);
        }
    }

    /// Applies a client's pending batch to the published directory.
    pub fn flush(&mut self, client: ClientId) {
        let state = &mut self.clients[client.index()];
        if state.pending.is_empty() {
            return;
        }
        let ops = std::mem::take(&mut state.pending);
        state.last_flush_ms = self.now_ms;
        self.stats.flushes += 1;
        self.stats.messages += 1;
        self.stats.update_bytes += ops.len() as u64 * UPDATE_ENTRY_BYTES;
        for op in ops {
            match op {
                PendingOp::Store(doc) => self.published.on_store(client, doc),
                PendingOp::Evict(doc) => {
                    self.published.on_evict(client, doc);
                }
            }
        }
    }

    /// Flushes every client (e.g. at simulation end, for inspection).
    pub fn flush_all(&mut self) {
        for i in 0..self.clients.len() {
            self.flush(ClientId(i as u32));
        }
    }

    /// Looks up the published (possibly stale) directory.
    pub fn lookup(&mut self, doc: DocId, exclude: ClientId) -> Option<ClientId> {
        let r = self.published.lookup(doc, exclude);
        self.stats.lookups += 1;
        if r.is_some() {
            self.stats.index_hits += 1;
        }
        r
    }

    /// All published candidates, most recent first.
    pub fn lookup_all(&mut self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        let r = self.published.lookup_all(doc, exclude);
        self.stats.lookups += 1;
        if !r.is_empty() {
            self.stats.index_hits += 1;
        }
        r
    }

    /// Whether the *published* view says `client` holds `doc`.
    pub fn published_contains(&self, client: ClientId, doc: DocId) -> bool {
        self.published.contains(client, doc)
    }

    /// Whether the client's *true* cache holds `doc` (ground truth).
    pub fn actually_holds(&self, client: ClientId, doc: DocId) -> bool {
        self.clients[client.index()].actual.contains(&doc)
    }

    /// Estimated memory of the published directory.
    pub fn memory_bytes(&self) -> u64 {
        self.published.memory_bytes()
    }

    /// Traffic/access statistics (excluding the inner directory's own
    /// lookup counters, which would double-count).
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

    fn lazy_policy() -> UpdatePolicy {
        UpdatePolicy {
            threshold_frac: 1.0,
            min_pending: 100,
            interval_ms: None,
        }
    }

    #[test]
    fn updates_are_invisible_until_flush() {
        let mut idx = DelayedIndex::new(4, lazy_policy());
        idx.on_store(c(0), d(1));
        assert_eq!(idx.lookup(d(1), c(3)), None, "not yet published");
        assert!(idx.actually_holds(c(0), d(1)));
        idx.flush(c(0));
        assert_eq!(idx.lookup(d(1), c(3)), Some(c(0)));
    }

    #[test]
    fn eviction_staleness_window() {
        let mut idx = DelayedIndex::new(4, lazy_policy());
        idx.on_store(c(0), d(1));
        idx.flush(c(0));
        idx.on_evict(c(0), d(1));
        // Published view is stale: still claims c0 holds d1.
        assert_eq!(idx.lookup(d(1), c(3)), Some(c(0)));
        assert!(idx.published_contains(c(0), d(1)));
        assert!(!idx.actually_holds(c(0), d(1)));
        idx.flush(c(0));
        assert_eq!(idx.lookup(d(1), c(3)), None);
    }

    #[test]
    fn threshold_triggers_flush() {
        let policy = UpdatePolicy {
            threshold_frac: 0.5,
            min_pending: 2,
            interval_ms: None,
        };
        let mut idx = DelayedIndex::new(2, policy);
        idx.on_store(c(0), d(1)); // pending 1, actual 1, threshold max(2, 1) = 2
        assert_eq!(idx.stats().flushes, 0);
        idx.on_store(c(0), d(2)); // pending 2 -> flush
        assert_eq!(idx.stats().flushes, 1);
        assert_eq!(idx.lookup(d(1), c(1)), Some(c(0)));
        assert_eq!(idx.lookup(d(2), c(1)), Some(c(0)));
    }

    #[test]
    fn interval_flushes_on_advance_time() {
        let policy = UpdatePolicy {
            threshold_frac: 1.0,
            min_pending: 1000,
            interval_ms: Some(60_000),
        };
        let mut idx = DelayedIndex::new(2, policy);
        idx.on_store(c(0), d(1));
        idx.advance_time(30_000);
        assert_eq!(idx.lookup(d(1), c(1)), None);
        idx.advance_time(60_001);
        assert_eq!(idx.lookup(d(1), c(1)), Some(c(0)));
    }

    #[test]
    fn flush_all_publishes_everything() {
        let mut idx = DelayedIndex::new(3, lazy_policy());
        idx.on_store(c(0), d(1));
        idx.on_store(c(1), d(2));
        idx.flush_all();
        assert_eq!(idx.lookup(d(1), c(2)), Some(c(0)));
        assert_eq!(idx.lookup(d(2), c(2)), Some(c(1)));
        // Flushing with nothing pending is free.
        let flushes = idx.stats().flushes;
        idx.flush_all();
        assert_eq!(idx.stats().flushes, flushes);
    }

    #[test]
    fn update_traffic_accounted() {
        let mut idx = DelayedIndex::new(2, lazy_policy());
        idx.on_store(c(0), d(1));
        idx.on_store(c(0), d(2));
        idx.on_evict(c(0), d(1));
        idx.flush(c(0));
        let s = idx.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.update_bytes, 3 * 16);
        assert_eq!(s.updates, 3);
    }

    #[test]
    fn pending_ops_apply_in_order() {
        let mut idx = DelayedIndex::new(2, lazy_policy());
        idx.on_store(c(0), d(1));
        idx.on_evict(c(0), d(1));
        idx.on_store(c(0), d(1));
        idx.flush(c(0));
        assert_eq!(idx.lookup(d(1), c(1)), Some(c(0)));
    }
}
