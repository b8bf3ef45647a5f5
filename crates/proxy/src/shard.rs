//! Lock-striped sharded state for the proxy hot path.
//!
//! The proxy's two hottest structures — the body cache and the browser
//! index — are partitioned into N independent shards routed by a
//! [`DocId`] hash ([`baps_index::shard_of`]), each behind its own mutex.
//! Two workers handling different documents take different locks and never
//! contend; a worker holds exactly one shard lock at a time, only for the
//! in-memory operation, and never across socket I/O (see DESIGN.md's lock
//! map). Every shard also tallies its lock acquisitions and cumulative
//! lock-wait time so the `METRICS` verb can report contention spread.
//!
//! Sharding the cache splits the byte budget evenly across shards, which
//! is *not* identical to one global LRU: a pathologically skewed shard can
//! evict while others have room. [`auto_shards`] therefore scales the
//! shard count with the configured capacity, so tiny caches (as used by
//! eviction-order tests) keep a single shard and byte-exact legacy
//! behaviour, while realistically sized caches get striped.

use crate::store::{BodyCache, CachedDoc};
use baps_index::{shard_of, ExactIndex, IndexStats};
use baps_trace::{ClientId, DocId};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Locks `mutex`, attributing the wait (the time between asking for the
/// lock and holding it) to `wait_nanos`. An uncontended acquisition has
/// nothing to attribute, so it goes through `try_lock` — one CAS, no
/// clock reads; two clock reads on *every* cache lookup measurably taxed
/// the hot path. Only the contended slow path pays for timing, and skips
/// it while recording is off so `metrics_smoke` can difference it.
fn lock_timed<'a, T>(mutex: &'a Mutex<T>, wait_nanos: &AtomicU64) -> MutexGuard<'a, T> {
    if let Some(guard) = mutex.try_lock() {
        return guard;
    }
    if !baps_obs::recording() {
        return mutex.lock();
    }
    let t = Instant::now();
    let guard = mutex.lock();
    wait_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    guard
}

/// Smallest per-shard byte budget [`auto_shards`] will carve out.
pub const MIN_SHARD_CAPACITY: u64 = 32 << 10;
/// Upper bound on the automatic shard count.
pub const MAX_SHARDS: usize = 16;
/// Shard count for the striped browser index. Index shards have no byte
/// budget to split, so sharding is semantics-preserving at any count and
/// a fixed stripe width suffices.
pub const DEFAULT_INDEX_SHARDS: usize = baps_index::DEFAULT_SHARDS;

/// Capacity-adaptive shard count: one shard per [`MIN_SHARD_CAPACITY`]
/// bytes, between 1 and [`MAX_SHARDS`].
pub fn auto_shards(capacity: u64) -> usize {
    ((capacity / MIN_SHARD_CAPACITY) as usize).clamp(1, MAX_SHARDS)
}

/// Occupancy/contention snapshot of one shard (cache or index).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries held by the shard.
    pub entries: u64,
    /// Body bytes held (cache shards; zero for index shards).
    pub bytes: u64,
    /// Times the shard's lock has been acquired.
    pub lock_acquires: u64,
    /// Cumulative microseconds spent *waiting* for the shard's lock — the
    /// wait-for-shard span. Near zero unless shards are contended.
    pub lock_wait_micros: u64,
}

struct CacheShard {
    cache: Mutex<BodyCache>,
    lock_acquires: AtomicU64,
    lock_wait_nanos: AtomicU64,
}

/// A [`BodyCache`] striped into doc-hashed shards, each behind its own
/// lock. The byte budget is split evenly across shards.
pub struct ShardedCache {
    shards: Vec<CacheShard>,
}

impl ShardedCache {
    /// Creates a cache of `n_shards` shards splitting `capacity` bytes
    /// (the first shards absorb any remainder byte).
    pub fn new(capacity: u64, n_shards: usize) -> Self {
        let n = n_shards.max(1) as u64;
        let shards = (0..n)
            .map(|i| {
                let share = capacity / n + u64::from(i < capacity % n);
                CacheShard {
                    cache: Mutex::new(BodyCache::new(share)),
                    lock_acquires: AtomicU64::new(0),
                    lock_wait_nanos: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedCache { shards }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Routes to the shard for `doc` and locks it, tallying the
    /// acquisition and attributing any wait to the shard.
    fn locked(&self, doc: DocId) -> MutexGuard<'_, BodyCache> {
        let s = &self.shards[shard_of(doc, self.shards.len())];
        s.lock_acquires.fetch_add(1, Ordering::Relaxed);
        lock_timed(&s.cache, &s.lock_wait_nanos)
    }

    /// Looks up `url`, promoting it on a hit. The returned [`CachedDoc`]
    /// shares the cached body (refcount bump, no copy) — the shard lock is
    /// released before the caller touches the bytes.
    pub fn get(&self, doc: DocId, url: &str) -> Option<CachedDoc> {
        self.locked(doc).get(url).cloned()
    }

    /// Inserts a document, evicting from its shard as needed. The proxy
    /// has nobody to tell about its own victims (only a browser sends
    /// `Evicted:` notices), so they are dropped here.
    pub fn insert(&self, doc: DocId, url: &str, entry: CachedDoc) {
        self.locked(doc).insert(url, entry);
    }

    /// Removes `url`; returns whether it was cached.
    pub fn remove(&self, doc: DocId, url: &str) -> bool {
        self.locked(doc).remove(url)
    }

    /// Total body bytes across shards.
    pub fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.lock().used()).sum()
    }

    /// Total cached documents across shards.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cache.lock().len() as u64)
            .sum()
    }

    /// Hit/miss/eviction statistics merged across shards (for `METRICS`).
    pub fn stats(&self) -> baps_cache::CacheStats {
        let mut out = baps_cache::CacheStats::default();
        for s in &self.shards {
            out.merge(s.cache.lock().stats());
        }
        out
    }

    /// Per-shard occupancy and lock-contention report (for `METRICS`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let cache = s.cache.lock();
                ShardStats {
                    entries: cache.len() as u64,
                    bytes: cache.used(),
                    lock_acquires: s.lock_acquires.load(Ordering::Relaxed),
                    lock_wait_micros: s.lock_wait_nanos.load(Ordering::Relaxed) / 1_000,
                }
            })
            .collect()
    }
}

struct IndexShard {
    index: Mutex<ExactIndex>,
    lock_acquires: AtomicU64,
    lock_wait_nanos: AtomicU64,
}

/// An [`ExactIndex`] striped into doc-hashed shards, each behind its own
/// lock. Index shards have no budget to split, so striping preserves
/// exact semantics at any shard count (the `striped_index_equals_exact`
/// property holds it to one [`ExactIndex`] under arbitrary store / evict /
/// lookup sequences).
pub struct StripedIndex {
    shards: Vec<IndexShard>,
}

impl StripedIndex {
    /// Creates an empty index with `n_shards` shards (at least one).
    pub fn new(n_shards: usize) -> Self {
        StripedIndex {
            shards: (0..n_shards.max(1))
                .map(|_| IndexShard {
                    index: Mutex::new(ExactIndex::new()),
                    lock_acquires: AtomicU64::new(0),
                    lock_wait_nanos: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Routes to the shard for `doc` and locks it, tallying the
    /// acquisition and attributing any wait to the shard.
    fn locked(&self, doc: DocId) -> MutexGuard<'_, ExactIndex> {
        let s = &self.shards[shard_of(doc, self.shards.len())];
        s.lock_acquires.fetch_add(1, Ordering::Relaxed);
        lock_timed(&s.index, &s.lock_wait_nanos)
    }

    /// Records that `client` now caches `doc`.
    pub fn on_store(&self, client: ClientId, doc: DocId) {
        self.locked(doc).on_store(client, doc);
    }

    /// Records that `client` evicted `doc`. Returns whether an entry was
    /// actually removed (`false` for stale/replayed notices), so callers
    /// can count applied invalidations idempotently.
    pub fn on_evict(&self, client: ClientId, doc: DocId) -> bool {
        self.locked(doc).on_evict(client, doc)
    }

    /// All holders of `doc` other than `exclude`, most recent first.
    pub fn lookup_all(&self, doc: DocId, exclude: ClientId) -> Vec<ClientId> {
        self.locked(doc).lookup_all(doc, exclude)
    }

    /// Total (client, doc) entries across shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.index.lock().entries()).sum()
    }

    /// Access statistics merged across shards.
    pub fn stats(&self) -> IndexStats {
        let mut out = IndexStats::default();
        for s in &self.shards {
            out.merge(&s.index.lock().stats());
        }
        out
    }

    /// Per-shard occupancy and lock-contention report (for `METRICS`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                entries: s.index.lock().entries(),
                bytes: 0,
                lock_acquires: s.lock_acquires.load(Ordering::Relaxed),
                lock_wait_micros: s.lock_wait_nanos.load(Ordering::Relaxed) / 1_000,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_crypto::ProxySigner;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn doc(body: &[u8]) -> CachedDoc {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(1));
        CachedDoc {
            body: body.into(),
            watermark: signer.watermark(body),
        }
    }

    #[test]
    fn auto_shards_scales_with_capacity() {
        assert_eq!(auto_shards(0), 1);
        assert_eq!(auto_shards(2_500), 1);
        assert_eq!(auto_shards(MIN_SHARD_CAPACITY), 1);
        assert_eq!(auto_shards(4 * MIN_SHARD_CAPACITY), 4);
        assert_eq!(auto_shards(u64::MAX), MAX_SHARDS);
    }

    #[test]
    fn sharded_cache_roundtrip_and_stats() {
        let c = ShardedCache::new(64 << 10, 4);
        let d = doc(b"hello shard");
        c.insert(DocId(7), "u7", d.clone());
        let hit = c.get(DocId(7), "u7").unwrap();
        assert!(Arc::ptr_eq(&hit.body, &d.body), "hit shares the body");
        assert_eq!(c.entries(), 1);
        assert_eq!(c.used(), 11);
        let stats = c.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.entries).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.bytes).sum::<u64>(), 11);
        assert_eq!(stats.iter().map(|s| s.lock_acquires).sum::<u64>(), 2);
        assert!(c.remove(DocId(7), "u7"));
        assert_eq!(c.entries(), 0);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Store(u8, u16),
        Evict(u8, u16),
        Lookup(u8, u16),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let pair = || ((0u8..8), (0u16..128));
        proptest::collection::vec(
            prop_oneof![
                pair().prop_map(|(c, d)| Op::Store(c, d)),
                pair().prop_map(|(c, d)| Op::Evict(c, d)),
                pair().prop_map(|(c, d)| Op::Lookup(c, d)),
            ],
            0..400,
        )
    }

    proptest! {
        /// The striped index is observationally equivalent to one exact
        /// index under any interleaving of stores, evicts and lookups, at
        /// any shard count.
        #[test]
        fn striped_index_equals_exact(ops in ops(), n_shards in 1usize..9) {
            let striped = StripedIndex::new(n_shards);
            let mut exact = ExactIndex::new();
            for op in ops {
                match op {
                    Op::Store(c, d) => {
                        striped.on_store(ClientId(c.into()), DocId(d.into()));
                        exact.on_store(ClientId(c.into()), DocId(d.into()));
                    }
                    Op::Evict(c, d) => prop_assert_eq!(
                        striped.on_evict(ClientId(c.into()), DocId(d.into())),
                        exact.on_evict(ClientId(c.into()), DocId(d.into()))
                    ),
                    Op::Lookup(c, d) => prop_assert_eq!(
                        striped.lookup_all(DocId(d.into()), ClientId(c.into())),
                        exact.lookup_all(DocId(d.into()), ClientId(c.into()))
                    ),
                }
                prop_assert_eq!(striped.entries(), exact.entries());
            }
            for d in 0u32..128 {
                for excl in [0u32, 3, 255] {
                    prop_assert_eq!(
                        striped.lookup_all(DocId(d), ClientId(excl)),
                        exact.lookup_all(DocId(d), ClientId(excl)),
                        "doc {} exclude {}", d, excl
                    );
                }
            }
            // Every lookup was mirrored, so the merged stats agree too.
            prop_assert_eq!(striped.stats(), exact.stats());
            let shards = striped.shard_stats();
            prop_assert_eq!(shards.len(), n_shards);
            prop_assert_eq!(shards.iter().map(|s| s.entries).sum::<u64>(), exact.entries());
        }
    }

    #[test]
    fn lock_tallies_accumulate() {
        let idx = StripedIndex::new(2);
        for i in 0..10u32 {
            idx.on_store(ClientId(0), DocId(i));
        }
        let total: u64 = idx.shard_stats().iter().map(|s| s.lock_acquires).sum();
        assert_eq!(total, 10);
    }
}
