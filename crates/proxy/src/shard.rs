//! Lock-tallied state for the proxy hot path.
//!
//! The proxy's memory tier is one [`BodyCache`] behind one mutex
//! ([`ShardedCache::single`]): a single byte-budgeted LRU over the whole
//! configured capacity, so recency is global and a document up to the whole
//! budget can stay cached. That is the model of the paper's §4 and of
//! `baps-sim` (`memory_tier_agrees_with_the_simulators_lru` holds the two
//! to the same hits and bytes). The browser index is the exact directory of
//! `baps-index`, the one index the live proxy runs. It has no byte budget,
//! so it is striped into [`DEFAULT_INDEX_SHARDS`] independent shards routed
//! by a fixed multiplicative hash of the [`DocId`], each behind its own
//! mutex; every index operation is keyed by document, so striping keeps the
//! directory exact. Every lock is held only for the in-memory operation,
//! never across socket I/O (see DESIGN.md's lock map), and tallies its
//! acquisitions and cumulative lock-wait time so the `METRICS` verb can
//! report contention.
//!
//! [`ShardedCache::new`] with more than one shard, [`auto_shards`],
//! [`MIN_SHARD_CAPACITY`] and [`MAX_SHARDS`] exist only for the benchmark's
//! per-layer binary (`bench_layers`); the proxy names none of them. Such a
//! cache splits its byte budget evenly across shards, so recency is per
//! shard and a document larger than one shard's slice never stays cached.

use crate::store::{BodyCache, CachedDoc};
use baps_core::{ClientId, DocId};
use baps_index::{ExactIndex, IndexStats};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Locks `mutex`, attributing the wait (the time between asking for the
/// lock and holding it) to `wait_nanos`. An uncontended acquisition has
/// nothing to attribute, so it goes through `try_lock` — one CAS, no
/// clock reads; two clock reads on *every* cache lookup measurably taxed
/// the hot path. Only the contended slow path pays for timing, and skips
/// it while recording is off so the `recording` bench can difference it.
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

/// Smallest per-shard byte budget [`auto_shards`] will carve out. Only the
/// benchmark's per-layer binary splits a budget (see the module doc).
pub const MIN_SHARD_CAPACITY: u64 = 32 << 10;
/// Upper bound on the automatic shard count. Benchmark-only, as above.
pub const MAX_SHARDS: usize = 16;
/// Shard count for the striped browser index (see DESIGN.md §6b for the
/// sizing argument). Index shards have no byte budget to split, so
/// sharding is semantics-preserving at any count and a fixed stripe width
/// suffices.
pub const DEFAULT_INDEX_SHARDS: usize = 16;

/// Deterministic shard routing: Fibonacci multiplicative hashing spreads
/// dense interner-assigned ids evenly instead of clustering neighbours. The
/// assignment is the same across runs and processes, which the per-shard
/// occupancy gauges rely on.
fn shard_of(doc: DocId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (((doc.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n_shards
}

/// Capacity-adaptive shard count: one shard per [`MIN_SHARD_CAPACITY`]
/// bytes, between 1 and [`MAX_SHARDS`]. Benchmark-only: the proxy's memory
/// tier is [`ShardedCache::single`].
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

/// One or more [`BodyCache`]s, each behind its own tallied lock. The
/// proxy's is [`single`](Self::single): one LRU over the whole budget.
pub struct ShardedCache {
    shards: Vec<CacheShard>,
}

impl ShardedCache {
    /// The proxy's memory tier: one LRU holding at most `capacity` body
    /// bytes, behind one lock.
    pub fn single(capacity: u64) -> Self {
        ShardedCache::new(capacity, 1)
    }

    /// Creates a cache of `n_shards` doc-hashed shards splitting `capacity`
    /// bytes (the first shards absorb any remainder byte). Kept for the
    /// benchmark's per-layer binary only; see the module doc.
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

    /// Inserts a document, evicting least recent documents as needed. The
    /// proxy has nobody to tell about its own victims (only a browser sends
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

    /// Whether the index lists `client` as a holder of `doc`. Unlike
    /// [`lookup_all`](Self::lookup_all) it counts no lookup or hit.
    pub fn contains(&self, client: ClientId, doc: DocId) -> bool {
        self.locked(doc).contains(client, doc)
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
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 16] {
            for id in 0..1000 {
                let s = shard_of(DocId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(DocId(id), n), "stable per (doc, n)");
            }
        }
    }

    #[test]
    fn dense_ids_spread_across_shards() {
        let n = 16;
        let mut hist = vec![0u32; n];
        for id in 0..160 {
            hist[shard_of(DocId(id), n)] += 1;
        }
        let occupied = hist.iter().filter(|&&h| h > 0).count();
        assert!(occupied >= n / 2, "dense ids clustered: {hist:?}");
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

    /// A capacity and up to 200 get-or-insert operations `(doc, size)`, each
    /// body between one byte and the whole capacity. Capacities reach 128
    /// KiB, where [`auto_shards`] would have cut the budget in four.
    fn tier_ops() -> impl Strategy<Value = (u64, Vec<(u32, u64)>)> {
        let ops = proptest::collection::vec(((0u32..64), any::<u64>()), 0..200);
        ((1u64..=(128 << 10)), ops).prop_map(|(capacity, ops)| {
            let ops = ops.into_iter().map(|(d, r)| (d, 1 + r % capacity));
            (capacity, ops.collect())
        })
    }

    proptest! {
        /// The proxy's memory tier is the simulator's LRU: the cache
        /// `ProxyState` builds and the `TieredLru` that `baps-sim` runs for
        /// an all-memory LRU proxy give the same hit or miss on every
        /// get-or-insert and hold the same bytes after it.
        #[test]
        fn memory_tier_agrees_with_the_simulators_lru(case in tier_ops()) {
            let (capacity, ops) = case;
            let live = ShardedCache::single(capacity);
            let mut sim = baps_cache::TieredLru::with_mem_fraction(capacity, 1.0);
            let watermark = ProxySigner::generate(&mut StdRng::seed_from_u64(1)).watermark(b"any");
            for (d, size) in ops {
                let (doc, url) = (DocId(d), format!("http://origin/doc/{d}"));
                let live_hit = live.get(doc, &url).is_some();
                if !live_hit {
                    let body = vec![0u8; size as usize].into();
                    live.insert(doc, &url, CachedDoc { body, watermark });
                }
                let sim_hit = sim.touch(&doc).is_some();
                if !sim_hit {
                    sim.insert(doc, size);
                }
                prop_assert_eq!(live_hit, sim_hit, "doc {} size {}", d, size);
                prop_assert_eq!(live.used(), sim.used());
            }
            prop_assert_eq!(live.entries(), sim.len() as u64);
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
