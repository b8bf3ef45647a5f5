//! Replacement-policy framework.
//!
//! The paper's simulator uses LRU everywhere; we additionally provide LFU,
//! GDSF (GreedyDual-Size with Frequency), SIZE and FIFO so the benchmark
//! suite can run replacement-policy ablations. All policies share the
//! [`DocCache`] trait and the [`AnyCache`] enum-dispatch wrapper so the
//! simulator is policy-agnostic. [`Policy`] itself lives in `baps-core`,
//! beside the `SystemConfig` that names it.

use baps_core::{ByteLru, InsertOutcome, Policy};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// Common interface of byte-capacity document caches.
pub trait DocCache<K> {
    /// Byte capacity.
    fn capacity(&self) -> u64;
    /// Bytes currently stored.
    fn used(&self) -> u64;
    /// Number of entries.
    fn len(&self) -> usize;
    /// Whether `key` is present (no side effects).
    fn contains(&self, key: &K) -> bool;
    /// Size of the cached copy, if any (no side effects).
    fn size_of(&self, key: &K) -> Option<u64>;
    /// Registers a hit on `key` (promotes per policy); returns cached size.
    fn touch(&mut self, key: &K) -> Option<u64>;
    /// Inserts `key`, evicting per policy.
    fn insert(&mut self, key: K, size: u64) -> InsertOutcome<K>;
    /// Removes `key`; returns its size if present.
    fn remove(&mut self, key: &K) -> Option<u64>;
    /// Whether the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Copy> DocCache<K> for ByteLru<K> {
    fn capacity(&self) -> u64 {
        ByteLru::capacity(self)
    }
    fn used(&self) -> u64 {
        ByteLru::used(self)
    }
    fn len(&self) -> usize {
        ByteLru::len(self)
    }
    fn contains(&self, key: &K) -> bool {
        ByteLru::contains(self, key)
    }
    fn size_of(&self, key: &K) -> Option<u64> {
        ByteLru::size_of(self, key)
    }
    fn touch(&mut self, key: &K) -> Option<u64> {
        ByteLru::touch(self, key)
    }
    fn insert(&mut self, key: K, size: u64) -> InsertOutcome<K> {
        ByteLru::insert(self, key, size, ())
    }
    fn remove(&mut self, key: &K) -> Option<u64> {
        ByteLru::remove(self, key)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Ordered priority; the minimum (prio, tick) pair is evicted first.
    prio: u64,
    tick: u64,
    size: u64,
    freq: u64,
}

/// Priority-ordered cache implementing LFU / GDSF / SIZE / FIFO.
///
/// Eviction removes the entry with the smallest `(priority, tick)`;
/// per-policy priorities are computed internally per policy kind.
#[derive(Debug, Clone)]
pub struct RankedCache<K: Hash + Eq + Copy + Ord> {
    kind: Policy,
    map: HashMap<K, Entry>,
    order: BTreeSet<(u64, u64, K)>,
    capacity: u64,
    used: u64,
    tick: u64,
    /// GDSF inflation value L (the priority of the last evicted entry).
    inflation: f64,
}

impl<K: Hash + Eq + Copy + Ord> RankedCache<K> {
    /// Creates a cache with the given policy and byte capacity.
    ///
    /// # Panics
    /// Panics if `kind` is [`Policy::Lru`]; use [`ByteLru`] for LRU.
    pub fn new(kind: Policy, capacity: u64) -> Self {
        assert!(kind != Policy::Lru, "use ByteLru for LRU");
        RankedCache {
            kind,
            map: HashMap::new(),
            order: BTreeSet::new(),
            capacity,
            used: 0,
            tick: 0,
            inflation: 0.0,
        }
    }

    fn priority(&self, size: u64, freq: u64) -> u64 {
        match self.kind {
            Policy::Lru => unreachable!(),
            Policy::Lfu => freq,
            Policy::Gdsf => {
                // H = L + freq / size; encode the non-negative f64 by its
                // bit pattern, which preserves order.
                let h = self.inflation + freq as f64 / (size.max(1)) as f64;
                h.to_bits()
            }
            Policy::Size => u64::MAX - size,
            Policy::Fifo => 0, // tick (insertion order) breaks ties
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl<K: Hash + Eq + Copy + Ord> DocCache<K> for RankedCache<K> {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn size_of(&self, key: &K) -> Option<u64> {
        self.map.get(key).map(|e| e.size)
    }

    fn touch(&mut self, key: &K) -> Option<u64> {
        let tick = self.next_tick();
        let entry = *self.map.get(key)?;
        let mut updated = entry;
        updated.freq = entry.freq.saturating_add(1);
        match self.kind {
            // FIFO ignores hits entirely.
            Policy::Fifo => return Some(entry.size),
            Policy::Size => {
                // Priority is size-only; refresh frequency bookkeeping.
                self.map.insert(*key, updated);
                return Some(entry.size);
            }
            _ => {}
        }
        updated.prio = self.priority(updated.size, updated.freq);
        updated.tick = tick;
        self.order.remove(&(entry.prio, entry.tick, *key));
        self.order.insert((updated.prio, updated.tick, *key));
        self.map.insert(*key, updated);
        Some(entry.size)
    }

    fn insert(&mut self, key: K, size: u64) -> InsertOutcome<K> {
        if size > self.capacity {
            self.remove(&key);
            return InsertOutcome {
                admitted: false,
                evicted: Vec::new(),
            };
        }
        self.remove(&key);
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            let &(prio, tick, victim) = self.order.iter().next().expect("used > 0");
            self.order.remove(&(prio, tick, victim));
            let e = self.map.remove(&victim).expect("map/order in sync");
            self.used -= e.size;
            if self.kind == Policy::Gdsf {
                self.inflation = f64::from_bits(e.prio);
            }
            evicted.push((victim, e.size));
        }
        let tick = self.next_tick();
        let entry = Entry {
            prio: self.priority(size, 1),
            tick,
            size,
            freq: 1,
        };
        self.order.insert((entry.prio, entry.tick, key));
        self.map.insert(key, entry);
        self.used += size;
        InsertOutcome {
            admitted: true,
            evicted,
        }
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        let e = self.map.remove(key)?;
        self.order.remove(&(e.prio, e.tick, *key));
        self.used -= e.size;
        Some(e.size)
    }
}

/// Enum-dispatch wrapper so callers can hold any policy uniformly.
#[derive(Debug, Clone)]
pub enum AnyCache<K: Hash + Eq + Copy + Ord> {
    /// O(1) LRU.
    Lru(ByteLru<K>),
    /// Priority-ordered policies.
    Ranked(RankedCache<K>),
}

impl<K: Hash + Eq + Copy + Ord> AnyCache<K> {
    /// Creates a cache with the given policy and capacity.
    pub fn new(policy: Policy, capacity: u64) -> Self {
        match policy {
            Policy::Lru => AnyCache::Lru(ByteLru::new(capacity)),
            other => AnyCache::Ranked(RankedCache::new(other, capacity)),
        }
    }

    /// The policy this cache runs.
    pub fn policy(&self) -> Policy {
        match self {
            AnyCache::Lru(_) => Policy::Lru,
            AnyCache::Ranked(r) => r.kind,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $c:ident, $e:expr) => {
        match $self {
            AnyCache::Lru($c) => $e,
            AnyCache::Ranked($c) => $e,
        }
    };
}

impl<K: Hash + Eq + Copy + Ord> DocCache<K> for AnyCache<K> {
    fn capacity(&self) -> u64 {
        dispatch!(self, c, c.capacity())
    }
    fn used(&self) -> u64 {
        dispatch!(self, c, c.used())
    }
    fn len(&self) -> usize {
        dispatch!(self, c, c.len())
    }
    fn contains(&self, key: &K) -> bool {
        dispatch!(self, c, c.contains(key))
    }
    fn size_of(&self, key: &K) -> Option<u64> {
        dispatch!(self, c, c.size_of(key))
    }
    fn touch(&mut self, key: &K) -> Option<u64> {
        dispatch!(self, c, c.touch(key))
    }
    fn insert(&mut self, key: K, size: u64) -> InsertOutcome<K> {
        dispatch!(self, c, DocCache::insert(c, key, size))
    }
    fn remove(&mut self, key: &K) -> Option<u64> {
        dispatch!(self, c, c.remove(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = RankedCache::new(Policy::Lfu, 100);
        c.insert(1u32, 40);
        c.insert(2, 40);
        c.touch(&1);
        c.touch(&1);
        let out = c.insert(3, 40);
        assert_eq!(out.evicted, vec![(2, 40)]);
        assert!(c.contains(&1));
    }

    #[test]
    fn lfu_ties_break_oldest_first() {
        let mut c = RankedCache::new(Policy::Lfu, 100);
        c.insert(1u32, 40);
        c.insert(2, 40);
        // Equal frequency: evict 1 (older tick).
        let out = c.insert(3, 40);
        assert_eq!(out.evicted, vec![(1, 40)]);
    }

    #[test]
    fn size_policy_evicts_largest() {
        let mut c = RankedCache::new(Policy::Size, 100);
        c.insert(1u32, 60);
        c.insert(2, 30);
        let out = c.insert(3, 50);
        assert_eq!(out.evicted, vec![(1, 60)]);
        assert!(c.contains(&2));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = RankedCache::new(Policy::Fifo, 100);
        c.insert(1u32, 40);
        c.insert(2, 40);
        c.touch(&1);
        c.touch(&1);
        // Despite the hits, 1 entered first and is evicted first.
        let out = c.insert(3, 40);
        assert_eq!(out.evicted, vec![(1, 40)]);
    }

    #[test]
    fn gdsf_prefers_small_frequent_docs() {
        let mut c = RankedCache::new(Policy::Gdsf, 1000);
        c.insert(1u32, 100); // small
        c.insert(2, 900); // large, same freq => much lower priority
        let out = c.insert(3, 500);
        assert_eq!(out.evicted, vec![(2, 900)]);
        assert!(c.contains(&1));
    }

    #[test]
    fn gdsf_inflation_ages_old_entries() {
        let mut c = RankedCache::new(Policy::Gdsf, 1000);
        c.insert(1u32, 500);
        for _ in 0..50 {
            c.touch(&1); // freq 51 -> priority ~0.102
        }
        c.insert(2, 400); // freq 1 -> priority 0.0025
        let out = c.insert(3, 200); // overflow: evicts doc 2, not hot doc 1
        assert_eq!(out.evicted, vec![(2, 400)]);
        assert!(c.contains(&1));
        // Eviction raised the inflation value L.
        assert!(c.inflation > 0.0);
    }

    #[test]
    fn ranked_oversized_rejected() {
        let mut c = RankedCache::new(Policy::Lfu, 100);
        assert!(!c.insert(1u32, 101).admitted);
        assert!(c.is_empty());
    }

    #[test]
    fn ranked_reinsert_updates_size() {
        let mut c = RankedCache::new(Policy::Lfu, 100);
        c.insert(1u32, 40);
        c.insert(1, 70);
        assert_eq!(c.used(), 70);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ranked_remove() {
        let mut c = RankedCache::new(Policy::Size, 100);
        c.insert(1u32, 40);
        assert_eq!(c.remove(&1), Some(40));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.used(), 0);
        assert!(c.order.is_empty());
    }

    #[test]
    fn any_cache_dispatches() {
        for policy in Policy::all() {
            let mut c = AnyCache::new(policy, 100);
            assert_eq!(c.policy(), policy);
            assert!(c.insert(1u32, 50).admitted);
            assert_eq!(c.touch(&1), Some(50));
            assert_eq!(c.size_of(&1), Some(50));
            assert_eq!(c.used(), 50);
            assert_eq!(c.remove(&1), Some(50));
            assert!(c.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "use ByteLru")]
    fn ranked_rejects_lru_kind() {
        let _ = RankedCache::<u32>::new(Policy::Lru, 10);
    }
}
