//! Two-tier (memory + disk) LRU cache model.
//!
//! The paper's §4.2 compares *memory byte hit ratios*: the fraction of hit
//! bytes served from the RAM-resident part of a cache (set to 1/10 of the
//! cache size, per the Squid measurements it cites). A [`TieredLru`] models
//! this as a memory segment holding the most-recently-used bytes and a disk
//! segment holding the rest:
//!
//! * hits in the memory segment stay in memory;
//! * hits in the disk segment promote the object to the memory front,
//!   demoting memory-LRU objects to the disk front;
//! * inserts go to the memory front; overflow demotes.
//!
//! Eviction is governed by the **global** byte budget (memory + disk), so
//! the concatenation `memory ++ disk` is *exactly* the recency order of a
//! flat LRU of the combined capacity: overall hit ratios are unchanged by
//! tiering — only the memory/disk attribution differs. Objects larger than
//! the memory segment demote the whole memory segment and sit at the disk
//! front (they can never be RAM-resident, but their global recency position
//! still matches flat LRU).

use crate::lru::{ByteLru, InsertOutcome};
use std::hash::Hash;

/// Which tier served a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// RAM-resident segment.
    Memory,
    /// Disk-resident segment.
    Disk,
}

/// A two-segment LRU with a shared global byte budget.
#[derive(Debug, Clone)]
pub struct TieredLru<K> {
    mem: ByteLru<K>,
    /// Unbounded list; overflow is enforced against `total_capacity`.
    disk: ByteLru<K>,
    total_capacity: u64,
}

impl<K: Hash + Eq + Copy> TieredLru<K> {
    /// Creates a tiered cache with `mem_capacity` bytes of memory and
    /// `disk_capacity` bytes of disk.
    pub fn new(mem_capacity: u64, disk_capacity: u64) -> Self {
        TieredLru {
            mem: ByteLru::new(mem_capacity),
            disk: ByteLru::new(u64::MAX),
            total_capacity: mem_capacity + disk_capacity,
        }
    }

    /// Creates a tiered cache of `total` bytes with a memory segment of
    /// `mem_fraction` (e.g. 0.1 for the paper's 1/10 rule).
    pub fn with_mem_fraction(total: u64, mem_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&mem_fraction));
        let mem = (total as f64 * mem_fraction).round() as u64;
        TieredLru::new(mem, total - mem)
    }

    /// Combined byte capacity.
    pub fn capacity(&self) -> u64 {
        self.total_capacity
    }

    /// Memory-segment capacity.
    pub fn mem_capacity(&self) -> u64 {
        self.mem.capacity()
    }

    /// Combined bytes stored.
    pub fn used(&self) -> u64 {
        self.mem.used() + self.disk.used()
    }

    /// Combined entry count.
    pub fn len(&self) -> usize {
        self.mem.len() + self.disk.len()
    }

    /// Whether both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is present in either tier.
    pub fn contains(&self, key: &K) -> bool {
        self.mem.contains(key) || self.disk.contains(key)
    }

    /// Size of the cached copy in either tier (no promotion).
    pub fn size_of(&self, key: &K) -> Option<u64> {
        self.mem.size_of(key).or_else(|| self.disk.size_of(key))
    }

    /// Which tier currently holds `key`, if cached (no promotion).
    pub fn tier_of(&self, key: &K) -> Option<Tier> {
        if self.mem.contains(key) {
            Some(Tier::Memory)
        } else if self.disk.contains(key) {
            Some(Tier::Disk)
        } else {
            None
        }
    }

    /// Looks up `key`; on a hit returns the size and the tier that held it,
    /// promoting the object to the memory front. Promotion never evicts
    /// (global bytes are unchanged), it only demotes memory-LRU objects to
    /// the disk front.
    pub fn touch(&mut self, key: &K) -> Option<(u64, Tier)> {
        if let Some(size) = self.mem.touch(key) {
            return Some((size, Tier::Memory));
        }
        let size = self.disk.remove(key)?;
        let evicted = self.admit(*key, size);
        debug_assert!(evicted.is_empty(), "promotion must not evict");
        Some((size, Tier::Disk))
    }

    /// Inserts `key`; returns entries evicted from the global LRU end.
    /// Objects larger than the combined capacity are rejected (a stale
    /// smaller copy, if any, is purged).
    pub fn insert(&mut self, key: K, size: u64) -> InsertOutcome<K> {
        if size > self.total_capacity {
            self.remove(key);
            return InsertOutcome {
                admitted: false,
                evicted: Vec::new(),
            };
        }
        // Drop any stale copy so bytes are reclaimed before admission.
        self.remove(key);
        let evicted = self.admit(key, size);
        InsertOutcome {
            admitted: true,
            evicted,
        }
    }

    /// Removes `key` from whichever tier holds it.
    pub fn remove(&mut self, key: K) -> Option<u64> {
        self.mem.remove(&key).or_else(|| self.disk.remove(&key))
    }

    /// Admits an object at the logical MRU position, cascading demotions,
    /// then enforces the global byte budget. Returns evicted entries.
    fn admit(&mut self, key: K, size: u64) -> Vec<(K, u64)> {
        if size > self.mem.capacity() {
            // The object can never be RAM-resident. To keep global recency
            // identical to a flat LRU ([big][old mem][old disk]), demote the
            // entire memory segment (LRU-first, so order is preserved) and
            // place the object at the disk front.
            while let Some((k, s)) = self.mem.pop_lru() {
                self.disk.insert(k, s, ());
            }
            self.disk.insert(key, size, ());
        } else {
            let spill = self.mem.insert(key, size, ()).evicted;
            // Demote spilled memory entries to the disk front: spill is
            // LRU-first and each insert lands at the disk front, so the most
            // recent demotee ends up frontmost.
            for (k, s) in spill {
                self.disk.insert(k, s, ());
            }
        }
        // Enforce the global budget from the global LRU end (disk back,
        // then memory back if the disk tier is empty).
        let mut evicted = Vec::new();
        while self.used() > self.total_capacity {
            let victim = self
                .disk
                .pop_lru()
                .or_else(|| self.mem.pop_lru())
                .expect("used > 0 implies entries");
            evicted.push(victim);
        }
        evicted
    }

    /// Iterates all entries in global recency order (memory first).
    pub fn iter_mru(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.mem
            .iter_mru()
            .chain(self.disk.iter_mru())
            .map(|(&k, s)| (k, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_hit_vs_disk_hit() {
        let mut c = TieredLru::new(50, 100);
        c.insert("a", 40);
        c.insert("b", 40); // "a" demoted to disk
        assert_eq!(c.touch(&"b"), Some((40, Tier::Memory)));
        assert_eq!(c.touch(&"a"), Some((40, Tier::Disk)));
        // "a" is now memory-resident.
        assert_eq!(c.touch(&"a"), Some((40, Tier::Memory)));
    }

    #[test]
    fn global_eviction_from_disk_end() {
        let mut c = TieredLru::new(50, 50);
        c.insert("a", 40);
        c.insert("b", 40); // a -> disk
        let out = c.insert("c", 40); // b -> disk, a evicted
        assert_eq!(out.evicted, vec![("a", 40)]);
        assert!(c.contains(&"b"));
        assert!(c.contains(&"c"));
        assert!(c.used() <= c.capacity());
    }

    #[test]
    fn matches_flat_lru_content() {
        // Same operation sequence on a tiered and a flat LRU must keep the
        // same content and recency order when objects fit in memory.
        let mut tiered = TieredLru::new(64, 192);
        let mut flat = ByteLru::new(256);
        let keys = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let ops: Vec<(u32, u64)> = (0..200)
            .map(|i| (keys[(i * 7 + 3) % keys.len()], 20 + (i as u64 * 13) % 40))
            .collect();
        for &(k, s) in &ops {
            if tiered.contains(&k) && tiered.size_of(&k) == Some(s) {
                tiered.touch(&k);
                flat.touch(&k);
            } else {
                tiered.insert(k, s);
                flat.insert(k, s, ());
            }
        }
        let t: Vec<(u32, u64)> = tiered.iter_mru().collect();
        let f: Vec<(u32, u64)> = flat.iter_mru().map(|(&k, s)| (k, s)).collect();
        assert_eq!(t, f);
    }

    #[test]
    fn promotion_never_evicts() {
        let mut c = TieredLru::new(64, 192);
        // Fill to the brim with 32-byte objects.
        for k in 0u32..8 {
            c.insert(k, 32);
        }
        assert_eq!(c.used(), 256);
        let before = c.len();
        // Promote the deepest disk entry; nothing may be evicted.
        assert_eq!(c.touch(&0), Some((32, Tier::Disk)));
        assert_eq!(c.len(), before);
        assert_eq!(c.used(), 256);
    }

    #[test]
    fn object_bigger_than_memory_goes_to_disk() {
        let mut c = TieredLru::new(50, 200);
        let out = c.insert("big", 120);
        assert!(out.admitted);
        assert_eq!(c.touch(&"big"), Some((120, Tier::Disk)));
    }

    #[test]
    fn object_bigger_than_total_rejected() {
        let mut c = TieredLru::new(50, 100);
        c.insert("a", 30);
        let out = c.insert("huge", 200);
        assert!(!out.admitted);
        assert!(c.contains(&"a"));
    }

    #[test]
    fn oversize_update_purges_stale_copy() {
        let mut c = TieredLru::new(50, 100);
        c.insert("a", 30);
        assert!(!c.insert("a", 500).admitted);
        assert!(!c.contains(&"a"));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn remove_from_either_tier() {
        let mut c = TieredLru::new(50, 100);
        c.insert("a", 40);
        c.insert("b", 40); // a in disk
        assert_eq!(c.remove("a"), Some(40));
        assert_eq!(c.remove("b"), Some(40));
        assert_eq!(c.remove("b"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn with_mem_fraction_splits() {
        let c: TieredLru<u32> = TieredLru::with_mem_fraction(1000, 0.1);
        assert_eq!(c.mem_capacity(), 100);
        assert_eq!(c.capacity(), 1000);
    }

    #[test]
    fn demotion_preserves_recency_order() {
        let mut c = TieredLru::new(60, 120);
        c.insert(1u32, 30);
        c.insert(2, 30);
        c.insert(3, 30); // demotes 1
        c.insert(4, 30); // demotes 2
        let order: Vec<u32> = c.iter_mru().map(|(k, _)| k).collect();
        assert_eq!(order, vec![4, 3, 2, 1]);
    }

    #[test]
    fn zero_disk_behaves_like_flat_memory_lru() {
        let mut c = TieredLru::new(100, 0);
        c.insert("a", 60);
        let out = c.insert("b", 60);
        assert_eq!(out.evicted, vec![("a", 60)]);
        assert_eq!(c.touch(&"b"), Some((60, Tier::Memory)));
    }
}
