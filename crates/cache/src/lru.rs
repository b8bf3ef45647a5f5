//! Byte-capacity LRU cache, the replacement policy the paper simulates.
//!
//! Entries are whole Web documents: each has a key, a byte size and a
//! value that rides in the entry itself (`()` for the simulator, which
//! only asks *whether* a document is cached; a body or a disk entry's
//! metadata for the live proxy). The cache holds at most `capacity` bytes.
//! All operations are O(1) expected. Documents larger than the whole cache
//! are not admitted (standard Web cache behaviour; admitting them would
//! flush the entire cache for an object that can never be reused before
//! eviction).
//!
//! A key or value lives exactly as long as its entry: eviction,
//! replacement, rejection and removal drop the value and the cache's
//! copies of the key.

use crate::slablist::{Handle, SlabList};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Result of an [`ByteLru::insert`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome<K> {
    /// Whether the object was admitted to the cache.
    pub admitted: bool,
    /// Entries evicted to make room, in eviction (LRU-first) order.
    pub evicted: Vec<(K, u64)>,
}

impl<K> InsertOutcome<K> {
    fn rejected() -> Self {
        InsertOutcome {
            admitted: false,
            evicted: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    size: u64,
    value: V,
}

/// An LRU cache bounded by total bytes rather than entry count. Lookups
/// go through [`Borrow`], so a cache keyed by `Arc<str>` is probed with a
/// `&str`.
#[derive(Debug, Clone)]
pub struct ByteLru<K, V = ()> {
    map: HashMap<K, Handle>,
    list: SlabList<Entry<K, V>>,
    capacity: u64,
    used: u64,
}

impl<K: Hash + Eq + Clone, V> ByteLru<K, V> {
    /// Creates a cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        ByteLru {
            map: HashMap::new(),
            list: SlabList::new(),
            capacity,
            used: 0,
        }
    }

    /// The byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is cached (does not promote).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Size of the cached copy of `key`, if present (does not promote).
    pub fn size_of<Q>(&self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &h = self.map.get(key)?;
        self.list.get(h).map(|e| e.size)
    }

    /// Looks `key` up and promotes it to most-recently-used on a hit.
    /// Returns the cached size and the entry's value.
    pub fn get_entry<Q>(&mut self, key: &Q) -> Option<(u64, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &h = self.map.get(key)?;
        self.list.move_to_front(h);
        self.list.get(h).map(|e| (e.size, &e.value))
    }

    /// [`get_entry`](Self::get_entry) that returns the cached size only.
    pub fn touch<Q>(&mut self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_entry(key).map(|(size, _)| size)
    }

    /// [`get_entry`](Self::get_entry) that returns the entry's value only.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_entry(key).map(|(_, value)| value)
    }

    /// The value of `key` for editing in place (does not promote). The
    /// entry's size is fixed at insert; the value is not charged.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &h = self.map.get(key)?;
        self.list.get_mut(h).map(|e| &mut e.value)
    }

    /// Inserts (or refreshes) `key` with `size` bytes, evicting LRU entries
    /// as needed. An existing entry with the same key is replaced (its size
    /// and value updated) and promoted; one that has grown past the whole
    /// cache is only purged.
    pub fn insert(&mut self, key: K, size: u64, value: V) -> InsertOutcome<K> {
        self.insert_with(key, size, value, |_, _, _| {})
    }

    /// [`insert`](Self::insert) for a caller whose values name something
    /// outside the cache: `displaced` is handed every entry the insert
    /// takes out — the copy of `key` it replaces, then each victim in
    /// eviction order — with its size and value.
    pub fn insert_with(
        &mut self,
        key: K,
        size: u64,
        value: V,
        mut displaced: impl FnMut(&K, u64, V),
    ) -> InsertOutcome<K> {
        // Drop an existing copy first so its bytes are reclaimed.
        if let Some((old_size, old)) = self.take(&key) {
            displaced(&key, old_size, old);
        }
        if size > self.capacity {
            return InsertOutcome::rejected();
        }
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            let victim = self.pop_lru_entry().expect("used > 0 implies entries");
            displaced(&victim.key, victim.size, victim.value);
            evicted.push((victim.key, victim.size));
        }
        let h = self.list.push_front(Entry {
            key: key.clone(),
            size,
            value,
        });
        self.map.insert(key, h);
        self.used += size;
        InsertOutcome {
            admitted: true,
            evicted,
        }
    }

    /// Removes `key`; returns its size if it was cached.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.take(key).map(|(size, _)| size)
    }

    /// [`remove`](Self::remove) that also hands back the entry's value.
    pub fn take<Q>(&mut self, key: &Q) -> Option<(u64, V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = self.map.remove(key)?;
        let Entry { size, value, .. } = self.list.remove(h);
        self.used -= size;
        Some((size, value))
    }

    fn pop_lru_entry(&mut self) -> Option<Entry<K, V>> {
        let entry = self.list.pop_back()?;
        self.map.remove(&entry.key);
        self.used -= entry.size;
        Some(entry)
    }

    /// Evicts the least-recently-used entry; returns its key and size.
    pub fn pop_lru(&mut self) -> Option<(K, u64)> {
        self.pop_lru_entry().map(|e| (e.key, e.size))
    }

    /// Iterates entries (key and size) most-recent first.
    pub fn iter_mru(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.list.iter().map(|e| (&e.key, e.size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_hit() {
        let mut c = ByteLru::new(100);
        assert!(c.insert("a", 40, ()).admitted);
        assert_eq!(c.touch(&"a"), Some(40));
        assert_eq!(c.touch(&"b"), None);
        assert_eq!(c.used(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        c.insert("b", 40, ());
        let out = c.insert("c", 40, ()); // must evict "a"
        assert_eq!(out.evicted, vec![("a", 40)]);
        assert!(!c.contains(&"a"));
        assert!(c.contains(&"b"));
        assert_eq!(c.used(), 80);
    }

    #[test]
    fn touch_promotes_against_eviction() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        c.insert("b", 40, ());
        c.touch(&"a"); // now "b" is LRU
        let out = c.insert("c", 40, ());
        assert_eq!(out.evicted, vec![("b", 40)]);
        assert!(c.contains(&"a"));
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        let out = c.insert("big", 101, ());
        assert!(!out.admitted);
        assert!(out.evicted.is_empty());
        // Cache undisturbed.
        assert!(c.contains(&"a"));
    }

    #[test]
    fn oversized_update_purges_stale_copy() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        let out = c.insert("a", 200, ()); // "a" grew past the cache
        assert!(!out.admitted);
        assert!(!c.contains(&"a"));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        c.insert("a", 70, ());
        assert_eq!(c.used(), 70);
        assert_eq!(c.size_of(&"a"), Some(70));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn exact_fit_evicts_everything_needed() {
        let mut c = ByteLru::new(100);
        c.insert("a", 30, ());
        c.insert("b", 30, ());
        c.insert("c", 30, ());
        let out = c.insert("d", 100, ());
        assert!(out.admitted);
        assert_eq!(out.evicted.len(), 3);
        assert_eq!(c.used(), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_frees_bytes() {
        let mut c = ByteLru::new(100);
        c.insert("a", 60, ());
        assert_eq!(c.remove(&"a"), Some(60));
        assert_eq!(c.remove(&"a"), None);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn insert_with_hands_over_the_replaced_copy_then_the_victims() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, 'a');
        c.insert("b", 40, 'b');
        c.insert("c", 10, 'c');
        let mut displaced = Vec::new();
        let out = c.insert_with("c", 60, 'C', |&k, size, v| displaced.push((k, size, v)));
        assert_eq!(out.evicted, vec![("a", 40)]);
        assert_eq!(displaced, vec![("c", 10, 'c'), ("a", 40, 'a')]);
        assert_eq!(c.get_entry(&"c"), Some((60, &'C')));
        assert_eq!(c.take(&"b"), Some((40, 'b')));
        assert_eq!(c.used(), 60);
        // A rejected insert still hands over the copy it purged.
        displaced.clear();
        let out = c.insert_with("c", 101, '!', |&k, size, v| displaced.push((k, size, v)));
        assert!(!out.admitted);
        assert_eq!(displaced, vec![("c", 60, 'C')]);
        assert!(c.is_empty());
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut c = ByteLru::new(100);
        c.insert("a", 10, ());
        c.insert("b", 10, ());
        c.touch(&"a");
        assert_eq!(c.pop_lru(), Some(("b", 10)));
        assert_eq!(c.pop_lru(), Some(("a", 10)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn iter_mru_order() {
        let mut c = ByteLru::new(100);
        c.insert("a", 10, ());
        c.insert("b", 10, ());
        c.insert("c", 10, ());
        c.touch(&"a");
        let keys: Vec<&str> = c.iter_mru().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec!["a", "c", "b"]);
    }

    #[test]
    fn size_of_does_not_promote() {
        let mut c = ByteLru::new(100);
        c.insert("a", 40, ());
        c.insert("b", 40, ());
        assert_eq!(c.size_of(&"a"), Some(40));
        // "a" is still LRU.
        let out = c.insert("c", 40, ());
        assert_eq!(out.evicted, vec![("a", 40)]);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c: ByteLru<u32> = ByteLru::new(0);
        assert!(!c.insert(1, 1, ()).admitted);
        assert!(c.is_empty());
    }

    #[test]
    fn value_rides_in_the_entry() {
        use std::sync::Arc;
        let mut c: ByteLru<Arc<str>, u32> = ByteLru::new(100);
        c.insert("a".into(), 40, 1);
        c.insert("b".into(), 40, 2);
        // Probed with a `&str`; `get` promotes, `peek_mut` does not.
        assert_eq!(c.get("a"), Some(&1));
        *c.peek_mut("b").unwrap() = 20;
        let out = c.insert("c".into(), 40, 3);
        assert_eq!(out.evicted, vec![("b".into(), 40)]);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.peek_mut("b"), None);
        c.insert("a".into(), 10, 11);
        assert_eq!(c.get("a"), Some(&11));
        assert_eq!(c.used(), 50);
    }
}
