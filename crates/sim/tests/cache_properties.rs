//! Property-based tests of the cache substrate invariants.

use baps_core::ByteLru;
use baps_sim::Policy;
use baps_sim::{AnyCache, DocCache, TieredLru};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated cache operation.
#[derive(Debug, Clone)]
enum Op {
    Touch(u16),
    Insert(u16, u64),
    Remove(u16),
}

fn op_strategy(max_size: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..64).prop_map(Op::Touch),
        ((0u16..64), (1..=max_size)).prop_map(|(k, s)| Op::Insert(k, s)),
        (0u16..64).prop_map(Op::Remove),
    ]
}

proptest! {
    /// Used bytes never exceed capacity, and used always equals the sum of
    /// the sizes of the entries the cache reports as present.
    #[test]
    fn lru_capacity_invariant(
        capacity in 1u64..2000,
        ops in proptest::collection::vec(op_strategy(600), 0..300),
    ) {
        let mut c = ByteLru::new(capacity);
        let mut shadow = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Touch(k) => {
                    let hit = c.touch(&k);
                    prop_assert_eq!(hit, shadow.get(&k).copied());
                }
                Op::Insert(k, s) => {
                    let out = c.insert(k, s, ());
                    if out.admitted {
                        shadow.insert(k, s);
                    } else {
                        shadow.remove(&k);
                    }
                    for (victim, _) in &out.evicted {
                        shadow.remove(victim);
                    }
                }
                Op::Remove(k) => {
                    let removed = c.remove(&k);
                    prop_assert_eq!(removed, shadow.remove(&k));
                }
            }
            prop_assert!(c.used() <= capacity);
            let shadow_bytes: u64 = shadow.values().sum();
            prop_assert_eq!(c.used(), shadow_bytes);
            prop_assert_eq!(c.len(), shadow.len());
        }
    }

    /// Recency order: replaying iter_mru from most to least recent, every
    /// entry's last access must be no older than the next entry's.
    #[test]
    fn lru_eviction_is_least_recent(
        ops in proptest::collection::vec(op_strategy(100), 1..200),
    ) {
        let mut c = ByteLru::new(300);
        let mut last_access: std::collections::HashMap<u16, usize> = Default::default();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Touch(k) => {
                    if c.touch(&k).is_some() {
                        last_access.insert(k, i);
                    }
                }
                Op::Insert(k, s) => {
                    let out = c.insert(k, s, ());
                    if out.admitted {
                        last_access.insert(k, i);
                    } else {
                        last_access.remove(&k);
                    }
                    for (v, _) in out.evicted {
                        last_access.remove(&v);
                    }
                }
                Op::Remove(k) => {
                    c.remove(&k);
                    last_access.remove(&k);
                }
            }
        }
        let order: Vec<u16> = c.iter_mru().map(|(&k, _)| k).collect();
        for w in order.windows(2) {
            prop_assert!(last_access[&w[0]] > last_access[&w[1]],
                "MRU order violated: {:?}", order);
        }
    }

    /// Every policy maintains the byte-capacity invariant and consistent
    /// bookkeeping under arbitrary operation sequences.
    #[test]
    fn all_policies_capacity_invariant(
        policy_idx in 0usize..5,
        capacity in 1u64..1500,
        ops in proptest::collection::vec(op_strategy(500), 0..250),
    ) {
        let policy = Policy::all()[policy_idx];
        let mut c = AnyCache::new(policy, capacity);
        let mut shadow = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Touch(k) => {
                    let hit = c.touch(&k);
                    prop_assert_eq!(hit, shadow.get(&k).copied());
                }
                Op::Insert(k, s) => {
                    let out = c.insert(k, s);
                    if out.admitted {
                        shadow.insert(k, s);
                    } else {
                        shadow.remove(&k);
                    }
                    for (victim, _) in &out.evicted {
                        shadow.remove(victim);
                    }
                }
                Op::Remove(k) => {
                    let removed = c.remove(&k);
                    prop_assert_eq!(removed, shadow.remove(&k));
                }
            }
            prop_assert!(c.used() <= capacity, "{:?} exceeded capacity", policy);
            prop_assert_eq!(c.used(), shadow.values().sum::<u64>());
            prop_assert_eq!(c.len(), shadow.len());
        }
    }

    /// A tiered LRU holds exactly the same entries, in the same global
    /// recency order, as a flat LRU of the combined capacity — including
    /// objects larger than the memory tier.
    #[test]
    fn tiered_equals_flat_lru(
        mem in 50u64..300,
        disk in 0u64..1200,
        ops in proptest::collection::vec(op_strategy(500), 0..300),
    ) {
        let mut tiered = TieredLru::new(mem, disk);
        let mut flat = ByteLru::new(mem + disk);
        for op in ops {
            match op {
                Op::Touch(k) => {
                    let t = tiered.touch(&k).map(|(s, _)| s);
                    let f = flat.touch(&k);
                    prop_assert_eq!(t, f);
                }
                Op::Insert(k, s) => {
                    let to = tiered.insert(k, s);
                    let fo = flat.insert(k, s, ());
                    prop_assert_eq!(to.admitted, fo.admitted);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tiered.remove(k), flat.remove(&k));
                }
            }
            prop_assert_eq!(tiered.used(), flat.used());
        }
        let t: Vec<(u16, u64)> = tiered.iter_mru().collect();
        let f: Vec<(u16, u64)> = flat.iter_mru().map(|(&k, s)| (k, s)).collect();
        prop_assert_eq!(t, f);
    }

    /// The keyed, value-carrying LRU against a naive `Vec`-ordered model:
    /// contents, `used`, recency order and returned victims agree after
    /// every operation — and the cache lets go. The model keeps one handle
    /// to every key and value it hands in; once an entry is evicted,
    /// replaced, rejected or removed, those handles are the only ones left
    /// (a name table beside the LRU would keep the key alive).
    #[test]
    fn keyed_lru_matches_model_and_lets_go(
        capacity in 1u64..400,
        ops in proptest::collection::vec(op_strategy(500), 0..300),
    ) {
        type Held = (Arc<str>, u64, Arc<()>);
        let mut c: ByteLru<Arc<str>, Arc<()>> = ByteLru::new(capacity);
        // Most recent first.
        let mut model: Vec<Held> = Vec::new();
        let name = |k: u16| format!("http://origin/doc/{k}");
        for op in ops {
            let mut dropped: Vec<Held> = Vec::new();
            match op {
                Op::Touch(k) => {
                    let at = model.iter().position(|e| *e.0 == *name(k));
                    let hit = c.get(name(k).as_str());
                    prop_assert_eq!(hit.is_some(), at.is_some());
                    if let Some(at) = at {
                        prop_assert!(Arc::ptr_eq(hit.unwrap(), &model[at].2));
                        let entry = model.remove(at);
                        model.insert(0, entry);
                    }
                }
                Op::Insert(k, size) => {
                    let (key, value): (Arc<str>, _) = (name(k).into(), Arc::new(()));
                    if let Some(at) = model.iter().position(|e| e.0 == key) {
                        dropped.push(model.remove(at));
                    }
                    let mut victims = Vec::new();
                    let admitted = size <= capacity;
                    if admitted {
                        while model.iter().map(|e| e.1).sum::<u64>() + size > capacity {
                            let lru = model.pop().expect("bytes held imply entries");
                            victims.push((Arc::clone(&lru.0), lru.1));
                            dropped.push(lru);
                        }
                        model.insert(0, (Arc::clone(&key), size, Arc::clone(&value)));
                    } else {
                        dropped.push((Arc::clone(&key), size, Arc::clone(&value)));
                    }
                    let out = c.insert(key, size, value);
                    prop_assert_eq!(out.admitted, admitted);
                    prop_assert_eq!(out.evicted, victims);
                }
                Op::Remove(k) => {
                    let at = model.iter().position(|e| *e.0 == *name(k));
                    let removed = c.remove(name(k).as_str());
                    prop_assert_eq!(removed, at.map(|at| model[at].1));
                    dropped.extend(at.map(|at| model.remove(at)));
                }
            }
            for (key, _, value) in &dropped {
                prop_assert_eq!(Arc::strong_count(key), 1, "cache kept the name {}", key);
                prop_assert_eq!(Arc::strong_count(value), 1, "cache kept the value of {}", key);
            }
            prop_assert_eq!(c.used(), model.iter().map(|e| e.1).sum::<u64>());
            prop_assert!(c.used() <= capacity);
            prop_assert_eq!(c.len(), model.len());
            let order: Vec<(Arc<str>, u64)> = c.iter_mru().map(|(k, s)| (Arc::clone(k), s)).collect();
            let expect: Vec<(Arc<str>, u64)> = model.iter().map(|e| (Arc::clone(&e.0), e.1)).collect();
            prop_assert_eq!(order, expect);
            for (key, _, value) in &model {
                prop_assert!(c.peek_mut(&**key).is_some_and(|v| Arc::ptr_eq(v, value)));
            }
        }
    }
}
