//! Property-based tests of the exact browser index.

use baps_core::{ClientId, DocId};
use baps_index::ExactIndex;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone, Copy)]
enum Op {
    Store(u8, u16),
    Evict(u8, u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u8..8), (0u16..128)).prop_map(|(c, d)| Op::Store(c, d)),
            ((0u8..8), (0u16..128)).prop_map(|(c, d)| Op::Evict(c, d)),
        ],
        0..400,
    )
}

proptest! {
    /// The exact index always equals a shadow set of (client, doc) pairs.
    #[test]
    fn exact_index_mirror(ops in ops()) {
        let mut idx = ExactIndex::new();
        let mut shadow: HashSet<(u8, u16)> = HashSet::new();
        for op in ops {
            match op {
                Op::Store(c, d) => {
                    idx.on_store(ClientId(c as u32), DocId(d as u32));
                    shadow.insert((c, d));
                }
                Op::Evict(c, d) => {
                    idx.on_evict(ClientId(c as u32), DocId(d as u32));
                    shadow.remove(&(c, d));
                }
            }
            prop_assert_eq!(idx.entries() as usize, shadow.len());
        }
        // Every shadow pair must be visible to lookup_all from any other client.
        for &(c, d) in &shadow {
            let holders = idx.lookup_all(DocId(d as u32), ClientId(255));
            prop_assert!(holders.contains(&ClientId(c as u32)));
        }
        // And nothing else.
        for d in 0u16..128 {
            let holders = idx.lookup_all(DocId(d as u32), ClientId(255));
            for h in holders {
                prop_assert!(shadow.contains(&((h.0 as u8), d)));
            }
        }
    }
}
