//! Doc-hash shard routing for an [`ExactIndex`](crate::ExactIndex)
//! striped into N independent shards.
//!
//! Every exact-index operation is keyed by document, so partitioning the
//! document space across shards preserves the exact semantics while letting
//! a concurrent caller (the live proxy's `StripedIndex` wraps each shard in
//! its own lock) touch only one shard per operation. The routing function
//! is a fixed multiplicative hash so the shard assignment is deterministic
//! across runs and processes — the proxy's per-shard occupancy gauges rely
//! on that.

use baps_trace::DocId;

/// Default shard count used by the live proxy (see DESIGN.md for the
/// sizing argument).
pub const DEFAULT_SHARDS: usize = 16;

/// Deterministic shard routing: Fibonacci multiplicative hashing spreads
/// dense interner-assigned ids evenly instead of clustering neighbours.
pub fn shard_of(doc: DocId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (((doc.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n_shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DocId {
        DocId(i)
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 16] {
            for id in 0..1000 {
                let s = shard_of(d(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(d(id), n), "stable per (doc, n)");
            }
        }
    }

    #[test]
    fn dense_ids_spread_across_shards() {
        let n = 16;
        let mut hist = vec![0u32; n];
        for id in 0..160 {
            hist[shard_of(d(id), n)] += 1;
        }
        let occupied = hist.iter().filter(|&&h| h > 0).count();
        assert!(occupied >= n / 2, "dense ids clustered: {hist:?}");
    }
}
