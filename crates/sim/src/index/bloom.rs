//! Bloom filters for compact per-client cache summaries.
//!
//! The paper's §5 cites Summary Cache (Fan et al., SIGCOMM '98) and URL
//! compression as ways to shrink the browser index. A plain [`BloomFilter`]
//! supports insert/query; a [`CountingBloom`] additionally supports removal
//! (4-bit counters in Summary Cache; we use 8-bit for simplicity) so a
//! browser can keep its summary incrementally up to date.

use baps_core::DocId;

/// SplitMix64 finaliser: cheap, well-distributed 64-bit mixing.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the `k` bit positions for a document via double hashing.
#[inline]
fn positions(doc: DocId, k: u32, bits: u64) -> impl Iterator<Item = u64> {
    let h1 = splitmix64(doc.0 as u64 ^ 0xdead_beef_0bad_cafe);
    let h2 = splitmix64(doc.0 as u64 ^ 0x1234_5678_9abc_def0) | 1;
    (0..k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % bits)
}

/// A classic Bloom filter over document ids.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    words: Vec<u64>,
    bits: u64,
    k: u32,
}

impl BloomFilter {
    /// Creates a filter with `bits` bits (rounded up to a word) and `k`
    /// hash functions.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `k == 0`.
    pub fn new(bits: u64, k: u32) -> Self {
        assert!(bits > 0 && k > 0);
        let words = bits.div_ceil(64);
        BloomFilter {
            words: vec![0; words as usize],
            bits: words * 64,
            k,
        }
    }

    /// Sizes a filter for `expected` items at `bits_per_item` (Summary Cache
    /// recommends 8–16 bits/item with k = 4).
    pub fn for_items(expected: u64, bits_per_item: u64, k: u32) -> Self {
        BloomFilter::new((expected.max(1)) * bits_per_item, k)
    }

    /// Inserts a document.
    pub fn insert(&mut self, doc: DocId) {
        for pos in positions(doc, self.k, self.bits) {
            self.words[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// Whether the filter may contain `doc` (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, doc: DocId) -> bool {
        positions(doc, self.k, self.bits)
            .all(|pos| self.words[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Size of the filter in bytes.
    pub fn byte_size(&self) -> u64 {
        self.bits / 8
    }
}

/// A counting Bloom filter supporting removal (saturating 8-bit counters).
#[derive(Debug, Clone)]
pub struct CountingBloom {
    counters: Vec<u8>,
    bits: u64,
    k: u32,
}

impl CountingBloom {
    /// Creates a counting filter with `slots` counters and `k` hashes.
    ///
    /// # Panics
    /// Panics if `slots == 0` or `k == 0`.
    pub fn new(slots: u64, k: u32) -> Self {
        assert!(slots > 0 && k > 0);
        CountingBloom {
            counters: vec![0; slots as usize],
            bits: slots,
            k,
        }
    }

    /// Inserts a document (counters saturate at 255 and then never
    /// decrement back past the saturation point — standard CBF caveat).
    pub fn insert(&mut self, doc: DocId) {
        for pos in positions(doc, self.k, self.bits) {
            let c = &mut self.counters[pos as usize];
            *c = c.saturating_add(1);
        }
    }

    /// Removes a previously inserted document.
    pub fn remove(&mut self, doc: DocId) {
        for pos in positions(doc, self.k, self.bits) {
            let c = &mut self.counters[pos as usize];
            if *c > 0 && *c < u8::MAX {
                *c -= 1;
            }
        }
    }

    /// Whether the filter may contain `doc`.
    pub fn contains(&self, doc: DocId) -> bool {
        positions(doc, self.k, self.bits).all(|pos| self.counters[pos as usize] > 0)
    }

    /// Size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DocId {
        DocId(i)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_items(1000, 10, 4);
        for i in 0..1000 {
            f.insert(d(i));
        }
        for i in 0..1000 {
            assert!(f.contains(d(i)), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut f = BloomFilter::for_items(1000, 10, 4);
        for i in 0..1000 {
            f.insert(d(i));
        }
        let fps = (10_000..60_000).filter(|&i| f.contains(d(i))).count();
        let rate = fps as f64 / 50_000.0;
        // 10 bits/item, k=4 -> theoretical ~1.2%; allow generous headroom.
        assert!(rate < 0.05, "fp rate {rate}");
    }

    #[test]
    fn byte_size_accounts_rounding() {
        let f = BloomFilter::new(100, 3);
        assert_eq!(f.byte_size(), 16); // rounded up to 128 bits
    }

    #[test]
    fn counting_bloom_supports_removal() {
        let mut f = CountingBloom::new(4096, 4);
        for i in 0..100 {
            f.insert(d(i));
        }
        assert!(f.contains(d(42)));
        f.remove(d(42));
        // (contains(d(42)) may still be true as a false positive; that is
        // allowed Bloom behaviour.)
        // Removal must never produce false negatives for remaining items.
        for i in 0..100 {
            if i != 42 {
                assert!(f.contains(d(i)), "false negative after removal at {i}");
            }
        }
    }

    #[test]
    fn counting_bloom_insert_remove_roundtrip() {
        let mut f = CountingBloom::new(1024, 4);
        f.insert(d(7));
        f.remove(d(7));
        assert!(!f.contains(d(7)));
    }

    #[test]
    fn counting_bloom_double_insert_single_remove_still_present() {
        let mut f = CountingBloom::new(1024, 4);
        f.insert(d(7));
        f.insert(d(7));
        f.remove(d(7));
        assert!(f.contains(d(7)));
    }

    #[test]
    fn distinct_docs_rarely_collide_positions() {
        // Two distinct docs should (at this size) map to different bit sets.
        let mut f = BloomFilter::new(1 << 16, 4);
        f.insert(d(1));
        assert!(!f.contains(d(2)));
    }
}
