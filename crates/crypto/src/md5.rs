//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The paper represents every URL by a 16-byte MD5 signature in the browser
//! index (§5) and builds its digital-watermark integrity protocol on MD5
//! digests (§6.1). MD5 is cryptographically broken by modern standards; it
//! is implemented here because it is what the paper specifies, and because
//! the reproduction must not depend on crates outside the approved offline
//! set. Do not use this for new security designs.

use std::fmt;

/// A 16-byte MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Renders the digest as 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parses 32 hex characters into a digest.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Per-round shift amounts (RFC 1321).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 * abs(sin(i + 1)))` (RFC 1321).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 context.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            length: 0,
            buffer: [0u8; 64],
            buffered: 0,
        }
    }

    /// Feeds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks are hashed where they lie; only the sub-block tail
        // is copied.
        let (blocks, rest) = input.split_at(input.len() & !63);
        compress(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the digest, consuming the context.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros until length ≡ 56 (mod 64), then the
        // message length in bits, little-endian — one block when the
        // buffered tail leaves room for the nine bytes, two otherwise.
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.length.wrapping_mul(8).to_le_bytes());
        compress(&mut self.state, &tail[..end]);

        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// Adds round function `f(b, c, d)` into `$t`. `b` is the value the
/// previous step just produced, so each form keeps `b` as late and as
/// shallow in the expression as it can: F as a two-deep select, G as two
/// disjoint terms of which only `d & b` has to wait for `b`.
macro_rules! add_round_fn {
    (F, $t:expr, $b:ident, $c:ident, $d:ident) => {
        $t.wrapping_add($d ^ ($b & ($c ^ $d)))
    };
    (G, $t:expr, $b:ident, $c:ident, $d:ident) => {
        $t.wrapping_add(!$d & $c).wrapping_add($d & $b)
    };
    (H, $t:expr, $b:ident, $c:ident, $d:ident) => {
        $t.wrapping_add($b ^ $c ^ $d)
    };
    (I, $t:expr, $b:ident, $c:ident, $d:ident) => {
        $t.wrapping_add($c ^ ($b | !$d))
    };
}

/// Step `$i` of the 64: `a = b + rotl(a + f(b, c, d) + m[g] + K[i], S[i])`,
/// summing `a + m[g] + K[i]` first because none of it waits for `b`.
/// `$g` and `$i` are literals, so the table reads fold to immediates.
macro_rules! step {
    ($f:ident, $m:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $i:literal) => {
        $a = add_round_fn!($f, $a.wrapping_add($m[$g]).wrapping_add(K[$i]), $b, $c, $d)
            .rotate_left(S[$i])
            .wrapping_add($b);
    };
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state`. The
/// chaining value lives in locals for the whole run, and every step is
/// written out, so there is no per-step branch, table load or index
/// arithmetic left at run time.
fn compress(state: &mut [u32; 4], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    let [mut a, mut b, mut c, mut d] = *state;
    for block in blocks.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let (a0, b0, c0, d0) = (a, b, c, d);

        step!(F, m, a, b, c, d, 0, 0);
        step!(F, m, d, a, b, c, 1, 1);
        step!(F, m, c, d, a, b, 2, 2);
        step!(F, m, b, c, d, a, 3, 3);
        step!(F, m, a, b, c, d, 4, 4);
        step!(F, m, d, a, b, c, 5, 5);
        step!(F, m, c, d, a, b, 6, 6);
        step!(F, m, b, c, d, a, 7, 7);
        step!(F, m, a, b, c, d, 8, 8);
        step!(F, m, d, a, b, c, 9, 9);
        step!(F, m, c, d, a, b, 10, 10);
        step!(F, m, b, c, d, a, 11, 11);
        step!(F, m, a, b, c, d, 12, 12);
        step!(F, m, d, a, b, c, 13, 13);
        step!(F, m, c, d, a, b, 14, 14);
        step!(F, m, b, c, d, a, 15, 15);

        step!(G, m, a, b, c, d, 1, 16);
        step!(G, m, d, a, b, c, 6, 17);
        step!(G, m, c, d, a, b, 11, 18);
        step!(G, m, b, c, d, a, 0, 19);
        step!(G, m, a, b, c, d, 5, 20);
        step!(G, m, d, a, b, c, 10, 21);
        step!(G, m, c, d, a, b, 15, 22);
        step!(G, m, b, c, d, a, 4, 23);
        step!(G, m, a, b, c, d, 9, 24);
        step!(G, m, d, a, b, c, 14, 25);
        step!(G, m, c, d, a, b, 3, 26);
        step!(G, m, b, c, d, a, 8, 27);
        step!(G, m, a, b, c, d, 13, 28);
        step!(G, m, d, a, b, c, 2, 29);
        step!(G, m, c, d, a, b, 7, 30);
        step!(G, m, b, c, d, a, 12, 31);

        step!(H, m, a, b, c, d, 5, 32);
        step!(H, m, d, a, b, c, 8, 33);
        step!(H, m, c, d, a, b, 11, 34);
        step!(H, m, b, c, d, a, 14, 35);
        step!(H, m, a, b, c, d, 1, 36);
        step!(H, m, d, a, b, c, 4, 37);
        step!(H, m, c, d, a, b, 7, 38);
        step!(H, m, b, c, d, a, 10, 39);
        step!(H, m, a, b, c, d, 13, 40);
        step!(H, m, d, a, b, c, 0, 41);
        step!(H, m, c, d, a, b, 3, 42);
        step!(H, m, b, c, d, a, 6, 43);
        step!(H, m, a, b, c, d, 9, 44);
        step!(H, m, d, a, b, c, 12, 45);
        step!(H, m, c, d, a, b, 15, 46);
        step!(H, m, b, c, d, a, 2, 47);

        step!(I, m, a, b, c, d, 0, 48);
        step!(I, m, d, a, b, c, 7, 49);
        step!(I, m, c, d, a, b, 14, 50);
        step!(I, m, b, c, d, a, 5, 51);
        step!(I, m, a, b, c, d, 12, 52);
        step!(I, m, d, a, b, c, 3, 53);
        step!(I, m, c, d, a, b, 10, 54);
        step!(I, m, b, c, d, a, 1, 55);
        step!(I, m, a, b, c, d, 8, 56);
        step!(I, m, d, a, b, c, 15, 57);
        step!(I, m, c, d, a, b, 6, 58);
        step!(I, m, b, c, d, a, 13, 59);
        step!(I, m, a, b, c, d, 4, 60);
        step!(I, m, d, a, b, c, 11, 61);
        step!(I, m, c, d, a, b, 2, 62);
        step!(I, m, b, c, d, a, 9, 63);
        a = a.wrapping_add(a0);
        b = b.wrapping_add(b0);
        c = c.wrapping_add(c0);
        d = d.wrapping_add(d0);
    }
    *state = [a, b, c, d];
}

/// One-shot MD5 of `data`.
pub fn md5(data: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop-form compression function this module shipped before the
    /// unrolled kernel (RFC 1321 transcribed step by step), kept as the
    /// reference the kernel is checked against.
    fn compress_reference(state: &mut [u32; 4], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }

    /// One-shot MD5 over the reference compression function, padding the
    /// message into a scratch buffer first — no code shared with
    /// `Md5::update` / `Md5::finalize` beyond the tables.
    fn md5_reference(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = Md5::new().state;
        for block in padded.chunks_exact(64) {
            compress_reference(&mut state, block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7) as u8).collect()
    }

    /// Every length that touches the padding edge cases (0..=300 covers
    /// one-, two- and multi-block messages with every tail length), fed
    /// one-shot, a byte at a time, and split in two at every offset.
    #[test]
    fn kernel_equals_reference_for_every_length_and_split() {
        for len in 0..=300usize {
            let data = pattern(len);
            let want = md5_reference(&data);
            assert_eq!(md5(&data), want, "one-shot, len {len}");
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), want, "byte-at-a-time, len {len}");
            for cut in 0..=len {
                let mut ctx = Md5::new();
                ctx.update(&data[..cut]);
                ctx.update(&data[cut..]);
                assert_eq!(ctx.finalize(), want, "len {len} split at {cut}");
            }
        }
    }

    /// 1 MiB known answers: the multi-block loop over a long run, against
    /// a digest computed outside this crate (`md5sum`) and the reference.
    #[test]
    fn one_mebibyte_known_answers() {
        let zeros = vec![0u8; 1 << 20];
        assert_eq!(md5(&zeros).to_hex(), "b6d81b360a5672d80c27430f39153e2c");
        let data = pattern(1 << 20);
        assert_eq!(md5(&data), md5_reference(&data));
    }

    proptest::proptest! {
        /// Arbitrary bytes under arbitrary chunkings hash to what the
        /// reference makes of the whole message.
        #[test]
        fn kernel_equals_reference_under_random_chunkings(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.extend([0, data.len()]);
            cuts.sort_unstable();
            let mut ctx = Md5::new();
            for w in cuts.windows(2) {
                ctx.update(&data[w[0]..w[1]]);
            }
            proptest::prop_assert_eq!(ctx.finalize(), md5_reference(&data));
        }
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5(input.as_bytes()).to_hex(), expect, "input {input:?}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = md5(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut ctx = Md5::new();
        let mut off = 0;
        for chunk in [1usize, 7, 63, 64, 65, 128, 200, 472] {
            let end = (off + chunk).min(data.len());
            ctx.update(&data[off..end]);
            off = end;
        }
        assert_eq!(off, data.len());
        assert_eq!(ctx.finalize(), oneshot);
    }

    #[test]
    fn exact_block_boundaries() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let d1 = md5(&data);
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = md5(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("short"), None);
        assert_eq!(Digest::from_hex(&"zz".repeat(16)), None);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"alpha"), md5(b"beta"));
        assert_ne!(md5(b""), md5(b"\0"));
    }

    #[test]
    fn display_matches_hex() {
        let d = md5(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
