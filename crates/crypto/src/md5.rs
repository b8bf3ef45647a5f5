//! MD5 message digest (RFC 1321), implemented from scratch, and the
//! document digest the §6.1 watermark signs.
//!
//! The paper represents every URL by a 16-byte MD5 signature in the browser
//! index (§5) and builds its digital-watermark integrity protocol on MD5
//! digests (§6.1). MD5 is cryptographically broken by modern standards; it
//! is implemented here because it is what the paper specifies, and because
//! the reproduction must not depend on crates outside the approved offline
//! set. Do not use this for new security designs.
//!
//! [`document_digest`] is what a body is hashed by: its 4-byte words dealt
//! round-robin to sixteen lanes, each lane MD5-hashed, and the sixteen lane
//! digests MD5-hashed once more with the body's length — the j-lanes tree
//! mode (S. Gueron, J. Information Security 4(1), 2013) with j = 16. Any
//! collision of it is an MD5 collision (DESIGN.md §5), and one AVX-512 pass
//! advances all sixteen MD5 chains at once.

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

    /// The digest a chaining value stands for: its four words, little-endian.
    fn of(state: [u32; 4]) -> Digest {
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
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

/// The chaining value every MD5 stream starts from (RFC 1321).
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// The 64 steps of one block, written once for every kernel and four to
/// a line as RFC 1321 prints them: round function `f`, then the message
/// word `g` and the step `i` of each. `$step!(f, m, a, b, c, d, g, i)`
/// overwrites `a`; the four registers rotate one place per step.
macro_rules! md5_rounds {
    ($step:ident, $m:ident, $a:ident, $b:ident, $c:ident, $d:ident) => {
        md5_rounds!($step, $m, $a, $b, $c, $d; F [0, 1, 2, 3] [0, 1, 2, 3]);
        md5_rounds!($step, $m, $a, $b, $c, $d; F [4, 5, 6, 7] [4, 5, 6, 7]);
        md5_rounds!($step, $m, $a, $b, $c, $d; F [8, 9, 10, 11] [8, 9, 10, 11]);
        md5_rounds!($step, $m, $a, $b, $c, $d; F [12, 13, 14, 15] [12, 13, 14, 15]);

        md5_rounds!($step, $m, $a, $b, $c, $d; G [1, 6, 11, 0] [16, 17, 18, 19]);
        md5_rounds!($step, $m, $a, $b, $c, $d; G [5, 10, 15, 4] [20, 21, 22, 23]);
        md5_rounds!($step, $m, $a, $b, $c, $d; G [9, 14, 3, 8] [24, 25, 26, 27]);
        md5_rounds!($step, $m, $a, $b, $c, $d; G [13, 2, 7, 12] [28, 29, 30, 31]);

        md5_rounds!($step, $m, $a, $b, $c, $d; H [5, 8, 11, 14] [32, 33, 34, 35]);
        md5_rounds!($step, $m, $a, $b, $c, $d; H [1, 4, 7, 10] [36, 37, 38, 39]);
        md5_rounds!($step, $m, $a, $b, $c, $d; H [13, 0, 3, 6] [40, 41, 42, 43]);
        md5_rounds!($step, $m, $a, $b, $c, $d; H [9, 12, 15, 2] [44, 45, 46, 47]);

        md5_rounds!($step, $m, $a, $b, $c, $d; I [0, 7, 14, 5] [48, 49, 50, 51]);
        md5_rounds!($step, $m, $a, $b, $c, $d; I [12, 3, 10, 1] [52, 53, 54, 55]);
        md5_rounds!($step, $m, $a, $b, $c, $d; I [8, 15, 6, 13] [56, 57, 58, 59]);
        md5_rounds!($step, $m, $a, $b, $c, $d; I [4, 11, 2, 9] [60, 61, 62, 63]);
    };
    ($step:ident, $m:ident, $a:ident, $b:ident, $c:ident, $d:ident;
     $f:ident [$g0:literal, $g1:literal, $g2:literal, $g3:literal]
     [$i0:literal, $i1:literal, $i2:literal, $i3:literal]) => {
        $step!($f, $m, $a, $b, $c, $d, $g0, $i0);
        $step!($f, $m, $d, $a, $b, $c, $g1, $i1);
        $step!($f, $m, $c, $d, $a, $b, $g2, $i2);
        $step!($f, $m, $b, $c, $d, $a, $g3, $i3);
    };
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

/// The portable kernel, for any CPU: folds `blocks` (a whole number of
/// 64-byte blocks) into `state` on plain `u32`s. Every step is written
/// out, so there is no per-step branch, table load or index arithmetic
/// left at run time. Each step is still ≈ 4.5 cycles of dependent work on
/// `b`: F and I need two logic ops in a row on it before the add, rotate
/// and add.
fn compress_portable(state: &mut [u32; 4], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d] = *state;
        md5_rounds!(step, m, a, b, c, d);
        for (s, x) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(x);
        }
    }
}

/// One-shot MD5 of `data`, per RFC 1321. A body's digest is
/// [`document_digest`]; this is its root node.
pub fn md5(data: &[u8]) -> Digest {
    let mut state = INIT;
    // Whole blocks are hashed where they lie; only the sub-block tail is
    // copied. Padding: 0x80, zeros until length ≡ 56 (mod 64), then the
    // message length in bits, little-endian — one block when the tail
    // leaves room for the nine bytes, two otherwise.
    let (blocks, rest) = data.split_at(data.len() & !63);
    compress_portable(&mut state, blocks);
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    tail[end - 8..end].copy_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
    compress_portable(&mut state, &tail[..end]);
    Digest::of(state)
}

/// The document digest's lanes: MD5 streams hashed side by side.
const LANES: usize = 16;

/// A 1 KiB stripe of a body. Row `t` holds message word `t` of the next
/// block of every lane, lane `j`'s at bytes `4j..4j + 4`: in memory, word
/// `16t + j` of the stripe is word `t` of lane `j`'s block, so a stripe is
/// hashed where it lies, one row per 64-byte load.
type Stripe = [[u8; 64]; LANES];

/// Every lane's chaining value.
type LaneStates = [[u32; 4]; LANES];

/// Every lane of a lane mask.
const ALL_LANES: u16 = u16::MAX;

/// The §6.1 digest of a document body — what the origin mints, the proxy
/// signs and a browser verifies. Cut `body` into 4-byte words in order (the
/// last may be 1–3 bytes); word `k` belongs to lane `k mod 16`, and lane
/// `j`'s bytes are its words in order. Then
/// `digest = md5(md5(lane_0) ‖ … ‖ md5(lane_15) ‖ LE64(body.len()))`,
/// each lane padded with its own length. A collision of it is an MD5
/// collision (DESIGN.md §5). One-shot: every caller holds the whole body.
pub fn document_digest(body: &[u8]) -> Digest {
    root(detected()(body), body.len())
}

/// The root node: each lane's MD5 (`H_0 ‖ … ‖ H_15`) and the body's
/// length, 264 bytes hashed by [`md5`].
fn root(lanes: LaneStates, len: usize) -> Digest {
    let mut node = [0u8; 16 * LANES + 8];
    let (digests, length) = node.split_at_mut(16 * LANES);
    for (h, state) in digests.chunks_exact_mut(16).zip(lanes) {
        h.copy_from_slice(&Digest::of(state).0);
    }
    length.copy_from_slice(&(len as u64).to_le_bytes());
    md5(&node)
}

/// The body's whole stripes, and the bytes after them (< 1 KiB).
fn stripes(body: &[u8]) -> (&[Stripe], &[u8]) {
    let (rows, _) = body.as_chunks::<64>();
    let (stripes, _) = rows.as_chunks::<LANES>();
    (stripes, &body[std::mem::size_of_val(stripes)..])
}

/// A body's last `tail.len()` (< 1 KiB) bytes, copied into two zeroed
/// stripes as a stripe holds them, with every lane then padded in place as
/// RFC 1321 pads a message: `0x80` after its last byte and its length in
/// bits in words 14 and 15 of its final block. `len` is the whole body's.
/// Returns the stripes and the lanes whose final block is the second
/// (those whose tail holds ≥ 56 bytes).
fn padded_tail(tail: &[u8], len: usize) -> ([Stripe; 2], u16) {
    let mut pad = [[[0u8; 64]; LANES]; 2];
    pad.as_flattened_mut().as_flattened_mut()[..tail.len()].copy_from_slice(tail);
    let rows = pad.as_flattened_mut();
    let (words, odd) = (tail.len() / 4, tail.len() % 4);
    let mut second = 0;
    for j in 0..LANES {
        // Lane `j` holds every 16th word of the tail from word `j` on, the
        // last of them partial if it is word `words`.
        let held = 4 * (words / LANES + usize::from(j < words % LANES))
            + if j == words % LANES { odd } else { 0 };
        rows[held / 4][4 * j + held % 4] = 0x80;
        let last = if held < 56 { 0 } else { LANES };
        second |= u16::from(last != 0) << j;
        let bits = (((len - tail.len()) / LANES + held) as u64).wrapping_mul(8);
        rows[last + 14][4 * j..4 * j + 4].copy_from_slice(&(bits as u32).to_le_bytes());
        rows[last + 15][4 * j..4 * j + 4].copy_from_slice(&((bits >> 32) as u32).to_le_bytes());
    }
    (pad, second)
}

/// A lane kernel: every lane's chaining value after its final block.
type LaneKernel = fn(&[u8]) -> LaneStates;

/// The lanes the portable kernel steps side by side. One chain leaves most
/// of a superscalar core idle while each step waits for the last; four
/// chains' independent work fills it, and their sixteen words of state
/// still fit in general registers (eight spill, and run slower).
const GROUP: usize = 4;

/// `step!` on every lane of a group, `a, b, c, d` each `[u32; GROUP]`.
/// Compilers do not vectorise it for a baseline target; the gain is the
/// four chains interleaved in scalar registers.
macro_rules! group_step {
    ($f:ident, $m:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $i:literal) => {
        for k in 0..GROUP {
            let (a, b, c, d, m) = ($a[k], $b[k], $c[k], $d[k], $m[$g][k]);
            $a[k] = add_round_fn!($f, a.wrapping_add(m).wrapping_add(K[$i]), b, c, d)
                .rotate_left(S[$i])
                .wrapping_add(b);
        }
    };
}

/// One block of each lane of group `g` (lanes `GROUP·g ..`) that is in
/// `lanes`, its words gathered out of the rows of `stripe`.
#[inline(always)]
fn compress_group(state: &mut [[u32; GROUP]; 4], stripe: &Stripe, g: usize, lanes: u16) {
    let m: [[u32; GROUP]; 16] = std::array::from_fn(|t| {
        std::array::from_fn(|k| {
            let at = 4 * (GROUP * g + k);
            u32::from_le_bytes(stripe[t][at..at + 4].try_into().expect("4 bytes"))
        })
    });
    let [mut a, mut b, mut c, mut d] = *state;
    md5_rounds!(group_step, m, a, b, c, d);
    for (s, x) in state.iter_mut().zip([a, b, c, d]) {
        for k in 0..GROUP {
            if lanes >> (GROUP * g + k) & 1 == 1 {
                s[k] = s[k].wrapping_add(x[k]);
            }
        }
    }
}

/// The portable lane kernel: the lanes [`GROUP`] at a time, each group's
/// chains stepped side by side through the stripes and the padding, so
/// the work is one MD5 pass of the body plus the lanes' padding blocks at
/// ≈ 2.4× one chain's speed.
fn lanes_portable(body: &[u8]) -> LaneStates {
    let (stripes, tail) = stripes(body);
    let (pad, second) = padded_tail(tail, body.len());
    let mut lanes = [INIT; LANES];
    for (g, group) in lanes.chunks_exact_mut(GROUP).enumerate() {
        let mut state = INIT.map(|word| [word; GROUP]);
        for stripe in stripes.iter().chain([&pad[0]]) {
            compress_group(&mut state, stripe, g, ALL_LANES);
        }
        if second != 0 {
            compress_group(&mut state, &pad[1], g, second);
        }
        for (k, lane) in group.iter_mut().enumerate() {
            *lane = state.map(|word| word[k]);
        }
    }
    lanes
}

/// The AVX-512 lane kernel: the same 64 steps on sixteen lanes of four
/// `__m512i`, one MD5 chain per lane. `vpternlogd` computes any
/// `f(b, c, d)` in one instruction and `vprold` rotates by an immediate,
/// so what waits for `b` is four 1-cycle ops — ternary logic, add, rotate,
/// add — and one step advances sixteen chains: ≈ 0.25 cycles a byte.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{LaneStates, Stripe, ALL_LANES, INIT, K, S};
    use std::arch::x86_64::*;

    /// The `vpternlogd` truth table of each round function, indexed by
    /// the bits `(b, c, d)`; `md5_rounds!` names them.
    const F: i32 = 0xCA;
    const G: i32 = 0xE4;
    const H: i32 = 0x96;
    const I: i32 = 0x39;

    /// Step `$i` on every lane: `a + (m[g] + K[i])` is off the critical
    /// path, the rest is the four ops on `b`.
    macro_rules! lane_step {
        ($f:ident, $m:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $i:literal) => {
            let t = _mm512_add_epi32($m[$g], _mm512_set1_epi32(K[$i] as i32));
            let t = _mm512_add_epi32($a, t);
            let t = _mm512_add_epi32(t, _mm512_ternarylogic_epi32::<$f>($b, $c, $d));
            $a = _mm512_add_epi32(_mm512_rol_epi32::<{ S[$i] as i32 }>(t), $b);
        };
    }

    /// The 64 bytes of `row` as sixteen little-endian words.
    #[target_feature(enable = "avx512f")]
    fn load(row: &[u8; 64]) -> __m512i {
        // SAFETY: `row` is 64 readable bytes, and the load is unaligned.
        unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }
    }

    /// The sixteen words of `v`, little-endian, as 64 bytes.
    #[target_feature(enable = "avx512f")]
    fn store(row: &mut [u8; 64], v: __m512i) {
        // SAFETY: `row` is 64 writable bytes, and the store is unaligned.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) }
    }

    /// One block of each lane in `lanes`, its words the rows of `stripe`.
    #[target_feature(enable = "avx512f")]
    fn compress(state: &mut [__m512i; 4], stripe: &Stripe, lanes: __mmask16) {
        let mut m = [_mm512_setzero_si512(); 16];
        for (word, row) in m.iter_mut().zip(stripe) {
            *word = load(row);
        }
        let [mut a, mut b, mut c, mut d] = *state;
        md5_rounds!(lane_step, m, a, b, c, d);
        for (s, x) in state.iter_mut().zip([a, b, c, d]) {
            *s = _mm512_mask_add_epi32(*s, lanes, *s, x);
        }
    }

    /// # Safety
    ///
    /// The CPU must have avx512f; [`super::avx512_kernel`] checks it
    /// before the one call.
    #[target_feature(enable = "avx512f")]
    pub(super) fn lanes(body: &[u8]) -> LaneStates {
        let mut state = [
            _mm512_set1_epi32(INIT[0] as i32),
            _mm512_set1_epi32(INIT[1] as i32),
            _mm512_set1_epi32(INIT[2] as i32),
            _mm512_set1_epi32(INIT[3] as i32),
        ];
        let (stripes, tail) = super::stripes(body);
        for stripe in stripes {
            compress(&mut state, stripe, ALL_LANES);
        }
        let (pad, second) = super::padded_tail(tail, body.len());
        compress(&mut state, &pad[0], ALL_LANES);
        if second != 0 {
            compress(&mut state, &pad[1], second);
        }
        let mut out = [[0u8; 64]; 4];
        for (row, word) in out.iter_mut().zip(state) {
            store(row, word);
        }
        std::array::from_fn(|j| {
            std::array::from_fn(|w| {
                u32::from_le_bytes(out[w][4 * j..4 * j + 4].try_into().expect("4 bytes"))
            })
        })
    }
}

/// The AVX-512 lane kernel as a safe function, if this CPU runs it.
fn avx512_kernel() -> Option<LaneKernel> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: CPUID has just reported avx512f, the one feature
        // `avx512::lanes` is compiled for, and a CPU does not lose it.
        let kernel: LaneKernel = |body| unsafe { avx512::lanes(body) };
        return Some(kernel);
    }
    None
}

/// The lane kernel [`document_digest`] uses: AVX-512 where CPUID reports
/// it (the answer is cached after the first call), the portable one
/// everywhere else.
fn detected() -> LaneKernel {
    avx512_kernel().unwrap_or(lanes_portable)
}

/// Names the kernel every document digest on this host is computed by:
/// `"avx512"` or `"portable"`.
pub fn kernel() -> &'static str {
    avx512_kernel().map_or("portable", |_| "avx512")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop-form compression function this module shipped before the
    /// unrolled kernel (RFC 1321 transcribed step by step), kept as the
    /// reference the kernels are checked against.
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
    /// message into a scratch buffer first — no code shared with [`md5`]
    /// beyond the tables.
    fn md5_reference(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = INIT;
        for block in padded.chunks_exact(64) {
            compress_reference(&mut state, block.try_into().expect("64-byte block"));
        }
        Digest::of(state)
    }

    /// The document digest as its definition reads: de-interleave the
    /// words into sixteen lane messages, hash each with the reference MD5,
    /// then hash their digests and the length.
    fn digest_reference(body: &[u8]) -> Digest {
        let mut lanes = vec![Vec::new(); LANES];
        for (k, word) in body.chunks(4).enumerate() {
            lanes[k % LANES].extend_from_slice(word);
        }
        let mut node: Vec<u8> = lanes.iter().flat_map(|l| md5_reference(l).0).collect();
        node.extend_from_slice(&(body.len() as u64).to_le_bytes());
        md5_reference(&node)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7) as u8).collect()
    }

    /// Every length that touches the padding edge cases: 0..=300 covers
    /// one-, two- and multi-block messages with every tail length.
    #[test]
    fn md5_equals_reference_for_every_length() {
        for len in 0..=300usize {
            let data = pattern(len);
            assert_eq!(md5(&data), md5_reference(&data), "len {len}");
        }
    }

    /// 1 MiB known answers: the multi-block loop over a long run, against
    /// a digest computed outside this crate (`md5sum`) and the reference.
    #[test]
    fn md5_one_mebibyte_known_answers() {
        let zeros = vec![0u8; 1 << 20];
        assert_eq!(md5(&zeros).to_hex(), "b6d81b360a5672d80c27430f39153e2c");
        let data = pattern(1 << 20);
        assert_eq!(md5(&data), md5_reference(&data));
    }

    /// The AVX-512 lane kernel, or `None` after a skip line on a CPU
    /// without it.
    fn avx512_or_skip() -> Option<LaneKernel> {
        let kernel = avx512_kernel();
        if kernel.is_none() {
            eprintln!("skip: no avx512f on this CPU, the AVX-512 lane kernel is not run");
        }
        kernel
    }

    /// Every length 0..=2200 — every tail shape of one and two stripes,
    /// including the 836–895-byte tails where only some lanes take a
    /// second final block — and 1 MiB ± 3, against the definition.
    fn lanes_equal_reference(kernel: LaneKernel) {
        let lengths = (0..=2200).chain((1 << 20) - 3..=(1 << 20) + 3);
        for len in lengths {
            let body = pattern(len);
            assert_eq!(
                root(kernel(&body), len),
                digest_reference(&body),
                "len {len}"
            );
        }
    }

    #[test]
    fn portable_lanes_equal_reference_at_every_tail_shape() {
        lanes_equal_reference(lanes_portable);
    }

    #[test]
    fn avx512_lanes_equal_reference_at_every_tail_shape() {
        if let Some(kernel) = avx512_or_skip() {
            lanes_equal_reference(kernel);
        }
    }

    /// Known answers computed outside this crate (Python's `hashlib`
    /// over the de-interleaved lanes), for both kernels.
    #[test]
    fn document_digest_known_answers() {
        let cases: [(Vec<u8>, &str); 6] = [
            (b"".to_vec(), "11c44dbbff554aa2031537fec33efd95"),
            (b"abc".to_vec(), "b2b47ac332e51f9963ad284fcccb755e"),
            (pattern(1023), "6a7421cf0048753a32c41b3e0041a50e"),
            (pattern(1024), "485eda7556b848faf1810db6144a5563"),
            (pattern(1025), "0f1579ab807843dbcb02e1dafd62615a"),
            (pattern(1 << 20), "6299343fc3b7247619b23c109796e191"),
        ];
        for kernel in [Some(lanes_portable as LaneKernel), avx512_kernel()]
            .into_iter()
            .flatten()
        {
            for (body, want) in &cases {
                assert_eq!(root(kernel(body), body.len()).to_hex(), *want);
            }
        }
        assert_eq!(document_digest(b"abc").to_hex(), cases[1].1);
    }

    /// `kernel()` names the lane kernel CPUID picked.
    #[test]
    fn kernel_names_the_pick() {
        let want = if avx512_kernel().is_some() {
            "avx512"
        } else {
            "portable"
        };
        assert_eq!(kernel(), want);
    }

    proptest::proptest! {
        /// Arbitrary bodies digest alike on every kernel this CPU runs.
        #[test]
        fn lane_kernels_agree_on_arbitrary_bodies(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..5000),
        ) {
            let want = root(lanes_portable(&body), body.len());
            proptest::prop_assert_eq!(document_digest(&body), want);
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
