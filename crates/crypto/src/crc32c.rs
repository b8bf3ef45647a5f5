//! CRC32C (Castagnoli; RFC 3720 §B.4), the disk tier's at-rest check.
//!
//! A segment-log entry carries a CRC32C over its bytes so a read catches a
//! torn write or bit rot without hashing the body with MD5: that pass
//! belongs to the browser's §6.1 verify (DESIGN.md §5). A CRC is no
//! defence against an adversary, and is not asked to be one — the
//! watermark signature of the entry's stored digest is.
//!
//! Two kernels behind one dispatch, as in [`mod@crate::md5`]: the SSE4.2
//! `crc32` instruction where CPUID reports it, eight bytes per instruction,
//! and a portable slicing-by-8 table kernel everywhere else.

/// The Castagnoli polynomial, bit-reflected.
const POLY: u32 = 0x82f6_3b78;

/// Slicing-by-8 tables: `TABLES[0][b]` is the CRC step of byte `b`, and
/// `TABLES[k][b]` that of `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// A kernel: folds `data` into the running (pre-inverted) CRC register.
type Kernel = fn(u32, &[u8]) -> u32;

/// The portable kernel: eight bytes per step through eight independent
/// table loads, then the sub-word tail a byte at a time.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    crc
}

/// The SSE4.2 kernel: one `crc32` instruction per eight bytes (3 cycles
/// of latency each, so ≈ 2.7 bytes a cycle on one dependency chain).
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// # Safety
    ///
    /// The CPU must have sse4.2; [`super::sse42_kernel`] checks it before
    /// the one call.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut wide = u64::from(crc);
        for word in &mut words {
            wide = _mm_crc32_u64(wide, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut crc = wide as u32;
        for &byte in words.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }
}

/// The SSE4.2 kernel as a safe function, if this CPU runs it.
fn sse42_kernel() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: CPUID has just reported sse4.2, the one feature
        // `sse42::update` is compiled for, and a CPU does not lose it.
        let kernel: Kernel = |crc, data| unsafe { sse42::update(crc, data) };
        return Some(kernel);
    }
    None
}

/// The kernel `Crc32c` uses: SSE4.2 where CPUID reports it (the answer is
/// cached after the first call), the portable one everywhere else.
fn detected() -> Kernel {
    sse42_kernel().unwrap_or(update_portable)
}

/// Names the kernel every CRC on this host is computed by: `"sse4.2"` or
/// `"portable"`.
pub fn kernel() -> &'static str {
    sse42_kernel().map_or("portable", |_| "sse4.2")
}

/// Incremental CRC32C: any split of a message gives the one-shot value.
#[derive(Debug, Clone)]
pub struct Crc32c {
    /// The CRC register, kept inverted as the algorithm defines it.
    register: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Crc32c { register: !0 }
    }

    /// Feeds `data` into the CRC.
    pub fn update(&mut self, data: &[u8]) {
        self.register = detected()(self.register, data);
    }

    /// The CRC of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.register
    }
}

/// One-shot CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut ctx = Crc32c::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, a bit at a time: no table, no kernel.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7) as u8).collect()
    }

    /// CRC of `pieces`, fed in order through `kernel`.
    fn crc_with(kernel: Kernel, pieces: &[&[u8]]) -> u32 {
        !pieces.iter().fold(!0, |crc, piece| kernel(crc, piece))
    }

    /// The SSE4.2 kernel, or `None` after a skip line on a CPU without it.
    fn sse42_or_skip() -> Option<Kernel> {
        let kernel = sse42_kernel();
        if kernel.is_none() {
            eprintln!("skip: no sse4.2 on this CPU, the SSE4.2 kernel is not run");
        }
        kernel
    }

    /// Every length 0..=300 (every tail length past several whole words),
    /// one-shot, a byte at a time, and split in two at every offset.
    fn equals_reference_for_every_length_and_split(kernel: Kernel) {
        for len in 0..=300usize {
            let data = pattern(len);
            let want = crc32c_reference(&data);
            assert_eq!(crc_with(kernel, &[&data]), want, "one-shot, len {len}");
            let bytes: Vec<&[u8]> = data.chunks(1).collect();
            assert_eq!(crc_with(kernel, &bytes), want, "byte-at-a-time, len {len}");
            for cut in 0..=len {
                let (head, tail) = data.split_at(cut);
                assert_eq!(
                    crc_with(kernel, &[head, tail]),
                    want,
                    "len {len} split at {cut}"
                );
            }
        }
    }

    /// RFC 3720 §B.4's 32-byte vectors and the customary check value.
    fn known_answers(kernel: Kernel) {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let cases: [(&[u8], u32); 5] = [
            (b"123456789", 0xe306_9283),
            (&[0; 32], 0x8a91_36aa),
            (&[0xff; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (&descending, 0x113f_db5c),
        ];
        for (data, want) in cases {
            assert_eq!(crc_with(kernel, &[data]), want, "{data:?}");
        }
    }

    #[test]
    fn portable_kernel_equals_reference_for_every_length_and_split() {
        equals_reference_for_every_length_and_split(update_portable);
    }

    #[test]
    fn sse42_kernel_equals_reference_for_every_length_and_split() {
        if let Some(kernel) = sse42_or_skip() {
            equals_reference_for_every_length_and_split(kernel);
        }
    }

    #[test]
    fn portable_kernel_known_answers() {
        known_answers(update_portable);
    }

    #[test]
    fn sse42_kernel_known_answers() {
        if let Some(kernel) = sse42_or_skip() {
            known_answers(kernel);
        }
    }

    /// `crc32c()` and `Crc32c` — whichever kernel CPUID picked — give the
    /// portable kernel's value, and `kernel()` names the pick.
    #[test]
    fn dispatched_crc_equals_portable_kernel() {
        for len in (0..=300).chain([4096, 1 << 20]) {
            let data = pattern(len);
            let want = crc_with(update_portable, &[&data]);
            assert_eq!(crc32c(&data), want, "len {len}");
            let mut ctx = Crc32c::default();
            for piece in data.chunks(61) {
                ctx.update(piece);
            }
            assert_eq!(ctx.finalize(), want, "len {len} in 61-byte pieces");
        }
        let want = if sse42_kernel().is_some() {
            "sse4.2"
        } else {
            "portable"
        };
        assert_eq!(kernel(), want);
    }

    proptest::proptest! {
        /// Arbitrary bytes under arbitrary chunkings give, on every kernel
        /// this CPU runs, the reference's CRC of the whole message.
        #[test]
        fn kernels_equal_reference_under_random_chunkings(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.extend([0, data.len()]);
            cuts.sort_unstable();
            let pieces: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
            let want = crc32c_reference(&data);
            for kernel in [Some(update_portable as Kernel), sse42_kernel()].into_iter().flatten() {
                proptest::prop_assert_eq!(crc_with(kernel, &pieces), want);
            }
        }
    }
}
