//! Pins the stream of the workspace's `rand` (`shims/rand`).
//!
//! Every seeded number this repository records comes out of that stream:
//! the synthetic traces behind `experiments_full.txt`, the chaos soaks'
//! fault schedules under `scripts/chaos_expected/`, the origin's document
//! sizes and the proxy's signing key (`KEY_SEED`). Replacing the generator,
//! or any sampler below, is therefore a change to every record, declared
//! and regenerated as such; this test makes it fail loudly instead of
//! moving the records silently. The samplers are the ones the workspace
//! calls: `gen_range` over integer and `f64` ranges, `gen::<f64>` and
//! `gen_bool`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

#[test]
fn first_words_of_pinned_seeds() {
    let cases: [(u64, [u64; 4]); 3] = [
        (
            0,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
            ],
        ),
        (
            42,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1,
            ],
        ),
        // The proxy's `KEY_SEED`.
        (
            0xbaf5,
            [
                0x032b_3af2_9986_59d5,
                0xee8c_47a4_0e73_b7af,
                0xbb42_4bb4_e814_9153,
                0x52ed_ff03_25b4_3c6c,
            ],
        ),
    ];
    for (seed, words) in cases {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(words.map(|_| rng.next_u64()), words, "seed {seed:#x}");
    }
}

#[test]
fn samplers_in_use() {
    let mut rng = StdRng::seed_from_u64(42);
    let shuffle: Vec<usize> = (0..6).map(|i| rng.gen_range(0..=i)).collect();
    assert_eq!(shuffle, [0, 0, 2, 1, 1, 0]);
    let sizes: Vec<u64> = (0..4).map(|_| rng.gen_range(200..=20_000u64)).collect();
    assert_eq!(sizes, [4470, 978, 9772, 7563]);
    let clients: Vec<u32> = (0..4).map(|_| rng.gen_range(0..16u32)).collect();
    assert_eq!(clients, [1, 5, 6, 2]);
    let spans: Vec<f64> = (0..3).map(|_| rng.gen_range(-4.0..5.0)).collect();
    assert_eq!(
        spans,
        [2.400349504206689, 3.8999050665921473, 1.5508538833087337]
    );
    let units: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
    assert_eq!(
        units,
        [0.8513900835352795, 0.7075404682957579, 0.707829281282213]
    );
    let coins: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.3)).collect();
    assert_eq!(
        coins,
        [true, true, false, false, false, false, false, false]
    );
}
