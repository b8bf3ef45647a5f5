//! A body's pages are reused, not faulted back in: once a bed is warm, a
//! browser thread fetching documents of up to 1 MiB takes fewer than one
//! minor page fault per fetch (DESIGN.md §6b, the memory policy every
//! server sets as it starts). Alone in its binary, so no other test's
//! allocations share its heap.

use baps_proxy::{DocumentStore, TestBed, TestBedConfig};

const DOCS: usize = 256;
const WARMUP: usize = 200;
const MEASURED: usize = 1_800;

/// Minor faults the calling thread has taken: field 10 of
/// `/proc/thread-self/stat`.
fn thread_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
    // Field 2, the command name, is parenthesised and may hold spaces;
    // field 3 starts two bytes after its closing parenthesis.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    rest.split_whitespace().nth(7).unwrap().parse().unwrap()
}

/// A deterministic stream of `u64`s (splitmix64).
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn large_bodies_reuse_their_pages() {
    let mut next = stream(7);
    let mut store = DocumentStore::new();
    for i in 0..DOCS {
        // Log-uniform from 1 KiB to 1 MiB.
        let exponent = (next() % 1_000_001) as f64 / 1e6 * 10.0;
        let size = (1024.0 * exponent.exp2()) as usize;
        store.insert(format!("http://origin/doc/{i}"), vec![i as u8; size]);
    }
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            proxy_capacity: 16 << 20,
            browser_capacity: 1 << 20,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let client = &bed.clients[0];
    let faults = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut fetch = || {
                    let url = format!("http://origin/doc/{}", next() % DOCS as u64);
                    client.fetch(&url).unwrap();
                };
                (0..WARMUP).for_each(|_| fetch());
                let before = thread_minor_faults();
                (0..MEASURED).for_each(|_| fetch());
                thread_minor_faults() - before
            })
            .join()
            .unwrap()
    });
    bed.shutdown();
    let per_fetch = faults as f64 / MEASURED as f64;
    assert!(
        per_fetch < 1.0,
        "{faults} minor faults over {MEASURED} fetches ({per_fetch:.2} a fetch)"
    );
}
