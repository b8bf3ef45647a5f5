//! Live proxy demo: spins up an origin server, a browsers-aware proxy and a
//! handful of client agents on loopback TCP, then walks through the full
//! request lifecycle — origin fetch, proxy hit, *peer browser hit* after
//! proxy eviction, tamper detection, and invalidation.
//!
//! ```sh
//! cargo run --release --example live_proxy
//! ```

use baps::core::Served;
use baps::proxy::{DocumentStore, TamperMode, TestBed, TestBedConfig};

fn main() {
    // 16 documents of 0.2–2 KB at the origin; a deliberately tiny proxy
    // cache (2.5 KB) so documents fall out of it quickly.
    let store = DocumentStore::synthetic(16, 200, 2_000, 7);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    println!(
        "origin at {}, proxy at {}, {} clients\n",
        bed.origin.addr(),
        bed.proxy.addr(),
        bed.clients.len()
    );

    let url = "http://origin/doc/0";

    // 1. Cold fetch: proxy pulls from the origin, signs a watermark.
    let r = bed.clients[0].fetch(url).unwrap();
    println!(
        "client 0 GET {url} -> {:?} ({} bytes)",
        r.source,
        r.body.len()
    );
    assert_eq!(r.source, Served::Origin);

    // 2. Flood the tiny proxy cache so doc/0 is evicted from it.
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    println!("client 2 fetched 7 other documents (proxy cache now churned)");

    // 3. Client 1 asks for doc/0: proxy misses, consults the browser index,
    //    and fetches it from client 0's browser cache — anonymously.
    let r = bed.clients[1].fetch(url).unwrap();
    println!(
        "client 1 GET {url} -> {:?} (peer-served, watermark verified)",
        r.source
    );
    assert_eq!(r.source, Served::Peer);

    // 4. A tampering peer is refuted by the proxy, against the watermark
    //    it signed, and dropped from the index.
    bed.clients[0].set_tamper_mode(TamperMode::FlipByte);
    bed.clients[1].evict(url).unwrap();
    let r = bed.clients[1].fetch(url).unwrap();
    println!(
        "client 0 tampers; client 1 re-fetch -> {:?} (the proxy refuted the peer's bytes)",
        r.source
    );
    assert_ne!(r.source, Served::Peer);

    // 5. Invalidation keeps the index honest.
    bed.clients[0].set_tamper_mode(TamperMode::Honest);
    bed.clients[0].evict(url).unwrap();
    println!("client 0 evicted {url} and invalidated its index entry");

    let stats = bed.proxy.stats();
    println!(
        "\nproxy stats: {} requests, {} proxy hits, {} peer hits, {} origin fetches,\n\
         {} invalidations, {} failed peer probes; index entries now: {}",
        stats.requests,
        stats.proxy_hits,
        stats.peer_hits,
        stats.origin_fetches,
        stats.invalidations,
        stats.peer_failures,
        bed.proxy.index_entries()
    );
    bed.shutdown();
}
