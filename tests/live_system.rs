//! Workspace integration test: the live TCP deployment driven through the
//! facade crate, replaying a small synthetic trace through real sockets and
//! cross-checking against the simulator's invariants.

use baps::proxy::{DocumentStore, Source, TestBed, TestBedConfig};
use baps::trace::SynthConfig;
use std::collections::HashMap;

#[test]
fn replay_synthetic_trace_through_live_proxy() {
    // A tiny workload replayed through real sockets.
    let mut synth = SynthConfig::small();
    synth.n_clients = 4;
    synth.n_requests = 300;
    synth.n_docs = 40;
    synth.p_size_change = 0.0;
    let trace = synth.generate(77);

    // Build the origin corpus: one body per doc id, sized from the trace.
    let mut sizes: HashMap<u32, u32> = HashMap::new();
    for r in trace.iter() {
        sizes.entry(r.doc.0).or_insert(r.size.clamp(64, 4096));
    }
    let mut store = DocumentStore::new();
    for (&doc, &size) in &sizes {
        store.insert(
            format!("http://origin/doc/{doc}"),
            vec![doc as u8; size as usize],
        );
    }

    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 4,
            proxy_capacity: 24 << 10,
            browser_capacity: 12 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");

    let mut sources: HashMap<&'static str, u64> = HashMap::new();
    for req in trace.iter() {
        let url = format!("http://origin/doc/{}", req.doc.0);
        let result = bed.clients[req.client.index() % 4].fetch(&url).unwrap();
        let label = match result.source {
            Source::LocalBrowser => "local",
            Source::Proxy => "proxy",
            Source::ProxyDisk => "disk",
            Source::Peer => "peer",
            Source::Origin => "origin",
        };
        *sources.entry(label).or_insert(0) += 1;
        // Bodies always match the origin's content for that doc.
        assert_eq!(result.body[0], req.doc.0 as u8);
    }

    // Every request was served; the mix contains real cache hits.
    let total: u64 = sources.values().sum();
    assert_eq!(total, trace.len() as u64);
    assert!(
        *sources.get("local").unwrap_or(&0) > 0,
        "no local hits: {sources:?}"
    );
    assert!(
        *sources.get("proxy").unwrap_or(&0) > 0,
        "no proxy hits: {sources:?}"
    );

    // The proxy's own counters agree with what clients observed.
    let stats = bed.proxy.stats();
    assert_eq!(
        stats.proxy_hits,
        *sources.get("proxy").unwrap_or(&0),
        "proxy hit accounting"
    );
    assert_eq!(
        stats.peer_hits,
        *sources.get("peer").unwrap_or(&0),
        "peer hit accounting"
    );
    assert_eq!(
        stats.origin_fetches,
        *sources.get("origin").unwrap_or(&0),
        "origin fetch accounting"
    );
    // Origin server agrees too.
    assert_eq!(bed.origin.hits(), stats.origin_fetches);
    bed.shutdown();
}

#[test]
fn live_peer_hit_with_integrity_end_to_end() {
    let store = DocumentStore::synthetic(10, 500, 1_500, 3);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 2,
            proxy_capacity: 2_000, // fits ~1-2 docs
            browser_capacity: 32 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let body0 = bed.clients[0].fetch("http://origin/doc/0").unwrap().body;
    for i in 1..6 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let r = bed.clients[1].fetch("http://origin/doc/0").unwrap();
    assert_eq!(r.source, Source::Peer);
    assert_eq!(r.body, body0);
    bed.shutdown();
}

#[test]
fn stale_index_eviction_race_falls_back_and_heals() {
    // Race: a browser evicts a document, but the proxy's index still lists
    // it (the INVALIDATE hasn't happened — here we silently purge to model
    // the in-flight window). The next requester must transparently fall
    // back to the origin, and the stale index entry must be removed.
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500, // fits ~1 doc: forces the peer path
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let url0 = "http://origin/doc/0";
    let r0 = bed.clients[0].fetch(url0).unwrap();
    // Flush doc/0 out of the proxy cache so only client 0's browser has it.
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    // Evict behind the index's back: no INVALIDATE is sent.
    assert!(bed.clients[0].purge_local(url0), "doc was in the browser");
    assert!(
        bed.proxy.index_holds(0, url0),
        "index must still (wrongly) list client 0 as a holder"
    );

    // The probe gets 410 Gone, the proxy falls back to the origin, and the
    // requester still receives the correct bytes.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Origin, "fallback must reach the origin");
    assert_eq!(r1.body, r0.body);

    let stats = bed.proxy.stats();
    assert!(stats.peer_failures >= 1, "probe failure counted: {stats:?}");
    assert!(
        stats.peer_fallbacks >= 1,
        "degraded fallback counted: {stats:?}"
    );
    assert!(
        !bed.proxy.index_holds(0, url0),
        "stale index entry must be invalidated after the failed probe"
    );
    bed.shutdown();
}

#[test]
fn client_survives_proxy_side_connection_drop() {
    let store = DocumentStore::synthetic(10, 200, 1_000, 9);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 2,
            proxy_capacity: 64 << 10,
            browser_capacity: 32 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap();

    // Warm the persistent connections with real traffic.
    let r0 = bed.clients[0].fetch("http://origin/doc/0").unwrap();
    assert_eq!(r0.source, Source::Origin);
    assert_eq!(bed.clients[0].reconnects(), 0);

    // The proxy abruptly severs every open connection (restart, idle
    // reaping, fault injection) — but keeps serving.
    bed.proxy.drop_connections();
    assert_eq!(
        bed.proxy.open_connections(),
        0,
        "the drop is synchronous: every loop has closed its sockets"
    );

    // Clients keep working: the stale connection is detected on the next
    // roundtrip, redialed transparently, and the request replayed.
    let r1 = bed.clients[0].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r1.source, Source::Origin);
    let r2 = bed.clients[1].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r2.source, Source::Proxy);
    assert_eq!(r2.body, r1.body);
    assert_eq!(bed.clients[0].reconnects(), 1);
    assert_eq!(bed.clients[1].reconnects(), 1);

    // A second drop mid-session is survived the same way.
    bed.proxy.drop_connections();
    let r3 = bed.clients[0].fetch("http://origin/doc/2").unwrap();
    assert_eq!(r3.source, Source::Origin);
    assert_eq!(bed.clients[0].reconnects(), 2);

    // Counters kept counting across the drops.
    assert_eq!(bed.proxy.stats().requests, 4);
    bed.shutdown();
}
