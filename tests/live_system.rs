//! Workspace integration test: the live TCP deployment driven through the
//! facade crate, replaying a small synthetic trace through real sockets and
//! cross-checking against the simulator's invariants.

use baps::core::{DocId, LatencyParams, Served};
use baps::crypto::ProxySigner;
use baps::proxy::{CachedDoc, DocumentStore, ShardedCache, TestBed, TestBedConfig};
use baps::sim::{
    BrowserSizing, Organization, RemoteHitCaching, SimSystem, SystemConfig, TieredLru,
};
use baps::trace::SynthConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The simulator is the live system's oracle: a seeded synthetic trace is
/// replayed through real sockets and through `SimSystem` configured as the
/// bed is (browsers-aware, the same capacities, all-memory LRU caches, the
/// exact index, and the runtime's one placement, `CacheAtRequester`). Both
/// must say the same `Served` for every request, and keep the index the
/// same way: the simulator's applied evictions are the proxy's
/// `invalidations`, and its wasted probes the proxy's `peer_failures`.
fn replay(seed: u64, n_clients: u32, n_requests: u64, n_docs: u32) {
    let mut synth = SynthConfig::small();
    synth.n_clients = n_clients;
    synth.n_requests = n_requests;
    synth.n_docs = n_docs;
    synth.p_size_change = 0.0;
    let mut trace = synth.generate(seed);

    // Build the origin corpus: one body per doc id, sized from the trace,
    // and give the simulator the same clamped sizes.
    let mut sizes: HashMap<u32, u32> = HashMap::new();
    for r in trace.requests.iter_mut() {
        r.size = *sizes.entry(r.doc.0).or_insert(r.size.clamp(64, 4096));
    }
    let mut store = DocumentStore::new();
    for (&doc, &size) in &sizes {
        store.insert(
            format!("http://origin/doc/{doc}"),
            vec![doc as u8; size as usize],
        );
    }

    let (proxy_capacity, browser_capacity) = (24 << 10, 12 << 10);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity,
            browser_capacity,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let mut sim = SimSystem::new(
        SystemConfig {
            browser_sizing: BrowserSizing::Fixed(browser_capacity),
            mem_fraction: 1.0,
            remote_hit_caching: RemoteHitCaching::CacheAtRequester,
            ..SystemConfig::paper_default(Organization::BrowsersAware, proxy_capacity)
        },
        trace.n_clients,
        0.0,
        LatencyParams::paper(),
    );

    let mut served = [0u64; Served::ALL.len()];
    for (i, req) in trace.iter().enumerate() {
        let url = format!("http://origin/doc/{}", req.doc.0);
        let result = bed.clients[req.client.index()].fetch(&url).unwrap();
        assert_eq!(
            result.source,
            sim.process(req),
            "seed {seed} request {i}: client {} doc {}",
            req.client.0,
            req.doc.0
        );
        served[result.source.index()] += 1;
        // Bodies always match the origin's content for that doc.
        assert_eq!(result.body[0], req.doc.0 as u8);
    }

    // The mix contains real cache hits of every kind the bed can serve.
    for tier in [Served::LocalBrowser, Served::Proxy, Served::Peer] {
        assert!(
            served[tier.index()] > 0,
            "seed {seed}: no {tier:?}: {served:?}"
        );
    }

    // The proxy's own counters agree with what clients observed.
    let stats = bed.proxy.stats();
    assert_eq!(
        [
            stats.proxy_hits,
            stats.disk_hits,
            stats.peer_hits,
            stats.origin_fetches
        ],
        served[Served::Proxy.index()..],
        "seed {seed}: proxy accounting"
    );
    // Origin server agrees too.
    assert_eq!(bed.origin.hits(), stats.origin_fetches);

    // The index was kept the same way on both sides.
    let applied = sim.index().expect("browsers-aware").applied_evictions();
    assert_eq!(
        (applied, sim.metrics.wasted_probes, stats.peer_refuted),
        (stats.invalidations, stats.peer_failures, 0),
        "seed {seed}: (applied evictions, wasted probes, refuted)"
    );
    bed.shutdown();
}

#[test]
fn replay_synthetic_trace_through_live_proxy() {
    replay(77, 4, 300, 40);
}

#[test]
fn replay_larger_traces_through_live_proxy() {
    for seed in [77, 1, 2, 3] {
        replay(seed, 8, 3_000, 400);
    }
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
    assert_eq!(r.source, Served::Peer);
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
    assert_eq!(r1.source, Served::Origin, "fallback must reach the origin");
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
    assert_eq!(r0.source, Served::Origin);
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
    assert_eq!(r1.source, Served::Origin);
    let r2 = bed.clients[1].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r2.source, Served::Proxy);
    assert_eq!(r2.body, r1.body);
    assert_eq!(bed.clients[0].reconnects(), 1);
    assert_eq!(bed.clients[1].reconnects(), 1);

    // A second drop mid-session is survived the same way.
    bed.proxy.drop_connections();
    let r3 = bed.clients[0].fetch("http://origin/doc/2").unwrap();
    assert_eq!(r3.source, Served::Origin);
    assert_eq!(bed.clients[0].reconnects(), 2);

    // Counters kept counting across the drops.
    assert_eq!(bed.proxy.stats().requests, 4);
    bed.shutdown();
}

/// A capacity and up to 200 get-or-insert operations `(doc, size)`, each
/// body between one byte and the whole capacity. Capacities reach 128 KiB,
/// where `baps::proxy::auto_shards` would have cut the budget in four.
fn tier_ops() -> impl Strategy<Value = (u64, Vec<(u32, u64)>)> {
    let ops = proptest::collection::vec(((0u32..64), any::<u64>()), 0..200);
    ((1u64..=(128 << 10)), ops).prop_map(|(capacity, ops)| {
        let ops = ops.into_iter().map(|(d, r)| (d, 1 + r % capacity));
        (capacity, ops.collect())
    })
}

proptest! {
    /// The proxy's memory tier is the simulator's LRU: the cache
    /// `ProxyState` builds and the `TieredLru` that `baps-sim` runs for an
    /// all-memory LRU proxy give the same hit or miss on every
    /// get-or-insert and hold the same bytes after it.
    #[test]
    fn memory_tier_agrees_with_the_simulators_lru(case in tier_ops()) {
        let (capacity, ops) = case;
        let live = ShardedCache::single(capacity);
        let mut sim = TieredLru::with_mem_fraction(capacity, 1.0);
        let watermark = ProxySigner::generate(&mut StdRng::seed_from_u64(1)).watermark(b"any");
        for (d, size) in ops {
            let (doc, url) = (DocId(d), format!("http://origin/doc/{d}"));
            let live_hit = live.get(doc, &url).is_some();
            if !live_hit {
                let body = vec![0u8; size as usize].into();
                live.insert(doc, &url, CachedDoc { body, watermark });
            }
            let sim_hit = sim.touch(&doc).is_some();
            if !sim_hit {
                sim.insert(doc, size);
            }
            prop_assert_eq!(live_hit, sim_hit, "doc {} size {}", d, size);
            prop_assert_eq!(live.used(), sim.used());
        }
        prop_assert_eq!(live.entries(), sim.len() as u64);
    }
}
