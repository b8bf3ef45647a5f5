//! End-to-end tests of the live browsers-aware proxy over loopback TCP.

use baps_core::Served;
use baps_proxy::{
    encode_message, read_message, response_code, write_message, DocumentStore, FaultConfig,
    FaultKind, FaultPlan, Message, OriginServer, ProxyConfig, ProxyServer, TamperMode, TestBed,
    TestBedConfig,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bed(n_clients: u32, proxy_capacity: u64, browser_capacity: u64) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity,
            browser_capacity,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

#[test]
fn origin_then_proxy_then_local() {
    let bed = bed(2, 64 << 10, 32 << 10);
    let url = "http://origin/doc/0";

    // First fetch: from the origin (and verified).
    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Served::Origin);

    // Another client: proxy cache hit.
    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Served::Proxy);
    assert_eq!(r1.body, r0.body);

    // Same client again: local browser cache.
    let r2 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r2.source, Served::LocalBrowser);

    let stats = bed.proxy.stats();
    assert_eq!(stats.origin_fetches, 1);
    assert_eq!(stats.proxy_hits, 1);
    assert_eq!(bed.origin.hits(), 1);

    // The miss asked the origin from its event loop — a memory-only proxy
    // hands nothing to the blocking executor; the memory hit (and the
    // REGISTERs) were answered by their first step.
    let r = bed.proxy.reactor_stats();
    assert_eq!(r.offloaded, 0, "{r:?}");
    assert!(r.inline_served >= 3, "{r:?}");
    assert_eq!((r.exchanges_in_flight, r.parked_requests), (0, 0), "{r:?}");
    bed.shutdown();
}

#[test]
fn remote_browser_hit_after_proxy_eviction() {
    // Tiny proxy cache: one ~2KB doc flushes another out.
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url0).unwrap();
    assert_eq!(r0.source, Served::Origin);

    // Flood the proxy cache so doc/0 is evicted from it (but stays in
    // client 0's browser cache).
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    // Client 1 now gets doc/0 from client 0's browser via the index.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Served::Peer, "expected a peer hit");
    assert_eq!(r1.body, r0.body);
    assert_eq!(bed.proxy.stats().peer_hits, 1);
    assert!(bed.clients[0].peer_serves() >= 1);
    // The requester cached the relayed copy: next access is local.
    assert_eq!(
        bed.clients[1].fetch(url0).unwrap().source,
        Served::LocalBrowser
    );
    bed.shutdown();
}

#[test]
fn tampering_peer_detected_and_bypassed() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Client 0 turns malicious: serves corrupted bytes to peers.
    bed.clients[0].set_tamper_mode(TamperMode::FlipByte);

    // Client 1 still receives the *correct* document: the watermark check
    // rejects the tampered copy and the retry bypasses peers.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.body, r0.body);
    assert_ne!(r1.source, Served::Peer);
    bed.shutdown();
}

#[test]
fn invalidation_keeps_index_consistent() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Client 0 evicts the doc and tells the proxy.
    assert!(bed.clients[0].evict(url0).unwrap());

    // Client 1's fetch cannot be served by a peer anymore.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Served::Origin);
    bed.shutdown();
}

/// `index_holds` is a test hook, not a lookup: asking it whether a browser
/// holds a document moves neither counter a test may go on to check.
#[test]
fn index_holds_counts_no_lookup_or_hit() {
    let bed = bed(2, 64 << 10, 32 << 10);
    let url = "http://origin/doc/0";
    bed.clients[0].fetch(url).unwrap();
    bed.clients[1].fetch("http://origin/doc/1").unwrap();
    let counted = || {
        let samples = baps_obs::prom::parse(&bed.proxy.metrics_text()).unwrap();
        ["baps_index_lookups_total", "baps_index_hits_total"]
            .map(|name| baps_obs::prom::find(&samples, name, &[]).unwrap())
    };
    let before = counted();
    assert!(before[0] > 0.0, "the misses looked the index up");
    assert!(bed.proxy.index_holds(0, url));
    assert!(!bed.proxy.index_holds(1, url));
    assert_eq!(counted(), before);
    bed.shutdown();
}

#[test]
fn stale_index_self_heals_on_dead_peer() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Kill client 0 without invalidating: the index is now stale.
    let client0 = {
        let mut clients = bed.clients;
        let c0 = clients.remove(0);
        c0.shutdown();
        clients
    };
    // The probe fails, the proxy self-heals, and the origin serves.
    let r1 = client0[0].fetch(url0).unwrap(); // this is old client 1
    assert_eq!(r1.source, Served::Origin);
    // (peer_failures may be 0 if the OS delivered a GONE-equivalent reset
    // before the probe; the fetch succeeding is the contract.)
    for c in client0 {
        c.shutdown();
    }
    bed.proxy.shutdown();
    bed.origin.shutdown();
}

#[test]
fn missing_document_is_not_found() {
    let bed = bed(1, 64 << 10, 32 << 10);
    let err = bed.clients[0].fetch("http://origin/doc/999").unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
    bed.shutdown();
}

#[test]
fn browser_evictions_send_invalidations() {
    // Browser cache fits roughly one document: every new fetch evicts.
    let bed = bed(1, 64 << 10, 2_100);
    for i in 0..6 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let stats = bed.proxy.stats();
    assert!(
        stats.invalidations > 0,
        "expected eviction invalidations, got {stats:?}"
    );
    // Index bounded by what the browser can actually hold.
    assert!(bed.proxy.index_entries() <= 6);
    bed.shutdown();
}

#[test]
fn concurrent_clients_consistent_bodies() {
    let bed = bed(6, 64 << 10, 32 << 10);
    let expected = bed.clients[0].fetch("http://origin/doc/3").unwrap().body;
    // Fetch from all clients concurrently using scoped threads.
    std::thread::scope(|scope| {
        for c in &bed.clients {
            let expected = expected.clone();
            scope.spawn(move || {
                let r = c.fetch("http://origin/doc/3").unwrap();
                assert_eq!(r.body, expected);
            });
        }
    });
    bed.shutdown();
}

#[test]
fn admin_verbs_over_one_keepalive_connection() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    bed.clients[1].fetch("http://origin/doc/0").unwrap();

    // Several exchanges over a single raw connection: a GET, then METRICS,
    // then METRICS again — the connection stays framed throughout.
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/1 BAPS/1.0").header("Client", "0"),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    for _ in 0..2 {
        write_message(&mut writer, &Message::new("METRICS BAPS/1.0")).unwrap();
        let metrics = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&metrics), Some(200));
        let text = String::from_utf8(metrics.body.to_vec()).unwrap();
        let samples = prom::parse(&text).expect("exposition parses");
        let stats = bed.proxy.stats();
        let labelled = |name: &str, labels: &[(&str, &str)]| -> u64 {
            prom::find(&samples, name, labels)
                .unwrap_or_else(|| panic!("missing {name}{labels:?} in:\n{text}"))
                as u64
        };
        let field = |name: &str| labelled(name, &[]);
        let served = |tier: &str| labelled("baps_served_total", &[("tier", tier)]);
        assert_eq!(field("baps_requests_total"), stats.requests);
        assert_eq!(served("proxy"), stats.proxy_hits);
        assert_eq!(served("disk"), stats.disk_hits);
        assert_eq!(served("peer"), stats.peer_hits);
        assert_eq!(served("origin"), stats.origin_fetches);
        assert_eq!(field("baps_invalidations_total"), stats.invalidations);
        assert_eq!(field("baps_peer_failures_total"), stats.peer_failures);
        assert_eq!(field("baps_peer_refuted_total"), stats.peer_refuted);
        assert_eq!(field("baps_peer_fallbacks_total"), stats.peer_fallbacks);
        assert_eq!(field("baps_errors_total"), stats.errors);
        // The process's minor faults, read once per scrape.
        let faults = field("baps_process_minor_faults_total");
        assert_eq!(faults, stats.minor_faults);
        assert!(faults > 0);
        // No disk tier configured in this bed: its section is absent.
        for absent in ["baps_disk_entries", "baps_disk_revalidations_total"] {
            assert_eq!(prom::find(&samples, absent, &[]), None);
        }
        assert!(stats.requests >= 3);
        // Balance identity straight off the wire.
        assert_eq!(
            field("baps_requests_total"),
            served("proxy")
                + served("disk")
                + served("peer")
                + served("origin")
                + field("baps_errors_total")
        );

        // Shard occupancy and contention counters: one sample per shard,
        // summing to the whole-structure totals.
        let shard_list = |name: &str| -> Vec<u64> {
            samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value as u64)
                .collect()
        };
        let cache_entries = shard_list("baps_cache_shard_entries");
        let cache_bytes = shard_list("baps_cache_shard_bytes");
        let cache_locks = shard_list("baps_cache_shard_lock_acquires_total");
        assert!(!cache_entries.is_empty());
        assert_eq!(cache_bytes.len(), cache_entries.len());
        assert_eq!(cache_locks.len(), cache_entries.len());
        assert_eq!(cache_bytes.iter().sum::<u64>(), field("baps_cache_bytes"));
        assert!(cache_entries.iter().sum::<u64>() >= 2, "doc/0 + doc/1");
        assert!(
            cache_locks.iter().sum::<u64>() > 0,
            "hot path must have taken cache locks"
        );
        let index_entries = shard_list("baps_index_shard_entries");
        let index_locks = shard_list("baps_index_shard_lock_acquires_total");
        assert!(!index_entries.is_empty());
        assert_eq!(index_locks.len(), index_entries.len());
        assert_eq!(
            index_entries.iter().sum::<u64>(),
            field("baps_index_entries")
        );
        assert_eq!(field("baps_index_entries"), bed.proxy.index_entries());
        assert!(index_locks.iter().sum::<u64>() > 0);

        // Event-loop gauges ride the same verb.
        assert!(field("baps_reactor_event_loops") >= 1);
        assert!(
            field("baps_reactor_registered_fds") >= 1,
            "this very connection counts"
        );
        assert!(field("baps_reactor_registered_fds_peak") >= field("baps_reactor_registered_fds"));
        assert!(field("baps_reactor_inline_dispatch_total") >= 1);
        // No disk tier: nothing is ever handed to the executor.
        assert_eq!(field("baps_reactor_offloaded_dispatch_total"), 0);
        assert_eq!(field("baps_reactor_upstream_exchanges"), 0);
        assert_eq!(field("baps_reactor_parked_requests"), 0);
    }

    // The other verbs answer on the same framed connection.
    write_message(&mut writer, &Message::new("TRACE BAPS/1.0")).unwrap();
    let trace = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&trace), Some(200));
    assert_eq!(trace.get("Content-Type"), Some("application/jsonl"));

    write_message(
        &mut writer,
        &Message::new("INVALIDATE http://origin/doc/0 BAPS/1.0").header("Client", "0"),
    )
    .unwrap();
    let inv = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&inv), Some(200));
    bed.shutdown();
}

/// Satellite: a proxy cache hit must not copy the body. The test hook
/// hands out the cache's own `Arc` handle; two reads return the same
/// allocation, and serving requests in between does not disturb it.
#[test]
fn proxy_cache_hit_does_not_copy_body() {
    let bed = bed(2, 64 << 10, 32 << 10);
    let url = "http://origin/doc/5";
    bed.clients[0].fetch(url).unwrap();

    let first = bed.proxy.cached_body(url).expect("doc cached after fetch");
    // A proxy-hit fetch serves the same cached entry...
    let r = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r.body[..], first[..]);
    // ...and the cache still holds the identical allocation: the hit path
    // bumped a refcount instead of copying or replacing the body.
    let second = bed.proxy.cached_body(url).expect("still cached");
    assert!(
        Arc::ptr_eq(&first, &second),
        "cache hit must share the allocation, not copy it"
    );
    bed.shutdown();
}

/// The proxy's memory is one LRU over its whole byte budget, as in the
/// paper's §4 and the simulator: a document a quarter of the budget stays
/// cached (sixteen 64 KiB LRUs of the same budget would each refuse it),
/// and one byte past the budget is still refused. Browser caches smaller than
/// either document keep every second fetch away from the peers.
#[test]
fn a_document_up_to_the_whole_budget_stays_in_proxy_memory() {
    const CAPACITY: u64 = 1 << 20;
    let (quarter, over) = ("http://origin/quarter", "http://origin/over");
    let mut store = DocumentStore::new();
    store.insert(quarter, vec![0x5a; 256 << 10]);
    store.insert(over, vec![0xa5; CAPACITY as usize + 1]);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 2,
            proxy_capacity: CAPACITY,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");

    let source = |client: usize, url| bed.clients[client].fetch(url).unwrap().source;
    assert_eq!(source(0, quarter), Served::Origin);
    assert_eq!(source(1, quarter), Served::Proxy);
    assert_eq!(bed.origin.hits(), 1);

    assert_eq!(source(0, over), Served::Origin);
    assert_eq!(source(1, over), Served::Origin);
    assert_eq!(bed.origin.hits(), 3);
    bed.shutdown();
}

/// Tentpole stress: many workers hammering one hot document plus disjoint
/// per-thread documents. Every fetch must return byte-exact,
/// watermark-valid bodies with no deadlock, while the sharded state takes
/// concurrent traffic on different shards.
#[test]
fn concurrent_stress_hot_and_disjoint_docs() {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    let bed = TestBed::start(
        store.clone(),
        TestBedConfig {
            n_clients: 8,
            proxy_capacity: 256 << 10,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let hot = "http://origin/doc/0";
    let expected_hot = store.get(hot).unwrap().to_vec();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = bed
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let expected_hot = expected_hot.clone();
                let store = &store;
                scope.spawn(move || {
                    // Each thread interleaves the shared hot doc with its
                    // own disjoint docs (spread over shards).
                    for round in 0..30 {
                        let r = c.fetch(hot).unwrap();
                        assert_eq!(r.body[..], expected_hot[..], "hot doc corrupted");
                        let own = format!("http://origin/doc/{}", 1 + ((i + round) % 15));
                        let r = c.fetch(&own).unwrap();
                        assert_eq!(
                            r.body[..],
                            store.get(&own).unwrap()[..],
                            "disjoint doc corrupted"
                        );
                    }
                })
            })
            .collect();
        // Sampler: snapshots taken *while* the workers hammer the proxy
        // must balance every time. (A request total counted beside the
        // outcome counters could be observed before the outcome landed.)
        let proxy = &bed.proxy;
        let done = &done;
        let sampler = scope.spawn(move || loop {
            let s = proxy.stats();
            assert_eq!(
                s.requests,
                s.proxy_hits + s.disk_hits + s.peer_hits + s.origin_fetches + s.errors,
                "mid-load snapshot tore: {s:?}"
            );
            if done.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
        });
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        sampler.join().unwrap();
    });

    // Integrity was verified client-side (watermarks) on every non-local
    // fetch; the counters must balance, proving no request was lost.
    let stats = bed.proxy.stats();
    assert_eq!(
        stats.requests,
        stats.proxy_hits + stats.disk_hits + stats.peer_hits + stats.origin_fetches + stats.errors
    );
    assert_eq!(stats.errors, 0);
    bed.shutdown();
}

/// The retired `STATS` and `HEALTH` verbs are unknown verbs like any
/// other: `400`, and the connection stays framed for the next request.
#[test]
fn retired_stats_verb_is_a_bad_request() {
    let bed = bed(1, 64 << 10, 32 << 10);
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for verb in ["STATS", "HEALTH"] {
        write_message(&mut writer, &Message::new(format!("{verb} BAPS/1.0"))).unwrap();
        let reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(400), "{verb}");
        assert!(reply.body.is_empty(), "{verb}");
    }
    write_message(&mut writer, &Message::new("METRICS BAPS/1.0")).unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));
    bed.shutdown();
}

/// So are the retired direct-forward verbs on a browser's peer port, even
/// for a document it holds: `400`, nothing served, nothing parked, and the
/// connection stays framed for the next PEERGET.
#[test]
fn retired_push_and_deliver_are_bad_requests() {
    let bed = bed(1, 64 << 10, 32 << 10);
    let held = bed.clients[0].fetch(&doc_url(0)).unwrap().body;
    let mut conn = raw(bed.clients[0].peer_addr());
    for verb in ["PUSH", "DELIVER"] {
        let reply = ask(&mut conn, &undrawn_frame(verb)).expect("a reply");
        assert_eq!(response_code(&reply), Some(400), "{verb}");
        assert!(reply.body.is_empty());
    }
    assert_eq!(bed.clients[0].peer_serves(), 0);
    assert_eq!(peerget(&mut conn, &doc_url(0)).unwrap().body, held);
    assert_eq!(bed.clients[0].peer_serves(), 1);
    bed.shutdown();
}

/// A proxy that answers a GET with a source label no proxy can serve from
/// has broken the protocol: the retired out-of-band `peer-direct`, or
/// `local` (the browser's own cache). The fetch fails at once, it does not
/// wait for a delivery that no peer port takes any more, and it does not
/// take the reply for a local hit. The same signed reply labelled `peer`
/// is accepted, so the label alone decides.
#[test]
fn retired_out_of_band_source_is_a_protocol_error() {
    use baps_proxy::{ClientAgent, ProxyError};
    use rand::SeedableRng;

    for (label, accepted) in [("peer-direct", false), ("local", false), ("peer", true)] {
        let signer = baps_crypto::ProxySigner::generate(&mut rand::rngs::StdRng::seed_from_u64(1));
        let key = signer.public_key();
        let body = b"a document the proxy signed".to_vec();
        let watermark = signer.watermark(&body).to_hex();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy_addr = listener.local_addr().unwrap();
        let proxy = std::thread::spawn(move || {
            let mut conn = BufReader::new(listener.accept().unwrap().0);
            while let Ok(Some(_)) = read_message(&mut conn) {
                let reply = Message::new("BAPS/1.0 200 OK")
                    .header("X-Source", label)
                    .header("X-Watermark", watermark.clone())
                    .with_body(body.clone());
                write_message(conn.get_mut(), &reply).unwrap();
            }
        });
        let client = ClientAgent::start(0, proxy_addr, key, 32 << 10).unwrap();
        let t0 = Instant::now();
        match client.fetch(&doc_url(0)) {
            Ok(got) => assert!(accepted, "{label}: taken as {:?}", got.source),
            Err(err) => {
                assert!(!accepted, "{label}: {err}");
                assert!(matches!(err, ProxyError::Protocol(_)), "{label}: {err}");
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "{label}: {:?}",
            t0.elapsed()
        );
        client.shutdown();
        proxy.join().unwrap();
    }
}

#[test]
fn keep_alive_reuses_one_connection() {
    let bed = bed(1, 64 << 10, 32 << 10);
    // Drive enough distinct URLs that every fetch goes to the proxy.
    for i in 0..8 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // One persistent client connection held open, zero forced reconnects.
    assert_eq!(bed.clients[0].reconnects(), 0);
    assert_eq!(bed.proxy.open_connections(), 1);
    bed.shutdown();
}

#[test]
fn stalled_proxy_reply_times_out_instead_of_hanging() {
    use baps_proxy::ProxyError;

    // Every GET reply stalls mid-frame far longer than the client's read
    // deadline: the fetch must surface a timeout quickly, never hang.
    let plan = Arc::new(FaultPlan::new(
        7,
        FaultConfig {
            p_proxy_stall: 1.0,
            stall: Duration::from_secs(2),
            ..FaultConfig::default()
        },
    ));
    let store = DocumentStore::synthetic(4, 200, 400, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            client_timeout: Duration::from_millis(150),
            client_retries: 0,
            fault_plan: Some(plan),
            ..TestBedConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let err = bed.clients[0].fetch("http://origin/doc/0").unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(err, ProxyError::Timeout),
        "expected timeout: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "fetch blocked for {elapsed:?} despite a 150 ms deadline"
    );
    bed.shutdown();
}

#[test]
fn tamper_mode_matrix_never_yields_wrong_bytes() {
    // Every way a malicious peer can lie — corrupted bytes, a truncated
    // body, the genuine body of another document — must be caught by the
    // relaying proxy, which checks a peer's bytes against the watermark it
    // signed for the document asked for: the holder is refuted and leaves
    // the index, and the requester gets correct bytes from elsewhere, as
    // does the next browser to ask.
    for mode in [
        TamperMode::FlipByte,
        TamperMode::Truncate,
        TamperMode::Substitute,
    ] {
        let case = format!("{mode:?}");
        let bed = TestBed::start(
            DocumentStore::synthetic(16, 200, 2_000, 42),
            TestBedConfig {
                n_clients: 3,
                proxy_capacity: 2_500,
                browser_capacity: 64 << 10,
                ..TestBedConfig::default()
            },
        )
        .unwrap();
        let url0 = "http://origin/doc/0";
        let r0 = bed.clients[0].fetch(url0).unwrap();
        // The document a substituting holder serves in doc 0's place.
        let other = bed.clients[0].fetch("http://origin/doc/15").unwrap();
        assert_ne!(other.body, r0.body);
        for i in 1..8 {
            bed.clients[2]
                .fetch(&format!("http://origin/doc/{i}"))
                .unwrap();
        }
        bed.clients[0].set_tamper_mode(mode);

        let r1 = bed.clients[1].fetch(url0).unwrap();
        assert_eq!(r1.body, r0.body, "{case}: wrong bytes served");
        assert_ne!(r1.source, Served::Peer, "{case}: tampered peer trusted");
        let r2 = bed.clients[2].fetch(url0).unwrap();
        assert_eq!(r2.body, r0.body, "{case}: a second browser got wrong bytes");
        let stats = bed.proxy.stats();
        assert_eq!(stats.peer_refuted, 1, "{case}: {stats:?}");
        assert_eq!(stats.peer_failures, 0, "{case}: {stats:?}");
        assert!(
            !bed.proxy.index_holds(0, url0),
            "{case}: liar still indexed"
        );
        let refuted = bed.recorder.dump().into_iter().filter(|e| {
            e.kind == baps_obs::EventKind::PeerProbe && e.detail.contains("outcome=refuted")
        });
        assert_eq!(refuted.count(), 1, "{case}: the probe span reads refuted");
        bed.shutdown();
    }
}

/// A publisher purge with no discards: the browser that fetched v1 still
/// caches it and the index still lists it, and v1's watermark still
/// verifies — but the proxy no longer vouches for v1, so it refutes the
/// holder's copy and every other browser gets v2. The holder's own copy
/// still lags: a purge tells no holder (the proxy has no channel to the
/// browsers for that).
#[test]
fn purge_without_discards_never_relays_the_old_version() {
    let bed = TestBed::start(
        DocumentStore::synthetic(16, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 4,
            proxy_capacity: 64 << 10,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let url = doc_url(0);
    let v1 = bed.clients[0].fetch(&url).unwrap().body;
    let v2 = b"version two of doc 0 ".repeat(40);
    assert!(bed.origin.mutate(&url, v2.clone()));
    bed.clients[3].publish_invalidate(&url).unwrap();
    assert!(bed.proxy.index_holds(0, &url), "nobody discarded");

    for c in 1..4 {
        let got = bed.clients[c].fetch(&url).unwrap();
        assert_eq!(&got.body[..], &v2[..], "client {c} got v1");
    }
    let stats = bed.proxy.stats();
    assert_eq!(
        (stats.peer_refuted, stats.peer_hits, stats.origin_fetches),
        (1, 0, 2),
        "{stats:?}"
    );
    assert!(!bed.proxy.index_holds(0, &url), "v1 holder indexed");
    let lagging = bed.clients[0].fetch(&url).unwrap();
    assert_eq!((lagging.source, lagging.body), (Served::LocalBrowser, v1));
    bed.shutdown();
}

/// Satellite: a client-minted `Trace-Id` must reappear on every hop the
/// request touches. One request that is served by a peer yields, under the
/// same trace id, the proxy's peer-probe span and the holder's peer-serve
/// span; one origin-served request yields the proxy's origin-fetch span
/// and the origin's own serve span.
#[test]
fn trace_id_propagates_across_peer_and_origin_hops() {
    use baps_obs::{EventKind, TraceId};

    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    // Origin-served fetch by client 0, then the usual eviction flood so
    // client 1's fetch of url0 becomes a peer hit served by client 0.
    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Served::Peer, "scenario must produce a peer hit");

    let events = bed.recorder.dump();
    // The whole-fetch span carries the client id, url, and serve tier in
    // its detail; use it to recover the trace id each fetch minted.
    let fetch_trace = |detail_needle: &str| -> TraceId {
        events
            .iter()
            .find(|e| e.kind == EventKind::Fetch && e.detail.contains(detail_needle))
            .unwrap_or_else(|| panic!("no fetch event matching {detail_needle:?}"))
            .trace
    };
    let with_trace = |trace: TraceId, kind: EventKind| -> Vec<&baps_obs::Event> {
        events
            .iter()
            .filter(|e| e.trace == trace && e.kind == kind)
            .collect()
    };

    // Client 1's peer-served fetch: the proxy probed under the same trace,
    // and client 0 served the PEERGET under the same trace.
    let peer_trace = fetch_trace("client=1 url=http://origin/doc/0 source=peer");
    assert_ne!(peer_trace, TraceId::NONE);
    assert!(
        !with_trace(peer_trace, EventKind::PeerProbe).is_empty(),
        "proxy peer-probe span missing for {peer_trace}"
    );
    let serves = with_trace(peer_trace, EventKind::PeerServe);
    assert!(
        serves.iter().any(|e| e.detail.contains("client=0")),
        "client 0's peer-serve span missing for {peer_trace}: {events:#?}"
    );

    // Client 0's original origin-served fetch: proxy-side origin-fetch
    // span and the origin server's own serve span, same trace.
    let origin_trace = fetch_trace("client=0 url=http://origin/doc/0 source=origin");
    assert_ne!(origin_trace, TraceId::NONE);
    assert_ne!(origin_trace, peer_trace, "each fetch mints a fresh trace");
    assert!(
        !with_trace(origin_trace, EventKind::OriginFetch).is_empty(),
        "proxy origin-fetch span missing for {origin_trace}"
    );
    assert!(
        !with_trace(origin_trace, EventKind::OriginServe).is_empty(),
        "origin serve span missing for {origin_trace}"
    );
    bed.shutdown();
}

/// Tentpole: the `METRICS BAPS/1.0` verb returns a parseable Prometheus
/// exposition whose counters agree with the `stats()` snapshot and whose
/// per-tier histogram counts sum to the served-request total.
#[test]
fn metrics_verb_exposition_balances() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..4 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
        bed.clients[1]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    let reply = bed.clients[0].proxy_metrics_raw().unwrap();
    assert!(reply.get("Content-Type").unwrap().starts_with("text/plain"));
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    let samples = prom::parse(&text).expect("exposition parses");
    let get = |name: &str, labels: &[(&str, &str)]| {
        prom::find(&samples, name, labels)
            .unwrap_or_else(|| panic!("missing {name}{labels:?} in:\n{text}"))
    };

    let stats = bed.proxy.stats();
    assert_eq!(get("baps_requests_total", &[]), stats.requests as f64);
    assert_eq!(
        get("baps_served_total", &[("tier", "proxy")]),
        stats.proxy_hits as f64
    );
    assert_eq!(
        get("baps_served_total", &[("tier", "disk")]),
        stats.disk_hits as f64
    );
    assert_eq!(
        get("baps_served_total", &[("tier", "origin")]),
        stats.origin_fetches as f64
    );
    assert_eq!(get("baps_errors_total", &[]), stats.errors as f64);

    // Per-tier latency histogram counts cover exactly the served GETs.
    let served: f64 = ["proxy", "disk", "peer", "origin"]
        .iter()
        .map(|t| get("baps_request_latency_ms_count", &[("tier", t)]))
        .sum();
    assert_eq!(served, (stats.requests - stats.errors) as f64);
    // And the verb histogram saw every dispatched GET (keep-alive GETs,
    // REGISTERs, plus this METRICS scrape are all dispatched verbs).
    assert!(get("baps_verb_latency_ms_count", &[("verb", "GET")]) >= stats.requests as f64);
    assert!(get("baps_verb_latency_ms_count", &[("verb", "METRICS")]) >= 0.0);

    // Shard gauges: per-shard cache bytes sum to the aggregate gauge.
    let cache_bytes = get("baps_cache_bytes", &[]);
    let shard_sum: f64 = samples
        .iter()
        .filter(|s| s.name == "baps_cache_shard_bytes")
        .map(|s| s.value)
        .sum();
    assert_eq!(shard_sum, cache_bytes);
    bed.shutdown();
}

// ---------------------------------------------------------------------------
// Persistent disk tier (DESIGN.md §10): warm restarts, crash safety,
// restart-surviving counters, and idempotent eviction notices.

/// A fresh, empty disk root under the system temp dir, unique per test.
fn disk_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("baps_live_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A test bed whose proxy has the persistent disk tier enabled.
fn disk_bed(n_clients: u32, dir: &std::path::Path, ttl: std::time::Duration) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity: 64 << 10,
            browser_capacity: 32 << 10,
            disk_root: Some(dir.to_path_buf()),
            disk_capacity: 1 << 20,
            disk_ttl: ttl,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

/// Tentpole: a fully restarted proxy (workers stopped, memory cache and
/// index lost) re-opens its disk store and serves the next miss from it —
/// byte-exact, without touching the origin again.
#[test]
fn warm_restart_serves_from_disk() {
    let dir = disk_dir("warm_restart");
    let mut bed = disk_bed(3, &dir, std::time::Duration::from_secs(3600));
    let url = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Served::Origin);
    assert_eq!(bed.origin.hits(), 1);

    bed.restart_proxy().expect("proxy restarts in place");
    assert!(
        bed.proxy.disk_stats().unwrap().entries >= 1,
        "restarted proxy must re-open a non-empty store"
    );

    // Client 1 never saw the doc; the restarted proxy's memory cache is
    // empty; the index is empty too — only the disk tier can serve this
    // without the origin.
    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Served::ProxyDisk, "expected a warm disk hit");
    assert_eq!(r1.body, r0.body, "disk-served bytes must be exact");
    assert_eq!(bed.origin.hits(), 1, "origin must not be refetched");
    assert!(bed.proxy.stats().disk_hits >= 1);

    // The disk hit promoted the doc back into the memory cache: a third
    // client (whose browser never held it) gets a plain proxy hit.
    let r2 = bed.clients[2].fetch(url).unwrap();
    assert_eq!(r2.source, Served::Proxy);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A relayed peer hit is not absorbed (the live runtime's one placement,
/// the simulator's `CacheAtRequester`): the proxy keeps the body in
/// neither memory nor its disk tier, so every later requester is served by
/// a holding browser again, with a disk tier and without. Byte-exact
/// throughout.
#[test]
fn relayed_peer_hits_are_not_absorbed_with_or_without_disk() {
    for with_disk in [false, true] {
        let case = format!("disk={with_disk}");
        let dir = disk_dir(&format!("relay_{with_disk}"));
        let bed = TestBed::start(
            DocumentStore::synthetic(16, 200, 2_000, 42),
            TestBedConfig {
                n_clients: 4,
                proxy_capacity: 2_500,
                browser_capacity: 64 << 10,
                disk_root: with_disk.then(|| dir.clone()),
                // Room for a few documents: the seeding churn pushes doc 0
                // out of the disk tier as well as out of memory.
                disk_capacity: 6_000,
                disk_ttl: Duration::from_secs(3600),
                ..TestBedConfig::default()
            },
        )
        .unwrap();
        let url = doc_url(0);
        let body = seed_holder(&bed, 1).remove(0);
        let exact = |client: usize, source: Served| {
            let got = bed.clients[client].fetch(&url).unwrap();
            assert_eq!((got.source, &got.body), (source, &body), "{case}");
        };

        // A's copy is relayed to B, and C finds it at a browser again.
        exact(1, Served::Peer);
        assert!(bed.proxy.cached_body(&url).is_none(), "{case}: absorbed");
        exact(2, Served::Peer);
        // C forgets its copy and asks again: still a browser, never disk.
        bed.clients[2].purge_local(&url);
        exact(2, Served::Peer);
        assert_eq!(bed.origin.hits(), 9, "{case}: doc 0 fetched once");
        bed.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite: Prometheus counters survive a proxy restart — a scraper
/// sees `baps_requests_total` monotonic across it, not a reset to zero.
#[test]
fn metrics_counters_survive_restart() {
    use baps_obs::prom;

    let dir = disk_dir("counter_baseline");
    let mut bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    bed.clients[0].fetch("http://origin/doc/1").unwrap();

    let scrape = |bed: &TestBed| -> f64 {
        let reply = bed.clients[0].proxy_metrics_raw().unwrap();
        let text = String::from_utf8(reply.body.to_vec()).unwrap();
        let samples = prom::parse(&text).expect("exposition parses");
        prom::find(&samples, "baps_requests_total", &[]).expect("requests_total present")
    };
    let before = scrape(&bed);
    assert_eq!(before, 2.0);

    bed.restart_proxy().expect("proxy restarts in place");

    // The restarted proxy folds the persisted baseline into every
    // snapshot: the next scrape continues from 2, it does not reset.
    let r = bed.clients[0].fetch("http://origin/doc/2").unwrap();
    assert_eq!(r.source, Served::Origin);
    let after = scrape(&bed);
    assert_eq!(after, before + 1.0, "requests_total must stay monotonic");

    // The snapshot agrees, and the balance identity holds on the folded
    // values.
    let stats = bed.proxy.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(
        stats.requests,
        stats.proxy_hits + stats.disk_hits + stats.peer_hits + stats.origin_fetches + stats.errors
    );
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a proxy killed mid-disk-write leaves a torn tail behind.
/// On restart the open scan stops at the torn entry, which self-heals via
/// the origin, while intact entries keep serving warm — and every body is
/// byte-exact either way.
#[test]
fn torn_disk_write_self_heals_after_crash() {
    let dir = disk_dir("torn_write");
    let (body0, body1);
    {
        let bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
        body0 = bed.clients[0].fetch("http://origin/doc/0").unwrap().body;
        body1 = bed.clients[0].fetch("http://origin/doc/1").unwrap().body;
        bed.shutdown();
    }

    // Simulate the crash mid-append: doc/1's entry, the last in the log,
    // loses its tail (the header and URL survive, the body is short). The
    // write path never fsyncs — this is exactly what a power cut can leave
    // behind.
    let log = baps_proxy::disk::scan(&dir).unwrap();
    let torn = log.last().expect("both documents landed on disk");
    assert_eq!(torn.url, "http://origin/doc/1");
    let segment = std::fs::File::options()
        .write(true)
        .open(&torn.path)
        .unwrap();
    segment.set_len(torn.offset + torn.len - 10).unwrap();

    let bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
    // The intact entry serves warm from disk, byte-exact.
    let r0 = bed.clients[0].fetch("http://origin/doc/0").unwrap();
    assert_eq!(r0.source, Served::ProxyDisk);
    assert_eq!(r0.body, body0);
    // The torn entry never entered the index, and the request falls
    // through to the origin — correct bytes, never the torn ones.
    let r1 = bed.clients[0].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r1.source, Served::Origin, "torn entry must not serve");
    assert_eq!(r1.body, body1);
    assert_eq!(bed.origin.hits(), 1, "only the healed doc hits the origin");
    let d = bed.proxy.disk_stats().unwrap();
    assert!(d.heals >= 1, "the torn tail must be counted as healed");
    // The self-heal wrote doc/1 through to a fresh head segment, not
    // behind the tear: both documents are in the log again.
    let log = baps_proxy::disk::scan(&dir).unwrap();
    assert_eq!(log.len(), 2);
    assert_ne!(log[1].path, torn.path);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a disk read no longer catches (DESIGN.md §5, §10): an entry whose
/// body and CRC32C were rewritten together under the signed digest it
/// kept. The read serves it; the browser's §6.1 verify refuses it; the
/// integrity retry makes the proxy re-hash its memory copy and the disk
/// entry, drop both (one heal) and refetch — origin bytes one round trip
/// later, and wrong bytes accepted by no browser.
#[test]
fn disk_forgery_keeping_the_signed_digest_is_healed_on_the_integrity_retry() {
    use std::os::unix::fs::FileExt;

    let dir = disk_dir("kept_digest");
    let mut bed = disk_bed(3, &dir, Duration::from_secs(3600));
    let url = doc_url(0);
    let body = bed.clients[0].fetch(&url).unwrap().body;
    // Out of proxy memory: only the disk tier holds the document now.
    bed.restart_proxy().expect("proxy restarts in place");

    // The entry ends in the body, and its CRC32C sits at bytes 16..20 and
    // covers every byte from 20 on.
    let log = baps_proxy::disk::scan(&dir).unwrap();
    let entry = log.iter().find(|e| e.url == url).expect("written through");
    let segment = std::fs::File::options()
        .read(true)
        .write(true)
        .open(&entry.path)
        .unwrap();
    let mut image = vec![0u8; entry.len as usize];
    segment.read_exact_at(&mut image, entry.offset).unwrap();
    let body_at = image.len() - body.len();
    image[body_at] ^= 0xff;
    let crc = baps_crypto::crc32c(&image[20..]);
    image[16..20].copy_from_slice(&crc.to_le_bytes());
    segment.write_all_at(&image, entry.offset).unwrap();

    let (origin_hits, heals) = (bed.origin.hits(), bed.proxy.disk_stats().unwrap().heals);
    let got = bed.clients[1].fetch(&url).unwrap();
    assert_eq!((got.source, &got.body), (Served::Origin, &body));
    assert_eq!(bed.origin.hits(), origin_hits + 1);
    assert_eq!(bed.proxy.disk_stats().unwrap().heals, heals + 1);
    let other = bed.clients[2].fetch(&url).unwrap();
    assert_eq!((other.source, &other.body), (Served::Proxy, &body));
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hand-rolled origin serving `body` under any URL: each `200` declares
/// the body's true `Digest`, but the first `lies` of them carry the body
/// with one byte flipped. Returns its address and the replies it sent.
fn lying_origin(body: Vec<u8>, lies: usize) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&served);
    let digest = baps_crypto::document_digest(&body).to_hex();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let (body, digest, count) = (body.clone(), digest.clone(), Arc::clone(&count));
            std::thread::spawn(move || {
                let mut conn = BufReader::new(stream);
                while let Ok(Some(_)) = read_message(&mut conn) {
                    let mut sent = body.clone();
                    if count.fetch_add(1, Ordering::SeqCst) < lies {
                        sent[body.len() / 2] ^= 0x01;
                    }
                    let reply = Message::new("BAPS/1.0 200 OK")
                        .header("Digest", digest.as_str())
                        .with_body(sent);
                    if write_message(conn.get_mut(), &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, served)
}

/// A proxy in front of `origin_addr`, with a disk tier under `disk` if
/// given, and `n` browsers of it.
fn proxy_before(
    origin_addr: SocketAddr,
    disk: Option<&std::path::Path>,
    n: u32,
) -> (ProxyServer, Vec<baps_proxy::ClientAgent>) {
    let proxy = ProxyServer::start(ProxyConfig {
        cache_capacity: 4 << 20,
        origin_addr,
        peer_timeout: Duration::from_secs(2),
        peer_retries: 0,
        origin_timeout: Duration::from_secs(5),
        origin_retries: 0,
        disk: disk.map(|root| baps_proxy::DiskConfig {
            root: root.to_path_buf(),
            capacity: 1 << 20,
            default_ttl: Duration::from_secs(3600),
        }),
        faults: None,
        recorder: None,
    })
    .unwrap();
    let clients = (0..n)
        .map(|id| {
            baps_proxy::ClientAgent::start(id, proxy.addr(), proxy.public_key(), 1 << 20).unwrap()
        })
        .collect();
    (proxy, clients)
}

/// The origin → proxy leg is checked end to end: the proxy signs the
/// digest an origin declares without hashing the body, so bytes that
/// disagree with it are refused by the browser's §6.1 verify; its
/// integrity retry makes the proxy refute its memory copy (and heal its
/// disk copy) and refetch. The browser gets the true bytes, the next one
/// too, and an origin that never stops lying yields no bytes at all.
#[test]
fn origin_bytes_disagreeing_with_their_declared_digest_are_never_accepted() {
    let url = "http://origin/doc/lied-about";
    let body: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 251) as u8).collect();
    for with_disk in [false, true] {
        let (origin_addr, served) = lying_origin(body.clone(), 1);
        let dir = disk_dir(&format!("lying_origin_{with_disk}"));
        let (proxy, clients) = proxy_before(origin_addr, with_disk.then_some(&*dir), 2);
        let got = clients[0].fetch(url).unwrap();
        assert_eq!(got.source, Served::Origin);
        assert!(
            got.body[..] == body[..],
            "the browser accepted the origin's flipped byte"
        );
        // The retry found the signed lie in memory and did not serve it:
        // no memory hit, one more origin fetch.
        assert_eq!(served.load(Ordering::SeqCst), 2);
        let stats = proxy.stats();
        assert_eq!((stats.proxy_hits, stats.origin_fetches), (0, 2));
        if with_disk {
            assert_eq!(proxy.disk_stats().unwrap().heals, 1);
        }
        let other = clients[1].fetch(url).unwrap();
        assert_eq!(other.source, Served::Proxy);
        assert!(
            other.body[..] == body[..],
            "the next browser got other bytes"
        );
        for client in clients {
            client.shutdown();
        }
        proxy.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (origin_addr, _) = lying_origin(body, usize::MAX);
    let (proxy, clients) = proxy_before(origin_addr, None, 1);
    for _ in 0..2 {
        match clients[0].fetch(url) {
            Err(baps_proxy::ProxyError::Integrity(_)) => {}
            other => panic!("a lying origin's bytes must be refused: {other:?}"),
        }
    }
    for client in clients {
        client.shutdown();
    }
    proxy.shutdown();
}

/// Satellite: a TTL-expired disk entry revalidates against the origin
/// with a conditional `If-Digest` GET; the 304 refreshes the entry in
/// place and the document serves from disk without a full refetch.
#[test]
fn stale_disk_entry_revalidates_with_304() {
    let dir = disk_dir("revalidate");
    // TTL zero: every disk entry is stale the moment it lands.
    let mut bed = disk_bed(2, &dir, std::time::Duration::ZERO);
    let url = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Served::Origin);

    // Clear the memory cache so the next fetch reaches the disk tier.
    bed.restart_proxy().expect("proxy restarts in place");

    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Served::ProxyDisk, "revalidated entry serves");
    assert_eq!(r1.body, r0.body);
    assert_eq!(bed.origin.hits(), 1, "304 must not transfer the body");
    assert_eq!(bed.origin.revalidations(), 1, "one conditional GET");
    assert_eq!(bed.proxy.stats().disk_revalidations, 1);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: requeued `Evicted` notices survive a dropped connection and
/// are applied exactly once — replaying the notice (lost-reply model)
/// leaves the index and the invalidation counter unchanged.
#[test]
fn eviction_notices_survive_reconnect_and_apply_once() {
    // Browser fits roughly one document: fetching down the corpus soon
    // evicts something, and the notice waits for the next GET.
    let bed = bed(1, 64 << 10, 2_100);
    let c0 = &bed.clients[0];
    let mut evicted_url = None;
    for i in 0..10 {
        c0.fetch(&format!("http://origin/doc/{i}")).unwrap();
        if let Some(url) = c0.pending_eviction_notices().first().cloned() {
            evicted_url = Some(url);
            break;
        }
    }
    let evicted_url = evicted_url.expect("tiny browser cache must evict");
    assert!(
        bed.proxy.index_holds(0, &evicted_url),
        "the notice rides the next GET, so the index is briefly stale"
    );

    // The proxy severs the connection before the notice is delivered: the
    // client must reconnect and the replayed GET still carries it.
    bed.proxy.drop_connections();
    c0.fetch("http://origin/doc/12").unwrap();
    assert_eq!(c0.reconnects(), 1);
    assert!(
        !bed.proxy.index_holds(0, &evicted_url),
        "notice must survive the reconnect"
    );
    assert!(
        !c0.pending_eviction_notices().contains(&evicted_url),
        "delivered notice must not be requeued"
    );
    let applied = bed.proxy.stats().invalidations;
    assert!(applied >= 1);

    // Lost-reply model: the same notice delivered *again* (a replay) must
    // be a no-op — not double-counted, not disturbing the index.
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/13 BAPS/1.0")
            .header("Client", "0")
            .header("Evicted", &*evicted_url),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));
    assert_eq!(
        bed.proxy.stats().invalidations,
        applied,
        "replayed notice must count as stale, not as a new invalidation"
    );
    bed.shutdown();
}

/// Tentpole: a head-sampled GET leaves spans in *three* processes —
/// client root, proxy hops, and the far side (origin's serve span, or a
/// peer's serve span) — and `span::assemble` stitches each sampled trace
/// into exactly ONE tree via the `Span-Id` parent links.
#[test]
fn sampled_fetch_assembles_one_tree_across_processes() {
    use baps_obs::span;

    // Tiny proxy cache (peer hits need eviction) over a corpus big
    // enough that every round touches fresh documents.
    let store = DocumentStore::synthetic(512, 200, 2_000, 42);
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

    // Each round: an origin-served fetch, an eviction flood, then a
    // peer-served fetch. Head sampling keeps 1 trace in SAMPLE_ONE_IN
    // (a deterministic hash of the trace id), so rounds continue until
    // the dump holds a complete tree of each shape. Deterministic: with
    // 1-in-32 sampling, client 1's single fetch per round (seq = round)
    // first samples at round 46, and client 2's flood samples nearby
    // rounds, so 60 rounds always suffice and the two shapes land well
    // inside one ring's worth of history.
    let full = |trees: &[baps_obs::SpanTree], far_kind: &str, mid_kind: &str| -> bool {
        trees.iter().any(|t| {
            t.root.record.kind == "fetch"
                && t.root.contains_kind(mid_kind)
                && t.root.contains_kind(far_kind)
        })
    };
    let mut text = String::new();
    for round in 0..60u32 {
        let url0 = format!("http://origin/doc/{}", round * 8);
        bed.clients[0].fetch(&url0).unwrap();
        for i in 1..8 {
            bed.clients[2]
                .fetch(&format!("http://origin/doc/{}", round * 8 + i))
                .unwrap();
        }
        let r = bed.clients[1].fetch(&url0).unwrap();
        assert_eq!(r.source, Served::Peer, "round {round} must peer-hit");

        // The test bed shares one flight recorder across origin, proxy,
        // and clients, so the proxy's TRACE dump holds all three sides.
        let reply = bed.clients[0].proxy_trace_raw().unwrap();
        assert_eq!(response_code(&reply), Some(200));
        assert_eq!(reply.get("Content-Type"), Some("application/jsonl"));
        assert_eq!(
            reply.get("Sample-One-In"),
            Some(span::SAMPLE_ONE_IN.to_string().as_str())
        );
        text = String::from_utf8(reply.body.to_vec()).unwrap();
        let records = span::parse_jsonl(&text).expect("TRACE dump parses");
        let trees = span::assemble(&records);
        if full(&trees, "origin-serve", "origin-fetch") && full(&trees, "peer-serve", "peer-probe")
        {
            break;
        }
    }

    let records = span::parse_jsonl(&text).expect("TRACE dump parses");
    assert!(!records.is_empty(), "no spans sampled");
    let trees = span::assemble(&records);
    let find = |far_kind: &str, mid_kind: &str| -> &baps_obs::SpanTree {
        trees
            .iter()
            .find(|t| {
                t.root.record.kind == "fetch"
                    && t.root.contains_kind(mid_kind)
                    && t.root.contains_kind(far_kind)
            })
            .unwrap_or_else(|| panic!("no fetch tree reaching {far_kind} via {mid_kind}"))
    };

    // Origin path: client fetch -> proxy origin-fetch -> origin serve.
    let origin_tree = find("origin-serve", "origin-fetch");
    // Peer path: client fetch -> proxy peer-probe -> holder peer-serve.
    let peer_tree = find("peer-serve", "peer-probe");

    for tree in [origin_tree, peer_tree] {
        assert!(tree.root.max_depth() >= 2, "tree too shallow: {tree:#?}");
        // Single tree per sampled trace: every span of this trace landed
        // in this one tree (nothing orphaned into a second root).
        assert_eq!(
            trees.iter().filter(|t| t.trace == tree.trace).count(),
            1,
            "trace {} fragmented into multiple trees",
            tree.trace
        );
        let in_tree = tree.root.records().len();
        let in_dump = records.iter().filter(|r| r.trace == tree.trace).count();
        assert_eq!(in_tree, in_dump, "tree must hold all of its trace's spans");
    }
    bed.shutdown();
}

/// Satellite: the wire `METRICS` exposition passes the parser-backed
/// Prometheus conformance check (HELP/TYPE before samples, no duplicate
/// series, histogram invariants: cumulative buckets, +Inf == _count).
#[test]
fn metrics_exposition_conforms() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..6 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
        bed.clients[1]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let reply = bed.clients[0].proxy_metrics_raw().unwrap();
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    prom::check_conformance(&text).unwrap_or_else(|e| panic!("exposition violates format: {e}"));

    // The saturation families are part of the scrape, and nothing in it
    // is a window or a verdict: the proxy exports cumulative series and
    // gauges, and whoever reads them judges (DESIGN.md §14).
    let samples = prom::parse(&text).unwrap();
    for name in [
        "baps_queue_depth",
        "baps_queue_depth_peak",
        "baps_queue_rejected_total",
        "baps_queue_wait_ms_count",
        "baps_flight_registry_occupancy",
        "baps_flight_recorder_shed_total",
        "baps_upstream_stale_total",
        "baps_reactor_upstream_exchanges",
        "baps_reactor_parked_requests",
    ] {
        assert!(
            prom::find(&samples, name, &[]).is_some(),
            "exposition is missing {name}"
        );
    }
    assert!(
        !text.contains("baps_slo_") && !text.contains("baps_window_"),
        "the proxy judges nothing"
    );
    // Identity gauges (DESIGN.md §9): `baps_build_info` pins the version
    // and the MD5 and CRC32C kernels of whatever produced the scrape,
    // `baps_uptime_seconds` tells a restart from a counter reset.
    let build_info = samples
        .iter()
        .find(|s| s.name == "baps_build_info")
        .expect("exposition is missing baps_build_info");
    assert_eq!(build_info.value, 1.0);
    assert!(build_info.label("version").is_some_and(|v| !v.is_empty()));
    assert_eq!(
        build_info.label("md5_kernel"),
        Some(baps_crypto::md5::kernel())
    );
    assert_eq!(
        build_info.label("crc32c_kernel"),
        Some(baps_crypto::crc32c::kernel())
    );
    assert!(prom::find(&samples, "baps_uptime_seconds", &[]).unwrap() >= 0.0);
    // The upstream connections' families: six origin fetches made so far,
    // every one of them either a dial or a reuse, and on kept-alive client
    // connections reuses are the bulk.
    let origin = [("upstream", "origin")];
    let dials = prom::find(&samples, "baps_upstream_dials_total", &origin).unwrap();
    let reuses = prom::find(&samples, "baps_upstream_reuses_total", &origin).unwrap();
    assert!(
        dials >= 1.0 && reuses > dials,
        "{dials} dials, {reuses} reuses"
    );
    assert_eq!(dials + reuses, bed.proxy.stats().origin_fetches as f64);
    for family in [
        "baps_upstream_dials_total",
        "baps_upstream_reuses_total",
        "baps_upstream_idle_connections",
    ] {
        assert_eq!(
            prom::find(&samples, family, &[("upstream", "peer")]),
            Some(0.0)
        );
    }
    // Every origin connection dialed is idle again (both clients' loops
    // may hold one).
    assert_eq!(
        prom::find(&samples, "baps_upstream_idle_connections", &origin),
        Some(dials)
    );
    // No disk tier: the executor was never started or used.
    assert_eq!(
        prom::find(&samples, "baps_queue_wait_ms_count", &[]),
        Some(0.0)
    );
    bed.shutdown();
}

/// `METRICS` exposes the recorder drop counter and the executor-queue
/// gauges.
#[test]
fn metrics_report_recorder_drops_and_saturation() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..4 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let reply = bed.clients[1].proxy_metrics_raw().unwrap();
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    let samples = prom::parse(&text).expect("exposition parses");
    let field = |name: &str| {
        prom::find(&samples, name, &[]).unwrap_or_else(|| panic!("METRICS is missing {name}"))
    };
    for gauge in [
        "baps_queue_depth",
        "baps_queue_depth_peak",
        "baps_flight_registry_occupancy",
    ] {
        assert!(field(gauge) >= 0.0);
    }
    assert_eq!(field("baps_flight_recorder_dropped_total"), 0.0);
    assert_eq!(field("baps_queue_rejected_total"), 0.0);
    bed.shutdown();
}

// ---- The proxy's upstream connections (DESIGN.md §6a) ----

/// One `baps_upstream_*` series of the proxy's exposition — these
/// counters are METRICS-only, so this is also how an operator reads them.
fn upstream(bed: &TestBed, name: &str, labels: &[(&str, &str)]) -> u64 {
    let samples = baps_obs::prom::parse(&bed.proxy.metrics_text()).expect("exposition parses");
    baps_obs::prom::find(&samples, name, labels)
        .unwrap_or_else(|| panic!("exposition is missing {name}{labels:?}")) as u64
}

fn peer_dials(bed: &TestBed) -> u64 {
    upstream(bed, "baps_upstream_dials_total", &[("upstream", "peer")])
}

/// Connections idle on the proxy's loops right now: (to peers, to the
/// origin).
fn idle_upstreams(bed: &TestBed) -> (u64, u64) {
    let idle = |kind| upstream(bed, "baps_upstream_idle_connections", &[("upstream", kind)]);
    (idle("peer"), idle("origin"))
}

fn doc_url(i: usize) -> String {
    format!("http://origin/doc/{i}")
}

/// A raw connection to a server, as the proxy's event loops hold them.
fn raw(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    BufReader::new(stream)
}

/// One request/reply on a raw connection; `None` = the server hung up.
fn ask(conn: &mut BufReader<TcpStream>, msg: &Message) -> Option<Message> {
    write_message(conn.get_mut(), msg).unwrap();
    read_message(conn).unwrap()
}

fn peerget(conn: &mut BufReader<TcpStream>, url: &str) -> Option<Message> {
    ask(conn, &Message::new(format!("PEERGET {url} BAPS/1.0")))
}

/// Client 0 fetches docs `0..held` from the origin and client
/// `n_clients - 1` then pushes them out of the (tiny) proxy cache with
/// docs `8..16`: from here on, any other client's request for one of the
/// held docs is a remote-browser hit served by client 0. Returns the held
/// bodies.
fn seed_holder(bed: &TestBed, held: usize) -> Vec<baps_proxy::Body> {
    let bodies = (0..held)
        .map(|i| bed.clients[0].fetch(&doc_url(i)).unwrap().body)
        .collect();
    for i in 8..16 {
        bed.clients.last().unwrap().fetch(&doc_url(i)).unwrap();
    }
    bodies
}

/// (a) The tentpole: a run of peer hits from one holder rides one
/// connection. (At the parent commit each of them dialed.)
#[test]
fn sequential_peer_hits_dial_the_holder_once() {
    let bed = bed(3, 2_500, 64 << 10);
    let bodies = seed_holder(&bed, 4);
    for i in 0..200 {
        let url = doc_url(i % 4);
        // Forget the copy without telling the proxy, so the next fetch
        // goes back out and finds client 0 in the index again.
        bed.clients[1].purge_local(&url);
        let got = bed.clients[1].fetch(&url).unwrap();
        assert_eq!(got.source, Served::Peer, "fetch {i}");
        assert_eq!(got.body, bodies[i % 4], "fetch {i}");
    }
    assert_eq!(bed.proxy.stats().peer_hits, 200);
    assert_eq!(peer_dials(&bed), 1);
    assert_eq!(
        upstream(&bed, "baps_upstream_reuses_total", &[("upstream", "peer")]),
        199
    );
    assert_eq!(upstream(&bed, "baps_upstream_stale_total", &[]), 0);
    assert_eq!(bed.clients[0].peer_serves(), 200);
    // Every probe was an exchange on an event loop: nothing went to the
    // executor, nothing is left in flight.
    let r = bed.proxy.reactor_stats();
    assert_eq!((r.offloaded, r.exchanges_in_flight), (0, 0), "{r:?}");
    bed.shutdown();
}

/// (b) A holder that closes the kept-alive connection while it sits idle
/// costs the next probe nothing but a dial: the proxy's loop sees the
/// close as a readiness event and drops the connection before any PEERGET
/// is written to it, so no probe fails. The severing
/// itself is synchronous — `drop_peer_connections` returns once the
/// port's loop has closed every socket — and leaves the port serving.
#[test]
fn holder_closing_its_idle_connection_costs_one_dial() {
    let bed = bed(3, 2_500, 64 << 10);
    let bodies = seed_holder(&bed, 1);
    let url = doc_url(0);
    assert_eq!(bed.clients[1].fetch(&url).unwrap().source, Served::Peer);
    assert_eq!(peer_dials(&bed), 1);

    let holder = bed.clients[0].peer_addr();
    let mut bystander = raw(holder);
    assert_eq!(peerget(&mut bystander, &url).unwrap().body, bodies[0]);
    bed.clients[0].drop_peer_connections();
    assert!(
        matches!(read_message(&mut bystander), Ok(None)),
        "every open connection was closed"
    );
    assert_eq!(peerget(&mut raw(holder), &url).unwrap().body, bodies[0]);
    // The FIN to the proxy's idle connection crosses loopback
    // asynchronously; the stale counter says when its loop has seen it.
    let t0 = Instant::now();
    while upstream(&bed, "baps_upstream_stale_total", &[]) != 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "close never seen");
        std::thread::sleep(Duration::from_millis(1));
    }

    bed.clients[1].purge_local(&url);
    let got = bed.clients[1].fetch(&url).unwrap();
    assert_eq!((got.source, &got.body), (Served::Peer, &bodies[0]));
    assert_eq!(upstream(&bed, "baps_upstream_stale_total", &[]), 1);
    assert_eq!(peer_dials(&bed), 2);
    assert_eq!(bed.proxy.stats().peer_failures, 0);
    assert!(bed.proxy.index_holds(0, &url));
    bed.shutdown();
}

/// (c) A holder that is gone altogether: the probe fails once (stale
/// connection, then a refused dial on each attempt), the index heals, the
/// origin serves, and nothing stays parked for the dead address.
#[test]
fn dead_holder_fails_one_probe_and_leaves_nothing_parked() {
    let mut bed = bed(3, 2_500, 64 << 10);
    let bodies = seed_holder(&bed, 1);
    let url = doc_url(0);
    assert_eq!(bed.clients[1].fetch(&url).unwrap().source, Served::Peer);
    // Everything so far was sequential: one connection to the holder sits
    // idle (and one to the origin on every loop that fetched from it).
    assert_eq!(idle_upstreams(&bed).0, 1);

    bed.clients.remove(0).shutdown();
    let requester = &bed.clients[0]; // the old client 1
    requester.purge_local(&url);
    let got = requester.fetch(&url).unwrap();
    assert_eq!((got.source, &got.body), (Served::Origin, &bodies[0]));
    let stats = bed.proxy.stats();
    assert_eq!((stats.peer_failures, stats.peer_fallbacks), (1, 1));
    assert!(!bed.proxy.index_holds(0, &url), "index healed");
    assert_eq!(upstream(&bed, "baps_upstream_stale_total", &[]), 1);
    assert_eq!(peer_dials(&bed), 1, "refused dials establish nothing");
    assert_eq!(idle_upstreams(&bed).0, 0, "only the origin's connections");
    bed.shutdown();
}

/// (d) Faults on reused connections. A dropped or truncated reply kills
/// the connection it happened on — it is never parked again, so the next
/// probe dials and no later reply can be misframed; a corrupted body is a
/// whole frame, which the proxy refutes against the watermark it signed.
/// Every fetch returns the exact bytes, and each probe attempt sends
/// exactly one PEERGET: the numbers asserted below are this seed's fault
/// draws and outcomes, the same on a dialed or a reused connection.
#[test]
fn faults_on_reused_peer_connections_never_desynchronise() {
    let plan = Arc::new(FaultPlan::new(
        11,
        FaultConfig {
            p_peer_drop: 0.1,
            p_peer_truncate: 0.1,
            p_peer_corrupt: 0.1,
            ..FaultConfig::default()
        },
    ));
    let bed = TestBed::start(
        DocumentStore::synthetic(16, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            fault_plan: Some(Arc::clone(&plan)),
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let bodies = seed_holder(&bed, 4);
    let (mut peer, mut other) = (0, 0);
    for i in 0..300 {
        let url = doc_url(i % 4);
        if !bed.proxy.index_holds(0, &url) {
            // A probe failed twice and the index dropped client 0: have it
            // fetch the doc again (a probe of client 1, just as faultable).
            bed.clients[0].purge_local(&url);
            assert_eq!(bed.clients[0].fetch(&url).unwrap().body, bodies[i % 4]);
        }
        bed.clients[1].purge_local(&url);
        let got = bed.clients[1].fetch(&url).unwrap();
        assert_eq!(got.body, bodies[i % 4], "fetch {i} from {:?}", got.source);
        match got.source {
            Served::Peer => peer += 1,
            _ => other += 1,
        }
    }
    let faults = plan.counts();
    let (drops, truncates, corrupts) = (
        faults.get(FaultKind::PeerDrop),
        faults.get(FaultKind::PeerTruncate),
        faults.get(FaultKind::PeerCorrupt),
    );
    let stats = bed.proxy.stats();
    assert_eq!(
        (peer, other, drops, truncates, corrupts),
        (139, 161, 18, 23, 16),
        "outcomes or fault draws differ from this seed's: {stats:?}"
    );
    // Each corrupted body was refuted, not relayed: the refuted holder
    // left the index and the request fell back to the origin.
    assert_eq!(
        (
            stats.peer_hits,
            stats.peer_failures,
            stats.peer_refuted,
            stats.peer_fallbacks
        ),
        (143, 10, corrupts, 26)
    );

    // Each killed connection forced exactly one later dial (the last kill
    // per holder may still be waiting for its next probe), nothing dead
    // was ever parked, and the faults did land on reused connections.
    let dials = peer_dials(&bed);
    assert!(
        (drops + truncates..=drops + truncates + 2).contains(&dials),
        "{dials} dials for {drops} drops + {truncates} truncated replies"
    );
    assert_eq!(upstream(&bed, "baps_upstream_stale_total", &[]), 0);
    assert!(upstream(&bed, "baps_upstream_reuses_total", &[("upstream", "peer")]) > dials);
    bed.shutdown();

    // The same fault at chosen cuts of a reply the proxy's loop reads
    // straight into the body's allocation: a scripted holder answers each
    // PEERGET with the frame cut after `kept` body bytes and hangs up — no
    // body byte, inside the bytes the loop's first 16 KiB read takes
    // behind the head, exactly at their end, one byte short (64 KiB
    // bodies, longer than that read). Each cut is a failed probe and no
    // body; the origin serves instead. A whole 1 MiB frame is a peer hit,
    // byte-identical.
    const CUT: usize = 64 << 10;
    const BIG: usize = 1 << 20;
    let lens = [CUT, CUT, CUT, CUT, BIG];
    let bodies: Vec<Vec<u8>> = lens
        .iter()
        .enumerate()
        .map(|(k, &len)| (0..len).map(|i| ((i + k) * 31 % 251) as u8).collect())
        .collect();
    let mut store = DocumentStore::new();
    for (k, body) in bodies.iter().enumerate() {
        store.insert(format!("http://origin/big/{k}"), body.clone());
    }
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 0,
            proxy_capacity: 32 << 10,
            peer_retries: 0,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    // "Browser" 77 registers the holder's port and fetches every
    // document, so the index lists it (the proxy cache keeps none).
    let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut conn77 = raw(bed.proxy.addr());
    let port = holder.local_addr().unwrap().port();
    let register = Message::new(format!("REGISTER {port} BAPS/1.0")).header("Client", "77");
    assert_eq!(
        response_code(&ask(&mut conn77, &register).unwrap()),
        Some(200)
    );
    let frames: Vec<Vec<u8>> = (0..bodies.len())
        .map(|k| {
            let signed = ask(&mut conn77, &get_as(77, &format!("http://origin/big/{k}"))).unwrap();
            assert_eq!(&signed.body[..], &bodies[k][..]);
            let reply = Message::new("BAPS/1.0 200 OK").with_body(signed.body);
            encode_message(&reply).unwrap()
        })
        .collect();
    let buffered = (16 << 10) - (frames[0].len() - CUT);
    let cuts = [0, buffered / 2, buffered, CUT - 1, BIG];
    let frames: Vec<Vec<u8>> = (0..cuts.len())
        .map(|k| frames[k][..frames[k].len() - lens[k] + cuts[k]].to_vec())
        .collect();
    let script = std::thread::spawn(move || {
        for frame in frames {
            let mut conn = BufReader::new(holder.accept().unwrap().0);
            read_message(&mut conn).unwrap().expect("a PEERGET");
            std::io::Write::write_all(conn.get_mut(), &frame).unwrap();
        }
    });
    let mut conn78 = raw(bed.proxy.addr());
    for (k, kept) in cuts.into_iter().enumerate() {
        let reply = ask(&mut conn78, &get_as(78, &format!("http://origin/big/{k}"))).unwrap();
        let want = if kept < lens[k] { "origin" } else { "peer" };
        assert_eq!(
            reply.get("X-Source"),
            Some(want),
            "kept {kept} of {}",
            lens[k]
        );
        assert!(
            reply.body[..] == bodies[k][..],
            "kept {kept} of {}",
            lens[k]
        );
    }
    script.join().unwrap();
    let stats = bed.proxy.stats();
    assert_eq!((stats.peer_hits, stats.peer_failures), (1, 4));
    bed.shutdown();
}

/// (e) A peer hit while the proxy holds an idle connection for every
/// requester that ever overlapped another, to each of two holders. None of
/// them costs a browser a thread, so a holder still takes the PEERGET of a
/// loop that has no connection to it yet: at most one dial, no origin
/// fetch.
#[test]
fn peer_hit_lands_while_the_proxy_holds_full_idle_sets() {
    use std::sync::Barrier;

    const REQUESTERS: u64 = 4;
    let bed = TestBed::start(
        DocumentStore::synthetic(24, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 6,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    // Client 1 holds docs 16..20, client 0 holds docs 0..5; the proxy
    // cache keeps none of them.
    for i in 16..20 {
        bed.clients[1].fetch(&doc_url(i)).unwrap();
    }
    let bodies = seed_holder(&bed, 5);
    bed.proxy.drop_connections();
    assert_eq!(idle_upstreams(&bed), (0, 0));

    // Clients 2..6 ask one holder for one doc each at the same moment,
    // until all four PEERGETs overlapped at least once: the proxy's
    // loops then hold one connection per requester to that address
    // (`want` says how many are idle to peers in total by then).
    let saturate = |first_doc: usize, want: u64| {
        for _round in 0..200 {
            let barrier = Barrier::new(REQUESTERS as usize);
            std::thread::scope(|scope| {
                for (k, client) in bed.clients[2..6].iter().enumerate() {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let url = doc_url(first_doc + k);
                        client.purge_local(&url);
                        barrier.wait();
                        assert_eq!(client.fetch(&url).unwrap().source, Served::Peer);
                    });
                }
            });
            if idle_upstreams(&bed).0 == want {
                return;
            }
        }
        panic!("PEERGETs never overlapped: {:?} idle", idle_upstreams(&bed));
    };
    saturate(0, REQUESTERS); // to client 0
    saturate(16, 2 * REQUESTERS); // and to client 1

    // Client 1 asks for doc 4, which only client 0 holds.
    let hits = bed.proxy.stats().peer_hits;
    let dials = peer_dials(&bed);
    let got = bed.clients[1].fetch(&doc_url(4)).unwrap();
    assert_eq!((got.source, &got.body), (Served::Peer, &bodies[4]));
    assert_eq!(bed.proxy.stats().peer_hits, hits + 1);
    assert!(
        peer_dials(&bed) <= dials + 1,
        "at most the one connection client 1's loop lacked"
    );
    assert_eq!(idle_upstreams(&bed).1, 0, "no origin fetch since the drop");
    bed.shutdown();
}

/// (g) A browser that re-registers from a new port has moved: the
/// connections parked for its old address are closed at once. The same
/// address again (what a reconnecting client sends) keeps them.
#[test]
fn register_from_a_new_port_drops_the_old_idle_set() {
    let bed = bed(3, 2_500, 64 << 10);
    seed_holder(&bed, 1);
    assert_eq!(
        bed.clients[1].fetch(&doc_url(0)).unwrap().source,
        Served::Peer
    );
    let (parked, _) = idle_upstreams(&bed);

    let mut conn = BufReader::new(TcpStream::connect(bed.proxy.addr()).unwrap());
    let mut register = |port: u16| {
        let msg = Message::new(format!("REGISTER {port} BAPS/1.0")).header("Client", "0");
        write_message(conn.get_mut(), &msg).unwrap();
        let reply = read_message(&mut conn).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(200));
    };
    register(bed.clients[0].peer_addr().port());
    assert_eq!(
        idle_upstreams(&bed).0,
        parked,
        "same address: nothing moved"
    );
    register(9);
    // The forgetting is a message to every loop; the one that held the
    // connection may not be the one that answered the REGISTER.
    let t0 = Instant::now();
    while idle_upstreams(&bed).0 != parked - 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "old address still parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    bed.shutdown();
}

// ---- One I/O core: origin and peer ports on event loops (DESIGN.md §13) ----

/// A proxy with more misses in flight than the origin once had blocking
/// workers: every one leaves a kept-alive origin connection idle
/// afterwards, and under the origin's old thread-per-connection pool each
/// of those pinned one of its 8 threads — the second wave of misses
/// waited behind them.
#[test]
fn origin_serves_more_kept_alive_connections_than_it_has_threads() {
    const WAVE: usize = 16;
    let origin = OriginServer::start(DocumentStore::synthetic(2 * WAVE, 200, 2_000, 42)).unwrap();
    let proxy = ProxyServer::start(ProxyConfig {
        cache_capacity: 64 << 10,
        origin_addr: origin.addr(),
        peer_timeout: Duration::from_secs(2),
        peer_retries: 0,
        origin_timeout: Duration::from_secs(5),
        origin_retries: 0,
        disk: None,
        faults: None,
        recorder: None,
    })
    .unwrap();
    let mut clients: Vec<_> = (0..WAVE).map(|_| raw(proxy.addr())).collect();
    let t0 = Instant::now();
    for wave in 0..2 {
        let barrier = std::sync::Barrier::new(WAVE);
        std::thread::scope(|scope| {
            for (c, conn) in clients.iter_mut().enumerate() {
                let barrier = &barrier;
                scope.spawn(move || {
                    let get = Message::new(format!("GET {} BAPS/1.0", doc_url(wave * WAVE + c)))
                        .header("Client", c.to_string());
                    barrier.wait();
                    let reply = ask(conn, &get).expect("a reply");
                    assert_eq!(reply.get("X-Source"), Some("origin"));
                });
            }
        });
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "{} misses took {:?}",
        2 * WAVE,
        t0.elapsed()
    );
    assert_eq!(origin.hits(), 2 * WAVE as u64);
    proxy.shutdown();
    origin.shutdown();
}

/// A one-browser bed whose peer port and origin consult a plan built from
/// `faults`. The tests below talk to those two ports directly; nothing
/// passes through the proxy, so every draw is one they caused.
fn faulted_bed(faults: FaultConfig) -> (TestBed, Arc<FaultPlan>) {
    let plan = Arc::new(FaultPlan::new(5, faults));
    let bed = TestBed::start(
        DocumentStore::synthetic(4, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 1,
            fault_plan: Some(Arc::clone(&plan)),
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    (bed, plan)
}

/// A frame neither site's fault table covers: `verb` is one of the retired
/// direct-forward verbs (`PUSH`, `DELIVER`), dressed as it used to be sent;
/// a browser and the origin refuse both.
fn undrawn_frame(verb: &str) -> Message {
    Message::new(format!("{verb} {} BAPS/1.0", doc_url(0)))
        .header("Txn", "1")
        .header("Target", "127.0.0.1:9")
        .header("X-Watermark", "ab".repeat(32))
        .with_body(b"a delivery nobody awaits".to_vec())
}

/// Each site draws once per frame its fault table covers, in arrival
/// order, and never for anything else: with tables that fire on every
/// draw, the injected counts are the draw counts.
#[test]
fn fault_draws_are_one_per_covered_frame() {
    const N: u64 = 25;
    let (bed, plan) = faulted_bed(FaultConfig {
        p_peer_refuse: 1.0,
        p_origin_error: 1.0,
        ..FaultConfig::default()
    });
    for (addr, covered, kind, code) in [
        (
            bed.clients[0].peer_addr(),
            Message::new(format!("PEERGET {} BAPS/1.0", doc_url(0))),
            FaultKind::PeerRefuse,
            410,
        ),
        (
            bed.origin.addr(),
            Message::new(format!("GET {} ORIGIN/1.0", doc_url(0))),
            FaultKind::OriginError,
            500,
        ),
    ] {
        let before = plan.counts().total();
        // One kept-alive connection: the draw is per frame, not per dial.
        let mut conn = raw(addr);
        for _ in 0..N {
            let reply = ask(&mut conn, &covered).expect("these kinds keep the connection");
            assert_eq!(response_code(&reply), Some(code));
        }
        for verb in ["PUSH", "DELIVER"] {
            let reply = ask(&mut conn, &undrawn_frame(verb)).expect("a reply");
            assert_eq!(response_code(&reply), Some(400), "{verb} draws nothing");
        }
        assert!(ask(&mut conn, &Message::new("FROB x BAPS/1.0")).is_some());
        assert_eq!(plan.counts().get(kind), N);
        assert_eq!(plan.counts().total(), before + N);
    }
    assert_eq!(
        bed.origin.hits(),
        0,
        "a faulted GET is not counted as served"
    );
    bed.shutdown();
}

/// Stalled replies wait on the serving loop's timer, not in a sleeping
/// thread: with more stalls in progress on a browser's peer port (and on
/// the origin) than either ever had blocking workers, the next connection
/// is still served at once, and every stalled frame completes.
#[test]
fn stalled_replies_hold_no_thread_on_peer_port_or_origin() {
    const STALLED: usize = 10;
    const STALL: Duration = Duration::from_millis(400);
    let (bed, plan) = faulted_bed(FaultConfig {
        p_peer_stall: 1.0,
        p_origin_stall: 1.0,
        stall: STALL,
        ..FaultConfig::default()
    });
    for (addr, stalled_req) in [
        (
            bed.clients[0].peer_addr(),
            Message::new(format!("PEERGET {} BAPS/1.0", doc_url(0))),
        ),
        (
            bed.origin.addr(),
            Message::new(format!("GET {} ORIGIN/1.0", doc_url(0))),
        ),
    ] {
        let t0 = Instant::now();
        let mut stalled: Vec<_> = (0..STALLED).map(|_| raw(addr)).collect();
        for conn in &mut stalled {
            write_message(conn.get_mut(), &stalled_req).unwrap();
        }
        assert!(ask(&mut raw(addr), &undrawn_frame("DELIVER")).is_some());
        assert!(
            t0.elapsed() < STALL,
            "served behind {STALLED} stalls after {:?}",
            t0.elapsed()
        );
        for conn in &mut stalled {
            read_message(conn).unwrap().expect("the whole frame");
        }
        assert!(t0.elapsed() >= STALL);
    }
    assert_eq!(plan.counts().get(FaultKind::PeerStall), STALLED as u64);
    assert_eq!(plan.counts().get(FaultKind::OriginStall), STALLED as u64);
    bed.shutdown();
}

// ---- Misses as event-loop exchanges (DESIGN.md §13, reply / ask / offload) ----

/// Two connections to `addr` that loop 0 — which deals the connections it
/// accepts round-robin — hands to the same event loop, for a server with
/// `loops` of them.
fn two_on_one_loop(addr: SocketAddr) -> (BufReader<TcpStream>, BufReader<TcpStream>) {
    let loops = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut conns: Vec<_> = (0..=loops).map(|_| raw(addr)).collect();
    let last = conns.pop().unwrap();
    (conns.swap_remove(0), last)
}

fn get_as(client: u32, url: &str) -> Message {
    Message::new(format!("GET {url} BAPS/1.0")).header("Client", client.to_string())
}

/// (b) A holder that accepts and never answers costs its requester the
/// peer deadline — a loop timer, then the origin serves — and everybody
/// else nothing: memory hits on the *same event loop* are answered at once
/// all the while. (A blocking probe on the loop would hold them for the
/// whole deadline, so each hit is bounded by a tenth of it: far above a
/// hit's own time on a loaded host, far below a blocked loop's.)
#[test]
fn silent_holder_delays_only_its_own_requester() {
    const PEER_DEADLINE: Duration = Duration::from_millis(500);
    let bed = TestBed::start(
        DocumentStore::synthetic(16, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 1,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            peer_timeout: PEER_DEADLINE,
            peer_retries: 0,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    // "Browser" 77: a listening socket nobody serves. It registers, and
    // fetches doc 0, so the index lists it as a holder.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = mute.local_addr().unwrap().port();
    let mut conn77 = raw(bed.proxy.addr());
    let register = Message::new(format!("REGISTER {port} BAPS/1.0")).header("Client", "77");
    assert_eq!(
        response_code(&ask(&mut conn77, &register).unwrap()),
        Some(200)
    );
    let held = ask(&mut conn77, &get_as(77, &doc_url(0))).unwrap().body;
    assert!(bed.proxy.index_holds(77, &doc_url(0)));
    // Push doc 0 out of the proxy cache; the last document fetched stays.
    let mut resident = 0;
    while bed.proxy.cached_body(&doc_url(0)).is_some() {
        resident += 1;
        bed.clients[0].fetch(&doc_url(resident)).unwrap();
    }
    let hot = bed.proxy.cached_body(&doc_url(resident)).expect("resident");

    let (mut requester, mut bystander) = two_on_one_loop(bed.proxy.addr());
    let t0 = Instant::now();
    write_message(requester.get_mut(), &get_as(78, &doc_url(0))).unwrap();
    for i in 0..50 {
        let t_hit = Instant::now();
        let reply = ask(&mut bystander, &get_as(79, &doc_url(resident))).unwrap();
        let took = t_hit.elapsed();
        assert_eq!(reply.get("X-Source"), Some("proxy"));
        assert_eq!(reply.body, hot);
        assert!(took < PEER_DEADLINE / 10, "memory hit {i}: {took:?}");
    }
    assert!(
        t0.elapsed() < PEER_DEADLINE,
        "the probe was still pending during every hit"
    );
    let reply = read_message(&mut requester).unwrap().expect("a reply");
    let waited = t0.elapsed();
    assert_eq!(reply.get("X-Source"), Some("origin"));
    assert_eq!(reply.body, held);
    assert!(
        waited >= PEER_DEADLINE && waited < PEER_DEADLINE + Duration::from_millis(400),
        "served after {waited:?}"
    );
    let stats = bed.proxy.stats();
    assert_eq!((stats.peer_failures, stats.peer_fallbacks), (1, 1));
    assert!(!bed.proxy.index_holds(77, &doc_url(0)), "index healed");
    assert_eq!(idle_upstreams(&bed).0, 0, "the silent connection is gone");
    bed.shutdown();
}

/// (e) A 1 MiB origin body is read as fast as the socket delivers it,
/// and while the rest of it is still to come the loop serves its other
/// connections: a memory hit requested while the origin holds back half
/// the body is answered before the fetch completes. The watermark the
/// proxy signs is over the digest the origin declared.
#[test]
fn large_origin_body_yields_the_loop_and_is_signed_as_declared() {
    use std::io::Write as _;
    use std::sync::mpsc;

    const BIG: usize = 1 << 20;
    const PIECE: usize = 16 << 10;
    let big: Vec<u8> = (0..BIG).map(|i| (i * 31 % 251) as u8).collect();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr = listener.local_addr().unwrap();
    let (half_sent, half_seen) = mpsc::channel();
    let (resume, resumed) = mpsc::channel::<()>();
    let gate = Arc::new(std::sync::Mutex::new(Some((half_sent, resumed))));
    let body = big.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            stream.set_nodelay(true).unwrap();
            let (body, gate) = (body.clone(), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut conn = BufReader::new(stream);
                while let Ok(Some(msg)) = read_message(&mut conn) {
                    let out = conn.get_mut();
                    if !msg.start().contains("/big") {
                        let small = Message::new("BAPS/1.0 200 OK")
                            .header("Digest", baps_crypto::document_digest(b"small").to_hex())
                            .with_body(b"small".to_vec());
                        write_message(out, &small).unwrap();
                        continue;
                    }
                    let digest = baps_crypto::document_digest(&body).to_hex();
                    let head = format!(
                        "BAPS/1.0 200 OK\r\nDigest: {digest}\r\nContent-Length: {BIG}\r\n\r\n"
                    );
                    out.write_all(head.as_bytes()).unwrap();
                    for (i, piece) in body.chunks(PIECE).enumerate() {
                        if i == BIG / PIECE / 2 {
                            let (half_sent, resumed) = gate.lock().unwrap().take().unwrap();
                            half_sent.send(()).unwrap();
                            resumed.recv().unwrap();
                        }
                        out.write_all(piece).unwrap();
                    }
                }
            });
        }
    });
    let (proxy, _) = proxy_before(origin_addr, None, 0);
    let (mut fetcher, mut bystander) = two_on_one_loop(proxy.addr());
    let small = ask(&mut bystander, &get_as(2, "http://origin/small")).unwrap();
    assert_eq!(small.get("X-Source"), Some("origin"));

    write_message(fetcher.get_mut(), &get_as(1, "http://origin/big")).unwrap();
    half_seen
        .recv_timeout(Duration::from_secs(5))
        .expect("half the body sent");
    let hit = ask(&mut bystander, &get_as(2, "http://origin/small")).unwrap();
    assert_eq!(hit.get("X-Source"), Some("proxy"));
    assert_eq!(&hit.body[..], b"small");
    assert_eq!(
        proxy.reactor_stats().exchanges_in_flight,
        1,
        "still fetching"
    );
    resume.send(()).unwrap();

    let reply = read_message(&mut fetcher)
        .unwrap()
        .expect("the big document");
    assert_eq!(reply.get("X-Source"), Some("origin"));
    assert_eq!(&reply.body[..], &big[..]);
    let watermark = baps_crypto::Watermark::from_hex(reply.get("X-Watermark").unwrap()).unwrap();
    let digest = baps_crypto::document_digest(&big);
    baps_crypto::verify_hashed(&proxy.public_key(), &digest, &watermark)
        .expect("the declared digest is signed");
    assert_eq!(proxy.reactor_stats().offloaded, 0);
    proxy.shutdown();
}
