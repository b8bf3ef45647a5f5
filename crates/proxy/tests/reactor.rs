//! End-to-end tests of what event loops plus a small blocking executor
//! (DESIGN.md §13) make possible: idle-connection scaling far past the
//! worker count, slow-loris immunity on the proxy's port and on a
//! browser's peer port, a miss queue that drains, and a prompt shutdown.
//! Verb, tier, disk and restart coverage lives in `live.rs`.

use baps_core::Served;
use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, Message, TestBed, TestBedConfig,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn bed(n_clients: u32, config: TestBedConfig) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            ..config
        },
    )
    .expect("test bed starts")
}

/// Idle-connection scaling smoke on a default `TestBedConfig` (two event
/// loops, no executor thread): hundreds of registered keep-alive
/// connections cost fds, not threads, and active traffic still flows.
#[test]
fn holds_idle_connections_while_serving() {
    const IDLE: usize = 300;
    let bed = bed(2, TestBedConfig::default());

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // A REGISTER makes each one a real, known browser connection.
        write_message(
            &mut writer,
            &Message::new("REGISTER 1 BAPS/1.0").header("Client", (1_000_000 + i).to_string()),
        )
        .unwrap();
        let reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(200));
        idle.push((reader, writer));
    }

    let r = bed.proxy.reactor_stats();
    assert!(
        r.registered_fds >= IDLE as u64,
        "all idle connections registered: {r:?}"
    );
    assert!(r.registered_fds_peak >= IDLE as u64);

    // Active traffic is unaffected by the idle mass.
    for i in 0..8 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // The idle connections are still alive and answer.
    let (reader, writer) = &mut idle[IDLE / 2];
    write_message(writer, &Message::new("METRICS BAPS/1.0")).unwrap();
    let reply = read_message(reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    drop(idle);
    bed.shutdown();
}

const LORIS_CONNS: usize = 32;

/// Opens `LORIS_CONNS` connections to `addr`, each dribbling `head` one
/// byte every 20 ms, forever (until `stop`) — the canonical loris never
/// finishes its request. Returns once the swarm has had time to connect.
fn loris_swarm(
    addr: SocketAddr,
    head: &'static [u8],
    stop: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let swarm = (0..LORIS_CONNS)
        .map(|_| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return;
                };
                for b in head.iter().cycle() {
                    if stop.load(Ordering::Relaxed)
                        || stream.write_all(std::slice::from_ref(b)).is_err()
                    {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    swarm
}

/// Fetches `url` on `client` 50 times while a swarm dribbles, via
/// `before_each`; returns the slowest. The failure mode it guards against
/// is queuing behind the swarm (hundreds of ms to seconds), so callers
/// compare against a threshold generous to CI noise.
fn worst_fetch(
    client: &baps_proxy::ClientAgent,
    url: &str,
    expect: &[Served],
    before_each: impl Fn(),
) -> Duration {
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        before_each();
        let t = Instant::now();
        let r = client.fetch(url).unwrap();
        worst = worst.max(t.elapsed());
        assert!(expect.contains(&r.source), "{:?}", r.source);
    }
    worst
}

/// Slow-loris regression: a swarm of connections dribbling a request head
/// one byte at a time must not delay other clients. Each loris connection
/// costs a registered fd and a parser buffer, never a thread, and honest
/// requests keep their sub-threshold latency throughout.
#[test]
fn slow_loris_does_not_delay_other_clients() {
    // Far fewer executor threads (8) than loris connections: if the
    // dribblers consumed threads, honest traffic would starve.
    let bed = bed(2, TestBedConfig::default());
    // Warm the doc so honest fetches are pure proxy hits (inline path).
    bed.clients[0].fetch("http://origin/doc/0").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let loris = loris_swarm(
        bed.proxy.addr(),
        b"GET http://origin/doc/0 BAPS/1.0\r\nClient: 1\r\n\r\n",
        &stop,
    );
    let r = bed.proxy.reactor_stats();
    assert!(
        r.registered_fds as usize > LORIS_CONNS / 2,
        "loris swarm is connected: {r:?}"
    );

    // Honest client: repeated proxy-hit fetches while the swarm dribbles.
    let worst = worst_fetch(
        &bed.clients[1],
        "http://origin/doc/0",
        &[Served::Proxy, Served::LocalBrowser],
        || {},
    );
    assert!(
        worst < Duration::from_millis(250),
        "honest fetches stayed fast during the loris swarm; worst {worst:?}"
    );

    stop.store(true, Ordering::Relaxed);
    for handle in loris {
        let _ = handle.join();
    }
    bed.shutdown();
}

/// The same swarm on a *browser's* peer port, dribbling a PEERGET head:
/// remote-browser hits served by that holder stay fast. (When the port
/// served each connection from one of four blocking workers, four
/// dribblers starved it until their 30 s deadline.)
#[test]
fn slow_loris_on_a_peer_port_does_not_delay_peer_hits() {
    let bed = bed(
        3,
        TestBedConfig {
            // Holds one document: doc 0 is evicted by doc 1 and lives on
            // in client 0's browser alone.
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    );
    let url = "http://origin/doc/0";
    bed.clients[0].fetch(url).unwrap();
    for i in 8..16 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let loris = loris_swarm(
        bed.clients[0].peer_addr(),
        b"PEERGET http://origin/doc/0 BAPS/1.0\r\n\r\n",
        &stop,
    );
    let requester = &bed.clients[1];
    let worst = worst_fetch(requester, url, &[Served::Peer], || {
        requester.purge_local(url);
    });
    assert!(
        worst < Duration::from_millis(250),
        "peer hits stayed fast during the loris swarm; worst {worst:?}"
    );
    assert!(bed.clients[0].peer_serves() >= 50);

    stop.store(true, Ordering::Relaxed);
    for handle in loris {
        let _ = handle.join();
    }
    bed.shutdown();
}

/// A scratch disk-tier root; the executor only runs under a proxy that
/// has one.
fn disk_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("baps-reactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Many concurrent misses of a disk-backed proxy over more connections
/// than executor threads (8): every one is answered (each queued job wakes
/// a thread; none is stranded) and the executor's queue gauge drains back
/// to zero.
#[test]
fn concurrent_misses_over_more_connections_than_workers_all_answer() {
    const CONNS: usize = 12;
    const DOCS: usize = 16;
    let root = disk_root("misses");
    // A document per GET, so no two coalesce. Each crosses the executor
    // once in the first round — the write-through of what the origin
    // answered (that the tier does not list it yet, its index says without
    // leaving the loop) — and in the second, the disk read, only if the
    // loop could not have the bytes at once (never, a moment after they
    // were written; always, where the file system has no `RWF_NOWAIT`).
    let bed = TestBed::start(
        DocumentStore::synthetic(CONNS * DOCS, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 1,
            // Too small to hold any document: every GET is a miss.
            proxy_capacity: 64,
            disk_root: Some(root.clone()),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let addr = bed.proxy.addr();
    let threads: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
                for source in ["origin", "disk"] {
                    for d in 0..DOCS {
                        let url = format!("http://origin/doc/{}", c * DOCS + d);
                        write_message(
                            conn.get_mut(),
                            &Message::new(format!("GET {url} BAPS/1.0"))
                                .header("Client", (1_000 + c).to_string())
                                .header("Bypass-Peers", "1"),
                        )
                        .unwrap();
                        let reply = read_message(&mut conn).unwrap().expect("a reply");
                        assert_eq!(response_code(&reply), Some(200), "{url}");
                        assert_eq!(reply.get("X-Source"), Some(source), "{url}");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let r = bed.proxy.reactor_stats();
    let deferred = bed.proxy.disk_stats().unwrap().reads_offloaded;
    assert!(deferred == 0 || deferred == (CONNS * DOCS) as u64);
    assert_eq!(r.offloaded, (CONNS * DOCS) as u64 + deferred, "{r:?}");
    assert_eq!(r.queue_depth, 0, "the executor queue drained: {r:?}");
    assert_eq!(r.queue_wait.count(), r.offloaded);
    assert_eq!(r.rejected, 0);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Shutdown with every executor worker parked on the empty queue (and
/// idle connections registered) wakes them all and joins promptly.
#[test]
fn shutdown_with_parked_workers_joins_promptly() {
    let root = disk_root("shutdown");
    let bed = bed(
        2,
        TestBedConfig {
            disk_root: Some(root.clone()),
            ..TestBedConfig::default()
        },
    );
    // The first disk-tier access starts the workers.
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    let r = bed.proxy.reactor_stats();
    assert!(r.offloaded >= 1);
    let _idle = TcpStream::connect(bed.proxy.addr()).unwrap();
    assert_eq!(r.queue_depth, 0, "every job claimed: {r:?}");
    let t = Instant::now();
    bed.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        t.elapsed()
    );
    let _ = std::fs::remove_dir_all(&root);
}
