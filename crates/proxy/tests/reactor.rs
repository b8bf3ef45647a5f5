//! End-to-end tests of what the proxy's event loops and miss executor
//! (DESIGN.md §13) make possible: idle-connection scaling far past the
//! worker count, slow-loris immunity, a miss queue that drains, and a
//! prompt shutdown. Verb, tier, disk and restart coverage lives in
//! `live.rs`.

use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, Message, Source, TestBed,
    TestBedConfig,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
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

/// Idle-connection scaling smoke on a default `TestBedConfig` (8 miss
/// workers): hundreds of registered keep-alive connections cost fds, not
/// threads, and active traffic still flows. (The 10k point lives in
/// `live_load --sweep`'s connections axis.)
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
    write_message(writer, &Message::new("STATS BAPS/1.0")).unwrap();
    let reply = read_message(reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    drop(idle);
    bed.shutdown();
}

/// Slow-loris regression: a swarm of connections dribbling a request head
/// one byte at a time must not delay other clients. Each loris connection
/// costs a registered fd and a parser buffer, never a thread, and honest
/// requests keep their sub-threshold latency throughout.
#[test]
fn slow_loris_does_not_delay_other_clients() {
    const LORIS_CONNS: usize = 32;
    const DRIBBLE: Duration = Duration::from_millis(20);

    let bed = bed(
        2,
        TestBedConfig {
            // Far fewer miss-executor threads than loris connections: if
            // the dribblers consumed threads, honest traffic would starve.
            proxy_workers: 4,
            ..TestBedConfig::default()
        },
    );
    // Warm the doc so honest fetches are pure proxy hits (inline path).
    bed.clients[0].fetch("http://origin/doc/0").unwrap();

    let head: &[u8] = b"GET http://origin/doc/0 BAPS/1.0\r\nClient: 1\r\n\r\n";
    let addr = bed.proxy.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut loris = Vec::new();
    for _ in 0..LORIS_CONNS {
        let stop = std::sync::Arc::clone(&stop);
        loris.push(std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return;
            };
            // Dribble the head one byte at a time, forever (until told to
            // stop) — the canonical loris never finishes its request.
            for b in head.iter().cycle() {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                if stream.write_all(std::slice::from_ref(b)).is_err() {
                    return;
                }
                std::thread::sleep(DRIBBLE);
            }
        }));
    }

    // Give the swarm time to connect and start dribbling.
    std::thread::sleep(Duration::from_millis(100));
    let r = bed.proxy.reactor_stats();
    assert!(
        r.registered_fds as usize > LORIS_CONNS / 2,
        "loris swarm is connected: {r:?}"
    );

    // Honest client: repeated proxy-hit fetches while the swarm dribbles.
    // Threshold is generous against CI noise; the failure mode it guards
    // against is queuing behind the swarm (hundreds of ms to seconds).
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let t = Instant::now();
        let r = bed.clients[1].fetch("http://origin/doc/0").unwrap();
        let elapsed = t.elapsed();
        assert!(matches!(r.source, Source::Proxy | Source::LocalBrowser));
        worst = worst.max(elapsed);
    }
    assert!(
        worst < Duration::from_millis(250),
        "honest fetches stayed fast during the loris swarm; worst {worst:?}"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for handle in loris {
        let _ = handle.join();
    }
    bed.shutdown();
}

/// Many concurrent misses over more connections than miss workers: every
/// one is answered (each queued job wakes a worker; none is stranded) and
/// the executor's queue gauge drains back to zero.
#[test]
fn concurrent_misses_over_more_connections_than_workers_all_answer() {
    const WORKERS: usize = 2;
    const CONNS: usize = 12;
    const DOCS: usize = 16;
    let bed = bed(
        1,
        TestBedConfig {
            proxy_workers: WORKERS,
            // Too small to hold any document: every GET is a miss.
            proxy_capacity: 64,
            ..TestBedConfig::default()
        },
    );
    let addr = bed.proxy.addr();
    let threads: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for d in 0..DOCS {
                    let url = format!("http://origin/doc/{}", (c + d) % DOCS);
                    write_message(
                        &mut writer,
                        &Message::new(format!("GET {url} BAPS/1.0"))
                            .header("Client", (1_000 + c).to_string())
                            .header("Bypass-Peers", "1"),
                    )
                    .unwrap();
                    let reply = read_message(&mut reader).unwrap().expect("a reply");
                    assert_eq!(response_code(&reply), Some(200), "{url}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let r = bed.proxy.reactor_stats();
    assert_eq!(r.offloaded, (CONNS * DOCS) as u64, "every GET missed");
    let sat = bed.proxy.saturation();
    assert_eq!(sat.workers, WORKERS as u64);
    assert_eq!(sat.queue_depth, 0, "the miss queue drained: {sat:?}");
    assert_eq!(sat.busy_workers, 0);
    assert_eq!(sat.queue_wait.count(), (CONNS * DOCS) as u64);
    assert_eq!(sat.rejected, 0);
    bed.shutdown();
}

/// Shutdown with every miss worker parked on the empty queue (and idle
/// connections registered) wakes them all and joins promptly.
#[test]
fn shutdown_with_parked_workers_joins_promptly() {
    let bed = bed(
        2,
        TestBedConfig {
            proxy_workers: 16,
            ..TestBedConfig::default()
        },
    );
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    let _idle = TcpStream::connect(bed.proxy.addr()).unwrap();
    assert_eq!(bed.proxy.saturation().busy_workers, 0, "workers parked");
    let t = Instant::now();
    bed.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        t.elapsed()
    );
}
