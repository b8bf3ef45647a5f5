//! What serving costs in threads and descriptors (DESIGN.md §13's
//! topology table): an open connection is one descriptor and no thread, on
//! a browser's peer port and on the origin alike; a miss — peer probe,
//! origin fetch, a coalesced herd of thousands — is work for the proxy's
//! event loops and starts no thread either, and a warm disk hit is read
//! and verified by the loop that took the GET.
//!
//! One test, alone in its test binary, on purpose: it counts
//! `/proc/self/task` and `/proc/self/fd`, which any concurrently running
//! test (or test-harness thread coming or going) would disturb.

use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, FaultConfig, FaultPlan, Message,
    Source, TestBed, TestBedConfig,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Threads of the proxy's blocking executor (`baps-proxy-exec-N`).
fn executor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("baps-proxy-exec"))
        .count()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Polls until the process holds exactly `want` descriptors (a closed
/// connection's far end lets go a moment after the near end).
fn settle_at(want: usize) {
    let t0 = Instant::now();
    while open_fds() != want {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{} descriptors, expected {want}",
            open_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn doc_url(i: usize) -> String {
    format!("http://origin/doc/{i}")
}

fn get(conn: &mut BufReader<TcpStream>, url: &str, client: u32) {
    let msg = Message::new(format!("GET {url} BAPS/1.0")).header("Client", client.to_string());
    write_message(conn.get_mut(), &msg).unwrap();
}

/// Opens `IDLE` connections to `addr` and leaves them idle: the process
/// gains two descriptors per connection (this end and the server's) and
/// no thread. Every one of them then answers `request` with `body`.
fn idle_connections_cost_fds_only(addr: SocketAddr, request: &Message, body: &[u8]) {
    const IDLE: usize = 8;
    let (threads_before, fds_before) = (threads(), open_fds());
    let mut idle: Vec<_> = (0..IDLE)
        .map(|_| BufReader::new(TcpStream::connect(addr).unwrap()))
        .collect();
    // A round trip on one more connection, accepted after the idle ones:
    // by its reply the acceptor has taken all of them.
    let mut last = BufReader::new(TcpStream::connect(addr).unwrap());
    write_message(last.get_mut(), request).unwrap();
    assert_eq!(&read_message(&mut last).unwrap().unwrap().body[..], body);
    drop(last);
    settle_at(fds_before + 2 * IDLE);
    assert_eq!(threads(), threads_before, "open connections hold a thread");
    for conn in &mut idle {
        write_message(conn.get_mut(), request).unwrap();
        assert_eq!(&read_message(conn).unwrap().unwrap().body[..], body);
    }
    drop(idle);
    settle_at(fds_before);
}

#[test]
fn serving_costs_descriptors_not_threads() {
    served_connections_cost_one_fd_and_no_thread();
    misses_peer_hits_and_a_herd_start_no_thread();
    a_stalling_origin_with_32_misses_outstanding_delays_nobody_else();
    warm_disk_hits_never_leave_the_loop();
}

fn served_connections_cost_one_fd_and_no_thread() {
    let loops = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads_at_start, fds_at_start) = (threads(), open_fds());
    let store = DocumentStore::synthetic(4, 200, 2_000, 42);
    let url = "http://origin/doc/0";
    let body = store.get(url).unwrap().to_vec();
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 16,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    // At rest: per browser an acceptor and one loop (executor threads
    // start with the first step that needs them); the same for the origin
    // and the proxy, with a loop per core. The proxy's rolling windows
    // ride a timer on its first loop, not a thread.
    assert_eq!(
        threads() - threads_at_start,
        16 * 2 + (1 + loops) + (1 + loops)
    );
    // A server is its listener (the acceptor thread's handle and the one
    // a restart would pass on) and an epoll set and an eventfd per loop;
    // a browser's connection to its proxy is one descriptor at each end.
    let server = |loops| 2 + 2 * loops;
    assert_eq!(
        open_fds() - fds_at_start,
        16 * (server(1) + 1 + 1) + 2 * server(loops),
        "a browser's proxy connection is one descriptor"
    );

    // The origin first, while the proxy has no connection to it that its
    // reaper could close under the count.
    idle_connections_cost_fds_only(
        bed.origin.addr(),
        &Message::new(format!("GET {url} ORIGIN/1.0")),
        &body,
    );
    // That fetch — the proxy's first miss — leaves one idle connection to
    // the origin for five seconds and starts no thread: the origin is asked
    // from the event loop that took the GET.
    let resting = threads();
    assert_eq!(&bed.clients[0].fetch(url).unwrap().body[..], &body[..]);
    assert_eq!(threads(), resting);
    idle_connections_cost_fds_only(
        bed.clients[0].peer_addr(),
        &Message::new(format!("PEERGET {url} BAPS/1.0")),
        &body,
    );
    bed.shutdown();
}

/// How many connections a herd may open: 2 000, or what the descriptor
/// limit leaves (each costs one here and one in the proxy).
fn herd_size() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let soft: usize = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(1024);
    2_000.min(soft.saturating_sub(open_fds() + 64) / 2)
}

/// (a) On a memory-only proxy the first miss, a run of remote-browser hits
/// and a herd of thousands on one cold document start no thread at all —
/// a dial is a nonblocking connect, so it needs none either: 0. The herd
/// costs one origin fetch; every other member parks as a continuation.
fn misses_peer_hits_and_a_herd_start_no_thread() {
    // Every origin reply stalls mid-frame: long enough for a herd to pile
    // up behind its leader.
    let plan = FaultPlan::new(
        3,
        FaultConfig {
            p_origin_stall: 1.0,
            stall: Duration::from_millis(400),
            ..FaultConfig::default()
        },
    );
    let bed = TestBed::start(
        DocumentStore::synthetic(16, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 16,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            fault_plan: Some(Arc::new(plan)),
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let resting = threads();

    // The first miss.
    let held = bed.clients[0].fetch(&doc_url(0)).unwrap().body;
    assert_eq!(threads(), resting, "an origin fetch started a thread");

    // Push doc 0 out of the (tiny) proxy cache; from then on client 0's
    // browser is the only holder.
    let mut next = 8;
    while bed.proxy.cached_body(&doc_url(0)).is_some() {
        bed.clients[15].fetch(&doc_url(next)).unwrap();
        next += 1;
    }
    for i in 0..50 {
        bed.clients[1].purge_local(&doc_url(0));
        let got = bed.clients[1].fetch(&doc_url(0)).unwrap();
        assert_eq!((got.source, &got.body), (Source::Peer, &held), "hit {i}");
    }
    assert_eq!(bed.proxy.stats().peer_hits, 50);
    assert_eq!(threads(), resting, "a peer probe started a thread");

    // The herd: one cold document, a connection per member, every GET on
    // the wire before the first reply is read.
    let herd = herd_size();
    assert!(herd >= 100, "descriptor limit leaves a herd of {herd}");
    let before = bed.proxy.stats();
    let origin_hits = bed.origin.hits();
    let cold = doc_url(7);
    let mut members: Vec<_> = (0..herd)
        .map(|_| {
            // A round trip each (any verb the proxy refuses will do), so
            // the connects never outrun the acceptor and overflow the
            // listen backlog.
            let mut member = BufReader::new(TcpStream::connect(bed.proxy.addr()).unwrap());
            write_message(member.get_mut(), &Message::new("PING BAPS/1.0")).unwrap();
            let refused = read_message(&mut member).unwrap().unwrap();
            assert_eq!(response_code(&refused), Some(400));
            member
        })
        .collect();
    for (i, member) in members.iter_mut().enumerate() {
        get(member, &cold, 1_000 + i as u32);
    }
    // All of them are in — one asking, the rest parked — and still only
    // the resting threads exist.
    let t0 = Instant::now();
    while bed.proxy.reactor_stats().parked_requests != herd as u64 - 1 {
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "herd did not assemble behind its leader: {:?}",
            bed.proxy.reactor_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(bed.proxy.reactor_stats().exchanges_in_flight, 1);
    assert_eq!(threads(), resting, "a parked follower holds a thread");
    let mut bodies = members.iter_mut().map(|member| {
        let reply = read_message(member).unwrap().expect("a reply");
        assert_eq!(response_code(&reply), Some(200));
        reply.body
    });
    let first = bodies.next().unwrap();
    assert!(bodies.all(|body| body == first));
    let after = bed.proxy.stats();
    assert_eq!(bed.origin.hits() - origin_hits, 1, "one fetch for the herd");
    assert_eq!(after.origin_fetches - before.origin_fetches, 1);
    assert_eq!(
        after.coalesced_fetches - before.coalesced_fetches,
        herd as u64 - 1
    );
    assert_eq!(after.errors, 0);
    assert_eq!(threads(), resting);
    assert_eq!(executor_threads(), 0);
    assert_eq!(bed.proxy.reactor_stats().offloaded, 0);
    drop(members);
    bed.shutdown();
}

/// (c) A slow origin holds requests, not the proxy: with every origin
/// reply stalled 200 ms and 32 misses waiting on it, METRICS is answered at
/// once, and no executor thread exists — the 32 are exchanges on the event
/// loops.
fn a_stalling_origin_with_32_misses_outstanding_delays_nobody_else() {
    const MISSES: usize = 32;
    let plan = FaultPlan::new(
        3,
        FaultConfig {
            p_origin_stall: 1.0,
            stall: Duration::from_millis(200),
            ..FaultConfig::default()
        },
    );
    let bed = TestBed::start(
        DocumentStore::synthetic(MISSES, 200, 2_000, 42),
        TestBedConfig {
            n_clients: 1,
            fault_plan: Some(Arc::new(plan)),
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let mut missing: Vec<_> = (0..MISSES)
        .map(|_| BufReader::new(TcpStream::connect(bed.proxy.addr()).unwrap()))
        .collect();
    let t0 = Instant::now();
    for (i, conn) in missing.iter_mut().enumerate() {
        get(conn, &doc_url(i), 100 + i as u32);
    }
    while bed.proxy.reactor_stats().exchanges_in_flight != MISSES as u64 {
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "{:?}",
            bed.proxy.reactor_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let t_metrics = Instant::now();
    let metrics = bed.clients[0].proxy_metrics_raw().unwrap();
    let took = t_metrics.elapsed();
    assert_eq!(response_code(&metrics), Some(200));
    assert!(took < Duration::from_millis(50), "METRICS took {took:?}");
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "stalls were over"
    );
    assert_eq!(executor_threads(), 0);
    for conn in &mut missing {
        let reply = read_message(conn).unwrap().expect("a reply");
        assert_eq!(reply.get("X-Source"), Some("origin"));
    }
    assert!(t0.elapsed() >= Duration::from_millis(200));
    assert_eq!(bed.proxy.reactor_stats().offloaded, 0);
    assert_eq!(executor_threads(), 0);
    bed.shutdown();
}

/// Whether `dir` is on tmpfs, which answers `RWF_NOWAIT` with
/// `EOPNOTSUPP`: there every disk read is the executor's.
fn on_tmpfs(dir: &std::path::Path) -> bool {
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap();
    // "36 35 98:0 / /mount/point rw,noatime shared:1 - ext4 /dev/root rw"
    let mount_of = |line: &str| {
        let (mount, fs) = line.split_once(" - ")?;
        let point = mount.split(' ').nth(4)?.to_owned();
        dir.starts_with(&point)
            .then(|| (point.len(), fs.starts_with("tmpfs ")))
    };
    let deepest = mounts.lines().filter_map(mount_of).max_by_key(|m| m.0);
    deepest.is_some_and(|(_, tmpfs)| tmpfs)
}

/// (d) Who runs a disk read: 100 warm hits on documents of at most 16 KiB
/// are read, verified and served without one hand-off to the executor; a
/// document above the tier's 64 KiB inline limit costs exactly one.
fn warm_disk_hits_never_leave_the_loop() {
    let dir = std::env::temp_dir().join(format!("baps_serving_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DocumentStore::synthetic(8, 2_000, 16 << 10, 42);
    store.insert("http://origin/big", vec![0xb1u8; (64 << 10) + 1]);
    let bodies: Vec<_> = (0..8)
        .map(|i| store.get(&doc_url(i)).unwrap().to_vec())
        .collect();
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            // Room for one document: every fetch below finds the one
            // before it in memory and its own on disk.
            proxy_capacity: 17 << 10,
            browser_capacity: 1,
            disk_root: Some(dir.clone()),
            disk_capacity: 1 << 20,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let fetch = |url: &str| bed.clients[0].fetch(url).unwrap();
    for i in 0..8 {
        assert_eq!(fetch(&doc_url(i)).source, Source::Origin);
    }
    assert_eq!(fetch("http://origin/big").source, Source::Origin);

    let offloaded = || bed.proxy.reactor_stats().offloaded;
    let before = offloaded();
    for hit in 0..100 {
        let got = fetch(&doc_url(hit % 8));
        assert_eq!(got.source, Source::ProxyDisk, "hit {hit}");
        assert_eq!(&got.body[..], &bodies[hit % 8][..], "hit {hit}");
    }
    let deferred = bed.proxy.disk_stats().unwrap().reads_offloaded;
    assert_eq!(offloaded() - before, deferred);
    assert_eq!(deferred, if on_tmpfs(&dir) { 100 } else { 0 });

    let before = offloaded();
    let got = fetch("http://origin/big");
    assert_eq!(got.source, Source::ProxyDisk);
    assert!(got.body.len() > 64 << 10 && got.body.iter().all(|&b| b == 0xb1));
    assert_eq!(offloaded() - before, 1, "a large body is the executor's");
    assert_eq!(bed.origin.hits(), 9, "nothing was fetched twice");
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
