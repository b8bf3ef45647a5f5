//! What an open connection costs the server holding it: one descriptor
//! and no thread, on a browser's peer port and on the origin alike — and
//! what a whole deployment at rest costs in threads (DESIGN.md §13's
//! topology table).
//!
//! Alone in its test binary on purpose: it counts `/proc/self/task` and
//! `/proc/self/fd`, which any concurrently running test would disturb.

use baps_proxy::{read_message, write_message, DocumentStore, Message, TestBed, TestBedConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
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
fn served_connections_cost_one_fd_and_no_thread() {
    let loops = std::thread::available_parallelism().map_or(1, |n| n.get());
    let at_start = threads();
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
    // start with the first frame that needs them); the same for the origin
    // and the proxy, with a loop per core, plus the proxy's window sampler.
    assert_eq!(threads() - at_start, 16 * 2 + (1 + loops) + (1 + loops + 1));

    // The origin first, while the proxy has no connection to it that its
    // reaper could close under the count.
    idle_connections_cost_fds_only(
        bed.origin.addr(),
        &Message::new(format!("GET {url} ORIGIN/1.0")),
        &body,
    );
    // (That fetch parks one for five seconds — and, as the first miss,
    // starts the miss executor: one thread per client plus four.)
    let resting = threads();
    assert_eq!(&bed.clients[0].fetch(url).unwrap().body[..], &body[..]);
    assert_eq!(threads() - resting, 20);
    idle_connections_cost_fds_only(
        bed.clients[0].peer_addr(),
        &Message::new(format!("PEERGET {url} BAPS/1.0")),
        &body,
    );
    bed.shutdown();
}
