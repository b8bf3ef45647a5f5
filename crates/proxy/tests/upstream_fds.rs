//! The proxy's upstream connections give their descriptors back: once
//! traffic stops, each event loop's reaper (a 1 Hz loop timer, armed only
//! while the loop holds idle connections) closes every connection that
//! sat idle past the limit, and the process holds exactly the descriptors
//! it held before the traffic.
//!
//! Alone in its test binary on purpose: it counts `/proc/self/fd`, which
//! any concurrently running test would disturb.

use baps_core::Served;
use baps_proxy::{DocumentStore, TestBed, TestBedConfig};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Connections idle on the proxy's loops: (to peers, to the origin).
fn idle_upstreams(bed: &TestBed) -> (f64, f64) {
    let samples = baps_obs::prom::parse(&bed.proxy.metrics_text()).unwrap();
    let idle = |kind| {
        let labels = [("upstream", kind)];
        baps_obs::prom::find(&samples, "baps_upstream_idle_connections", &labels).unwrap()
    };
    (idle("peer"), idle("origin"))
}

#[test]
fn idle_upstream_connections_are_reaped_and_their_fds_returned() {
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
    // Every client already holds its keep-alive connection to the proxy
    // (REGISTER went over it); those stay open throughout.
    let before = open_fds();

    // Origin fetches, then a remote-browser hit: one connection to client
    // 0 ends up idle, and one to the origin on each loop that fetched.
    let url = "http://origin/doc/0";
    bed.clients[0].fetch(url).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    assert_eq!(bed.clients[1].fetch(url).unwrap().source, Served::Peer);
    let (to_peers, to_origin) = idle_upstreams(&bed);
    assert_eq!(to_peers, 1.0);
    assert!(to_origin >= 1.0);
    // Each is a descriptor at both ends.
    assert_eq!(open_fds(), before + 2 * (to_peers + to_origin) as usize);

    // No more traffic. Within the idle limit (5 s) plus a reaper tick the
    // gauges are back to 0; the far ends see the close and let go of their
    // descriptors too.
    let t0 = Instant::now();
    while idle_upstreams(&bed) != (0.0, 0.0) || open_fds() != before {
        assert!(
            t0.elapsed() < Duration::from_secs(7),
            "still {:?} idle upstream connections, {} fds (started with {before})",
            idle_upstreams(&bed),
            open_fds()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        t0.elapsed() > Duration::from_secs(3),
        "reaped after {:?}: the idle limit should have kept the connections for seconds",
        t0.elapsed()
    );
    bed.shutdown();
}
