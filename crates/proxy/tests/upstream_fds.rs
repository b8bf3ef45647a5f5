//! The upstream pool gives its descriptors back: once traffic stops, the
//! reaper (the proxy's 1 Hz sampler tick) closes every connection that
//! sat idle past the pool's limit, and the process holds exactly the
//! descriptors it held before the traffic.
//!
//! Alone in its test binary on purpose: it counts `/proc/self/fd`, which
//! any concurrently running test would disturb.

use baps_proxy::{DocumentStore, Source, TestBed, TestBedConfig};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn idle_upstreams(bed: &TestBed) -> f64 {
    let samples = baps_obs::prom::parse(&bed.proxy.metrics_text()).unwrap();
    baps_obs::prom::find(&samples, "baps_upstream_idle_connections", &[]).unwrap()
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

    // Origin fetches, then a remote-browser hit: one connection to the
    // origin and one to client 0 end up parked.
    let url = "http://origin/doc/0";
    bed.clients[0].fetch(url).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    assert_eq!(bed.clients[1].fetch(url).unwrap().source, Source::Peer);
    assert_eq!(idle_upstreams(&bed), 2.0);
    assert!(open_fds() > before);

    // No more traffic. Within the idle limit (5 s) plus a sampler tick the
    // gauge is back to 0; the far ends see the close and let go of their
    // descriptors too.
    let t0 = Instant::now();
    while idle_upstreams(&bed) != 0.0 || open_fds() != before {
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "still {} idle upstream connections, {} fds (started with {before})",
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
