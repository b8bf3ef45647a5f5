//! Thundering-herd regression tests: concurrent misses for the same cold
//! document must coalesce onto one in-flight backend fetch, and a failed
//! leader must broadcast its error instead of stranding the waiters.

use baps_core::Served;
use baps_proxy::{DocumentStore, FaultConfig, FaultPlan, TestBed, TestBedConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const HERD: u32 = 16;

/// A 16-client bed with the given fault plan. Client retries are off so
/// each fetch maps to exactly one proxy GET, which keeps the counter
/// assertions exact; `origin_retries` is raised so a failing leader stays
/// in flight long enough (backoff between attempts) for the herd to pile
/// in behind it.
fn herd_bed(faults: FaultConfig) -> TestBed {
    let store = DocumentStore::synthetic(4, 512, 1024, 7);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients: HERD,
            client_retries: 0,
            origin_retries: 4,
            fault_plan: Some(Arc::new(FaultPlan::new(7, faults))),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

/// Releases all clients against `url` at once and returns their results.
fn stampede(
    bed: &TestBed,
    url: &str,
) -> Vec<Result<baps_proxy::FetchResult, baps_proxy::ProxyError>> {
    let barrier = Arc::new(Barrier::new(HERD as usize));
    std::thread::scope(|s| {
        let handles: Vec<_> = bed
            .clients
            .iter()
            .map(|client| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    client.fetch(url)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// 16 clients concurrently miss the same cold doc while the origin's
/// reply is stalled: exactly one origin fetch happens, the other 15
/// requests coalesce onto it and serve byte-exact shared content.
#[test]
fn herd_of_misses_coalesces_to_one_origin_fetch() {
    // Every origin reply stalls mid-write, pinning the leader in flight
    // long enough that all followers are parked before it publishes.
    let bed = herd_bed(FaultConfig {
        p_origin_stall: 1.0,
        stall: Duration::from_millis(400),
        ..FaultConfig::default()
    });
    let url = "http://origin/doc/0";
    let results = stampede(&bed, url);

    let stats = bed.proxy.stats();
    assert_eq!(bed.origin.hits(), 1, "one origin fetch for the whole herd");
    assert_eq!(stats.origin_fetches, 1);
    assert_eq!(stats.coalesced_fetches, u64::from(HERD) - 1);
    assert_eq!(stats.proxy_hits, u64::from(HERD) - 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.requests, u64::from(HERD));

    let first = results[0].as_ref().expect("herd fetch succeeds");
    let mut origin_serves = 0;
    for result in &results {
        let fetched = result.as_ref().expect("herd fetch succeeds");
        assert_eq!(fetched.body, first.body, "herd bytes must be identical");
        match fetched.source {
            Served::Origin => origin_serves += 1,
            Served::Proxy => {}
            other => panic!("unexpected serve source {other:?}"),
        }
    }
    assert_eq!(origin_serves, 1, "one leader, the rest coalesced");
    bed.shutdown();
}

/// A failed leader (origin 500 on every attempt) must broadcast the error
/// to every coalesced waiter: all 16 fetches fail promptly — no deadlock,
/// no waiter stranded until its timeout, and each request is counted as
/// exactly one error.
#[test]
fn failed_leader_broadcasts_error_without_deadlock() {
    let bed = herd_bed(FaultConfig {
        p_origin_error: 1.0,
        ..FaultConfig::default()
    });
    let url = "http://origin/doc/1";
    let t_start = Instant::now();
    let results = stampede(&bed, url);
    // The follower wait budget is origin+peer deadlines (~7s); finishing
    // far sooner proves the error was broadcast, not timed out.
    assert!(
        t_start.elapsed() < Duration::from_secs(5),
        "herd failure must resolve via broadcast, not timeouts"
    );
    for result in &results {
        assert!(result.is_err(), "an origin 500 must fail the fetch");
    }
    let stats = bed.proxy.stats();
    assert_eq!(stats.errors, u64::from(HERD), "each request fails once");
    assert_eq!(stats.proxy_hits, 0);
    assert_eq!(stats.origin_fetches, 0);
    assert_eq!(stats.requests, u64::from(HERD));
    assert!(
        stats.coalesced_fetches >= 1,
        "at least some of the herd must have coalesced onto the failed leader"
    );
    bed.shutdown();
}
