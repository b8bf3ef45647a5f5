//! What a fetch costs the whole deployment in heap allocations, by the
//! tier that serves it: local (the browser's own cache), proxy memory,
//! proxy disk, a peer's browser cache and the origin, at 1 KiB and 64 KiB
//! bodies. Every party — the browser, the proxy's loops, the peer port, the
//! origin — runs in this process, so the counting allocator below counts
//! all four; the browser's own thread is counted apart.
//!
//! Alone in its binary: the allocator is the process's, and no other
//! test's allocations may land in a count. Each tier is measured over
//! `MEASURED` fetches after a warm-up behind a wrapped flight recorder (a
//! full ring recycles its events' buffers: the steady state of a
//! deployment that has run a while). A local hit involves the browser
//! alone, so its bound holds on the browser's thread; the others hold
//! process-wide. Run it with `--nocapture` to see every count.

use baps_obs::{EventKind, FlightRecorder, TraceId};
use baps_proxy::{ClientAgent, ClientConfig, DocumentStore, Source, TestBed, TestBedConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DOCS: usize = 64;
/// Fetches that settle a tier before its count: 16 head-sampled traces'
/// worth, and every document at least once.
const WARMUP: usize = 512;
const MEASURED: usize = if cfg!(debug_assertions) { 1_000 } else { 4_000 };

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made on this thread (const-initialised: reading it
    /// allocates nothing).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation and
/// the bytes it asked for.
struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Per-fetch means over one measured run.
#[derive(Debug)]
struct Cost {
    allocs: f64,
    bytes: f64,
    browser_allocs: f64,
}

fn urls() -> Vec<String> {
    (0..DOCS)
        .map(|i| format!("http://origin/doc/{i}"))
        .collect()
}

fn store(body: usize) -> DocumentStore {
    let mut store = DocumentStore::new();
    for (i, url) in urls().into_iter().enumerate() {
        store.insert(url, vec![i as u8; body]);
    }
    store
}

/// Fetches every document once through `client`, whatever serves it.
fn fetch_all(client: &ClientAgent, urls: &[String]) {
    for url in urls {
        client.fetch(url).unwrap();
    }
}

/// Fills every stripe of `ring` — each thread records into a stripe of its
/// own, handed out round-robin — with events whose details are longer than
/// any a fetch records, so every event recorded from now on displaces one
/// and reuses its buffer without growing it, as in a deployment that has
/// run a while.
fn wrap(ring: &FlightRecorder) {
    let filler = "x".repeat(256);
    for _ in 0..64 {
        if ring.len() == ring.capacity() {
            return;
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ring.capacity() {
                    ring.record(TraceId::NONE, EventKind::Fetch, Duration::ZERO, &*filler);
                }
            });
        });
    }
    panic!("the flight ring never filled");
}

/// Warms `client` on `tier` behind a wrapped flight ring, then counts
/// `MEASURED` fetches, each of which must be served by `tier`.
fn measure(bed: &TestBed, client: &ClientAgent, urls: &[String], tier: Source) -> Cost {
    let mut n = 0;
    let mut fetch = || {
        let url = &urls[n % urls.len()];
        n += 1;
        let got = client.fetch(url).unwrap();
        assert_eq!(got.source, tier, "{url}");
    };
    wrap(&bed.recorder);
    (0..WARMUP).for_each(|_| fetch());
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let browser = THREAD_ALLOCS.with(Cell::get);
    (0..MEASURED).for_each(|_| fetch());
    let per = |d: u64| d as f64 / MEASURED as f64;
    Cost {
        allocs: per(ALLOCS.load(Ordering::SeqCst) - allocs),
        bytes: per(BYTES.load(Ordering::SeqCst) - bytes),
        browser_allocs: per(THREAD_ALLOCS.with(Cell::get) - browser),
    }
}

fn bed(body: usize, config: TestBedConfig) -> TestBed {
    TestBed::start(
        store(body),
        TestBedConfig {
            n_clients: 1,
            ..config
        },
    )
    .unwrap()
}

/// Room for every document in a cache, twice over.
fn room(body: usize) -> u64 {
    (2 * DOCS * body) as u64
}

/// The five tiers' costs at one body size.
fn costs(body: usize) -> Vec<(Source, Cost)> {
    let urls = urls();
    let mut out = Vec::new();

    // Local: the browser's cache holds every document.
    let local = bed(
        body,
        TestBedConfig {
            browser_capacity: room(body),
            ..TestBedConfig::default()
        },
    );
    fetch_all(&local.clients[0], &urls);
    let cost = measure(&local, &local.clients[0], &urls, Source::LocalBrowser);
    out.push((Source::LocalBrowser, cost));
    local.shutdown();

    // Proxy memory: the browser keeps nothing, the proxy everything.
    let proxy = bed(
        body,
        TestBedConfig {
            browser_capacity: 0,
            proxy_capacity: room(body),
            ..TestBedConfig::default()
        },
    );
    fetch_all(&proxy.clients[0], &urls);
    let cost = measure(&proxy, &proxy.clients[0], &urls, Source::Proxy);
    out.push((Source::Proxy, cost));
    proxy.shutdown();

    // Disk: neither the browser nor the proxy's memory keeps anything.
    let root = std::env::temp_dir().join(format!("baps-costs-{}-{body}", std::process::id()));
    let disk = bed(
        body,
        TestBedConfig {
            browser_capacity: 0,
            proxy_capacity: 0,
            disk_root: Some(root.clone()),
            disk_capacity: room(body),
            ..TestBedConfig::default()
        },
    );
    fetch_all(&disk.clients[0], &urls);
    let cost = measure(&disk, &disk.clients[0], &urls, Source::ProxyDisk);
    out.push((Source::ProxyDisk, cost));
    disk.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    // Peer: a second browser holds every document, the proxy nothing, and
    // the requester keeps nothing.
    let peer = bed(
        body,
        TestBedConfig {
            browser_capacity: room(body),
            proxy_capacity: 0,
            ..TestBedConfig::default()
        },
    );
    fetch_all(&peer.clients[0], &urls);
    let requester = ClientAgent::start_with(
        1,
        peer.proxy.addr(),
        peer.proxy.public_key(),
        ClientConfig {
            browser_capacity: 0,
            recorder: Some(Arc::clone(&peer.recorder)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let cost = measure(&peer, &requester, &urls, Source::Peer);
    out.push((Source::Peer, cost));
    requester.shutdown();
    peer.shutdown();

    // Origin: nobody keeps anything.
    let origin = bed(
        body,
        TestBedConfig {
            browser_capacity: 0,
            proxy_capacity: 0,
            ..TestBedConfig::default()
        },
    );
    let cost = measure(&origin, &origin.clients[0], &urls, Source::Origin);
    out.push((Source::Origin, cost));
    origin.shutdown();
    out
}

/// Allocations per fetch no tier may exceed, across all four parties.
fn bound(tier: Source) -> f64 {
    match tier {
        Source::LocalBrowser => 0.0,
        Source::Proxy => 8.0,
        Source::ProxyDisk | Source::Peer | Source::Origin => 20.0,
    }
}

#[test]
fn allocations_per_fetch_by_tier() {
    let mut over = Vec::new();
    for body in [1 << 10, 64 << 10] {
        for (tier, cost) in costs(body) {
            println!(
                "costs {:>2} KiB {:<6} allocs/fetch {:>6.2} (browser thread {:>5.2})  bytes/fetch {:>9.1}",
                body >> 10,
                tier.label(),
                cost.allocs,
                cost.browser_allocs,
                cost.bytes,
            );
            let counted = match tier {
                Source::LocalBrowser => cost.browser_allocs,
                _ => cost.allocs,
            };
            if counted > bound(tier) {
                over.push(format!(
                    "{} at {} KiB: {:.2} allocations a fetch, bound {}",
                    tier.label(),
                    body >> 10,
                    counted,
                    bound(tier)
                ));
            }
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}
