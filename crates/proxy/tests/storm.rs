//! Invalidation-storm tests against a warm disk tier: a publisher storm
//! must never let a stale body escape (every post-invalidate read
//! revalidates with `If-Digest` or refetches), and torn-entry self-heal
//! counters stay balanced when the storm lands on corrupted entries.

use baps_proxy::{DocumentStore, TestBed, TestBedConfig};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

const DOCS: usize = 12;

fn unique_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("baps-storm-{tag}-{}", std::process::id()))
}

/// A disk-backed bed with browser caching effectively off (capacity 1
/// byte) and a memory tier too small to matter, so every read exercises
/// the disk path the storm is aimed at.
fn disk_bed(root: &Path, seed: u64) -> (TestBed, HashMap<String, Vec<u8>>) {
    let _ = fs::remove_dir_all(root);
    let store = DocumentStore::synthetic(DOCS, 600, 900, seed);
    let expected: HashMap<String, Vec<u8>> = store
        .urls()
        .map(|u| u.to_string())
        .collect::<Vec<_>>()
        .into_iter()
        .map(|u| {
            let body = store.get(&u).expect("doc exists").to_vec();
            (u, body)
        })
        .collect();
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 4,
            proxy_capacity: 2_000,
            browser_capacity: 1,
            disk_root: Some(root.to_path_buf()),
            disk_capacity: 1 << 20,
            disk_ttl: Duration::from_secs(3600),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    (bed, expected)
}

fn warm_disk(bed: &TestBed, expected: &HashMap<String, Vec<u8>>) {
    for (url, body) in expected {
        let fetched = bed.clients[0].fetch(url).expect("warm fetch succeeds");
        assert_eq!(&fetched.body[..], &body[..]);
    }
    let disk = bed.proxy.disk_stats().expect("disk tier configured");
    assert_eq!(disk.entries, DOCS as u64, "warm phase fills the disk tier");
}

/// Three storm rounds against a warm store: each round mutates half the
/// corpus at the origin and publisher-invalidates *all* of it. Every
/// subsequent read must return the current bytes — a changed doc via
/// refetch, an unchanged doc via a cheap `If-Digest` 304 revalidation —
/// and never a stale body.
#[test]
fn invalidation_storm_never_serves_stale_disk_bodies() {
    let root = unique_root("stale");
    let (bed, mut expected) = disk_bed(&root, 21);
    let urls: Vec<String> = {
        let mut u: Vec<String> = expected.keys().cloned().collect();
        u.sort();
        u
    };
    warm_disk(&bed, &expected);

    for round in 0..3u64 {
        for (i, url) in urls.iter().enumerate() {
            if (i as u64 + round).is_multiple_of(2) {
                // Publisher updates the doc: same length, new content.
                let mut body = expected[url].clone();
                let tag = format!("storm-{round}-{i}");
                let tag = tag.as_bytes();
                body[..tag.len()].copy_from_slice(tag);
                assert!(bed.origin.mutate(url, body.clone()), "origin doc exists");
                expected.insert(url.clone(), body);
            }
            // The storm invalidates the whole corpus either way: changed
            // docs must refetch, unchanged docs must revalidate — neither
            // may serve the old disk bytes unverified.
            bed.clients[0]
                .publish_invalidate(url)
                .expect("publisher invalidate succeeds");
        }
        for url in &urls {
            for client in &bed.clients {
                let fetched = client.fetch(url).expect("post-storm fetch succeeds");
                assert_eq!(
                    &fetched.body[..],
                    &expected[url][..],
                    "stale body served for {url} in round {round}"
                );
            }
        }
    }

    // The unchanged half came back via conditional GETs, not blind serves.
    assert!(
        bed.origin.revalidations() > 0,
        "unchanged docs must revalidate with If-Digest"
    );
    let stats = bed.proxy.stats();
    assert!(
        stats.disk_revalidations > 0,
        "some disk serves must have required a 304 first"
    );
    let disk = bed.proxy.disk_stats().expect("disk tier configured");
    assert!(disk.stale > 0, "expired entries must read as stale");
    assert_eq!(disk.heals, 0, "a clean storm tears no files");
    assert_eq!(disk.io_errors, 0);
    assert_eq!(disk.entries, DOCS as u64);
    bed.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// Tears every disk entry mid-storm: each torn entry is detected on read,
/// healed (tombstoned) exactly once, and refetched from the origin — the
/// heal counter balances the number of torn entries and no client ever
/// sees wrong bytes.
#[test]
fn torn_files_self_heal_balanced_under_storm() {
    let root = unique_root("torn");
    let (bed, expected) = disk_bed(&root, 33);
    warm_disk(&bed, &expected);

    // Tear every entry: each segment of the log is cut inside its first
    // header.
    let log = baps_proxy::disk::scan(&root).expect("disk root readable");
    let torn = log.len() as u64;
    assert_eq!(torn, DOCS as u64, "every document is in the log");
    let mut segments: Vec<_> = log.into_iter().map(|entry| entry.path).collect();
    segments.dedup();
    for segment in segments {
        fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .and_then(|f| f.set_len(8))
            .expect("truncate segment");
    }

    // Storm the whole corpus, then read everything back.
    for url in expected.keys() {
        bed.clients[0]
            .publish_invalidate(url)
            .expect("publisher invalidate succeeds");
    }
    let origin_hits_before = bed.origin.hits();
    for (url, body) in &expected {
        let fetched = bed.clients[1].fetch(url).expect("post-tear fetch succeeds");
        assert_eq!(&fetched.body[..], &body[..], "torn entry served bad bytes");
    }

    let disk = bed.proxy.disk_stats().expect("disk tier configured");
    assert_eq!(
        disk.heals, torn,
        "each torn entry heals exactly once — counters balance"
    );
    assert_eq!(disk.io_errors, 0);
    assert_eq!(
        disk.entries, DOCS as u64,
        "healed entries are rewritten by write-through"
    );
    assert_eq!(
        bed.origin.hits() - origin_hits_before,
        DOCS as u64,
        "every healed doc was refetched from the origin"
    );
    bed.shutdown();
    let _ = fs::remove_dir_all(&root);
}
