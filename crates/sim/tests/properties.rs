//! Property-based tests of the simulator's accounting invariants.

use baps_core::{LatencyParams, Served, PROXY_TIERS};
use baps_sim::index::BatchedIndex;
use baps_sim::{
    run, run_simple, BrowserSizing, IndexModel, Organization, RemoteHitCaching, SystemConfig,
};
use baps_trace::{ClientId, DocId, Request, Trace, TraceStats};
use proptest::prelude::*;
use std::collections::HashSet;

/// A small random trace: bounded universes so caches see real contention.
///
/// Sizes are a fixed function of the document id. (With arbitrary
/// per-request sizes a document can oscillate back to an earlier size,
/// making a stale *private* browser copy valid again — a private cache can
/// then beat the single-shared-infinite-cache "maximum" hit ratio. The
/// paper's accounting has the same wrinkle; real documents essentially
/// never revert, so the bound test uses churn-free traces.)
fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u32..6, 0u32..40), 1..400).prop_map(|reqs| {
        let mut t = Trace::new("prop");
        for (i, (c, d)) in reqs.into_iter().enumerate() {
            t.push(Request {
                time_ms: (i as u64) * 37,
                client: ClientId(c),
                doc: DocId(d),
                size: (d % 37) * 131 + 64,
            });
        }
        t
    })
}

fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    (
        0usize..5,
        1_000u64..200_000,
        prop_oneof![
            Just(BrowserSizing::Minimum),
            (100u64..50_000).prop_map(BrowserSizing::Fixed),
        ],
        0.0f64..=1.0,
    )
        .prop_map(|(org_idx, proxy_capacity, browser_sizing, mem_fraction)| {
            let mut cfg = SystemConfig::paper_default(Organization::all()[org_idx], proxy_capacity);
            cfg.browser_sizing = browser_sizing;
            cfg.mem_fraction = mem_fraction;
            cfg
        })
}

proptest! {
    /// Exact accounting: every request lands in exactly one class, bytes
    /// add up, and ratios stay under the infinite-cache bound.
    #[test]
    fn accounting_invariants(trace in trace_strategy(), cfg in config_strategy()) {
        let stats = TraceStats::compute(&trace);
        let r = run(&trace, &stats, &cfg, &LatencyParams::paper());
        prop_assert_eq!(r.metrics.requests(), trace.len() as u64);
        prop_assert_eq!(r.metrics.total_bytes(), trace.total_bytes());
        prop_assert!(r.hit_ratio() <= stats.max_hit_ratio + 1e-9,
            "{} HR {} > bound {}", cfg.organization.name(), r.hit_ratio(), stats.max_hit_ratio);
        prop_assert!(r.byte_hit_ratio() <= stats.max_byte_hit_ratio + 1e-9);
        // Memory hits are a subset of all hit bytes.
        let hit_bytes = r.metrics.total_bytes() - r.metrics.served(&[Served::Origin]).bytes;
        prop_assert!(r.metrics.mem_hit_bytes <= hit_bytes);
        // Latency accumulates for every request.
        prop_assert!(r.latency.total_ms() > 0.0);
    }

    /// With remote hits re-cached at BOTH requester and proxy (mirroring
    /// exactly what the miss path would have populated) and no peer-serve
    /// promotion, the browsers-aware system is *exactly*
    /// proxy-and-local-browser plus converted misses: identical local/proxy
    /// classes, and every gained hit is a remote-browser hit.
    ///
    /// (Under the paper's `NoCaching` policy the two systems genuinely
    /// diverge over time — a remote hit leaves the requester's browser
    /// empty where the miss path would have cached a copy — so pointwise
    /// dominance is only guaranteed in this configuration.)
    #[test]
    fn baps_dominates_plb_pointwise(trace in trace_strategy(), proxy_capacity in 1_000u64..100_000) {
        let stats = TraceStats::compute(&trace);
        let mut baps_cfg = SystemConfig::paper_default(Organization::BrowsersAware, proxy_capacity);
        baps_cfg.remote_hit_caching = RemoteHitCaching::CacheBoth;
        baps_cfg.peer_serve_promotes = false;
        let mut plb_cfg = baps_cfg;
        plb_cfg.organization = Organization::ProxyAndLocalBrowser;

        let baps = run(&trace, &stats, &baps_cfg, &LatencyParams::paper());
        let plb = run(&trace, &stats, &plb_cfg, &LatencyParams::paper());

        for s in [Served::LocalBrowser, Served::Proxy, Served::ProxyDisk] {
            prop_assert_eq!(baps.metrics.served(&[s]), plb.metrics.served(&[s]));
        }
        prop_assert_eq!(
            baps.metrics.served(&[Served::Peer, Served::Origin]).count,
            plb.metrics.served(&[Served::Origin]).count
        );
        prop_assert!(baps.hit_ratio() >= plb.hit_ratio());
    }

    /// Replays are deterministic: same inputs, same outputs.
    #[test]
    fn replay_determinism(trace in trace_strategy(), cfg in config_strategy()) {
        let a = run_simple(&trace, &cfg);
        let b = run_simple(&trace, &cfg);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.latency, b.latency);
        prop_assert_eq!(a.index_memory_bytes, b.index_memory_bytes);
    }

    /// Proxy-only and local-browser-only never produce remote or foreign
    /// hit classes.
    #[test]
    fn class_exclusivity(trace in trace_strategy(), proxy_capacity in 1_000u64..100_000) {
        let stats = TraceStats::compute(&trace);
        let p = run(
            &trace,
            &stats,
            &SystemConfig::paper_default(Organization::ProxyOnly, proxy_capacity),
            &LatencyParams::paper(),
        );
        prop_assert_eq!(p.metrics.served(&[Served::LocalBrowser, Served::Peer]).count, 0);
        let b = run(
            &trace,
            &stats,
            &SystemConfig::paper_default(Organization::LocalBrowserOnly, proxy_capacity),
            &LatencyParams::paper(),
        );
        prop_assert_eq!(b.metrics.served(PROXY_TIERS).count, 0);
        prop_assert_eq!(b.metrics.served(&[Served::Peer]).count, 0);
        prop_assert_eq!(b.metrics.class_ratio(PROXY_TIERS), 0.0);
    }
}

/// A store/evict notice from one of 8 clients about one of 128 documents.
#[derive(Debug, Clone, Copy)]
enum Op {
    Store(u8, u16),
    Evict(u8, u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u8..8), (0u16..128)).prop_map(|(c, d)| Op::Store(c, d)),
            ((0u8..8), (0u16..128)).prop_map(|(c, d)| Op::Evict(c, d)),
        ],
        0..400,
    )
}

/// One of the index models, at a threshold from eager to lazy (the exact
/// directory's batch waits for a request instead).
fn batched_model() -> impl Strategy<Value = IndexModel> {
    ((0u8..4), (0.0f64..0.6)).prop_map(|(kind, threshold)| match kind {
        0 => IndexModel::Delayed { threshold },
        1 => IndexModel::Exact,
        2 => IndexModel::Bloom {
            bits_per_item: 10,
            threshold,
        },
        _ => IndexModel::CountingBloom {
            slots: 1024,
            threshold,
        },
    })
}

proptest! {
    /// Once every batch is sent, each model names every browser holding a
    /// document (no false negatives); a directory names no other.
    #[test]
    fn batched_index_converges_on_flush(model in batched_model(), ops in ops()) {
        let mut idx = BatchedIndex::new(model, 8);
        let mut shadow: HashSet<(u8, u16)> = HashSet::new();
        for op in ops {
            match op {
                Op::Store(c, d) => {
                    idx.on_store(ClientId(c as u32), DocId(d as u32));
                    shadow.insert((c, d));
                }
                Op::Evict(c, d) => {
                    idx.on_evict(ClientId(c as u32), DocId(d as u32));
                    shadow.remove(&(c, d));
                }
            }
        }
        idx.flush_all();
        let exact = matches!(model, IndexModel::Exact | IndexModel::Delayed { .. });
        for d in 0u16..128 {
            let holders = idx.lookup_all(DocId(d as u32), ClientId(255));
            for c in 0u8..8 {
                if shadow.contains(&(c, d)) {
                    prop_assert!(holders.contains(&ClientId(c as u32)),
                        "false negative for client {c} doc {d}");
                } else if exact {
                    prop_assert!(!holders.contains(&ClientId(c as u32)),
                        "directory names client {c} for doc {d} it does not hold");
                }
            }
        }
    }
}
