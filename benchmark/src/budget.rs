//! The per-tier time budget: which timed layer calls, and how many wire
//! round trips, lie on the path of one fetch served by each tier. Derived
//! by reading `ClientAgent::fetch` and the proxy's `dispatch` /
//! `handle_get` / `handle_miss`; `benchmark/README.md` prints the same
//! table with the reasoning. `explained_pct` = this sum over the tier's
//! measured median fetch; the rest is the I/O core's and the scheduler's.

use std::collections::BTreeMap;

pub struct TierPath {
    pub tier: &'static str,
    /// (per-layer metric, calls per fetch). `*_ns` metrics are nanoseconds,
    /// `*_us` metrics microseconds.
    pub calls: &'static [(&'static str, f64)],
}

pub const PATHS: [TierPath; 4] = [
    // Memory hit: browser miss, GET out, parse, shard read, index store
    // (+ the evict notice the full browser cache piggybacks), 200 back,
    // verify, browser insert; four histogram records (client tier + verb,
    // proxy tier + verb).
    TierPath {
        tier: "proxy",
        calls: &[
            ("wire.loopback_rtt_us", 1.0),
            ("store.browser_get_ns", 1.0),
            ("protocol.encode_req_ns", 1.0),
            ("protocol.parse_req_ns", 1.0),
            ("shard.cache_get_ns", 1.0),
            ("shard.index_update_ns", 1.0),
            ("obs.hist_record_ns", 4.0),
            ("protocol.encode_ns", 1.0),
            ("protocol.parse_ns", 1.0),
            ("crypto.verify_ns", 1.0),
            ("store.browser_insert_ns", 1.0),
        ],
    },
    // Disk hit: the memory-hit path with a shard miss, plus the verified
    // disk read and the promotion into the memory tier.
    TierPath {
        tier: "disk",
        calls: &[
            ("wire.loopback_rtt_us", 1.0),
            ("store.browser_get_ns", 1.0),
            ("protocol.encode_req_ns", 1.0),
            ("protocol.parse_req_ns", 1.0),
            ("shard.cache_get_ns", 1.0),
            ("disk.load_ns", 1.0),
            ("shard.cache_insert_ns", 1.0),
            ("shard.index_update_ns", 1.0),
            ("obs.hist_record_ns", 4.0),
            ("protocol.encode_ns", 1.0),
            ("protocol.parse_ns", 1.0),
            ("crypto.verify_ns", 1.0),
            ("store.browser_insert_ns", 1.0),
        ],
    },
    // Peer hit: client↔proxy, then a fresh connection to the peer (one
    // more round trip for the dial) and the PEERGET exchange; the peer's
    // browser lookup; both frames cross twice.
    TierPath {
        tier: "peer",
        calls: &[
            ("wire.loopback_rtt_us", 3.0),
            ("store.browser_get_ns", 2.0),
            ("protocol.encode_req_ns", 2.0),
            ("protocol.parse_req_ns", 2.0),
            ("shard.cache_get_ns", 1.0),
            ("shard.index_lookup_ns", 1.0),
            ("shard.index_update_ns", 1.0),
            ("obs.hist_record_ns", 6.0),
            ("protocol.encode_ns", 2.0),
            ("protocol.parse_ns", 2.0),
            ("crypto.verify_ns", 1.0),
            ("store.browser_insert_ns", 1.0),
        ],
    },
    // Origin fetch: client↔proxy plus one origin round trip (which already
    // contains the origin's own parse/encode and the proxy's parse of the
    // reply), then sign, insert, and the usual way back.
    TierPath {
        tier: "origin",
        calls: &[
            ("wire.loopback_rtt_us", 1.0),
            ("origin.roundtrip_us", 1.0),
            ("store.browser_get_ns", 1.0),
            ("protocol.encode_req_ns", 1.0),
            ("protocol.parse_req_ns", 1.0),
            ("shard.cache_get_ns", 1.0),
            ("shard.index_lookup_ns", 1.0),
            ("crypto.sign_ns", 1.0),
            ("shard.cache_insert_ns", 1.0),
            ("shard.index_update_ns", 1.0),
            ("obs.hist_record_ns", 4.0),
            ("protocol.encode_ns", 1.0),
            ("protocol.parse_ns", 1.0),
            ("crypto.verify_ns", 1.0),
            ("store.browser_insert_ns", 1.0),
        ],
    },
];

/// Microseconds of one `tier` fetch that the layer timings account for.
/// With a disk tier configured an origin fetch also writes through and a
/// peer or origin fetch first misses on disk.
pub fn explained_us(tier: &str, has_disk: bool, layers: &BTreeMap<String, f64>) -> f64 {
    let Some(path) = PATHS.iter().find(|p| p.tier == tier) else {
        return 0.0;
    };
    let us = |name: &str, calls: f64| {
        let v = layers.get(name).copied().unwrap_or(0.0);
        calls * if name.ends_with("_us") { v } else { v / 1e3 }
    };
    let mut total: f64 = path
        .calls
        .iter()
        .map(|&(name, calls)| us(name, calls))
        .sum();
    if has_disk && tier == "origin" {
        total += us("disk.store_ns", 1.0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_ns_and_us_in_microseconds() {
        let mut layers = BTreeMap::new();
        layers.insert("wire.loopback_rtt_us".to_string(), 10.0);
        layers.insert("obs.hist_record_ns".to_string(), 25.0);
        layers.insert("disk.store_ns".to_string(), 5000.0);
        layers.insert("origin.roundtrip_us".to_string(), 30.0);
        assert!((explained_us("proxy", false, &layers) - 10.1).abs() < 1e-9);
        assert!((explained_us("peer", false, &layers) - 30.15).abs() < 1e-9);
        assert!((explained_us("origin", true, &layers) - 45.1).abs() < 1e-9);
        assert_eq!(explained_us("local", false, &layers), 0.0);
    }

    #[test]
    fn every_call_names_a_per_layer_metric() {
        let names: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for p in &PATHS {
            assert!(crate::metrics::BUDGET_TIERS.contains(&p.tier));
            for (name, _) in p.calls {
                assert!(names.iter().any(|n| n == name), "{name}");
            }
        }
    }
}
