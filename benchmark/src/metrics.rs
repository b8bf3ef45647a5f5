//! The one table that defines every metric: name, unit, direction, and —
//! for end-to-end metrics — the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json`, the printed report,
//! `result.json` and `bench_compare` all derive from it (a unit test holds
//! `BENCHMARK.json` to it).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may get worse. Each is
    /// about three times the inter-quartile spread of ten runs of one
    /// commit on the reference sandbox, whose speed drifts by ±7 % over
    /// minutes — no estimator inside a 20 s run removes that, so the timing
    /// bounds sit at the 25 % the driver contract allows at most.
    pub bound: f64,
    /// Deterministic for a given seed: two runs of one commit must agree
    /// exactly, and `bench_compare` reports any difference.
    pub exact: bool,
    /// Listed in `BENCHMARK.json` and on the driver's result line.
    /// `fail_ratio` is not: it is 0 on every healthy run (the driver
    /// contract wants metrics that are never 0) and travels as
    /// `failed / attempted` instead.
    pub gated: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
        gated: true,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
        gated: true,
    },
    EndToEnd {
        name: "p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
        gated: true,
    },
    EndToEnd {
        name: "cpu_us_per_req",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
        gated: true,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.06,
        exact: true,
        gated: true,
    },
    EndToEnd {
        name: "byte_hit_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.12,
        exact: true,
        gated: true,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        exact: true,
        gated: false,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        exact: false,
        gated: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
        gated: true,
    },
];

/// Serving tiers, in serve order; index = `Tier as usize` in span records.
pub const TIERS: [&str; 5] = ["local", "proxy", "disk", "peer", "origin"];
/// Tiers that cross the wire and therefore get a time budget.
pub const BUDGET_TIERS: [&str; 4] = ["proxy", "disk", "peer", "origin"];

#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this is predicted to move.
    pub moves: &'static str,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in report order. All are emitted for every
/// workload; one that does not apply there (a tier the workload never
/// reaches) reads 0.
pub fn per_layer() -> Vec<Layer> {
    let mut v = vec![
        // Exact counts from the count pass.
        layer(
            "client.local_share",
            "ratio",
            Higher,
            "p50_ms on peer-share",
        ),
        layer(
            "proxy.memory_share",
            "ratio",
            Higher,
            "req_per_s on hot-small",
        ),
        layer(
            "disk.hit_share",
            "ratio",
            Higher,
            "hit_ratio, p50_ms on disk-storm",
        ),
        layer(
            "proxy.peer_share",
            "ratio",
            Higher,
            "hit_ratio on peer-share",
        ),
        layer(
            "origin.fetch_share",
            "ratio",
            Lower,
            "hit_ratio, p99_ms on peer-share, heavy-tail",
        ),
        layer(
            "index.false_hit_ratio",
            "ratio",
            Lower,
            "p99_ms, hit_ratio on peer-share",
        ),
        layer(
            "index.updates_per_req",
            "count",
            Lower,
            "cpu_us_per_req on hot-small, peer-share",
        ),
        layer(
            "proxy.peer_fallbacks",
            "count",
            Lower,
            "p99_ms on peer-share",
        ),
        layer(
            "proxy.coalesced_fetches",
            "count",
            Higher,
            "hit_ratio under concurrent misses",
        ),
        layer(
            "disk.revalidations",
            "count",
            Lower,
            "p99_ms, setup_s on disk-storm",
        ),
        layer(
            "disk.write_bytes_per_origin_byte",
            "ratio",
            Lower,
            "p99_ms, setup_s on disk-storm",
        ),
        layer("disk.heals", "count", Lower, "hit_ratio on disk-storm"),
        layer("disk.evictions", "count", Lower, "hit_ratio on disk-storm"),
        layer(
            "origin.bytes_per_req",
            "B",
            Lower,
            "byte_hit_ratio on peer-share, heavy-tail",
        ),
        layer(
            "client.peer_serve_max_share",
            "ratio",
            Lower,
            "p99_ms on peer-share",
        ),
    ];
    // Driver-side spans from the traced pass.
    for tier in TIERS {
        let moves = match tier {
            "local" => "p50_ms on peer-share",
            "proxy" => "p50_ms, req_per_s on hot-small",
            "disk" => "p50_ms, req_per_s on disk-storm",
            "peer" => "p50_ms, req_per_s on peer-share",
            _ => "p99_ms on peer-share, heavy-tail",
        };
        v.push(layer(
            format!("fetch.{tier}.alone_mean_us"),
            "us",
            Lower,
            moves,
        ));
        v.push(layer(format!("fetch.{tier}.p50_us"), "us", Lower, moves));
        v.push(layer(format!("fetch.{tier}.p99_us"), "us", Lower, moves));
        let better = if matches!(tier, "local" | "proxy") {
            Higher
        } else {
            Lower
        };
        v.push(layer(
            format!("fetch.{tier}.time_share"),
            "ratio",
            better,
            moves,
        ));
    }
    v.extend([
        layer(
            "invalidate.p50_us",
            "us",
            Lower,
            "p99_ms, setup_s on disk-storm",
        ),
        layer(
            "body.mb_per_s",
            "MB/s",
            Higher,
            "req_per_s, p99_ms on heavy-tail",
        ),
        layer(
            "trace.overhead_pct",
            "%",
            Lower,
            "none: cost of the driver-side spans",
        ),
        layer(
            "driver.open.p99_ms",
            "ms",
            Lower,
            "none: open-loop diagnostic",
        ),
        layer(
            "driver.open.late_p99_ms",
            "ms",
            Lower,
            "none: generator lateness",
        ),
        // Timed calls into public functions (bench_layers).
        layer(
            "protocol.encode_ns",
            "ns",
            Lower,
            "req_per_s, cpu_us_per_req, p50_ms on hot-small",
        ),
        layer(
            "protocol.encode_req_ns",
            "ns",
            Lower,
            "req_per_s, cpu_us_per_req, p50_ms on hot-small",
        ),
        layer(
            "protocol.parse_ns",
            "ns",
            Lower,
            "req_per_s, cpu_us_per_req, p50_ms on hot-small",
        ),
        layer(
            "protocol.parse_req_ns",
            "ns",
            Lower,
            "req_per_s, cpu_us_per_req, p50_ms on hot-small",
        ),
        layer(
            "crypto.md5_ns",
            "ns",
            Lower,
            "req_per_s, p99_ms on heavy-tail",
        ),
        layer(
            "crypto.md5_mb_per_s",
            "MB/s",
            Higher,
            "req_per_s, p99_ms on heavy-tail, disk-storm",
        ),
        layer(
            "crypto.sign_ns",
            "ns",
            Lower,
            "p99_ms on peer-share (origin fetches)",
        ),
        layer(
            "crypto.verify_ns",
            "ns",
            Lower,
            "req_per_s, cpu_us_per_req, p50_ms on hot-small",
        ),
        layer(
            "shard.cache_get_ns",
            "ns",
            Lower,
            "req_per_s, p50_ms on hot-small",
        ),
        layer(
            "shard.cache_insert_ns",
            "ns",
            Lower,
            "req_per_s, p99_ms on disk-storm",
        ),
        layer(
            "shard.index_lookup_ns",
            "ns",
            Lower,
            "p50_ms, req_per_s on peer-share",
        ),
        layer(
            "shard.index_update_ns",
            "ns",
            Lower,
            "cpu_us_per_req on hot-small, peer-share",
        ),
        layer("store.browser_get_ns", "ns", Lower, "p50_ms on peer-share"),
        layer(
            "store.browser_insert_ns",
            "ns",
            Lower,
            "cpu_us_per_req on hot-small",
        ),
        layer(
            "disk.load_ns",
            "ns",
            Lower,
            "req_per_s, p50_ms on disk-storm",
        ),
        layer(
            "disk.store_ns",
            "ns",
            Lower,
            "p99_ms, setup_s on disk-storm",
        ),
        layer(
            "obs.hist_record_ns",
            "ns",
            Lower,
            "cpu_us_per_req on hot-small",
        ),
        layer(
            "origin.roundtrip_us",
            "us",
            Lower,
            "p99_ms on peer-share, heavy-tail",
        ),
        layer(
            "wire.loopback_rtt_us",
            "us",
            Lower,
            "p50_ms everywhere: the I/O floor",
        ),
    ]);
    // Budget: how much of a tier's median fetch the layer timings explain,
    // beside the paper's section-5 model value for the same transfer.
    for tier in BUDGET_TIERS {
        v.push(layer(
            format!("budget.{tier}.explained_pct"),
            "%",
            Higher,
            "req_per_s, p99_ms on hot-small, peer-share when it falls (I/O core share grows)",
        ));
        v.push(layer(
            format!("model.{tier}_us"),
            "us",
            Lower,
            "none: the paper's section-5 model",
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is data for the driver; this table is what the
    /// code runs on. They must not drift.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().arr();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(w, "name"), spec.name);
            assert_eq!(str_of(w, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        let listed = doc.get("end_to_end").unwrap().arr();
        assert_eq!(listed.len(), gated.len());
        for (j, m) in listed.iter().zip(gated) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.name());
            assert_eq!(j.need_num("bound").unwrap(), m.bound);
            assert!(m.bound <= 0.25);
        }

        let layers = per_layer();
        let listed = doc.get("per_layer").unwrap().arr();
        assert_eq!(listed.len(), layers.len());
        assert!(layers.len() <= 128);
        for (j, m) in listed.iter().zip(&layers) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.name());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
