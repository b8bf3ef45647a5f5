//! Quickstart: generate a small synthetic Web workload, replay it through
//! the conventional proxy hierarchy and through the browsers-aware proxy
//! server, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use baps::core::{Organization, Served, SystemConfig};
use baps::sim::{run, Table};
use baps::trace::{SynthConfig, TraceStats};
use baps_core::LatencyParams;

fn main() {
    // 1. A synthetic workload: 16 clients, 20k requests, Zipf popularity,
    //    heavy-tailed sizes, per-client temporal locality. Deterministic.
    let trace = SynthConfig::small().generate(42);
    let stats = TraceStats::compute(&trace);
    println!(
        "workload: {} requests, {} clients, {} unique docs, {:.1} MB total",
        stats.requests,
        stats.clients,
        stats.unique_docs,
        stats.total_bytes as f64 / 1e6
    );
    println!(
        "infinite-cache bounds: {:.2}% hit ratio, {:.2}% byte hit ratio\n",
        stats.max_hit_ratio, stats.max_byte_hit_ratio
    );

    // 2. Proxy cache at 10% of the infinite cache size; browser caches at
    //    the paper's minimum (proxy / n_clients).
    let proxy_capacity = stats.infinite_cache_bytes / 10;
    let latency = LatencyParams::paper();

    let mut table = Table::new(vec!["organization", "HR %", "BHR %", "remote hits"]);
    for org in Organization::all() {
        let cfg = SystemConfig::paper_default(org, proxy_capacity);
        let r = run(&trace, &stats, &cfg, &latency);
        table.row(vec![
            org.name().to_owned(),
            format!("{:.2}", r.hit_ratio()),
            format!("{:.2}", r.byte_hit_ratio()),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nThe browsers-aware proxy converts proxy misses into remote-browser hits\n\
         by consulting its index of every client's browser cache (paper §2)."
    );
}
