//! Browser-index strategy comparison: exact invalidation-driven directory
//! vs batched (delayed) updates vs Bloom summaries — the hit-ratio /
//! freshness / memory trade-off discussed in the paper's §5.
//!
//! ```sh
//! cargo run --release --example index_strategies
//! ```

use baps::core::{LatencyParams, Served};
use baps::sim::{human_bytes, pct, run_sweep, IndexModel, Organization, SystemConfig, Table};
use baps::trace::{Profile, TraceStats};

fn main() {
    let trace = Profile::NlanrBo1.generate_scaled(0.10);
    let stats = TraceStats::compute(&trace);
    println!(
        "{}: {} requests, {} clients\n",
        trace.name, stats.requests, stats.clients
    );

    let models: Vec<(String, IndexModel)> = vec![
        ("exact (paper's design)".into(), IndexModel::Exact),
        (
            "delayed, 1% threshold".into(),
            IndexModel::Delayed { threshold: 0.01 },
        ),
        (
            "delayed, 10% threshold".into(),
            IndexModel::Delayed { threshold: 0.10 },
        ),
        (
            "bloom summaries, 16 bits/doc".into(),
            IndexModel::Bloom {
                bits_per_item: 16,
                threshold: 0.05,
            },
        ),
        (
            "bloom summaries, 8 bits/doc".into(),
            IndexModel::Bloom {
                bits_per_item: 8,
                threshold: 0.05,
            },
        ),
        (
            "counting bloom, delta updates".into(),
            IndexModel::CountingBloom {
                slots: 16_384,
                threshold: 0.05,
            },
        ),
    ];

    let configs: Vec<SystemConfig> = models
        .iter()
        .map(|(_, index_model)| {
            let mut cfg = SystemConfig::paper_default(
                Organization::BrowsersAware,
                (stats.infinite_cache_bytes / 10).max(1),
            );
            cfg.index_model = *index_model;
            cfg
        })
        .collect();
    let results = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());

    let mut table = Table::new(vec![
        "index strategy",
        "HR %",
        "remote hits",
        "wasted probes",
        "update msgs",
        "update traffic",
        "index memory",
    ]);
    for ((label, _), r) in models.iter().zip(&results) {
        table.row(vec![
            label.clone(),
            pct(r.hit_ratio()),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
            format!("{}", r.metrics.wasted_probes),
            format!("{}", r.index_stats.messages),
            human_bytes(r.index_stats.update_bytes),
            human_bytes(r.index_memory_bytes),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nExact directories maximise remote hits and cost one message per eviction\n\
         (the proxy learns stores from the documents it sends); delayed updates\n\
         batch stores and evictions alike; Bloom summaries shrink the index by an\n\
         order of magnitude at the cost of wasted probes (false positives)."
    );
}
