//! Trace study: the full five-organization comparison on a calibrated
//! paper profile, with hit breakdowns and overhead accounting — a compact
//! version of the paper's whole evaluation on one trace.
//!
//! ```sh
//! cargo run --release --example trace_study            # NLANR-uc, 10% scale
//! cargo run --release --example trace_study -- bu95    # choose a profile
//! ```

use baps::core::{LatencyParams, Served, PROXY_TIERS};
use baps::sim::{pct, run_sweep, Organization, SystemConfig, Table};
use baps::trace::{Profile, TraceStats};

fn main() {
    let profile = match std::env::args().nth(1).as_deref() {
        None | Some("uc") => Profile::NlanrUc,
        Some("bo1") => Profile::NlanrBo1,
        Some("bu95") => Profile::Bu95,
        Some("bu98") => Profile::Bu98,
        Some("canet") => Profile::CaNetII,
        Some(other) => {
            eprintln!("unknown profile {other}; use uc|bo1|bu95|bu98|canet");
            std::process::exit(2);
        }
    };
    // 10% scale keeps the example fast; the bench binaries run full size.
    let trace = profile.generate_scaled(0.10);
    let stats = TraceStats::compute(&trace);
    println!(
        "{}: {} requests, {} clients, max HR {:.1}%, max BHR {:.1}%\n",
        trace.name, stats.requests, stats.clients, stats.max_hit_ratio, stats.max_byte_hit_ratio
    );

    let proxy_capacity = (stats.infinite_cache_bytes / 10).max(1);
    let configs: Vec<SystemConfig> = Organization::all()
        .iter()
        .map(|&org| SystemConfig::paper_default(org, proxy_capacity))
        .collect();
    let results = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());

    let mut table = Table::new(vec![
        "organization",
        "HR %",
        "BHR %",
        "local %",
        "proxy %",
        "remote %",
        "svc time (s)",
    ]);
    for (cfg, r) in configs.iter().zip(&results) {
        table.row(vec![
            cfg.organization.name().to_owned(),
            pct(r.hit_ratio()),
            pct(r.byte_hit_ratio()),
            pct(r.metrics.class_ratio(&[Served::LocalBrowser])),
            pct(r.metrics.class_ratio(PROXY_TIERS)),
            pct(r.metrics.class_ratio(&[Served::Peer])),
            format!("{:.0}", r.latency.total_ms() / 1000.0),
        ]);
    }
    print!("{}", table.render());

    let baps = results.last().expect("five organizations");
    println!(
        "\nbrowsers-aware overhead: remote communication is {:.2}% of total service \
         time,\ncontention {:.3}% of communication time, index footprint {} KB",
        baps.latency.remote_overhead_pct(),
        baps.latency.contention_pct_of_comm(),
        baps.index_memory_bytes / 1024,
    );
}
