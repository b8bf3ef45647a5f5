//! # baps-sim — trace-driven simulator for the Browsers-Aware Proxy Server
//!
//! Replays Web traces through the five caching organizations of the paper
//! (§3.2) and produces the metrics behind every table and figure:
//!
//! * [`Organization`] — the five caching organizations of the paper's §3.2;
//! * [`SystemConfig`] / [`BrowserSizing`] / [`RemoteHitCaching`] /
//!   [`IndexModel`] / [`Policy`] — a simulated system's configuration,
//!   including the paper's browser-cache sizing rules (*minimum* =
//!   proxy/n, *average* = k·proxy/n);
//! * [`SimSystem`] — browser caches + proxy cache + browser index with the
//!   per-organization routing logic;
//! * [`index`] — §5's browser indexes, one [`index::BatchedIndex`]: the
//!   exact directory as the live proxy keeps it (evictions ride a
//!   browser's next request, a failed probe drops its holder), a delayed
//!   directory, Bloom or counting-Bloom summaries;
//! * [`policy`] — the LFU / GDSF / SIZE / FIFO replacement policies of
//!   the ablation rows beside `baps_core`'s LRU ([`AnyCache`] holds
//!   either);
//! * [`tiered`] — [`TieredLru`], the §4.2 memory+disk model behind the
//!   memory byte hit ratio;
//! * [`run`] / [`run_simple`] — single replays producing a [`RunResult`];
//! * [`run_sweep`] — parallel parameter sweeps (`std::thread::scope`
//!   workers; results bit-identical to serial execution);
//! * [`run_scaling`] — the Fig. 8 client-population scaling experiment;
//! * [`LatencyModel`] / [`LatencyTotals`] — the §4.2/§5 analytic service
//!   time model with shared-LAN contention;
//! * [`Table`] — plain-text rendering for the `experiments` binary.

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod hierarchy;
pub mod index;
pub mod latency;
pub mod metrics;
pub mod org;
pub mod policy;
pub mod report;
pub mod scaling;
pub mod sweep;
pub mod system;
pub mod tiered;

pub use config::{BrowserSizing, IndexModel, Policy, RemoteHitCaching, SystemConfig};
pub use engine::{run, run_simple, run_with_options, ClassHistograms, RunOptions, RunResult};
pub use hierarchy::{
    run_hierarchy, HierHit, HierMetrics, HierSystem, HierarchyConfig, SharingMode,
};
pub use latency::{LanBus, LatencyModel, LatencyTotals};
pub use metrics::{ClassCounter, Metrics};
pub use org::Organization;
pub use policy::{AnyCache, DocCache, RankedCache};
pub use report::{human_bytes, pct, Table};
pub use scaling::{run_scaling, select_clients, ScalingPoint, CLIENT_SCALE_POINTS};
pub use sweep::{
    ordered_pool, run_matrix, run_sweep, scale_configs, MatrixGroup, PROXY_SCALE_POINTS,
};
pub use system::SimSystem;
pub use tiered::TieredLru;
