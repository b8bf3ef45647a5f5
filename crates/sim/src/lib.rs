//! # baps-sim — trace-driven simulator for the Browsers-Aware Proxy Server
//!
//! Replays Web traces through the five caching organizations of the paper
//! (§3.2) and produces the metrics behind every table and figure:
//!
//! * [`SimSystem`] — browser caches + proxy cache + browser index with the
//!   per-organization routing logic;
//! * [`index`] — §5's [`index::BatchedIndex`] (a delayed directory, Bloom
//!   or counting-Bloom summaries), which only the simulator runs, and
//!   [`index::AnyIndex`], which picks it or the exact directory from the
//!   configuration;
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

pub mod engine;
pub mod hierarchy;
pub mod index;
pub mod latency;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod scaling;
pub mod sweep;
pub mod system;
pub mod tiered;

pub use engine::{run, run_simple, run_with_options, ClassHistograms, RunOptions, RunResult};
pub use hierarchy::{
    run_hierarchy, HierHit, HierMetrics, HierSystem, HierarchyConfig, SharingMode,
};
pub use latency::{LanBus, LatencyModel, LatencyTotals};
pub use metrics::{ClassCounter, Metrics};
pub use policy::{AnyCache, DocCache, RankedCache};
pub use report::{human_bytes, pct, Table};
pub use scaling::{run_scaling, select_clients, ScalingPoint, CLIENT_SCALE_POINTS};
pub use sweep::{
    ordered_pool, run_matrix, run_sweep, scale_configs, MatrixGroup, PROXY_SCALE_POINTS,
};
pub use system::SimSystem;
pub use tiered::TieredLru;
