//! # baps — Browsers-Aware Proxy Server
//!
//! A production-quality Rust reproduction of *"On Reliable and Scalable
//! Peer-to-Peer Web Document Sharing"* (Xiao, Zhang, Xu — IPDPS 2002): a
//! proxy server that indexes its clients' browser caches and serves proxy
//! misses out of *peer* browsers, with data-integrity (digital watermark)
//! and communication-anonymity protocols on top.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`trace`] — workload model, synthetic trace generator with profiles
//!   calibrated to the paper's Table 1, and real log parsers;
//! * [`cache`] — `core`'s byte-budgeted LRU, `sim`'s LFU / GDSF / SIZE /
//!   FIFO policies and memory+disk tier model;
//! * [`index`] — `core`'s exact browser index, the one the live proxy runs;
//! * [`core`] — ids, the LRU, the exact index, the five organizations,
//!   configuration and the analytic latency model;
//! * [`sim`] — the simulator, its §5 index models and the experiment harness;
//! * [`crypto`] — MD5/RSA/XTEA and the §6 reliability protocols;
//! * [`proxy`] — a live, event-driven browsers-aware proxy over TCP.
//!
//! ## Quickstart
//!
//! ```
//! use baps::core::{Organization, SystemConfig};
//! use baps::sim::run_simple;
//! use baps::trace::SynthConfig;
//!
//! let trace = SynthConfig::small().scaled(0.1).generate(42);
//! let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
//! let result = run_simple(&trace, &cfg);
//! println!("hit ratio: {:.2}%", result.hit_ratio());
//! assert!(result.hit_ratio() > 0.0);
//! ```

#![warn(missing_docs)]

pub use baps_core as core;
pub use baps_crypto as crypto;
pub use baps_proxy as proxy;
pub use baps_sim as sim;
pub use baps_trace as trace;

/// Byte-budgeted document caches: the O(1) LRU that the simulator, the
/// proxy and the browsers all run (`baps_core`), and the simulator's other
/// replacement policies and §4.2 memory+disk model (`baps_sim`).
pub mod cache {
    pub use baps_core::{ByteLru, Handle, InsertOutcome, Policy, SlabList, Tier};
    pub use baps_sim::{AnyCache, DocCache, RankedCache, TieredLru};
}

/// The exact browser index (`baps_core`), the one the live proxy runs; the
/// simulator's cheaper §5 models are [`sim::index`].
pub mod index {
    pub use baps_core::{ExactIndex, IndexStats, BYTES_PER_ENTRY};
}
