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
//! * [`cache`] — byte-budgeted LRU / LFU / GDSF / SIZE / FIFO caches and
//!   the memory+disk tier model;
//! * [`index`] — exact, delayed and Bloom-summary browser indexes;
//! * [`core`] — the five caching organizations, configuration and the
//!   analytic latency model;
//! * [`sim`] — the trace-driven simulator and experiment harness;
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

pub use baps_cache as cache;
pub use baps_core as core;
pub use baps_crypto as crypto;
pub use baps_index as index;
pub use baps_proxy as proxy;
pub use baps_sim as sim;
pub use baps_trace as trace;
