//! # baps-core — Browsers-Aware Proxy Server core types
//!
//! The shared vocabulary of the BAPS reproduction:
//!
//! * [`ClientId`] / [`DocId`] / [`Interner`] — the dense client and document
//!   ids every crate speaks, from trace records to the live proxy's index;
//! * [`Organization`] — the five caching organizations of the paper's §3.2;
//! * [`SystemConfig`] / [`BrowserSizing`] / [`RemoteHitCaching`] /
//!   [`IndexModel`] / [`Policy`] — system configuration, including the
//!   paper's browser-cache sizing rules (*minimum* = proxy/n, *average* =
//!   k·proxy/n);
//! * [`Served`] / [`Tier`] — where a request was served (local browser /
//!   proxy memory / proxy disk / peer / origin), one name for the
//!   simulator, the live proxy's counters and the wire, and the memory or
//!   disk tier of a cache hit;
//! * [`LatencyParams`] — the analytic latency model of §4.2/§5;
//! * [`ByteLru`] — the byte-budgeted O(1) LRU of the paper's caches, over
//!   a slab-backed intrusive list ([`SlabList`]);
//! * [`ExactIndex`] / [`IndexStats`] — the exact browser index.
//!
//! The trace-driven simulator (`baps-sim`) is built on all of these; the
//! live proxy (`baps-proxy`) runs the same LRU and index and shares the
//! ids with it, so both sides name a client and a document the same way.

#![warn(missing_docs)]

pub mod config;
pub mod hit;
pub mod ids;
pub mod index;
pub mod latency;
pub mod lru;
pub mod org;
pub mod slablist;

pub use config::{BrowserSizing, IndexModel, Policy, RemoteHitCaching, SystemConfig};
pub use hit::{Served, Tier, PROXY_TIERS};
pub use ids::{ClientId, DocId, Interner};
pub use index::{ExactIndex, IndexStats, BYTES_PER_ENTRY};
pub use latency::LatencyParams;
pub use lru::{ByteLru, InsertOutcome};
pub use org::Organization;
pub use slablist::{Handle, SlabList};
