//! # baps-core — Browsers-Aware Proxy Server core types
//!
//! The shared vocabulary of the BAPS reproduction:
//!
//! * [`ClientId`] / [`DocId`] / [`Interner`] — the dense client and document
//!   ids every crate speaks, from trace records to the live proxy's index;
//! * [`Organization`] — the five caching organizations of the paper's §3.2;
//! * [`SystemConfig`] / [`BrowserSizing`] / [`RemoteHitCaching`] /
//!   [`IndexModel`] — system configuration, including the paper's
//!   browser-cache sizing rules (*minimum* = proxy/n, *average* = k·proxy/n);
//! * [`HitClass`] / [`Outcome`] — request classification (local browser /
//!   proxy / remote browser / miss);
//! * [`LatencyParams`] — the analytic latency model of §4.2/§5.
//!
//! The trace-driven simulator (`baps-sim`) is built on all of these; the
//! live proxy (`baps-proxy`) shares the ids with it, so both sides name a
//! client and a document the same way.

#![warn(missing_docs)]

pub mod config;
pub mod hit;
pub mod ids;
pub mod latency;
pub mod org;

pub use config::{BrowserSizing, IndexModel, RemoteHitCaching, SystemConfig};
pub use hit::{HitClass, Outcome};
pub use ids::{ClientId, DocId, Interner};
pub use latency::LatencyParams;
pub use org::Organization;
