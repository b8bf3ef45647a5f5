//! # baps-proxy — the live browsers-aware proxy
//!
//! A working implementation of the paper's system over loopback TCP, every
//! server on one event-loop I/O core (`reactor.rs`): an [`OriginServer`]
//! serving a document corpus, a [`ProxyServer`] that maintains the browser
//! index and mediates anonymous peer fetches, and [`ClientAgent`]s with LRU browser caches that serve `PEERGET`
//! requests, send eviction invalidations, and verify the §6.1 digital
//! watermark on every document they receive.
//!
//! The [`TestBed`] harness wires a full deployment onto ephemeral ports for
//! the integration tests and the `live_proxy` example.
//!
//! The proxy cache is optionally two-tiered: a crash-safe persistent
//! [`DiskTier`] (DESIGN.md §10) sits beneath the memory LRU, so a
//! restarted proxy re-opens its store and comes back warm, with TTL
//! freshness + `If-Digest` revalidation and watermark verification on
//! every disk read (torn files self-heal to the origin path).
//!
//! Observability (DESIGN.md §9) is built in: per-request `Trace-Id`s
//! propagate across every hop, spans land in a deployment-wide
//! [`baps_obs::FlightRecorder`], latencies in per-tier and per-verb
//! histograms, and the `METRICS BAPS/1.0` verb exposes it all as
//! Prometheus text.

#![warn(missing_docs)]

pub mod client;
mod counters;
pub mod disk;
pub mod error;
pub mod fault;
pub mod health;
mod metrics;
pub mod origin;
pub mod protocol;
pub mod proxy;
mod reactor;
pub mod runtime;
pub mod shard;
pub mod store;
mod sys;
mod upstream;

pub use client::{ClientAgent, ClientConfig, FetchResult, Source, TamperMode};
pub use disk::{DiskConfig, DiskStats, DiskTier};
pub use error::ProxyError;
pub use fault::{FaultConfig, FaultCounts, FaultKind, FaultPlan};
pub use health::{HealthReport, RuleVerdict, SloRule, SloSignal, SloTable, Verdict, WindowRates};
pub use origin::OriginServer;
pub use protocol::{encode_message, read_message, response_code, write_message, Body, Message};
pub use proxy::{ProxyConfig, ProxyServer, ProxyStats};
pub use reactor::{ReactorSnapshot, ReactorTelemetry};
pub use runtime::{TestBed, TestBedConfig};
pub use shard::{auto_shards, ShardedCache, StripedIndex};
pub use store::{BodyCache, CachedDoc, DocumentStore};
pub use upstream::dial_with_deadline;
