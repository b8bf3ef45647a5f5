//! # baps-obs — observability for the live BAPS runtime
//!
//! One small crate shared by the proxy, the client agents, the origin
//! server, the offline simulator and the benchmark binaries, so every
//! component reports latency the same way:
//!
//! * [`LatencyHistogram`] — the fixed-bucket log-scale histogram (moved
//!   here from `baps-sim`, which now re-exports it), for single-threaded
//!   recording and for snapshots/merges;
//! * [`AtomicHistogram`] — the same bucket layout with lock-free
//!   `AtomicU64` buckets, for always-on recording inside servers;
//! * [`TraceId`] — per-request ids minted by the client and propagated in
//!   the `Trace-Id` header across every hop;
//! * [`FlightRecorder`] — a bounded ring of structured span events,
//!   dumped on demand and automatically when a chaos/live invariant trips;
//! * [`span`] — causal tracing: [`SpanId`]s propagated in the `Span-Id`
//!   header, the deterministic head-sampling rule ([`span::sampled`]),
//!   the JSONL export behind the `TRACE BAPS/1.0` verb, and span-tree
//!   assembly ([`span::assemble`]);
//! * [`prom`] — Prometheus text exposition rendering (and a parser for
//!   the CI smoke test), backing the `METRICS BAPS/1.0` verb;
//! * [`window`] — a lock-free ring of per-second cumulative captures
//!   yielding rolling 1 s/10 s/60 s rates and windowed quantiles, the
//!   substrate the proxy's `HEALTH BAPS/1.0` SLO verdicts are computed
//!   over.
//!
//! Recording is **always on**; [`set_recording`] exists solely so
//! `metrics_smoke` can measure the cost of the instrumentation by
//! differencing recording-off slices against the default.

#![warn(missing_docs)]

pub mod hist;
pub mod prom;
pub mod recorder;
pub mod span;
pub mod trace;
pub mod window;

pub use hist::{AtomicHistogram, LabeledHistograms, LatencyHistogram, Tier, TIER_NAMES};
pub use recorder::{Event, EventKind, FlightRecorder};
pub use span::{SpanId, SpanRecord, SpanTree};
pub use trace::TraceId;
pub use window::{WindowRing, WindowSchema, WindowSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global recording switch, defaulting to on. Only `metrics_smoke` turns
/// it off (to measure the cost of recording itself); production and test
/// paths never touch it.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Enables or disables event/histogram recording process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Release);
}

/// Whether recording is currently enabled.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Acquire)
}
