//! # baps-index — the browser index of BAPS
//!
//! The browsers-aware proxy's distinguishing data structure is the *browser
//! index*: a directory, kept at the proxy, of which documents currently live
//! in which client's browser cache (paper §2). [`ExactIndex`] is that
//! directory, invalidation-driven and exact: the live proxy stripes it
//! across locks, and the simulator runs it as its base model. The cheaper
//! §5 models (delayed updates, Bloom summaries) are simulator-only and live
//! in `baps_sim::index`.

#![warn(missing_docs)]

pub mod exact;
pub mod stats;

pub use exact::{ExactIndex, BYTES_PER_ENTRY};
pub use stats::IndexStats;
