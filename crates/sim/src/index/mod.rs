//! The browser-index models the simulator evaluates (paper §5).
//!
//! The live proxy runs one index, the exact directory of
//! [`baps_core::ExactIndex`], kept current by eviction notices that ride a
//! browser's next request and by dropping a holder whose probe failed. §5
//! asks what such an index costs in space and update traffic and how much a
//! cheaper one loses. The simulator answers with one type,
//! [`BatchedIndex`], chosen by
//! [`SystemConfig::index_model`](crate::SystemConfig::index_model): that
//! exact directory, a delayed directory, Bloom summaries or counting-Bloom
//! filters, each built from the batches of evictions browsers send.

pub mod batched;
pub mod bloom;

pub use batched::BatchedIndex;
pub use bloom::{BloomFilter, CountingBloom};
