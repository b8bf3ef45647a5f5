//! The repo benchmark: seeded workloads against the real loopback
//! deployment (`bench_e2e`), per-layer timings of public functions
//! (`bench_layers`) and the comparison rule (`bench_compare`). See
//! `benchmark/README.md` for what every number means.

pub mod budget;
pub mod compare;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod proc;
pub mod span;
pub mod stats;
pub mod workload;
