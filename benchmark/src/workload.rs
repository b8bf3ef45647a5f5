//! The four workloads. Each stresses different layers; `why` records what
//! it is for (the same text `BENCHMARK.json` carries).

/// Closed-loop driver threads. Fixed, not derived from the machine: the
/// reference box has two cores, and a number measured with another load
/// shape is another benchmark.
pub const DRIVERS: usize = 2;

/// Document-size distribution (quantile functions live in `gen`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Uniform on `[lo, hi]` bytes.
    Uniform { lo: u32, hi: u32 },
    /// 80 % lognormal(median 16 KiB, σ 1) + 20 % Pareto(128 KiB, 1.1),
    /// clamped to [1 KiB, 1 MiB]. The clamp is where it is so that the top
    /// 1.3 % of requests share one size: with a sparser tail (4 MiB clamp:
    /// six documents above 1 MiB, each 1.3-1.5x the next) p99 sat on a
    /// cliff between two documents and moved 60 % from seed to seed.
    HeavyTail,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Client agents; each driver owns `agents / DRIVERS` of them.
    pub agents: usize,
    pub docs: usize,
    pub sizes: SizeModel,
    /// Agent `c` ranks documents by the global Zipf order rotated by
    /// `c * rotate`.
    pub rotate: usize,
    pub proxy_capacity: u64,
    pub browser_capacity: u64,
    /// Disk-tier capacity; `None` runs the proxy memory-only.
    pub disk_capacity: Option<u64>,
    /// Every `publish_every`-th op of driver 0 republishes a batch of
    /// documents instead of fetching (0 = never).
    pub publish_every: usize,
    /// Ops of the sequential, fully verified count pass.
    pub count_ops: usize,
    /// Slice of the timed pass, ms: long enough that a slice spans several
    /// schedule blocks per driver, so its request mix is the workload's and
    /// not the luck of which multi-MiB documents fell into it.
    pub slice_ms: u64,
    /// Arrival rate of the open-loop diagnostic, requests/s: about half
    /// the closed-loop `req_per_s` recorded for the baseline, capped at
    /// 8000 (above that the sandbox's sleep granularity dominates).
    pub open_rate: u32,
    /// `inputs_hash` of seed 1. A run with `--seed 1` that generates
    /// anything else fails: the workload is no longer the recorded one.
    pub seed1_inputs_hash: u64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "hot-small",
        why: "512 small docs that all fit proxy memory: per-message cost (protocol, I/O core, shard reads, verify, obs) is everything; disk, peers and origin idle",
        agents: 2,
        docs: 512,
        sizes: SizeModel::Uniform { lo: 256, hi: 2048 },
        rotate: 0,
        proxy_capacity: 4 << 20,
        browser_capacity: 4 << 10,
        disk_capacity: None,
        publish_every: 0,
        count_ops: 60_000,
        slice_ms: 500,
        open_rate: 8000,
        seed1_inputs_hash: 0xfed7fb051d850b3e,
    },
    WorkloadSpec {
        name: "peer-share",
        why: "16 browsers with rotated hot sets over a tiny proxy cache: the paper's index lookup, PEERGET relay, peer serve and watermark verify carry hit ratio and time",
        agents: 16,
        docs: 2048,
        sizes: SizeModel::Uniform { lo: 1 << 10, hi: 8 << 10 },
        rotate: 128,
        proxy_capacity: 128 << 10,
        browser_capacity: 768 << 10,
        disk_capacity: None,
        publish_every: 0,
        count_ops: 20_000,
        slice_ms: 500,
        open_rate: 8000,
        seed1_inputs_hash: 0x000d851eab14cbd5,
    },
    WorkloadSpec {
        name: "disk-storm",
        why: "working set 36x proxy memory but inside the disk tier, with publisher invalidations: disk read-verify, cache insert+evict per promotion, If-Digest revalidation",
        agents: 2,
        docs: 4096,
        sizes: SizeModel::Uniform { lo: 2 << 10, hi: 16 << 10 },
        rotate: 0,
        proxy_capacity: 1 << 20,
        browser_capacity: 16 << 10,
        disk_capacity: Some(64 << 20),
        publish_every: 500,
        count_ops: 20_000,
        slice_ms: 1000,
        open_rate: 4500,
        seed1_inputs_hash: 0x56ee8eefef20499d,
    },
    WorkloadSpec {
        name: "heavy-tail",
        why: "lognormal+Pareto bodies up to 1 MiB: bytes, not messages - MD5, socket copies and whole-buffer bodies set throughput, p99 and memory",
        agents: 2,
        docs: 256,
        sizes: SizeModel::HeavyTail,
        rotate: 0,
        proxy_capacity: 16 << 20,
        browser_capacity: 1 << 20,
        disk_capacity: None,
        publish_every: 0,
        count_ops: 10_000,
        slice_ms: 2500,
        open_rate: 1300,
        seed1_inputs_hash: 0x1fa23795f4476d92,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
