//! Parallel parameter sweeps.
//!
//! Each (configuration) replay is single-threaded and deterministic; a sweep
//! fans the independent replays out over `std::thread::scope` workers, so
//! results are bit-identical to running them serially, just wall-clock
//! faster. This is how every multi-point figure in the paper is produced.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::engine::{run, RunResult};
use crate::latency::LatencyTotals;
use baps_core::{LatencyParams, SystemConfig};
use baps_trace::{Trace, TraceStats};

/// Runs every configuration against the trace, in parallel, preserving
/// input order in the output: [`run_matrix`] over one group.
pub fn run_sweep(
    trace: &Trace,
    stats: &TraceStats,
    configs: &[SystemConfig],
    latency: &LatencyParams,
) -> Vec<RunResult> {
    let group = MatrixGroup {
        trace,
        stats,
        configs,
        latency,
    };
    run_matrix(&[group])
        .0
        .pop()
        .expect("one group in, one group out")
}

/// One independent unit of matrix work: a trace (with precomputed stats)
/// and the configurations to replay against it.
///
/// Borrowed rather than owned so callers can share one generated trace
/// across several config lists without cloning multi-million-request
/// vectors.
#[derive(Clone, Copy)]
pub struct MatrixGroup<'a> {
    /// The request trace to replay.
    pub trace: &'a Trace,
    /// Its precomputed statistics.
    pub stats: &'a TraceStats,
    /// Configurations to run against this trace.
    pub configs: &'a [SystemConfig],
    /// Latency model parameters.
    pub latency: &'a LatencyParams,
}

/// Runs every (group, config) pair of a profile×config matrix across one
/// shared scoped worker pool.
///
/// Unlike calling [`run_sweep`] per group — which leaves workers idle at
/// each group boundary — all pairs feed a single work queue, so a slow
/// group's tail overlaps the next group's work. Each replay is
/// independent and deterministic, and results are reassembled in input
/// order, so the output (and the merged grand total, accumulated via
/// [`LatencyTotals::merge`] in input order) is byte-identical to running
/// the groups sequentially.
pub fn run_matrix(groups: &[MatrixGroup<'_>]) -> (Vec<Vec<RunResult>>, LatencyTotals) {
    // Flat job list: (group index, config index), in input order.
    let jobs: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| (0..g.configs.len()).map(move |ci| (gi, ci)))
        .collect();
    let mut results: Vec<Vec<RunResult>> = groups
        .iter()
        .map(|g| Vec::with_capacity(g.configs.len()))
        .collect();
    // Grand total merged in input order: float addition is order-sensitive,
    // so a fixed merge order keeps the total identical run to run.
    let mut grand = LatencyTotals::default();
    ordered_pool(
        jobs.len(),
        |i| {
            let (gi, ci) = jobs[i];
            let g = &groups[gi];
            run(g.trace, g.stats, &g.configs[ci], g.latency)
        },
        |i, r| {
            grand.merge(&r.latency);
            results[jobs[i].0].push(r);
        },
    );
    (results, grand)
}

/// Runs `work(i)` for every `i` in `0..n` on a scoped pool of one worker
/// per core, and hands each result to `sink` on the calling thread **in
/// index order**, as soon as every earlier one is in — so whatever `sink`
/// builds is what a serial loop would have built. The caller runs no
/// `work` itself (it only waits on the workers' channel), so it is not
/// counted against the cores.
///
/// The pool under every sweep, and under the `experiments` binary's rows.
pub fn ordered_pool<T: Send>(
    n: usize,
    work: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, T),
) {
    let threads = std::thread::available_parallelism()
        .map_or(1, |cores| cores.get())
        .min(n);
    if threads <= 1 {
        (0..n).for_each(|i| sink(i, work(i)));
        return;
    }
    // Work queue: an atomic cursor hands out indices; each worker sends
    // (index, result) back over a channel.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (tx, next, work) = (tx.clone(), &next, &work);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, work(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Results that arrived before an earlier index did.
        let mut early = BTreeMap::new();
        let mut due = 0;
        for (i, result) in rx {
            early.insert(i, result);
            while let Some(result) = early.remove(&due) {
                sink(due, result);
                due += 1;
            }
        }
    });
}

/// The proxy-cache scale points used throughout the paper's figures,
/// as fractions of the infinite cache size.
pub const PROXY_SCALE_POINTS: [f64; 5] = [0.005, 0.01, 0.05, 0.10, 0.20];

/// Builds one configuration per proxy scale point for a fixed organization.
pub fn scale_configs(
    base: &SystemConfig,
    infinite_cache_bytes: u64,
    points: &[f64],
) -> Vec<SystemConfig> {
    points
        .iter()
        .map(|&frac| {
            let mut cfg = *base;
            cfg.proxy_capacity = ((infinite_cache_bytes as f64 * frac).round() as u64).max(1);
            cfg
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_simple;
    use baps_core::Organization;
    use baps_trace::SynthConfig;

    #[test]
    fn sweep_matches_serial() {
        let trace = SynthConfig::small().scaled(0.2).generate(4);
        let stats = TraceStats::compute(&trace);
        let configs: Vec<SystemConfig> = Organization::all()
            .iter()
            .map(|&org| SystemConfig::paper_default(org, 1 << 20))
            .collect();
        let parallel = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());
        assert_eq!(parallel.len(), configs.len());
        for (cfg, result) in configs.iter().zip(&parallel) {
            let serial = run_simple(&trace, cfg);
            assert_eq!(
                serial.metrics,
                result.metrics,
                "{}",
                cfg.organization.name()
            );
        }
    }

    #[test]
    fn sweep_preserves_order() {
        let trace = SynthConfig::small().scaled(0.1).generate(4);
        let stats = TraceStats::compute(&trace);
        let base = SystemConfig::paper_default(Organization::BrowsersAware, 0);
        let configs = scale_configs(&base, stats.infinite_cache_bytes, &PROXY_SCALE_POINTS);
        let results = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(cfg.proxy_capacity, r.config.proxy_capacity);
        }
        // Larger proxies never hurt the hit ratio (LRU inclusion on a
        // fixed stream — monotone in practice for these workloads).
        assert!(results.last().unwrap().hit_ratio() >= results[0].hit_ratio());
    }

    #[test]
    fn scale_configs_fractions() {
        let base = SystemConfig::paper_default(Organization::ProxyOnly, 0);
        let configs = scale_configs(&base, 1_000_000, &[0.01, 0.10]);
        assert_eq!(configs[0].proxy_capacity, 10_000);
        assert_eq!(configs[1].proxy_capacity, 100_000);
    }

    #[test]
    fn matrix_matches_sequential_exactly() {
        // Two "profiles" (different seeds) × different config lists: the
        // pooled matrix must reproduce the sequential per-group sweeps
        // byte for byte, and the grand total must equal merging every
        // run's totals in input order.
        let trace_a = SynthConfig::small().scaled(0.1).generate(4);
        let trace_b = SynthConfig::small().scaled(0.15).generate(9);
        let stats_a = TraceStats::compute(&trace_a);
        let stats_b = TraceStats::compute(&trace_b);
        let latency = LatencyParams::paper();
        let configs_a: Vec<SystemConfig> = Organization::all()
            .iter()
            .map(|&org| SystemConfig::paper_default(org, 1 << 19))
            .collect();
        let base = SystemConfig::paper_default(Organization::BrowsersAware, 0);
        let configs_b = scale_configs(&base, stats_b.infinite_cache_bytes, &[0.01, 0.10]);

        let groups = [
            MatrixGroup {
                trace: &trace_a,
                stats: &stats_a,
                configs: &configs_a,
                latency: &latency,
            },
            MatrixGroup {
                trace: &trace_b,
                stats: &stats_b,
                configs: &configs_b,
                latency: &latency,
            },
        ];
        let (matrix, grand) = run_matrix(&groups);

        assert_eq!(matrix.len(), 2);
        let mut expected_grand = LatencyTotals::default();
        for (group, rows) in groups.iter().zip(&matrix) {
            assert_eq!(rows.len(), group.configs.len());
            for (cfg, r) in group.configs.iter().zip(rows) {
                let serial = run(group.trace, group.stats, cfg, group.latency);
                assert_eq!(serial.metrics, r.metrics);
                assert_eq!(serial.latency, r.latency);
                expected_grand.merge(&r.latency);
            }
        }
        assert_eq!(grand, expected_grand);
        assert!(grand.total_ms() > 0.0);
    }

    #[test]
    fn pool_sinks_in_index_order() {
        // With two workers, index 0 blocks until index 1 signals it, so
        // later results arrive first and must wait for it.
        let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let (tx, rx) = mpsc::channel::<()>();
        let rx = std::sync::Mutex::new(rx);
        let mut seen = Vec::new();
        ordered_pool(
            6,
            |i| {
                match i {
                    0 if parallel => rx.lock().unwrap().recv().unwrap(),
                    1 if parallel => tx.send(()).unwrap(),
                    _ => {}
                }
                i * 10
            },
            |i, r| seen.push((i, r)),
        );
        assert_eq!(seen, [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
    }

    #[test]
    fn empty_matrix_is_empty() {
        let (matrix, grand) = run_matrix(&[]);
        assert!(matrix.is_empty());
        assert_eq!(grand, LatencyTotals::default());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let trace = SynthConfig::small().scaled(0.05).generate(4);
        let stats = TraceStats::compute(&trace);
        let results = run_sweep(&trace, &stats, &[], &LatencyParams::paper());
        assert!(results.is_empty());
    }
}
