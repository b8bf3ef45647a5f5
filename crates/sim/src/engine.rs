//! Trace replay engine.

use crate::latency::LatencyTotals;
use crate::metrics::Metrics;
use crate::system::SimSystem;
use crate::SystemConfig;
use baps_core::{IndexStats, LatencyParams, Served};
use baps_obs::LatencyHistogram;
use baps_trace::{Trace, TraceStats};

/// Per-tier service-time distributions.
#[derive(Debug, Clone, Default)]
pub struct ClassHistograms {
    /// One distribution per serving tier, by [`Served::index`].
    by_tier: [LatencyHistogram; Served::ALL.len()],
    /// All requests.
    pub all: LatencyHistogram,
}

impl ClassHistograms {
    fn record(&mut self, served: Served, ms: f64) {
        self.by_tier[served.index()].record(ms);
        self.all.record(ms);
    }

    /// The distribution over requests served by any of `tiers`.
    pub fn served(&self, tiers: &[Served]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in tiers {
            h.merge(&self.by_tier[s.index()]);
        }
        h
    }
}

/// Replay options beyond the system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Fraction of the trace treated as cache warm-up: those requests are
    /// replayed (populating caches and index) but excluded from metrics.
    pub warmup_frac: f64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { warmup_frac: 0.0 }
    }
}

/// The result of replaying one trace through one system configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Trace name.
    pub trace: String,
    /// The configuration that was run.
    pub config: SystemConfig,
    /// Resolved per-browser capacity in bytes.
    pub browser_capacity: u64,
    /// Request metrics.
    pub metrics: Metrics,
    /// Latency accounting.
    pub latency: LatencyTotals,
    /// Browser-index traffic statistics (zeroed for non-sharing orgs).
    pub index_stats: IndexStats,
    /// Browser-index memory footprint at end of run, bytes.
    pub index_memory_bytes: u64,
    /// Per-class service-time distributions.
    pub histograms: ClassHistograms,
}

impl RunResult {
    /// Hit ratio in percent.
    pub fn hit_ratio(&self) -> f64 {
        self.metrics.hit_ratio()
    }

    /// Byte hit ratio in percent.
    pub fn byte_hit_ratio(&self) -> f64 {
        self.metrics.byte_hit_ratio()
    }
}

/// Replays `trace` through a system configured by `cfg`.
///
/// `stats` must be the statistics of the same trace (they feed browser
/// sizing); use [`run_simple`] to have them computed for you.
pub fn run(
    trace: &Trace,
    stats: &TraceStats,
    cfg: &SystemConfig,
    latency: &LatencyParams,
) -> RunResult {
    run_with_options(trace, stats, cfg, latency, &RunOptions::default())
}

/// Replays `trace` with explicit [`RunOptions`] (warm-up exclusion).
///
/// # Panics
///
/// Panics when `warmup_frac` lies outside `[0, 1)`, or when a nonzero
/// `warmup_frac` rounds to zero requests or swallows the whole trace —
/// either way the caller asked for a warm-up that cannot happen, and
/// silently measuring warm-up requests (or measuring nothing) would
/// corrupt the reported metrics.
pub fn run_with_options(
    trace: &Trace,
    stats: &TraceStats,
    cfg: &SystemConfig,
    latency: &LatencyParams,
    options: &RunOptions,
) -> RunResult {
    assert!(
        (0.0..1.0).contains(&options.warmup_frac),
        "warmup_frac {} outside [0, 1)",
        options.warmup_frac
    );
    let mut system = SimSystem::new(
        *cfg,
        trace.n_clients,
        stats.mean_client_infinite_bytes,
        *latency,
    );
    let warmup = ((trace.len() as f64) * options.warmup_frac) as usize;
    if options.warmup_frac > 0.0 {
        assert!(
            warmup > 0,
            "warmup_frac {} rounds to zero requests on a {}-request trace; \
             use warmup_frac = 0.0 to disable warm-up explicitly",
            options.warmup_frac,
            trace.len()
        );
        assert!(
            warmup < trace.len(),
            "warmup_frac {} covers all {} requests, leaving nothing to measure",
            options.warmup_frac,
            trace.len()
        );
    }
    let mut histograms = ClassHistograms::default();
    for (i, req) in trace.iter().enumerate() {
        if i == warmup && warmup > 0 {
            // Caches and index stay warm; measurement starts fresh.
            system.metrics = Metrics::default();
            system.latency.totals = LatencyTotals::default();
        }
        let before = system.latency.totals.total_ms();
        let served = system.process(req);
        if i >= warmup {
            histograms.record(served, system.latency.totals.total_ms() - before);
        }
    }
    let (index_stats, index_memory_bytes) = system
        .index()
        .map(|i| (i.stats(), i.memory_bytes()))
        .unwrap_or_default();
    RunResult {
        trace: trace.name.clone(),
        config: *cfg,
        browser_capacity: system.browser_capacity(),
        metrics: system.metrics.clone(),
        latency: system.latency.totals,
        index_stats,
        index_memory_bytes,
        histograms,
    }
}

/// Replays `trace` computing its statistics on the fly.
pub fn run_simple(trace: &Trace, cfg: &SystemConfig) -> RunResult {
    let stats = TraceStats::compute(trace);
    run(trace, &stats, cfg, &LatencyParams::paper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Organization;
    use baps_trace::SynthConfig;

    fn small_trace() -> Trace {
        SynthConfig::small().scaled(0.25).generate(3)
    }

    #[test]
    fn run_covers_all_requests() {
        let trace = small_trace();
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let result = run_simple(&trace, &cfg);
        assert_eq!(result.metrics.requests(), trace.len() as u64);
        assert_eq!(result.metrics.total_bytes(), trace.total_bytes());
        assert!(result.hit_ratio() > 0.0);
        assert!(result.latency.total_ms() > 0.0);
    }

    #[test]
    fn hit_ratio_below_infinite_bound() {
        let trace = small_trace();
        let stats = TraceStats::compute(&trace);
        for org in Organization::all() {
            let cfg = SystemConfig::paper_default(org, 1 << 20);
            let r = run(&trace, &stats, &cfg, &LatencyParams::paper());
            assert!(
                r.hit_ratio() <= stats.max_hit_ratio + 1e-9,
                "{}: {} > {}",
                org.name(),
                r.hit_ratio(),
                stats.max_hit_ratio
            );
            assert!(r.byte_hit_ratio() <= stats.max_byte_hit_ratio + 1e-9);
        }
    }

    #[test]
    fn browsers_aware_dominates_proxy_and_local() {
        let trace = small_trace();
        let stats = TraceStats::compute(&trace);
        let proxy_cap = (stats.infinite_cache_bytes / 20).max(1); // 5%
        let baps = run(
            &trace,
            &stats,
            &SystemConfig::paper_default(Organization::BrowsersAware, proxy_cap),
            &LatencyParams::paper(),
        );
        let plb = run(
            &trace,
            &stats,
            &SystemConfig::paper_default(Organization::ProxyAndLocalBrowser, proxy_cap),
            &LatencyParams::paper(),
        );
        assert!(
            baps.hit_ratio() >= plb.hit_ratio(),
            "BAPS {} < P+LB {}",
            baps.hit_ratio(),
            plb.hit_ratio()
        );
        // The gain comes from remote-browser hits, which P+LB cannot have.
        assert!(baps.metrics.served(&[Served::Peer]).count > 0);
        assert_eq!(plb.metrics.served(&[Served::Peer]).count, 0);
    }

    #[test]
    fn exact_index_never_wastes_probes_without_churn() {
        let mut synth = SynthConfig::small().scaled(0.25);
        synth.p_size_change = 0.0; // no document churn
        let trace = synth.generate(5);
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let r = run_simple(&trace, &cfg);
        assert_eq!(r.metrics.wasted_probes, 0);
    }

    #[test]
    fn index_stats_populated_for_sharing_orgs() {
        let trace = small_trace();
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let r = run_simple(&trace, &cfg);
        assert!(r.index_stats.updates > 0);
        assert!(r.index_memory_bytes > 0);
        let cfg = SystemConfig::paper_default(Organization::ProxyAndLocalBrowser, 1 << 20);
        let r = run_simple(&trace, &cfg);
        assert_eq!(r.index_stats.updates, 0);
        assert_eq!(r.index_memory_bytes, 0);
    }

    #[test]
    fn warmup_excludes_early_requests() {
        let trace = small_trace();
        let stats = TraceStats::compute(&trace);
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let opts = RunOptions { warmup_frac: 0.5 };
        let warmed = run_with_options(&trace, &stats, &cfg, &LatencyParams::paper(), &opts);
        // Only the post-warm-up half is measured...
        assert_eq!(
            warmed.metrics.requests(),
            (trace.len() - trace.len() / 2) as u64
        );
        // ...and warm caches raise the measured hit ratio vs a cold run
        // truncated to the same suffix semantics (full cold run is a fair
        // lower bound here).
        let cold = run(&trace, &stats, &cfg, &LatencyParams::paper());
        assert!(warmed.hit_ratio() >= cold.hit_ratio() - 1.0);
        assert_eq!(warmed.histograms.all.count(), warmed.metrics.requests());
    }

    #[test]
    #[should_panic(expected = "rounds to zero requests")]
    fn warmup_rounding_to_zero_rejected() {
        // 1e-9 of a small trace truncates to zero warm-up requests: the
        // caller asked for warm-up but would silently measure everything.
        let trace = small_trace();
        let stats = TraceStats::compute(&trace);
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let opts = RunOptions { warmup_frac: 1e-9 };
        run_with_options(&trace, &stats, &cfg, &LatencyParams::paper(), &opts);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn warmup_frac_one_rejected() {
        let trace = small_trace();
        let stats = TraceStats::compute(&trace);
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let opts = RunOptions { warmup_frac: 1.0 };
        run_with_options(&trace, &stats, &cfg, &LatencyParams::paper(), &opts);
    }

    #[test]
    fn histograms_partition_requests() {
        let trace = small_trace();
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let r = run_simple(&trace, &cfg);
        let h = &r.histograms;
        assert_eq!(h.all.count(), r.metrics.requests());
        assert_eq!(h.served(&Served::ALL).count(), h.all.count());
        for s in Served::ALL {
            assert_eq!(h.served(&[s]).count(), r.metrics.served(&[s]).count);
        }
        let (local, peer, miss) = (
            h.served(&[Served::LocalBrowser]),
            h.served(&[Served::Peer]),
            h.served(&[Served::Origin]),
        );
        // Latency ordering: local hits are faster than misses at p50.
        if local.count() > 0 && miss.count() > 0 {
            assert!(local.quantile_ms(0.5) < miss.quantile_ms(0.5));
        }
        // Remote hits pay the 0.1 s connection: p50 at least 100 ms.
        if peer.count() > 0 {
            assert!(peer.quantile_ms(0.5) >= 90.0);
        }
        // The histogram's mean matches the accounted totals.
        let total_from_histo = h.all.mean_ms() * h.all.count() as f64;
        let rel = (total_from_histo - r.latency.total_ms()).abs() / r.latency.total_ms();
        assert!(rel < 1e-6, "histogram/total divergence {rel}");
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = small_trace();
        let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 20);
        let a = run_simple(&trace, &cfg);
        let b = run_simple(&trace, &cfg);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.latency, b.latency);
    }
}
