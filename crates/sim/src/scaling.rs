//! Client-scaling experiment support (paper §4.3, Fig. 8).
//!
//! The paper measures how the browsers-aware gain grows with the client
//! population: for each *relative number of clients* (25%, 50%, 75%, 100%)
//! it replays the trace restricted to that subset, keeping the proxy cache
//! size fixed (10% of the full trace's infinite cache), and reports the
//! hit-ratio and byte-hit-ratio *increments* of browsers-aware over
//! proxy-and-local-browser.

use crate::engine::{run, RunResult};
use crate::{Organization, SystemConfig};
use baps_core::LatencyParams;
use baps_trace::{ClientId, Trace, TraceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The relative client-population points used in Fig. 8.
pub const CLIENT_SCALE_POINTS: [f64; 4] = [0.25, 0.50, 0.75, 1.00];

/// One point of the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Fraction of the client population included.
    pub fraction: f64,
    /// Number of clients in this subset.
    pub clients: u32,
    /// Browsers-aware run.
    pub baps: RunResult,
    /// Proxy-and-local-browser baseline run.
    pub baseline: RunResult,
}

impl ScalingPoint {
    /// Hit-ratio increment in percent:
    /// `(HR_baps - HR_baseline) / HR_baseline × 100` (the paper's formula).
    pub fn hit_ratio_increment(&self) -> f64 {
        increment(self.baps.hit_ratio(), self.baseline.hit_ratio())
    }

    /// Byte-hit-ratio increment in percent.
    pub fn byte_hit_ratio_increment(&self) -> f64 {
        increment(self.baps.byte_hit_ratio(), self.baseline.byte_hit_ratio())
    }
}

fn increment(enhanced: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        100.0 * (enhanced - baseline) / baseline
    }
}

/// Deterministically selects `fraction` of a trace's active clients.
///
/// Selection is a seeded shuffle so each larger fraction is a superset of
/// the smaller ones (the paper grows the population, it does not resample).
pub fn select_clients(trace: &Trace, fraction: f64, seed: u64) -> Vec<ClientId> {
    assert!((0.0..=1.0).contains(&fraction));
    let mut clients = trace.active_clients();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..clients.len()).rev() {
        let j = rng.gen_range(0..=i);
        clients.swap(i, j);
    }
    let keep = ((clients.len() as f64 * fraction).round() as usize)
        .max(1)
        .min(clients.len());
    clients.truncate(keep);
    clients
}

/// Runs the Fig. 8 experiment: for each fraction, restrict the trace to a
/// prefix of a seeded client shuffle and compare browsers-aware against
/// proxy-and-local-browser with a fixed proxy size.
///
/// `proxy_capacity` should be 10% of the *full* trace's infinite cache size
/// (the paper fixes it at the 100%-clients point).
pub fn run_scaling(
    trace: &Trace,
    fractions: &[f64],
    proxy_capacity: u64,
    base: &SystemConfig,
    latency: &LatencyParams,
    seed: u64,
) -> Vec<ScalingPoint> {
    fractions
        .iter()
        .map(|&fraction| {
            let subset = select_clients(trace, fraction, seed);
            let restricted = trace.restrict_clients(&subset);
            let stats = TraceStats::compute(&restricted);
            let mk = |org: Organization| {
                let mut cfg = *base;
                cfg.organization = org;
                cfg.proxy_capacity = proxy_capacity;
                cfg
            };
            let baps = run(
                &restricted,
                &stats,
                &mk(Organization::BrowsersAware),
                latency,
            );
            let baseline = run(
                &restricted,
                &stats,
                &mk(Organization::ProxyAndLocalBrowser),
                latency,
            );
            ScalingPoint {
                fraction,
                clients: restricted.n_clients,
                baps,
                baseline,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_trace::SynthConfig;

    fn trace() -> Trace {
        SynthConfig::small().scaled(0.3).generate(8)
    }

    #[test]
    fn selection_is_deterministic_and_nested() {
        let t = trace();
        let q = select_clients(&t, 0.25, 1);
        let h = select_clients(&t, 0.5, 1);
        let f = select_clients(&t, 1.0, 1);
        assert!(q.len() <= h.len() && h.len() <= f.len());
        // Nested prefixes: every quarter client is in the half set.
        for c in &q {
            assert!(h.contains(c));
        }
        for c in &h {
            assert!(f.contains(c));
        }
        assert_eq!(select_clients(&t, 0.5, 1), h);
    }

    #[test]
    fn different_seed_different_subset() {
        let t = trace();
        let a = select_clients(&t, 0.5, 1);
        let b = select_clients(&t, 0.5, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn scaling_points_have_growing_population() {
        let t = trace();
        let stats = TraceStats::compute(&t);
        let base = SystemConfig::paper_default(Organization::BrowsersAware, 0);
        let points = run_scaling(
            &t,
            &CLIENT_SCALE_POINTS,
            stats.infinite_cache_bytes / 10,
            &base,
            &LatencyParams::paper(),
            7,
        );
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[0].clients <= w[1].clients);
        }
        // Increments are finite numbers.
        for p in &points {
            assert!(p.hit_ratio_increment().is_finite());
            assert!(p.byte_hit_ratio_increment().is_finite());
            assert!(p.hit_ratio_increment() >= 0.0, "BAPS should not lose");
        }
    }

    #[test]
    fn increment_formula() {
        assert!((increment(12.0, 10.0) - 20.0).abs() < 1e-9);
        assert_eq!(increment(5.0, 0.0), 0.0);
    }
}
