//! Calibrated workload profiles standing in for the paper's five traces.
//!
//! Table 1 of the paper characterises five access logs: two one-day NLANR
//! proxy logs (`uc`, `bo1`), the Boston University 1995 and 1998 client
//! traces, and a two-day CA*netII parent-cache log. The original logs are no
//! longer obtainable, so each profile here pairs
//!
//! * the **paper targets** we could read off Table 1 (several numerals are
//!   garbled in the surviving text; those are documented estimates chosen
//!   from the companion literature and marked `approx` below), with
//! * a **calibrated [`SynthConfig`]** whose generated trace reproduces the
//!   target *shape*: request volume, client population, infinite-cache
//!   footprint, and the maximum (infinite-cache) hit / byte-hit ratios that
//!   upper-bound every simulated policy.
//!
//! The experiments print paper targets next to measured values so
//! calibration drift is always visible.

use crate::synth::{SizeModelConfig, SynthConfig};
use crate::types::Trace;

/// The five paper traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// NLANR `uc` proxy, one day (2000-07-14). Many clients, low locality.
    NlanrUc,
    /// NLANR `bo1` proxy, one day (2000-08-29).
    NlanrBo1,
    /// Boston University client trace, Jan–Feb 1995. Strong locality.
    Bu95,
    /// Boston University client trace, Apr–May 1998. Weaker locality
    /// (documented shift in access patterns, Barford et al. 1999).
    Bu98,
    /// CA*netII parent cache, two days, only 3 child clients (the paper's
    /// limit case where browsers-awareness barely helps).
    CaNetII,
}

impl Profile {
    /// All five profiles in the paper's Table 1 order.
    pub fn all() -> [Profile; 5] {
        [
            Profile::NlanrUc,
            Profile::NlanrBo1,
            Profile::Bu95,
            Profile::Bu98,
            Profile::CaNetII,
        ]
    }

    /// The trace name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Profile::NlanrUc => "NLANR-uc",
            Profile::NlanrBo1 => "NLANR-bo1",
            Profile::Bu95 => "BU-95",
            Profile::Bu98 => "BU-98",
            Profile::CaNetII => "CA*netII",
        }
    }

    /// The collection period as printed in the paper.
    pub fn period(self) -> &'static str {
        match self {
            Profile::NlanrUc => "7/14/2000",
            Profile::NlanrBo1 => "8/29/2000",
            Profile::Bu95 => "Jan.95-Feb.95",
            Profile::Bu98 => "Apr.98-May.98",
            Profile::CaNetII => "9/19-9/20/1999",
        }
    }

    /// Paper Table 1 targets (garbled cells reconstructed; see module docs).
    pub fn targets(self) -> PaperTargets {
        match self {
            Profile::NlanrUc => PaperTargets {
                requests: 520_000,
                total_gb: 4.6,
                infinite_gb: 3.9,
                clients: 220,
                max_hit_ratio: 33.0,      // approx: garbled in text
                max_byte_hit_ratio: 14.8, // legible
                approx: true,
            },
            Profile::NlanrBo1 => PaperTargets {
                requests: 360_000,
                total_gb: 3.2,
                infinite_gb: 2.3,
                clients: 180,
                max_hit_ratio: 45.0,       // approx
                max_byte_hit_ratio: 28.79, // legible
                approx: true,
            },
            Profile::Bu95 => PaperTargets {
                requests: 575_000,
                total_gb: 2.6,
                infinite_gb: 1.6,
                clients: 591,
                max_hit_ratio: 60.0,       // approx; BU-95 has strong locality
                max_byte_hit_ratio: 31.37, // legible
                approx: true,
            },
            Profile::Bu98 => PaperTargets {
                requests: 290_000,
                total_gb: 1.9,
                infinite_gb: 1.3,
                clients: 306,
                max_hit_ratio: 45.0,       // approx
                max_byte_hit_ratio: 30.94, // legible as "3?.94"
                approx: true,
            },
            Profile::CaNetII => PaperTargets {
                requests: 240_000,
                total_gb: 2.4,
                infinite_gb: 1.7,
                clients: 3,
                max_hit_ratio: 42.0,       // approx
                max_byte_hit_ratio: 29.84, // legible
                approx: true,
            },
        }
    }

    /// The calibrated generator configuration for this profile.
    ///
    /// Parameters were fitted with `experiments calibrate` (baps-bench), which
    /// binary-searches the document universe, temporal-locality probability
    /// and popularity-size bias until the generated trace matches the
    /// Table 1 anchors (max hit ratio, max byte hit ratio, total GB).
    pub fn config(self) -> SynthConfig {
        let t = self.targets();
        let size = |median: f64, tail: f64| SizeModelConfig {
            body_median: median,
            tail_scale: tail,
            ..SizeModelConfig::web_default()
        };
        let heavy = |median: f64, tail: f64| SizeModelConfig {
            body_median: median,
            tail_scale: tail,
            tail_prob: 0.22,
            tail_shape: 1.08,
            ..SizeModelConfig::web_default()
        };
        match self {
            Profile::NlanrUc => SynthConfig {
                name: self.name().to_owned(),
                n_clients: t.clients as u32,
                n_requests: t.requests,
                n_docs: 1_560_000,
                doc_alpha: 0.45,
                client_alpha: 0.9,
                p_private: 0.10,
                private_frac: 0.25,
                p_group: 0.22,
                group_count: 16,
                group_frac: 0.25,
                p_temporal: 0.134,
                stack_depth: 512,
                stack_alpha: 0.7,
                size_model: heavy(11_759.0, 23_518.0),
                p_size_change: 0.004,
                // One day / 520k requests: 166 ms mean gap.
                mean_interarrival_ms: 166.0,
                pop_size_bias: 0.972,
            },
            Profile::NlanrBo1 => SynthConfig {
                name: self.name().to_owned(),
                n_clients: t.clients as u32,
                n_requests: t.requests,
                n_docs: 1_080_000,
                doc_alpha: 0.78,
                client_alpha: 0.55,
                p_private: 0.28,
                private_frac: 0.35,
                p_group: 0.22,
                group_count: 14,
                group_frac: 0.25,
                p_temporal: 0.07,
                stack_depth: 128,
                stack_alpha: 0.9,
                size_model: size(7_879.0, 15_759.0),
                p_size_change: 0.004,
                mean_interarrival_ms: 240.0,
                pop_size_bias: 0.183,
            },
            Profile::Bu95 => SynthConfig {
                name: self.name().to_owned(),
                n_clients: t.clients as u32,
                n_requests: t.requests,
                n_docs: 1_130_000,
                doc_alpha: 0.95,
                client_alpha: 0.6,
                p_private: 0.12,
                private_frac: 0.25,
                p_group: 0.30,
                group_count: 40,
                group_frac: 0.30,
                p_temporal: 0.001,
                stack_depth: 160,
                stack_alpha: 0.85,
                size_model: size(7_458.0, 14_916.0),
                p_size_change: 0.003,
                // Two months / 575k requests: 9 s mean gap.
                mean_interarrival_ms: 9_000.0,
                pop_size_bias: 0.317,
            },
            Profile::Bu98 => SynthConfig {
                name: self.name().to_owned(),
                n_clients: t.clients as u32,
                n_requests: t.requests,
                n_docs: 870_000,
                doc_alpha: 0.75,
                client_alpha: 0.6,
                p_private: 0.30,
                private_frac: 0.35,
                p_group: 0.25,
                group_count: 24,
                group_frac: 0.28,
                p_temporal: 0.123,
                stack_depth: 128,
                stack_alpha: 0.85,
                size_model: size(5_555.0, 11_110.0),
                p_size_change: 0.003,
                mean_interarrival_ms: 18_000.0,
                pop_size_bias: 0.183,
            },
            Profile::CaNetII => SynthConfig {
                name: self.name().to_owned(),
                n_clients: t.clients as u32,
                n_requests: t.requests,
                n_docs: 720_000,
                doc_alpha: 0.75,
                client_alpha: 0.3,
                p_private: 0.20,
                private_frac: 0.15,
                p_group: 0.05,
                group_count: 3,
                group_frac: 0.10,
                p_temporal: 0.048,
                stack_depth: 256,
                stack_alpha: 0.85,
                size_model: size(7_272.0, 14_544.0),
                p_size_change: 0.004,
                mean_interarrival_ms: 720.0,
                pop_size_bias: 0.140,
            },
        }
    }

    /// Generates the full-size calibrated trace with the canonical seed used
    /// by every experiment.
    pub fn generate(self) -> Trace {
        self.config().generate(self.canonical_seed())
    }

    /// Generates a `frac`-scaled trace (same locality structure, fewer
    /// requests); useful for tests.
    pub fn generate_scaled(self, frac: f64) -> Trace {
        self.config().scaled(frac).generate(self.canonical_seed())
    }

    /// The fixed seed used for reproducible experiment runs.
    pub fn canonical_seed(self) -> u64 {
        match self {
            Profile::NlanrUc => 0x0714_2000,
            Profile::NlanrBo1 => 0x0829_2000,
            Profile::Bu95 => 0x1995,
            Profile::Bu98 => 0x1998,
            Profile::CaNetII => 0x0919_1999,
        }
    }
}

/// Targets read (or reconstructed) from the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Number of requests.
    pub requests: u64,
    /// Total trace volume, GB.
    pub total_gb: f64,
    /// Infinite cache size, GB.
    pub infinite_gb: f64,
    /// Number of clients.
    pub clients: u64,
    /// Maximum (infinite-cache) hit ratio, percent.
    pub max_hit_ratio: f64,
    /// Maximum (infinite-cache) byte hit ratio, percent.
    pub max_byte_hit_ratio: f64,
    /// Whether any cell was reconstructed from garbled text.
    pub approx: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn all_profiles_validate() {
        for p in Profile::all() {
            p.config().validate().unwrap();
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Profile::NlanrUc.name(), "NLANR-uc");
        assert_eq!(Profile::CaNetII.name(), "CA*netII");
    }

    #[test]
    fn canetii_has_three_clients() {
        assert_eq!(Profile::CaNetII.config().n_clients, 3);
    }

    #[test]
    fn scaled_trace_statistics_are_sane() {
        // A 4% scale keeps this test fast while still exercising shape.
        let t = Profile::NlanrUc.generate_scaled(0.04);
        let s = TraceStats::compute(&t);
        assert_eq!(s.requests, t.len() as u64);
        assert!(s.max_hit_ratio > 5.0 && s.max_hit_ratio < 80.0);
        assert!(s.max_byte_hit_ratio < s.max_hit_ratio);
        assert!(s.clients > 50);
    }

    #[test]
    fn bu95_has_more_locality_than_nlanr_uc() {
        let uc = TraceStats::compute(&Profile::NlanrUc.generate_scaled(0.04));
        let bu = TraceStats::compute(&Profile::Bu95.generate_scaled(0.04));
        assert!(
            bu.max_hit_ratio > uc.max_hit_ratio,
            "bu {} vs uc {}",
            bu.max_hit_ratio,
            uc.max_hit_ratio
        );
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: Vec<u64> = Profile::all().iter().map(|p| p.canonical_seed()).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len());
    }
}
