//! The paper's experiments and their shared plumbing.
//!
//! [`experiments::EXPERIMENTS`] is the one list of what this crate can
//! regenerate: each row names a table, figure or section of the paper and
//! the function that prints it. The `experiments` binary runs a row (or
//! `all` of them) in-process. Every row accepts `--scale <frac>` (default
//! 1.0) to shrink the workloads for quick smoke runs, and prints
//! paper-reported anchors next to measured values so calibration drift is
//! visible. Use `--csv` to emit machine-readable output instead of the
//! ASCII table.

#![warn(missing_docs)]

pub mod critical_path;
pub mod experiments;
pub mod scenario;

use std::io::{self, Write};

use baps_trace::{Profile, Trace, TraceStats};

/// Command-line options common to all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Workload scale factor in (0, 1].
    pub scale: f64,
    /// Emit CSV instead of ASCII tables.
    pub csv: bool,
}

impl Cli {
    /// Parses `[--scale <f>] [--csv]`, the arguments after the experiment
    /// name.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: 1.0,
            csv: false,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    cli.scale = args
                        .next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|v| *v > 0.0 && *v <= 1.0)
                        .ok_or("--scale needs a number in (0, 1]")?;
                }
                "--csv" => cli.csv = true,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(cli)
    }
}

/// Generates a profile trace at the CLI scale and computes its statistics.
pub(crate) fn load_profile(profile: Profile, cli: Cli) -> (Trace, TraceStats) {
    let trace = if cli.scale >= 1.0 {
        profile.generate()
    } else {
        profile.generate_scaled(cli.scale)
    };
    let stats = TraceStats::compute(&trace);
    (trace, stats)
}

/// Writes a section header.
pub(crate) fn banner(out: &mut dyn Write, title: &str) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===\n")
}

/// Formats an `Option<f64>`-like paper anchor: `-` when unknown.
pub(crate) fn anchor(v: f64, known: bool) -> String {
    if known {
        format!("{v:.2}")
    } else {
        "~".to_owned() + &format!("{v:.0}")
    }
}

use baps_core::{BrowserSizing, LatencyParams, Organization, SystemConfig};
use baps_sim::{run_matrix, MatrixGroup, RunResult, PROXY_SCALE_POINTS};

/// Builds the scale-point configurations for one organization.
fn org_configs(
    stats: &TraceStats,
    org: Organization,
    browser_sizing_for: &impl Fn(f64) -> BrowserSizing,
) -> Vec<SystemConfig> {
    PROXY_SCALE_POINTS
        .iter()
        .map(|&frac| {
            let mut cfg = SystemConfig::paper_default(
                org,
                ((stats.infinite_cache_bytes as f64 * frac).round() as u64).max(1),
            );
            cfg.browser_sizing = browser_sizing_for(frac);
            cfg
        })
        .collect()
}

/// Runs several organizations across the paper's proxy scale points
/// through one pooled [`run_matrix`] call, so no worker idles at an
/// organization boundary. Results arrive in `orgs` order.
///
/// `browser_sizing_for` maps each scale fraction to the browser sizing rule
/// (Figs. 2–3 use `Minimum`; Figs. 4–7 scale browser caches with the same
/// fraction of the average infinite browser cache).
pub(crate) fn sweep_orgs(
    trace: &Trace,
    stats: &TraceStats,
    orgs: &[Organization],
    browser_sizing_for: impl Fn(f64) -> BrowserSizing,
) -> Vec<Vec<RunResult>> {
    let latency = LatencyParams::paper();
    let config_lists: Vec<Vec<SystemConfig>> = orgs
        .iter()
        .map(|&org| org_configs(stats, org, &browser_sizing_for))
        .collect();
    let groups: Vec<MatrixGroup<'_>> = config_lists
        .iter()
        .map(|configs| MatrixGroup {
            trace,
            stats,
            configs,
            latency: &latency,
        })
        .collect();
    run_matrix(&groups).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_profile_scales() {
        let cli = Cli {
            scale: 0.02,
            csv: false,
        };
        let (trace, stats) = load_profile(Profile::NlanrUc, cli);
        assert!(trace.len() > 1_000);
        assert_eq!(stats.requests, trace.len() as u64);
    }

    #[test]
    fn anchor_formats() {
        assert_eq!(anchor(14.8, true), "14.80");
        assert_eq!(anchor(33.0, false), "~33");
    }
}
