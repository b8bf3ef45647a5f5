//! The paper's tables and figures as rows of one table.
//!
//! [`EXPERIMENTS`] is the only list of experiments in the repository: the
//! `experiments` binary runs a row by name, `experiments all` runs them in
//! table order ([`run_all`]) and `experiments --list` prints [`list`]. A
//! row's function writes its report to `out`; everything it replays is
//! seeded, so the same arguments produce the same bytes (the §6 row's four
//! wall-clock measurements excepted).

use std::io::{self, Write};
use std::time::Instant;

use crate::anonymity::{requester_open, target_serve, PeerId, SecureRelay};
use crate::{anchor, banner, load_profile, sweep_orgs, Cli};
use baps_core::{LatencyParams, Served, BYTES_PER_ENTRY, PROXY_TIERS};
use baps_crypto::{verify_document, KeyPair, ProxySigner};
use baps_obs::LatencyHistogram;
use baps_sim::{
    human_bytes, ordered_pool, pct, run, run_hierarchy, run_scaling, run_sweep, run_with_options,
    BrowserSizing, HierHit, HierarchyConfig, IndexModel, Organization, Policy, RemoteHitCaching,
    RunOptions, RunResult, SharingMode, SystemConfig, Table, CLIENT_SCALE_POINTS,
    PROXY_SCALE_POINTS,
};
use baps_trace::{Profile, SharingStats, SynthConfig, TraceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One reproducible result of the paper (or an extension of it).
pub struct Experiment {
    /// The subcommand: `experiments <name>`.
    pub name: &'static str,
    /// What it reproduces: a table, figure or section of the paper, `ours`
    /// for an extension, `tool` for a developer aid.
    pub anchor: &'static str,
    /// One line on what the report shows.
    pub about: &'static str,
    /// Writes the report.
    pub run: fn(Cli, &mut dyn Write) -> io::Result<()>,
}

/// Every experiment, in the order `experiments all` reports them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        anchor: "Table 1",
        about: "characteristics of the five synthesised traces, paper target vs measured",
        run: table1,
    },
    Experiment {
        name: "fig2",
        anchor: "Fig. 2",
        about: "the five caching organizations on NLANR-uc, minimum browser caches",
        run: fig2,
    },
    Experiment {
        name: "fig3",
        anchor: "Fig. 3",
        about: "browsers-aware hit breakdowns (local browser / proxy / remote browsers)",
        run: fig3,
    },
    Experiment {
        name: "fig4",
        anchor: "Fig. 4",
        about: "browsers-aware vs proxy-and-local-browser on NLANR-bo1, average browser caches",
        run: |cli, out| two_org_figure(Profile::NlanrBo1, "Figure 4", cli, out),
    },
    Experiment {
        name: "fig5",
        anchor: "Fig. 5",
        about: "the same on BU-95",
        run: |cli, out| two_org_figure(Profile::Bu95, "Figure 5", cli, out),
    },
    Experiment {
        name: "fig6",
        anchor: "Fig. 6",
        about: "the same on BU-98",
        run: |cli, out| two_org_figure(Profile::Bu98, "Figure 6", cli, out),
    },
    // CA*netII has only 3 clients, so the accumulated browser-cache capacity
    // is tiny relative to the proxy cache. Paper anchor: both average
    // increments are below 1 percentage point on this trace.
    Experiment {
        name: "fig7",
        anchor: "Fig. 7",
        about: "the same on CA*netII: the 3-client limit case, where the gain collapses",
        run: |cli, out| two_org_figure(Profile::CaNetII, "Figure 7", cli, out),
    },
    Experiment {
        name: "fig8",
        anchor: "Fig. 8",
        about: "browsers-aware increments vs relative number of clients, proxy fixed at 10%",
        run: fig8,
    },
    Experiment {
        name: "memhit",
        anchor: "§4.2",
        about: "memory byte hit ratios and hit latency at equal byte hit ratios",
        run: memhit,
    },
    Experiment {
        name: "overhead",
        anchor: "§5",
        about: "remote-communication share, delayed / compressed index updates, index space",
        run: overhead,
    },
    Experiment {
        name: "sharing",
        anchor: "§4.1",
        about: "how much browser cache data is sharable, straight from the traces",
        run: sharing,
    },
    Experiment {
        name: "security",
        anchor: "§6",
        about: "integrity + anonymity protocol cost vs LAN transfer time (wall-clock rows)",
        run: security,
    },
    Experiment {
        name: "ablation",
        anchor: "ours",
        about: "replacement policy, remote-hit caching, index model, peer-serve promotion, TTL",
        run: ablation,
    },
    Experiment {
        name: "latency",
        anchor: "ours",
        about: "per-hit-class service-time percentiles (extends §5)",
        run: latency,
    },
    Experiment {
        name: "hierarchy",
        anchor: "ours",
        about: "two-level proxy hierarchy with browsers-aware groups (TKDE 2004 follow-up)",
        run: hierarchy,
    },
    Experiment {
        name: CALIBRATE,
        anchor: "tool",
        about: "re-fit the generator to Table 1's anchors (try --scale 0.25); not part of `all`",
        run: calibrate,
    },
];

/// The one row [`run_all`] skips: it prints generator parameters to copy
/// into `baps-trace`, not a result of the paper.
const CALIBRATE: &str = "calibrate";

/// The rows `experiments all` runs, in table order.
pub fn suite() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.name != CALIBRATE)
}

/// Runs the [`suite`] into `out`: rows run side by side on
/// [`ordered_pool`], each into a buffer of its own, and the buffers are
/// written in table order — the bytes a plain loop over the rows writes.
/// Each row is announced on stderr as it starts.
pub fn run_all(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    let rows: Vec<&Experiment> = suite().collect();
    let mut status = Ok(());
    ordered_pool(
        rows.len(),
        |i| {
            eprintln!(">>> {}", rows[i].name);
            let mut report = Vec::new();
            (rows[i].run)(cli, &mut report).map(|()| report)
        },
        |_, report| {
            if status.is_ok() {
                status = report.and_then(|report| out.write_all(&report));
            }
        },
    );
    status
}

/// One line per row of [`EXPERIMENTS`]: name, anchor, description.
pub fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("{:<10} {:<8} {}\n", e.name, e.anchor, e.about))
        .collect()
}

fn emit(out: &mut dyn Write, cli: Cli, table: &Table) -> io::Result<()> {
    let text = if cli.csv {
        table.to_csv()
    } else {
        table.render()
    };
    out.write_all(text.as_bytes())
}

/// Figs. 2–3 print one table per metric under this heading.
fn emit_by_proxy_size(out: &mut dyn Write, cli: Cli, title: &str, table: &Table) -> io::Result<()> {
    if cli.csv {
        writeln!(out, "# {title}\n{}", table.to_csv())
    } else {
        writeln!(out, "{title} by proxy cache size (% of infinite cache):")?;
        writeln!(out, "{}", table.render())
    }
}

fn points_header(first: &str, points: &[f64]) -> Vec<String> {
    std::iter::once(first.to_owned())
        .chain(points.iter().map(|f| format!("{}%", f * 100.0)))
        .collect()
}

fn ratio_row(label: &str, runs: &[RunResult], byte: bool) -> Vec<String> {
    std::iter::once(label.to_owned())
        .chain(runs.iter().map(|r| {
            pct(if byte {
                r.byte_hit_ratio()
            } else {
                r.hit_ratio()
            })
        }))
        .collect()
}

fn max_gain(a: &[RunResult], b: &[RunResult], ratio: fn(&RunResult) -> f64) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| ratio(a) - ratio(b))
        .fold(f64::MIN, f64::max)
}

/// Browsers-aware at 10% of the infinite cache with (the paper default)
/// minimum browser caches: the operating point §5, the ablations and the
/// latency study share.
fn baps_at_tenth(stats: &TraceStats) -> SystemConfig {
    SystemConfig::paper_default(
        Organization::BrowsersAware,
        (stats.infinite_cache_bytes / 10).max(1),
    )
}

/// Table 1: the measured statistics of each calibrated profile next to the
/// paper's reported values. Cells the OCR garbled are shown as `~x`
/// (reconstructed estimates; see `baps-trace::profiles`).
fn table1(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Table 1: Selected Web Traces (paper target vs measured)",
    )?;

    let mut table = Table::new(vec![
        "Trace",
        "Period",
        "Requests",
        "Total GB",
        "Inf.Cache GB",
        "Clients",
        "Max HR %",
        "Max BHR %",
    ]);
    for profile in Profile::all() {
        let (_, stats) = load_profile(profile, cli);
        let t = profile.targets();
        table.row(vec![
            format!("{} (paper)", profile.name()),
            profile.period().to_owned(),
            format!("{}", t.requests),
            format!("{:.2}", t.total_gb),
            format!("{:.2}", t.infinite_gb),
            format!("{}", t.clients),
            anchor(t.max_hit_ratio, !t.approx),
            pct(t.max_byte_hit_ratio),
        ]);
        table.row(vec![
            format!("{} (ours)", profile.name()),
            "synthetic".to_owned(),
            format!("{}", stats.requests),
            format!("{:.2}", stats.total_gb()),
            format!("{:.2}", stats.infinite_gb()),
            format!("{}", stats.clients),
            pct(stats.max_hit_ratio),
            pct(stats.max_byte_hit_ratio),
        ]);
    }
    emit(out, cli, &table)?;
    if cli.scale < 1.0 {
        writeln!(
            out,
            "\n(note: run at --scale {}; paper columns describe full-size traces)",
            cli.scale
        )?;
    }
    Ok(())
}

/// Figure 2: hit ratios and byte hit ratios of the five caching
/// organizations on the NLANR-uc trace, with browser caches set to the
/// *minimum* size (proxy/n) and the proxy cache scaled across
/// {0.5, 1, 5, 10, 20}% of the infinite cache size.
///
/// Paper anchors: browsers-aware is highest everywhere; its hit ratios run
/// up to ~10.94 points and byte hit ratios ~9.34 points above
/// proxy-and-local-browser; local-browser-cache-only is lowest;
/// proxy-and-local-browser only slightly beats proxy-cache-only.
fn fig2(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Figure 2: five caching organizations on NLANR-uc (min browser cache)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrUc, cli);

    // All five organizations' scale sweeps share one worker pool.
    let orgs = Organization::all();
    let runs = sweep_orgs(&trace, &stats, &orgs, |_| BrowserSizing::Minimum);

    for (byte, title) in [(false, "Hit ratios (%)"), (true, "Byte hit ratios (%)")] {
        let mut table = Table::new(points_header("organization", &PROXY_SCALE_POINTS));
        for (org, results) in orgs.iter().zip(&runs) {
            table.row(ratio_row(org.name(), results, byte));
        }
        emit_by_proxy_size(out, cli, title, &table)?;
    }

    // Anchor check: max gain of browsers-aware over proxy-and-local-browser.
    let of = |org: Organization| {
        let i = orgs.iter().position(|o| *o == org);
        &runs[i.expect("all() lists every organization")]
    };
    let baps = of(Organization::BrowsersAware);
    let plb = of(Organization::ProxyAndLocalBrowser);
    writeln!(
        out,
        "max browsers-aware gain over proxy-and-local-browser: +{:.2} HR points \
         (paper: up to ~10.94), +{:.2} BHR points (paper: ~9.34)",
        max_gain(baps, plb, RunResult::hit_ratio),
        max_gain(baps, plb, RunResult::byte_hit_ratio)
    )
}

/// Figure 3: breakdowns of the browsers-aware proxy server's hit ratios and
/// byte hit ratios on NLANR-uc (minimum browser caches): how much is served
/// by the local browser, the proxy cache, and remote browser caches.
///
/// Paper anchor: the remote-browsers share is non-negligible even at very
/// small browser cache sizes.
fn fig3(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Figure 3: browsers-aware hit-ratio breakdowns on NLANR-uc (min browser cache)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrUc, cli);
    let runs = sweep_orgs(&trace, &stats, &[Organization::BrowsersAware], |_| {
        BrowserSizing::Minimum
    })
    .pop()
    .expect("one organization in, one sweep out");

    let classes: [(&str, &[Served]); 3] = [
        ("local-browser", &[Served::LocalBrowser]),
        ("proxy", PROXY_TIERS),
        ("remote-browsers", &[Served::Peer]),
    ];
    for (byte, title) in [
        (false, "Hit ratio breakdown (%)"),
        (true, "Byte hit ratio breakdown (%)"),
    ] {
        let mut table = Table::new(points_header("component", &PROXY_SCALE_POINTS));
        for (label, class) in classes {
            let cells: Vec<String> = std::iter::once(label.to_owned())
                .chain(runs.iter().map(|r| {
                    pct(if byte {
                        r.metrics.class_byte_ratio(class)
                    } else {
                        r.metrics.class_ratio(class)
                    })
                }))
                .collect();
            table.row(cells);
        }
        table.row(ratio_row("total", &runs, byte));
        emit_by_proxy_size(out, cli, title, &table)?;
    }
    let min_remote = runs
        .iter()
        .map(|r| r.metrics.class_ratio(&[Served::Peer]))
        .fold(f64::MAX, f64::min);
    writeln!(
        out,
        "remote-browser share is at least {:.2}% of all requests across the sweep \
         (paper: \"should not be neglected even when the browser cache size is very small\")",
        min_remote
    )
}

/// Figs. 4–7: hit ratios and byte hit ratios of browsers-aware vs
/// proxy-and-local-browser at each proxy scale point, with browser caches
/// scaled by the same fraction of the average infinite browser cache
/// ("average" sizing).
fn two_org_figure(profile: Profile, figure: &str, cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        &format!(
            "{figure}: {} — browsers-aware vs proxy-and-local-browser (avg browser cache)",
            profile.name()
        ),
    )?;
    let (trace, stats) = load_profile(profile, cli);
    let mut runs = sweep_orgs(
        &trace,
        &stats,
        &[
            Organization::BrowsersAware,
            Organization::ProxyAndLocalBrowser,
        ],
        BrowserSizing::FractionOfClientInfinite,
    )
    .into_iter();
    let baps = runs.next().expect("browsers-aware sweep");
    let plb = runs.next().expect("proxy-and-local-browser sweep");

    let mut hr = Table::new(points_header("series", &PROXY_SCALE_POINTS));
    let mut bhr = hr.clone();
    hr.row(ratio_row("browsers-aware-proxy-server", &baps, false));
    hr.row(ratio_row("proxy-and-local-browser", &plb, false));
    bhr.row(ratio_row("browsers-aware-proxy-server", &baps, true));
    bhr.row(ratio_row("proxy-and-local-browser", &plb, true));

    if cli.csv {
        writeln!(out, "# hit ratios (%)\n{}", hr.to_csv())?;
        writeln!(out, "# byte hit ratios (%)\n{}", bhr.to_csv())?;
    } else {
        writeln!(
            out,
            "Hit ratios (%) by proxy cache size (% of infinite cache):"
        )?;
        write!(out, "{}", hr.render())?;
        writeln!(out, "\nByte hit ratios (%):")?;
        write!(out, "{}", bhr.render())?;
    }
    writeln!(
        out,
        "\nmax gain of browsers-aware over proxy-and-local-browser: \
         +{:.2} points hit ratio, +{:.2} points byte hit ratio",
        max_gain(&baps, &plb, RunResult::hit_ratio),
        max_gain(&baps, &plb, RunResult::byte_hit_ratio)
    )
}

/// Figure 8: hit-ratio and byte-hit-ratio *increments* of the
/// browsers-aware proxy server over proxy-and-local-browser as the client
/// population grows (25% → 100% of clients), proxy cache fixed at 10% of
/// the full trace's infinite cache size.
///
/// Paper anchors: increments grow with the number of clients; e.g. BU-98's
/// hit-ratio increment rises 5.7 → 13.3 → 16.87 → 19.3 % and BU-95's
/// byte-hit-ratio increment rises 4.33 → 20.17 → 24.82 → 28.8 %.
fn fig8(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Figure 8: increment of browsers-aware over proxy-and-local-browser vs #clients",
    )?;

    let mut hr = Table::new(points_header("trace", &CLIENT_SCALE_POINTS));
    let mut bhr = hr.clone();
    for profile in [Profile::NlanrBo1, Profile::Bu95, Profile::Bu98] {
        let (trace, stats) = load_profile(profile, cli);
        let mut base = SystemConfig::paper_default(Organization::BrowsersAware, 0);
        base.browser_sizing = BrowserSizing::FractionOfClientInfinite(0.10);
        let proxy_capacity = (stats.infinite_cache_bytes / 10).max(1);
        let points = run_scaling(
            &trace,
            &CLIENT_SCALE_POINTS,
            proxy_capacity,
            &base,
            &LatencyParams::paper(),
            profile.canonical_seed(),
        );
        hr.row(
            std::iter::once(profile.name().to_owned())
                .chain(points.iter().map(|p| pct(p.hit_ratio_increment())))
                .collect::<Vec<_>>(),
        );
        bhr.row(
            std::iter::once(profile.name().to_owned())
                .chain(points.iter().map(|p| pct(p.byte_hit_ratio_increment())))
                .collect::<Vec<_>>(),
        );
    }

    if cli.csv {
        writeln!(out, "# hit ratio increment (%)\n{}", hr.to_csv())?;
        writeln!(out, "# byte hit ratio increment (%)\n{}", bhr.to_csv())
    } else {
        writeln!(
            out,
            "Hit-ratio increment (%) vs relative number of clients:"
        )?;
        write!(out, "{}", hr.render())?;
        writeln!(
            out,
            "(paper anchor: BU-98 rises 5.7 -> 13.3 -> 16.87 -> 19.3)"
        )?;
        writeln!(
            out,
            "\nByte-hit-ratio increment (%) vs relative number of clients:"
        )?;
        write!(out, "{}", bhr.render())?;
        writeln!(
            out,
            "(paper anchor: BU-95 rises 4.33 -> 20.17 -> 24.82 -> 28.8)"
        )
    }
}

/// §4.2 memory byte-hit-ratio comparison.
///
/// The paper picks two operating points with nearly equal byte hit ratios —
/// browsers-aware at 5% of the infinite cache size vs proxy-and-local-browser
/// at 10% — and shows the browsers-aware system serves far more of those
/// bytes from *memory* (3.5% vs 1.9% memory byte hit ratio), cutting total
/// hit latency by ~5.2%, because browser caches add RAM capacity that scales
/// with the client population.
fn memhit(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "§4.2: memory byte hit ratios at equivalent byte hit ratios (NLANR-uc)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrUc, cli);

    // Paper defaults: minimum browser caches, memory = 1/10 of each cache.
    let mk = |org: Organization, frac: f64| {
        SystemConfig::paper_default(
            org,
            ((stats.infinite_cache_bytes as f64 * frac).round() as u64).max(1),
        )
    };
    let latency = LatencyParams::paper();
    let replay = |cfg: &SystemConfig| run(&trace, &stats, cfg, &latency);
    let plb = replay(&mk(Organization::ProxyAndLocalBrowser, 0.10));
    // Find the browsers-aware proxy size whose *byte hit ratio* matches the
    // baseline's (the paper compares 5% vs 10% because those happened to be
    // equal-BHR points on its traces; our calibrated traces put the
    // crossover elsewhere, so we bisect for it).
    let target_bhr = plb.byte_hit_ratio();
    let (mut lo, mut hi) = (0.01f64, 0.10f64);
    let mut baps = replay(&mk(Organization::BrowsersAware, hi));
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        let r = replay(&mk(Organization::BrowsersAware, mid));
        if r.byte_hit_ratio() < target_bhr {
            lo = mid;
        } else {
            hi = mid;
            baps = r;
        }
    }
    let baps_frac = hi;

    let mut table = Table::new(vec![
        "system",
        "proxy size",
        "HR %",
        "BHR %",
        "mem BHR %",
        "hit latency (s)",
    ]);
    // Hit latency: everything except the WAN (miss) component.
    let hit_lat = |r: &RunResult| r.latency.total_ms() - r.latency.wan_ms;
    let baps_label = format!("{:.1}%", baps_frac * 100.0);
    for (label, size, r) in [
        ("browsers-aware-proxy-server", baps_label.as_str(), &baps),
        ("proxy-and-local-browser", "10%", &plb),
    ] {
        table.row(vec![
            label.to_owned(),
            size.to_owned(),
            pct(r.hit_ratio()),
            pct(r.byte_hit_ratio()),
            pct(r.metrics.mem_byte_hit_ratio()),
            format!("{:.1}", hit_lat(r) / 1000.0),
        ]);
    }
    emit(out, cli, &table)?;

    writeln!(
        out,
        "\nbyte hit ratios at these points: {} vs {} (paper: 13.6 vs 13.9 — \
         approximately equal by construction)",
        pct(baps.byte_hit_ratio()),
        pct(plb.byte_hit_ratio())
    )?;
    writeln!(
        out,
        "memory byte hit ratio, conservative 1/10 browser memory: {} vs {} \
         (paper, same 1/10 assumption: 3.5% vs 1.9%)",
        pct(baps.metrics.mem_byte_hit_ratio()),
        pct(plb.metrics.mem_byte_hit_ratio()),
    )?;

    // The paper's §1 motivates RAM-resident browser caches ("browser cache
    // in memory"); with that realistic setting the browsers-aware system's
    // extra memory pool is visible directly.
    let mut ram_cfg = mk(Organization::BrowsersAware, baps_frac);
    ram_cfg.browser_mem_fraction = Some(1.0);
    let baps_ram = replay(&ram_cfg);
    writeln!(
        out,
        "memory byte hit ratio with RAM-resident browser caches: {} vs {} \
         (browsers-aware serves {:.1}x more bytes from memory)",
        pct(baps_ram.metrics.mem_byte_hit_ratio()),
        pct(plb.metrics.mem_byte_hit_ratio()),
        baps_ram.metrics.mem_byte_hit_ratio() / plb.metrics.mem_byte_hit_ratio().max(1e-9),
    )?;
    let reduction = 100.0 * (hit_lat(&plb) - hit_lat(&baps_ram)) / hit_lat(&plb).max(1e-9);
    writeln!(
        out,
        "hit-latency change (RAM browsers) of browsers-aware vs baseline: {:.2}% \
         (paper: ~5.2% reduction; positive = faster)",
        reduction
    )
}

/// §5 overhead estimation. Three claims to reproduce:
///
/// 1. Remote-browser communication (transfer + bus contention) is a tiny
///    fraction of total service time — paper: < 1.2% on every trace, with
///    contention ≤ 0.12% of communication time.
/// 2. Delayed index updates (1%–10% staleness thresholds) degrade the hit
///    ratio only slightly — paper (citing Summary Cache): 0.2%–1.7%.
/// 3. The browser index is small: ~28 MB for 1000 clients with 8 MB browser
///    caches of 8 KB objects (16-byte MD5 signature per entry), and Bloom
///    summaries shrink it by another order of magnitude.
fn overhead(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    let latency = LatencyParams::paper();

    banner(
        out,
        "§5a: remote-browser communication overhead (BAPS, 10% proxy, min browsers)",
    )?;
    let mut comm = Table::new(vec![
        "trace",
        "remote comm (s)",
        "contention (s)",
        "total service (s)",
        "comm % of total",
        "contention % of comm",
    ]);
    for profile in Profile::all() {
        let (trace, stats) = load_profile(profile, cli);
        let r = run(&trace, &stats, &baps_at_tenth(&stats), &latency);
        comm.row(vec![
            profile.name().to_owned(),
            format!("{:.1}", r.latency.remote_comm_ms / 1000.0),
            format!("{:.3}", r.latency.contention_ms / 1000.0),
            format!("{:.1}", r.latency.total_ms() / 1000.0),
            pct(r.latency.remote_overhead_pct()),
            pct(r.latency.contention_pct_of_comm()),
        ]);
    }
    emit(out, cli, &comm)?;
    writeln!(
        out,
        "(paper: communication < 1.2% of service time; contention <= 0.12% of comm time)\n"
    )?;

    banner(
        out,
        "§5b: hit-ratio degradation under delayed / compressed index updates (NLANR-uc)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrUc, cli);
    let models = [
        IndexModel::Exact,
        IndexModel::Delayed { threshold: 0.01 },
        IndexModel::Delayed { threshold: 0.10 },
        IndexModel::Bloom {
            bits_per_item: 10,
            threshold: 0.05,
        },
    ];
    let runs: Vec<_> = models
        .iter()
        .map(|&index_model| {
            let cfg = SystemConfig {
                index_model,
                ..baps_at_tenth(&stats)
            };
            (index_model, run(&trace, &stats, &cfg, &latency))
        })
        .collect();
    let exact_hr = runs[0].1.hit_ratio();
    let mut staleness = Table::new(vec![
        "index model",
        "HR %",
        "degradation (pts)",
        "wasted probes",
        "update msgs",
        "update traffic",
        "index memory",
    ]);
    for (model, r) in &runs {
        staleness.row(vec![
            model.label(),
            pct(r.hit_ratio()),
            format!("{:.2}", exact_hr - r.hit_ratio()),
            format!("{}", r.metrics.wasted_probes),
            format!("{}", r.index_stats.messages),
            human_bytes(r.index_stats.update_bytes),
            human_bytes(r.index_memory_bytes),
        ]);
    }
    emit(out, cli, &staleness)?;
    writeln!(
        out,
        "(paper: 1%-10% delay thresholds degrade hit ratios by only ~0.2%-1.7%)\n"
    )?;

    banner(out, "§5c: index space for the paper's sizing example")?;
    // 1000 clients, 8 MB browser caches, 8 KB average documents.
    let clients: u64 = 1000;
    let docs_per_client: u64 = (8 << 20) / (8 << 10);
    let exact_bytes = clients * docs_per_client * BYTES_PER_ENTRY;
    let md5_only = clients * docs_per_client * 16;
    let bloom_bytes = clients * docs_per_client * 10 / 8;
    writeln!(
        out,
        "1000 clients x 8 MB browsers of 8 KB docs = {} entries",
        clients * docs_per_client
    )?;
    writeln!(
        out,
        "  16-byte MD5 signatures alone:   {}",
        human_bytes(md5_only)
    )?;
    writeln!(
        out,
        "  exact directory (ours, {}B/entry): {}",
        BYTES_PER_ENTRY,
        human_bytes(exact_bytes)
    )?;
    writeln!(
        out,
        "  Bloom summaries (10 bits/doc):   {}  (paper: ~2 MB with tolerable inaccuracy)",
        human_bytes(bloom_bytes)
    )
}

/// "How much is browser cache data sharable?" — the paper's §4.1 question,
/// answered directly from the traces: cross-client re-reference rates,
/// shared-document fractions, and the implied upper bound on any
/// peer-sharing hit ratio.
fn sharing(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(out, "§4.1: sharable data locality across the five traces")?;
    let mut table = Table::new(vec![
        "trace",
        "unique docs",
        "shared docs %",
        "mean sharers",
        "cross-client rerefs %",
        "cross-client bytes %",
        "self rerefs %",
    ]);
    for profile in Profile::all() {
        let (trace, _) = load_profile(profile, cli);
        let s = SharingStats::compute(&trace);
        table.row(vec![
            profile.name().to_owned(),
            format!("{}", s.unique_docs()),
            pct(s.shared_doc_pct()),
            format!("{:.1}", s.mean_sharers),
            pct(s.sharable_request_pct()),
            pct(s.sharable_byte_pct()),
            pct(100.0 * s.self_rerefs as f64 / s.requests.max(1) as f64),
        ]);
    }
    emit(out, cli, &table)?;
    writeln!(
        out,
        "\nCross-client re-references upper-bound what *any* sharing scheme (proxy or\n\
         browsers-aware) can serve from another client's history; the browsers-aware\n\
         proxy harvests the slice of them whose holder still caches the document\n\
         after the proxy evicted it. CA*netII's 3 clients leave little to share —\n\
         the Fig. 7 limit case."
    )
}

fn time_ms<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1000.0 / iters as f64
}

/// §6 reliability protocols: integrity + anonymity overhead.
///
/// The paper claims the data-integrity (digital watermark) and
/// communication-anonymity protocols add trivial overhead. This measures
/// the protocol operations on synthetic documents across the Web size
/// spectrum — the only wall-clock numbers in the suite — and compares them
/// against the 100 Mbps LAN transfer time of the same documents.
fn security(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "§6: integrity + anonymity protocol overhead vs LAN transfer time",
    )?;

    let mut rng = StdRng::seed_from_u64(6);
    let signer = ProxySigner::generate(&mut rng);
    let requester_keys = KeyPair::generate(&mut rng);
    let target_keys = KeyPair::generate(&mut rng);
    let latency = LatencyParams::paper();

    let mut table = Table::new(vec![
        "doc size",
        "watermark sign (ms)",
        "verify (ms)",
        "secure relay e2e (ms)",
        "LAN transfer (ms)",
        "integrity % of LAN",
    ]);
    let iters = if cli.scale < 1.0 { 5 } else { 20 };
    for size in [1usize << 10, 8 << 10, 64 << 10, 1 << 20] {
        let mut doc = vec![0u8; size];
        rng.fill(doc.as_mut_slice());
        let wm = signer.watermark(&doc);

        let sign_ms = time_ms(iters, || signer.watermark(&doc));
        let verify_ms = time_ms(iters, || {
            verify_document(&signer.public_key(), &doc, &wm).expect("own watermark verifies")
        });
        let relay_ms = time_ms(iters, || {
            let mut relay = SecureRelay::new();
            let sealed = relay
                .begin(&mut rng, PeerId(1), &target_keys.public, "u")
                .expect("relay seals to a fresh key");
            let reply = target_serve(&mut rng, &target_keys, &sealed, &doc, wm)
                .expect("target opens its own envelope");
            let (_, delivery) = relay
                .complete(reply, &requester_keys.public)
                .expect("relay completes the session it began");
            requester_open(&requester_keys, &delivery).expect("requester opens its delivery")
        });
        let lan_ms = latency.lan_ms(size as u64);
        table.row(vec![
            format!("{} KB", size >> 10),
            format!("{sign_ms:.3}"),
            format!("{verify_ms:.3}"),
            format!("{relay_ms:.3}"),
            format!("{lan_ms:.3}"),
            format!("{:.2}", 100.0 * (sign_ms + verify_ms) / lan_ms),
        ]);
    }
    emit(out, cli, &table)?;
    writeln!(
        out,
        "\n(paper §6: \"the associated overheads are trivial\" — integrity costs are a few\n\
         percent of a single LAN transfer; the secure relay adds symmetric encryption,\n\
         which is the dominant cost but still commensurate with one transfer.)"
    )
}

/// Ablation studies on the design choices DESIGN.md calls out (these go
/// beyond the paper's evaluation):
///
/// * replacement policy: LRU (paper) vs LFU / GDSF / SIZE / FIFO;
/// * remote-hit caching: whether the requester and/or proxy re-cache
///   documents forwarded from peer browsers;
/// * index model: exact vs delayed vs Bloom summaries (hit ratio vs index
///   memory trade-off);
/// * peer-serve promotion and document TTL.
fn ablation(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    let latency = LatencyParams::paper();
    let (trace, stats) = load_profile(Profile::NlanrUc, cli);
    let base = baps_at_tenth(&stats);
    let sweep = |configs: &[SystemConfig]| run_sweep(&trace, &stats, configs, &latency);

    banner(
        out,
        "Ablation A: replacement policy (BAPS, NLANR-uc, 10% proxy)",
    )?;
    let policies = Policy::all();
    let runs = sweep(&policies.map(|policy| SystemConfig { policy, ..base }));
    let mut t = Table::new(vec!["policy", "HR %", "BHR %"]);
    for (policy, r) in policies.iter().zip(&runs) {
        t.row(vec![
            policy.name().to_owned(),
            pct(r.hit_ratio()),
            pct(r.byte_hit_ratio()),
        ]);
    }
    emit(out, cli, &t)?;
    writeln!(out)?;

    banner(out, "Ablation B: remote-hit caching policy")?;
    let options = [
        ("no-caching (paper)", RemoteHitCaching::NoCaching),
        ("cache-at-requester", RemoteHitCaching::CacheAtRequester),
        ("cache-at-proxy", RemoteHitCaching::CacheAtProxy),
        ("cache-both", RemoteHitCaching::CacheBoth),
    ];
    let runs = sweep(&options.map(|(_, remote_hit_caching)| SystemConfig {
        remote_hit_caching,
        ..base
    }));
    let mut t = Table::new(vec!["remote-hit caching", "HR %", "BHR %", "remote hits"]);
    for ((label, _), r) in options.iter().zip(&runs) {
        t.row(vec![
            (*label).to_owned(),
            pct(r.hit_ratio()),
            pct(r.byte_hit_ratio()),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
        ]);
    }
    emit(out, cli, &t)?;
    writeln!(out)?;

    banner(out, "Ablation C: index model (hit ratio vs index memory)")?;
    let models = [
        IndexModel::Exact,
        IndexModel::Delayed { threshold: 0.05 },
        IndexModel::Bloom {
            bits_per_item: 16,
            threshold: 0.05,
        },
        IndexModel::Bloom {
            bits_per_item: 8,
            threshold: 0.05,
        },
        IndexModel::CountingBloom {
            slots: 16_384,
            threshold: 0.05,
        },
    ];
    let runs = sweep(&models.map(|index_model| SystemConfig {
        index_model,
        ..base
    }));
    let mut t = Table::new(vec![
        "index model",
        "HR %",
        "remote hits",
        "wasted probes",
        "update traffic",
        "index memory",
    ]);
    for (model, r) in models.iter().zip(&runs) {
        t.row(vec![
            model.label(),
            pct(r.hit_ratio()),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
            format!("{}", r.metrics.wasted_probes),
            human_bytes(r.index_stats.update_bytes),
            human_bytes(r.index_memory_bytes),
        ]);
    }
    emit(out, cli, &t)?;
    writeln!(out)?;

    banner(
        out,
        "Ablation D: peer-serve promotion (does serving a peer count as an access?)",
    )?;
    let options = [("promote (LRU semantics)", true), ("no promotion", false)];
    let runs = sweep(&options.map(|(_, peer_serve_promotes)| SystemConfig {
        peer_serve_promotes,
        ..base
    }));
    let mut t = Table::new(vec!["peer-serve policy", "HR %", "remote hits", "mem hits"]);
    for ((label, _), r) in options.iter().zip(&runs) {
        t.row(vec![
            (*label).to_owned(),
            pct(r.hit_ratio()),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
            format!("{}", r.metrics.mem_hits),
        ]);
    }
    emit(out, cli, &t)?;
    writeln!(out)?;

    banner(out, "Ablation E: document TTL (consistency vs hit ratio)")?;
    let hour = 60 * 60 * 1000u64;
    let ttls: [(&str, Option<u64>); 4] = [
        ("none (paper)", None),
        ("24 h", Some(24 * hour)),
        ("1 h", Some(hour)),
        ("5 min", Some(5 * 60 * 1000)),
    ];
    let runs = sweep(&ttls.map(|(_, ttl_ms)| SystemConfig { ttl_ms, ..base }));
    let mut t = Table::new(vec![
        "TTL",
        "HR %",
        "revalidations",
        "revalidation time (s)",
        "remote hits",
    ]);
    for ((label, _), r) in ttls.iter().zip(&runs) {
        t.row(vec![
            (*label).to_owned(),
            pct(r.hit_ratio()),
            format!("{}", r.metrics.revalidations),
            format!("{:.0}", r.latency.revalidation_ms / 1000.0),
            format!("{}", r.metrics.served(&[Served::Peer]).count),
        ]);
    }
    emit(out, cli, &t)
}

/// Service-time distributions (extension of the paper's §5 aggregate
/// analysis): per-hit-class latency percentiles for browsers-aware vs
/// proxy-and-local-browser, showing exactly what the 0.1 s peer-connection
/// setup costs and what the avoided WAN fetches save.
fn latency(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    fn row(label: &str, h: &LatencyHistogram) -> Vec<String> {
        vec![
            label.to_owned(),
            format!("{}", h.count()),
            format!("{:.3}", h.mean_ms()),
            format!("{:.3}", h.quantile_ms(0.50)),
            format!("{:.3}", h.quantile_ms(0.90)),
            format!("{:.3}", h.quantile_ms(0.99)),
            format!("{:.1}", h.max_ms()),
        ]
    }

    banner(
        out,
        "Service-time distributions (NLANR-bo1, 10% proxy, min browsers, 10% warm-up)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrBo1, cli);
    let opts = RunOptions { warmup_frac: 0.10 };
    let params = LatencyParams::paper();

    for organization in [
        Organization::BrowsersAware,
        Organization::ProxyAndLocalBrowser,
    ] {
        let cfg = SystemConfig {
            organization,
            ..baps_at_tenth(&stats)
        };
        let r = run_with_options(&trace, &stats, &cfg, &params, &opts);
        let h = &r.histograms;
        writeln!(
            out,
            "{} — per-request service time (ms):",
            organization.name()
        )?;
        let mut table = Table::new(vec![
            "class", "requests", "mean", "p50", "p90", "p99", "max",
        ]);
        table.row(row("local-browser", &h.served(&[Served::LocalBrowser])));
        table.row(row("proxy", &h.served(PROXY_TIERS)));
        table.row(row("remote-browsers", &h.served(&[Served::Peer])));
        table.row(row("miss (WAN)", &h.served(&[Served::Origin])));
        table.row(row("all", &h.all));
        emit(out, cli, &table)?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Remote-browser hits sit between proxy hits and WAN fetches (connection\n\
         setup dominates small documents), which is why converting misses into\n\
         remote hits lowers mean service time even though remote hits are slower\n\
         than proxy hits."
    )
}

/// Extension: two-level proxy hierarchies with browsers-aware groups.
///
/// The paper's miss path goes to "an upper level proxy"; its follow-up
/// (TKDE 2004) builds a hybrid hierarchy. This experiment quantifies what
/// browsers-awareness adds at each scope on top of a parent proxy:
/// plain hierarchy vs per-group indexes vs a global index, across group
/// counts.
fn hierarchy(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Extension: two-level hierarchy with browsers-aware groups (NLANR-bo1)",
    )?;
    let (trace, stats) = load_profile(Profile::NlanrBo1, cli);
    let latency = LatencyParams::paper();

    let mut table = Table::new(vec![
        "groups", "sharing", "HR %", "BHR %", "local %", "L1 %", "remote %", "L2 %",
    ]);
    for n_groups in [2u32, 4, 8] {
        for mode in [
            SharingMode::NoSharing,
            SharingMode::GroupBrowsersAware,
            SharingMode::GlobalBrowsersAware,
        ] {
            let cfg = HierarchyConfig::from_stats(&stats, n_groups, mode);
            let s = run_hierarchy(&trace, &cfg, &latency);
            table.row(vec![
                format!("{n_groups}"),
                mode.label().to_owned(),
                pct(s.metrics.hit_ratio()),
                pct(s.metrics.byte_hit_ratio()),
                pct(s.metrics.class_ratio(HierHit::LocalBrowser)),
                pct(s.metrics.class_ratio(HierHit::L1Proxy)),
                pct(s.metrics.class_ratio(HierHit::RemoteBrowser)),
                pct(s.metrics.class_ratio(HierHit::L2Proxy)),
            ]);
        }
    }
    emit(out, cli, &table)?;
    writeln!(
        out,
        "\nBrowsers-awareness composes with the hierarchy: group indexes recover\n\
         capacity lost to L1 partitioning, and a global index adds the cross-group\n\
         sharing a parent proxy alone cannot provide."
    )
}

/// Calibration helper (developer tool): searches generator parameters per
/// profile so the synthetic traces hit the paper's Table 1 anchors
/// (max hit ratio and max byte hit ratio), at `--scale` of the full traces.
///
/// Run it after changing the generator and copy the printed parameters
/// into `baps-trace/src/profiles.rs`.
fn calibrate(cli: Cli, out: &mut dyn Write) -> io::Result<()> {
    let scale = cli.scale;
    let measure = |cfg: &SynthConfig, seed: u64| -> (f64, f64, f64, f64) {
        let stats = TraceStats::compute(&cfg.scaled(scale).generate(seed));
        (
            stats.max_hit_ratio,
            stats.max_byte_hit_ratio,
            stats.total_gb() / scale,
            stats.infinite_gb() / scale,
        )
    };
    for profile in Profile::all() {
        let target = profile.targets();
        let mut cfg = profile.config();
        let seed = profile.canonical_seed();

        // 1. Binary-search the doc universe for the max hit ratio.
        let (mut lo, mut hi) = (cfg.n_requests as f64 * 0.05, cfg.n_requests as f64 * 3.0);
        for _ in 0..13 {
            let mid = (lo + hi) / 2.0;
            cfg.n_docs = (mid as u32).max(cfg.n_clients);
            let (hr, ..) = measure(&cfg, seed);
            if hr > target.max_hit_ratio {
                lo = mid; // too much locality: more docs
            } else {
                hi = mid;
            }
        }

        // 2. If the universe alone cannot reach the target, tune temporal
        // locality (more of it raises the hit ratio).
        let (hr_now, ..) = measure(&cfg, seed);
        if (hr_now - target.max_hit_ratio).abs() > 1.0 {
            let (mut tlo, mut thi) = (0.0f64, 0.8f64);
            for _ in 0..10 {
                let mid = (tlo + thi) / 2.0;
                cfg.p_temporal = mid;
                let (hr, ..) = measure(&cfg, seed);
                if hr > target.max_hit_ratio {
                    thi = mid;
                } else {
                    tlo = mid;
                }
            }
        }

        // 3. Binary-search the popularity-size bias for max byte hit ratio.
        let (mut blo, mut bhi) = (0.0f64, 1.0f64);
        for _ in 0..10 {
            let mid = (blo + bhi) / 2.0;
            cfg.pop_size_bias = mid;
            let (_, bhr, ..) = measure(&cfg, seed);
            if bhr > target.max_byte_hit_ratio {
                blo = mid; // still too high: stronger bias
            } else {
                bhi = mid;
            }
        }

        // 4. Scale the size model so total GB matches.
        let (hr, bhr, total_gb, inf_gb) = measure(&cfg, seed);
        let size_mult = target.total_gb / total_gb;
        cfg.size_model.body_median *= size_mult;
        cfg.size_model.tail_scale *= size_mult;
        let (hr2, bhr2, total2, inf2) = measure(&cfg, seed);

        writeln!(out, "--- {} (scale {scale}) ---", profile.name())?;
        writeln!(
            out,
            "  pass1: HR {hr:.2} (target {:.1})  BHR {bhr:.2} (target {:.2})  total {total_gb:.2} inf {inf_gb:.2}",
            target.max_hit_ratio, target.max_byte_hit_ratio
        )?;
        writeln!(
            out,
            "  final: HR {hr2:.2}  BHR {bhr2:.2}  total {total2:.2} (target {:.1})  inf {inf2:.2} (target {:.1})",
            target.total_gb, target.infinite_gb
        )?;
        writeln!(
            out,
            "  params: n_docs = {}, p_temporal = {:.3}, pop_size_bias = {:.3}, body_median = {:.0}, tail_scale = {:.0}",
            cfg.n_docs,
            cfg.p_temporal,
            cfg.pop_size_bias,
            cfg.size_model.body_median,
            cfg.size_model.tail_scale
        )?;
    }
    Ok(())
}
