//! Workspace integration tests: trace generation → simulation → metrics,
//! exercising the public facade the way a downstream user would.

use baps::core::{LatencyParams, Served, PROXY_TIERS};
use baps::sim::{
    run, run_simple, run_sweep, scale_configs, BrowserSizing, Organization, RemoteHitCaching,
    SystemConfig, PROXY_SCALE_POINTS,
};
use baps::trace::{Profile, SynthConfig, TraceStats};

fn trace() -> baps::trace::Trace {
    SynthConfig::small().scaled(0.4).generate(2002)
}

#[test]
fn five_organizations_ordering() {
    let trace = trace();
    let stats = TraceStats::compute(&trace);
    let proxy_capacity = (stats.infinite_cache_bytes / 20).max(1);
    let run_org = |org| {
        run(
            &trace,
            &stats,
            &SystemConfig::paper_default(org, proxy_capacity),
            &LatencyParams::paper(),
        )
    };
    let proxy_only = run_org(Organization::ProxyOnly);
    let browser_only = run_org(Organization::LocalBrowserOnly);
    let global = run_org(Organization::GlobalBrowsersOnly);
    let plb = run_org(Organization::ProxyAndLocalBrowser);
    let baps = run_org(Organization::BrowsersAware);

    // The paper's qualitative ordering (§4.1).
    assert!(baps.hit_ratio() >= plb.hit_ratio(), "BAPS >= P+LB");
    assert!(baps.hit_ratio() > proxy_only.hit_ratio(), "BAPS > P-only");
    assert!(baps.hit_ratio() > global.hit_ratio(), "BAPS > GB-only");
    assert!(
        plb.hit_ratio() >= proxy_only.hit_ratio(),
        "P+LB >= P-only (local browser adds a little)"
    );
    assert!(
        browser_only.hit_ratio() < plb.hit_ratio(),
        "B-only lowest among proxy-ful systems"
    );
    // Everything bounded by the infinite-cache maximum.
    for r in [&proxy_only, &browser_only, &global, &plb, &baps] {
        assert!(r.hit_ratio() <= stats.max_hit_ratio + 1e-9);
        assert!(r.byte_hit_ratio() <= stats.max_byte_hit_ratio + 1e-9);
    }
}

#[test]
fn browsers_aware_gain_comes_from_remote_hits() {
    let trace = trace();
    let stats = TraceStats::compute(&trace);
    let proxy_capacity = (stats.infinite_cache_bytes / 20).max(1);
    let baps = run(
        &trace,
        &stats,
        &SystemConfig::paper_default(Organization::BrowsersAware, proxy_capacity),
        &LatencyParams::paper(),
    );
    let plb = run(
        &trace,
        &stats,
        &SystemConfig::paper_default(Organization::ProxyAndLocalBrowser, proxy_capacity),
        &LatencyParams::paper(),
    );
    assert!(baps.metrics.served(&[Served::Peer]).count > 0);
    let gain_requests =
        (baps.hit_ratio() - plb.hit_ratio()) / 100.0 * baps.metrics.requests() as f64;
    // The entire hit-count gain must be attributable to remote-browser hits
    // (local/proxy classes can shift slightly, hence the inequality).
    assert!(
        baps.metrics.served(&[Served::Peer]).count as f64 >= gain_requests - 1.0,
        "remote hits {} cannot explain gain {gain_requests}",
        baps.metrics.served(&[Served::Peer]).count
    );
}

#[test]
fn larger_proxies_help_monotonically() {
    let trace = trace();
    let stats = TraceStats::compute(&trace);
    let base = SystemConfig::paper_default(Organization::BrowsersAware, 0);
    let configs = scale_configs(&base, stats.infinite_cache_bytes, &PROXY_SCALE_POINTS);
    let results = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());
    for pair in results.windows(2) {
        assert!(
            pair[1].hit_ratio() >= pair[0].hit_ratio() - 0.5,
            "hit ratio should not collapse as the proxy grows"
        );
    }
}

#[test]
fn breakdown_sums_to_hit_ratio() {
    let trace = trace();
    let cfg = SystemConfig::paper_default(Organization::BrowsersAware, 1 << 22);
    let r = run_simple(&trace, &cfg);
    let sum = r.metrics.class_ratio(&[Served::LocalBrowser])
        + r.metrics.class_ratio(PROXY_TIERS)
        + r.metrics.class_ratio(&[Served::Peer]);
    assert!((sum - r.hit_ratio()).abs() < 1e-9);
    let with_miss = sum + r.metrics.class_ratio(&[Served::Origin]);
    assert!((with_miss - 100.0).abs() < 1e-9);
}

#[test]
fn remote_hit_caching_increases_local_hits() {
    let trace = trace();
    let stats = TraceStats::compute(&trace);
    let mut cfg = SystemConfig::paper_default(
        Organization::BrowsersAware,
        (stats.infinite_cache_bytes / 50).max(1),
    );
    // The paper's "average" browser, k × proxy / n with k = 4.
    cfg.browser_sizing = BrowserSizing::Fixed(4 * cfg.proxy_capacity / u64::from(trace.n_clients));
    let no_cache = run(&trace, &stats, &cfg, &LatencyParams::paper());
    cfg.remote_hit_caching = RemoteHitCaching::CacheAtRequester;
    let cache_req = run(&trace, &stats, &cfg, &LatencyParams::paper());
    // Re-caching forwarded copies converts future remote hits into local
    // ones (total hit ratio stays in the same neighbourhood).
    assert!(
        cache_req.metrics.served(&[Served::LocalBrowser]).count
            >= no_cache.metrics.served(&[Served::LocalBrowser]).count,
        "caching at requester should not lose local hits"
    );
}

#[test]
fn profile_generation_matches_targets_roughly() {
    // Scaled-down profile should stay in the target's neighbourhood.
    let trace = Profile::NlanrBo1.generate_scaled(0.05);
    let stats = TraceStats::compute(&trace);
    let targets = Profile::NlanrBo1.targets();
    assert!((stats.max_hit_ratio - targets.max_hit_ratio).abs() < 12.0);
    assert!(stats.max_byte_hit_ratio < stats.max_hit_ratio);
    assert_eq!(stats.clients, targets.clients);
}
