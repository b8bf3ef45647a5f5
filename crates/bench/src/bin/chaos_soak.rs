//! Chaos soak for the live proxy runtime: drive a full loopback
//! [`TestBed`] under a seeded fault schedule and assert the reliability
//! invariants the paper's design promises (§6).
//!
//! Faults injected (all drawn deterministically from `--seed`, see
//! `baps_proxy::fault`): peers that refuse, vanish, stall mid-frame,
//! truncate frames, or corrupt bodies; an origin that 500s, stalls, or
//! hangs up; a proxy that stalls or severs client connections; and full
//! proxy restarts (every open connection dropped at once).
//!
//! Invariants checked:
//!
//! 1. **Correct bytes or a clean error** — every successful fetch returns
//!    the exact origin body (watermark-verified); corruption is never
//!    silently served.
//! 2. **Bounded time** — no fetch exceeds a hard per-request deadline and
//!    the whole schedule finishes inside a wall-clock budget (no
//!    deadlocks, no unbounded retry loops).
//! 3. **Counter balance** — at the proxy,
//!    `requests == proxy_hits + disk_hits + peer_hits + origin_fetches +
//!    errors`.
//! 4. **Determinism** — run twice (unless `--once`), the two runs inject
//!    identical per-kind fault counts and observe identical per-source
//!    outcome tallies.
//! 5. **Warm restart** (`--restart-warm`) — the proxy runs with a
//!    persistent disk tier and is fully restarted in place halfway through
//!    the schedule. The restarted proxy must re-open its store non-empty
//!    and serve disk hits afterwards, its counters must stay monotonic
//!    across the restart, and every post-restart body is still byte-exact
//!    (invariant 1 keeps applying).
//! 6. **SLO verdicts** — a chaos-calibrated rule table, evaluated
//!    (DESIGN.md §14) over the scrapes taken when the bed starts and when
//!    the schedule ends, must judge the degraded-but-working deployment
//!    `ok`; evaluated over the end scrape and one taken after a burst of
//!    GETs for URLs that exist nowhere (every one a clean proxy-side
//!    error), it must flip `error_burn` to `critical`.
//!
//! On any violation the binary dumps the deployment's flight-recorder
//! ring (the last ~8k span events before the violation, trace ids
//! included) headed by a live saturation snapshot and the latest
//! SLO verdict line (offending rules + their tail exemplar trace
//! ids), prints a reproduction command, and exits nonzero.
//!
//! With `--scenario <name>` the random schedule is replaced by one of
//! the deterministic adversarial shapes from `baps_trace::scenarios`
//! (`flash-crowd`, `invalidation-storm`, `diurnal-swing`, `heavy-tail`),
//! replayed sequentially against a disk-backed deployment with **no**
//! injected faults — the workload shape is the adversary. The same
//! invariants apply (byte-exact watermark-valid bodies, bounded tails,
//! counter balance, run-to-run determinism), `Invalidate` ops execute
//! the full publisher protocol (origin mutate + piggybacked replica
//! discards + one wire INVALIDATE), and `flash-crowd` additionally runs
//! a 16-worker thundering-herd probe that must coalesce to exactly one
//! origin fetch.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p baps-bench --bin chaos_soak -- \
//!     [--seed N] [--requests N] [--clients N] [--docs N] \
//!     [--intensity F] [--once] [--restart-warm] \
//!     [--scenario NAME]
//! ```

use baps_bench::health::{evaluate, scrape, HealthReport, SloRule, SloSignal, SloTable, Verdict};
use baps_bench::scenario::{
    bed_config, flash_crowd_herd, replay_schedule, scenario_corpus, ScenarioTally,
};
use baps_obs::prom::Sample;
use baps_obs::{EventKind, TraceId};
use baps_proxy::fault::FaultKind;
use baps_proxy::{
    DocumentStore, FaultConfig, FaultCounts, FaultPlan, ProxyError, TestBed, TestBedConfig,
};
use baps_trace::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard ceiling on one fetch (client deadline 900 ms x retries + backoff
/// leaves ample margin; anything slower indicates a hang).
const FETCH_DEADLINE: Duration = Duration::from_secs(10);

/// GETs for nonexistent URLs in the post-schedule error burst. Every one
/// is a clean proxy-side error, so the error rate between the scrapes
/// around the burst is 1.0 — far past any sane critical ceiling.
const BURST_REQUESTS: u32 = 200;

/// SLO table calibrated to the envelope this soak deliberately drives:
/// at intensity 1.0 a few percent of fetches fail after bounded retries
/// and tails ride the 1.3 s stall/timeout ladder, which the stock
/// [`SloTable::default`] ceilings (tuned for production-shaped traffic)
/// would flag. These ceilings sit above the chaos envelope while staying
/// far below what the error burst in [`check_health_flip`] produces.
fn chaos_slo() -> SloTable {
    SloTable {
        rules: vec![
            SloRule::new("error_burn", SloSignal::ErrorRate, 0.30, 0.60),
            SloRule::new("p999_ceiling", SloSignal::RequestP999Ms, 2_500.0, 8_000.0),
            SloRule::new("origin_fallback", SloSignal::OriginFallbackRate, 0.60, 0.90),
            SloRule::new("queue_wait", SloSignal::QueueWaitP99Ms, 250.0, 1_000.0),
            SloRule::new("recorder_shed", SloSignal::RecorderShedPerSec, 1e3, 1e5),
            SloRule::new(
                "reactor_ready_depth",
                SloSignal::ReactorReadyDepth,
                1024.0,
                8192.0,
            ),
        ],
    }
}

#[derive(Debug, Clone, Copy)]
struct SoakArgs {
    seed: u64,
    requests: u64,
    clients: u32,
    docs: usize,
    intensity: f64,
    once: bool,
    restart_warm: bool,
    scenario: Option<Scenario>,
}

impl Default for SoakArgs {
    fn default() -> Self {
        SoakArgs {
            seed: 42,
            requests: 2000,
            clients: 6,
            docs: 48,
            intensity: 1.0,
            once: false,
            restart_warm: false,
            scenario: None,
        }
    }
}

impl SoakArgs {
    /// The full parameter set as a copy-pasteable invocation. This is
    /// the *complete* reproduction recipe — every knob that shapes the
    /// schedule (profile/scenario included) appears here, and the same
    /// line heads the flight-recorder dump on failure.
    fn repro_line(&self) -> String {
        format!(
            "cargo run --release -p baps-bench --bin chaos_soak -- \
             --seed {} --requests {} --clients {} --docs {} --intensity {}{}{}{}",
            self.seed,
            self.requests,
            self.clients,
            self.docs,
            self.intensity,
            if self.once { " --once" } else { "" },
            if self.restart_warm {
                " --restart-warm"
            } else {
                ""
            },
            match self.scenario {
                Some(s) => format!(" --scenario {}", s.name()),
                None => String::new(),
            },
        )
    }
}

struct SoakReport {
    /// Must be identical across same-seed runs.
    tally: ScenarioTally,
    faults: FaultCounts,
    proxy_requests: u64,
    proxy_hits: u64,
    disk_hits: u64,
    peer_hits: u64,
    origin_fetches: u64,
    peer_fallbacks: u64,
    proxy_errors: u64,
    wall: Duration,
    violations: Vec<String>,
    /// The flight-recorder ring, rendered at the moment a violated run
    /// finished (`None` when the run was clean).
    recorder_dump: Option<String>,
}

/// Records a violation both in the driver's list and as an always-on
/// `VIOLATION` event in the flight-recorder ring, so the dump shows where
/// in the event stream the invariant broke.
fn violate(bed: &TestBed, violations: &mut Vec<String>, msg: String) {
    bed.recorder
        .note(TraceId::NONE, EventKind::Violation, msg.clone());
    violations.push(msg);
}

fn run_soak(args: SoakArgs, run: u32) -> SoakReport {
    // Each run gets its own disk root so the determinism pair compares two
    // cold starts, not a cold one against a pre-warmed one.
    let disk_root = args.restart_warm.then(|| {
        let dir = std::env::temp_dir().join(format!("baps_chaos_{}_run{}", args.seed, run));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let store = DocumentStore::synthetic(args.docs, 256, 2048, args.seed);
    // Ground truth: what every fetch must return, byte for byte.
    let expected: HashMap<String, Vec<u8>> = (0..args.docs)
        .map(|i| {
            let url = format!("http://origin/doc/{i}");
            let body = store.get(&url).expect("synthetic doc exists").to_vec();
            (url, body)
        })
        .collect();

    let plan = Arc::new(FaultPlan::new(
        args.seed,
        FaultConfig::chaos(args.intensity),
    ));
    let mut bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: args.clients,
            // Small caches force churn: evictions, invalidations, and a
            // live peer-fetch path instead of an all-hits steady state.
            proxy_capacity: 16 << 10,
            browser_capacity: 8 << 10,
            // The timeout ladder keeps stalls (1300 ms) decisively above
            // the client deadline, which in turn covers a full proxy
            // fallback chain of peer probes + origin fetch (200 ms each).
            client_timeout: Duration::from_millis(900),
            client_retries: 3,
            peer_timeout: Duration::from_millis(200),
            peer_retries: 1,
            origin_timeout: Duration::from_millis(200),
            origin_retries: 1,
            fault_plan: Some(Arc::clone(&plan)),
            disk_root: disk_root.clone(),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let start = scrape(&bed.proxy);
    // With --restart-warm one *full* proxy restart (process-equivalent:
    // workers stopped, memory cache and index lost, disk tier and counter
    // baseline re-opened) lands deterministically at mid-schedule.
    let restart_at = args.restart_warm.then_some(args.requests / 2);
    let mut disk_hits_at_restart = 0;

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed_5eed);
    let mut tally = ScenarioTally::default();
    let mut violations = Vec::new();
    let t0 = Instant::now();

    for r in 0..args.requests {
        // The restart schedule is part of the fault plan: one draw per
        // request tick.
        if plan.restart_due() {
            bed.proxy.drop_connections();
        }
        if restart_at == Some(r) {
            let before = bed.proxy.stats();
            disk_hits_at_restart = before.disk_hits;
            bed.restart_proxy().expect("proxy restarts in place");
            let entries = bed.proxy.disk_stats().map_or(0, |d| d.entries);
            if entries == 0 {
                violate(
                    &bed,
                    &mut violations,
                    format!("request {r}: restarted proxy re-opened an empty disk tier"),
                );
            }
            let after = bed.proxy.stats();
            if after.requests < before.requests {
                violate(
                    &bed,
                    &mut violations,
                    format!(
                        "request {r}: counters regressed across restart \
                         ({} -> {} requests)",
                        before.requests, after.requests
                    ),
                );
            }
        }
        let client = &bed.clients[rng.gen_range(0..args.clients as usize)];
        let doc = rng.gen_range(0..args.docs);
        let url = format!("http://origin/doc/{doc}");
        let t = Instant::now();
        let result = client.fetch(&url);
        let dt = t.elapsed();
        if dt > FETCH_DEADLINE {
            violate(
                &bed,
                &mut violations,
                format!("request {r}: fetch of {url} took {dt:?} (> {FETCH_DEADLINE:?})"),
            );
        }
        match result {
            Ok(res) => {
                if res.body[..] != expected[&url][..] {
                    violate(
                        &bed,
                        &mut violations,
                        format!(
                            "request {r}: WRONG BYTES for {url} from {:?} \
                             ({} bytes, expected {})",
                            res.source,
                            res.body.len(),
                            expected[&url].len()
                        ),
                    );
                }
                tally.served[res.source.index()] += 1;
            }
            Err(e) => {
                // Transient transport/backend failures that survived the
                // bounded retries are honest degradation; anything else
                // (silent 404s, integrity failures leaking through the
                // bypass path, protocol corruption) is a bug.
                match e {
                    ProxyError::Io(_) | ProxyError::Timeout | ProxyError::Unavailable(_) => {
                        tally.failed += 1;
                    }
                    other => violate(
                        &bed,
                        &mut violations,
                        format!("request {r}: unacceptable error for {url}: {other}"),
                    ),
                }
            }
        }
    }
    let wall = t0.elapsed();

    let stats = bed.proxy.stats();
    if stats.requests
        != stats.proxy_hits
            + stats.disk_hits
            + stats.peer_hits
            + stats.origin_fetches
            + stats.errors
    {
        violate(
            &bed,
            &mut violations,
            format!(
                "proxy counter imbalance: requests {} != proxy_hits {} + disk_hits {} \
                 + peer_hits {} + origin_fetches {} + errors {}",
                stats.requests,
                stats.proxy_hits,
                stats.disk_hits,
                stats.peer_hits,
                stats.origin_fetches,
                stats.errors
            ),
        );
    }
    if args.restart_warm && stats.disk_hits <= disk_hits_at_restart {
        violate(
            &bed,
            &mut violations,
            format!(
                "no warm-restart disk hits: {} at restart, {} at end",
                disk_hits_at_restart, stats.disk_hits
            ),
        );
    }
    if tally.successes() + tally.failed != args.requests {
        violate(
            &bed,
            &mut violations,
            format!(
                "driver tally imbalance: {} successes + {} failures != {} requests",
                tally.successes(),
                tally.failed,
                args.requests
            ),
        );
    }
    // Generous wall budget: average 50 ms per request plus a fixed floor.
    // A deadlock or unbounded retry loop blows well past this.
    let budget = Duration::from_millis(60_000 + 50 * args.requests);
    if wall > budget {
        violate(
            &bed,
            &mut violations,
            format!("wall clock {wall:?} exceeded budget {budget:?}"),
        );
    }

    // The disk root holds the segment log and the counter baseline a
    // restart leaves beside it, and nothing else.
    if let Some(dir) = &disk_root {
        let strays: Vec<String> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name != "counters.baseline" && !name.ends_with(".seg"))
            .collect();
        if !strays.is_empty() {
            violate(
                &bed,
                &mut violations,
                format!("the disk root holds more than its segments: {strays:?}"),
            );
        }
    }

    // Fault counts are frozen *before* the error burst so the run-to-run
    // determinism comparison covers exactly the seeded schedule.
    let faults = plan.counts();
    let latest = check_health_flip(&bed, &start, &mut violations);
    let recorder_dump = (!violations.is_empty()).then(|| {
        format!(
            "{}\n{}\n{}",
            saturation_line(&bed),
            health_line(&latest),
            bed.recorder.render()
        )
    });
    bed.shutdown();
    if let Some(dir) = disk_root {
        let _ = std::fs::remove_dir_all(dir);
    }
    SoakReport {
        tally,
        faults,
        proxy_requests: stats.requests,
        proxy_hits: stats.proxy_hits,
        disk_hits: stats.disk_hits,
        peer_hits: stats.peer_hits,
        origin_fetches: stats.origin_fetches,
        peer_fallbacks: stats.peer_fallbacks,
        proxy_errors: stats.errors,
        wall,
        violations,
        recorder_dump,
    }
}

/// One-line runtime-saturation snapshot taken while the deployment is
/// still alive; heads every violation dump so a hang or queue collapse
/// is distinguishable from a logic bug at a glance.
fn saturation_line(bed: &TestBed) -> String {
    let r = bed.proxy.reactor_stats();
    format!(
        "=== saturation: executor queue depth {} (peak {}, rejected {}) | \
         queue-wait p99 {:.3} ms over {} waits | \
         flight occupancy {} | recorder drops {} | reactor {} loops \
         (fds {} peak {}, busy {:.1}%, inline {} offloaded {}) ===",
        r.queue_depth,
        r.queue_depth_peak,
        r.rejected,
        r.queue_wait.quantile_ms(0.99),
        r.queue_wait.count(),
        bed.proxy.flight_occupancy(),
        bed.recorder.dropped(),
        r.loops,
        r.registered_fds,
        r.registered_fds_peak,
        r.busy_fraction * 100.0,
        r.inline_served,
        r.offloaded,
    )
}

/// One-line SLO verdict: the document verdict plus every offending rule
/// with its measured value and tail exemplar trace ids (resolvable
/// through `TRACE`). Rides next to the saturation line atop every
/// violation dump, so an SLO burn is visible before reading the span
/// stream.
fn health_line(report: &HealthReport) -> String {
    let offending: Vec<String> = report
        .offending()
        .map(|r| {
            let exemplars = if r.exemplars.is_empty() {
                "-".to_string()
            } else {
                r.exemplars
                    .iter()
                    .map(|t| format!("{t:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "{}={}({:.3}) exemplars {}",
                r.name,
                r.verdict.name(),
                r.value,
                exemplars
            )
        })
        .collect();
    format!(
        "=== health: verdict={} | {} ===",
        report.verdict.name(),
        if offending.is_empty() {
            "all rules ok".to_string()
        } else {
            offending.join(" | ")
        }
    )
}

/// Invariant 6: the chaos-calibrated SLO table judges the completed
/// schedule `ok` over the scrapes at bed start and at its end, then an
/// error burst flips `error_burn` to `critical` over the scrapes around
/// it: the burst's GETs, for URLs that exist nowhere, every one an error,
/// are the only traffic between them. Returns the burst's report.
fn check_health_flip(
    bed: &TestBed,
    start: &[Sample],
    violations: &mut Vec<String>,
) -> HealthReport {
    let end = scrape(&bed.proxy);
    let clean = evaluate(start, &end, &chaos_slo());
    if clean.verdict != Verdict::Ok {
        let burning: Vec<String> = clean
            .offending()
            .map(|r| format!("{}={}({:.3})", r.name, r.verdict.name(), r.value))
            .collect();
        violate(
            bed,
            violations,
            format!(
                "clean-run SLO verdict {} (expected ok): {}",
                clean.verdict.name(),
                burning.join(", ")
            ),
        );
    }
    for i in 0..BURST_REQUESTS {
        let url = format!("http://origin/missing/{i}");
        if bed.clients[0].fetch(&url).is_ok() {
            violate(
                bed,
                violations,
                format!("burst fetch of nonexistent {url} returned a body"),
            );
        }
    }
    let burst = evaluate(&end, &scrape(&bed.proxy), &chaos_slo());
    match burst.rule("error_burn") {
        None => violate(
            bed,
            violations,
            "error_burn rule missing from the SLO report after burst".to_string(),
        ),
        Some(rule) if rule.verdict != Verdict::Critical => violate(
            bed,
            violations,
            format!(
                "error burst did not flip error_burn to critical: verdict {} \
                 (error rate {:.3} over a {} s span)",
                rule.verdict.name(),
                rule.value,
                burst.span_secs
            ),
        ),
        Some(_) => {}
    }
    if burst.verdict != Verdict::Critical {
        violate(
            bed,
            violations,
            format!(
                "document verdict {} after error burst (worst rule must win)",
                burst.verdict.name()
            ),
        );
    }
    burst
}

/// Workers in the flash-crowd thundering-herd probe.
const HERD_WORKERS: u32 = 16;

/// Bounded-tails gate for scenario replays: the p99.9 client-observed
/// fetch latency must stay under this on loopback. Generous against
/// scheduler jitter on shared hosts, but far below anything a stranded
/// waiter or retry loop would produce.
const TAIL_BUDGET_MS: f64 = 500.0;

/// Report of one sequential scenario replay (plus the herd probe when
/// the scenario is `flash-crowd`).
struct ScenarioReport {
    tally: ScenarioTally,
    invalidation_msgs: u64,
    origin_fetches: u64,
    coalesced_fetches: u64,
    disk_revalidations: u64,
    p99_ms: f64,
    p999_ms: f64,
    req_per_sec: f64,
    wall: Duration,
    /// `(workers, origin_fetches, coalesced)` of the herd probe.
    herd: Option<(u32, u64, u64)>,
    violations: Vec<String>,
    recorder_dump: Option<String>,
}

fn run_scenario_soak(scenario: Scenario, args: SoakArgs, run: u32) -> ScenarioReport {
    let cfg = scenario.config(args.requests, args.clients, args.docs as u32);
    let schedule = cfg.generate(args.seed);
    let (store, mut expected) = scenario_corpus(&schedule, args.seed);
    // Each run gets its own disk root so the determinism pair compares
    // two cold starts.
    let disk_root = std::env::temp_dir().join(format!(
        "baps_scenario_{}_{}_run{}",
        scenario.name(),
        args.seed,
        run
    ));
    let _ = std::fs::remove_dir_all(&disk_root);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            ..bed_config(&cfg, Some(disk_root.clone()))
        },
    )
    .expect("scenario bed starts");
    let start = scrape(&bed.proxy);

    let outcome = replay_schedule(&bed, &schedule, &mut expected, args.seed, FETCH_DEADLINE);
    let mut violations = outcome.violations;

    let stats = bed.proxy.stats();
    if stats.requests
        != stats.proxy_hits
            + stats.disk_hits
            + stats.peer_hits
            + stats.origin_fetches
            + stats.errors
    {
        violate(
            &bed,
            &mut violations,
            format!(
                "proxy counter imbalance: requests {} != proxy_hits {} + disk_hits {} \
                 + peer_hits {} + origin_fetches {} + errors {}",
                stats.requests,
                stats.proxy_hits,
                stats.disk_hits,
                stats.peer_hits,
                stats.origin_fetches,
                stats.errors
            ),
        );
    }
    if outcome.tally.successes() + outcome.tally.failed != schedule.gets() {
        violate(
            &bed,
            &mut violations,
            format!(
                "driver tally imbalance: {} successes + {} failures != {} gets",
                outcome.tally.successes(),
                outcome.tally.failed,
                schedule.gets()
            ),
        );
    }
    let p999 = outcome.histo.quantile_ms(0.999);
    if p999 > TAIL_BUDGET_MS {
        violate(
            &bed,
            &mut violations,
            format!("unbounded tail: p99.9 {p999:.3} ms exceeds {TAIL_BUDGET_MS} ms"),
        );
    }
    if scenario == Scenario::InvalidationStorm {
        // The storm must force real revalidation waves: unchanged docs
        // come back via If-Digest 304s, not blind disk serves.
        if bed.origin.revalidations() == 0 {
            violate(
                &bed,
                &mut violations,
                "storm produced no origin If-Digest revalidations".into(),
            );
        }
        if stats.disk_revalidations == 0 {
            violate(
                &bed,
                &mut violations,
                "storm produced no disk-tier revalidations".into(),
            );
        }
    }

    // The flash-crowd moment itself: a cold viral doc hit by HERD_WORKERS
    // concurrent clients must cost exactly one origin fetch per TTL
    // window — the miss-coalescing acceptance gate.
    let herd =
        (scenario == Scenario::FlashCrowd).then(|| flash_crowd_herd(args.seed, HERD_WORKERS));
    let herd_summary = herd.as_ref().map(|probe| {
        for v in &probe.violations {
            violate(&bed, &mut violations, format!("herd: {v}"));
        }
        if probe.origin_fetches != 1 {
            violate(
                &bed,
                &mut violations,
                format!(
                    "thundering herd of {} cost {} origin fetches (coalescing must make it 1)",
                    probe.herd, probe.origin_fetches
                ),
            );
        }
        if probe.coalesced_fetches != u64::from(probe.herd) - 1 {
            violate(
                &bed,
                &mut violations,
                format!(
                    "herd coalescing counter {} != {} (herd - 1)",
                    probe.coalesced_fetches,
                    probe.herd - 1
                ),
            );
        }
        if probe.errors != 0 {
            violate(
                &bed,
                &mut violations,
                format!("herd probe saw {} proxy errors", probe.errors),
            );
        }
        (probe.herd, probe.origin_fetches, probe.coalesced_fetches)
    });

    let recorder_dump = (!violations.is_empty()).then(|| {
        format!(
            "{}\n{}\n{}",
            saturation_line(&bed),
            health_line(&evaluate(&start, &scrape(&bed.proxy), &SloTable::default())),
            bed.recorder.render()
        )
    });
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk_root);
    ScenarioReport {
        tally: outcome.tally,
        invalidation_msgs: outcome.invalidation_msgs,
        origin_fetches: stats.origin_fetches,
        coalesced_fetches: stats.coalesced_fetches,
        disk_revalidations: stats.disk_revalidations,
        p99_ms: outcome.histo.quantile_ms(0.99),
        p999_ms: p999,
        req_per_sec: schedule.gets() as f64 / outcome.wall.as_secs_f64(),
        wall: outcome.wall,
        herd: herd_summary,
        violations,
        recorder_dump,
    }
}

fn print_scenario_report(label: &str, scenario: Scenario, args: SoakArgs, r: &ScenarioReport) {
    println!("--- {label} ---");
    println!(
        "scenario : {} — seed {}, {} requests, {} clients, {} docs, {} invalidation msgs",
        scenario.name(),
        args.seed,
        args.requests,
        args.clients,
        args.docs,
        r.invalidation_msgs,
    );
    println!("outcomes : {}", r.tally.outcomes());
    println!(
        "proxy    : origin_fetches {} | coalesced_fetches {} | disk_revalidations {}",
        r.origin_fetches, r.coalesced_fetches, r.disk_revalidations
    );
    println!(
        "tails    : p99 {:.3} ms | p99.9 {:.3} ms | {:.0} req/s | wall {:.2} s",
        r.p99_ms,
        r.p999_ms,
        r.req_per_sec,
        r.wall.as_secs_f64()
    );
    if let Some((workers, origin, coalesced)) = r.herd {
        println!(
            "herd     : {workers} concurrent workers on a cold doc -> \
             {origin} origin fetch(es), {coalesced} coalesced"
        );
    }
}

fn scenario_main(scenario: Scenario, args: SoakArgs) {
    println!(
        "chaos_soak --scenario {}: {} requests replayed fault-free (seed {}; \
         --intensity/--restart-warm do not apply)\n",
        scenario.name(),
        args.requests,
        args.seed
    );
    let first = run_scenario_soak(scenario, args, 1);
    print_scenario_report("run 1", scenario, args, &first);
    if !first.violations.is_empty() {
        fail(args, &first.violations, first.recorder_dump.as_deref());
    }

    if !args.once {
        let second = run_scenario_soak(scenario, args, 2);
        println!();
        print_scenario_report("run 2", scenario, args, &second);
        if !second.violations.is_empty() {
            fail(args, &second.violations, second.recorder_dump.as_deref());
        }
        let mut determinism = Vec::new();
        if first.tally != second.tally {
            determinism.push(format!(
                "outcome tally mismatch: run1 {:?} != run2 {:?}",
                first.tally, second.tally
            ));
        }
        for (name, a, b) in [
            (
                "invalidation_msgs",
                first.invalidation_msgs,
                second.invalidation_msgs,
            ),
            (
                "origin_fetches",
                first.origin_fetches,
                second.origin_fetches,
            ),
            (
                "disk_revalidations",
                first.disk_revalidations,
                second.disk_revalidations,
            ),
        ] {
            if a != b {
                determinism.push(format!("{name} mismatch: run1 {a} != run2 {b}"));
            }
        }
        if !determinism.is_empty() {
            fail(args, &determinism, second.recorder_dump.as_deref());
        }
        println!("\ndeterminism: outcome tallies and proxy counters identical across runs");
    }

    println!("\nall invariants held");
}

fn print_report(label: &str, args: SoakArgs, r: &SoakReport) {
    println!("--- {label} ---");
    println!(
        "schedule : {} requests, {} clients, {} docs, seed {}, intensity {}",
        args.requests, args.clients, args.docs, args.seed, args.intensity,
    );
    if args.restart_warm {
        println!(
            "restart  : full proxy restart at request {}",
            args.requests / 2
        );
    }
    println!("outcomes : {}", r.tally.outcomes());
    println!(
        "proxy    : requests {} = proxy_hits {} + disk_hits {} + peer_hits {} \
         + origin_fetches {} + errors {} (peer_fallbacks {})",
        r.proxy_requests,
        r.proxy_hits,
        r.disk_hits,
        r.peer_hits,
        r.origin_fetches,
        r.proxy_errors,
        r.peer_fallbacks
    );
    println!("faults   : {} (total {})", r.faults, r.faults.total());
    println!("wall     : {:.2} s", r.wall.as_secs_f64());
}

fn parse_args() -> SoakArgs {
    let mut out = SoakArgs::default();
    let mut args = std::env::args().skip(1);
    let usage = "usage: chaos_soak [--seed N] [--requests N] [--clients N] [--docs N] \
                 [--intensity F] [--once] [--restart-warm] \
                 [--scenario flash-crowd|invalidation-storm|diurnal-swing|heavy-tail]";
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n{usage}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => out.seed = value("--seed").parse().expect("--seed: u64"),
            "--requests" => out.requests = value("--requests").parse().expect("--requests: u64"),
            "--clients" => out.clients = value("--clients").parse().expect("--clients: u32"),
            "--docs" => out.docs = value("--docs").parse().expect("--docs: usize"),
            "--intensity" => {
                out.intensity = value("--intensity").parse().expect("--intensity: f64")
            }
            "--once" => out.once = true,
            "--restart-warm" => out.restart_warm = true,
            "--scenario" => {
                let name = value("--scenario");
                out.scenario = Some(Scenario::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown scenario {name:?}\n{usage}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown flag {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if out.clients == 0 || out.docs == 0 || out.requests == 0 {
        eprintln!("--clients, --docs and --requests must be positive\n{usage}");
        std::process::exit(2);
    }
    out
}

fn fail(args: SoakArgs, violations: &[String], recorder_dump: Option<&str>) -> ! {
    if let Some(dump) = recorder_dump {
        // The ring holds the spans (with trace ids) leading up to the
        // violation — the VIOLATION events themselves are interleaved at
        // the positions where each invariant broke. A saturation snapshot
        // (queue depth and wait, recorder drops, taken while the
        // deployment was still alive) heads the dump, and the header
        // carries the full parameter set (profile/scenario included) so a
        // pasted dump is reproducible on its own.
        eprintln!("=== flight-recorder dump | {} ===", args.repro_line());
        eprintln!("{dump}");
    }
    for v in violations {
        eprintln!("VIOLATION: {v}");
    }
    eprintln!("reproduce with: {}", args.repro_line());
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if let Some(scenario) = args.scenario {
        scenario_main(scenario, args);
        return;
    }
    println!(
        "chaos_soak: {} requests under seeded fault injection (seed {})\n",
        args.requests, args.seed
    );

    let first = run_soak(args, 1);
    print_report("run 1", args, &first);
    if !first.violations.is_empty() {
        fail(args, &first.violations, first.recorder_dump.as_deref());
    }

    if !args.once {
        let second = run_soak(args, 2);
        println!();
        print_report("run 2", args, &second);
        if !second.violations.is_empty() {
            fail(args, &second.violations, second.recorder_dump.as_deref());
        }
        let mut determinism = Vec::new();
        for kind in FaultKind::ALL {
            if first.faults.get(kind) != second.faults.get(kind) {
                determinism.push(format!(
                    "fault count mismatch for {}: run1 {} != run2 {}",
                    kind.name(),
                    first.faults.get(kind),
                    second.faults.get(kind)
                ));
            }
        }
        if first.tally != second.tally {
            determinism.push(format!(
                "outcome tally mismatch: run1 {:?} != run2 {:?}",
                first.tally, second.tally
            ));
        }
        if !determinism.is_empty() {
            // Determinism compares the two completed runs; neither ring is
            // more relevant, so dump the fresher one.
            fail(args, &determinism, second.recorder_dump.as_deref());
        }
        println!("\ndeterminism: per-fault counts and outcome tallies identical across runs");
    }

    println!("\nall invariants held");
}
