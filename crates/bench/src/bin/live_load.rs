//! Load generator for the live proxy runtime.
//!
//! Drives N concurrent clients through a full loopback [`TestBed`]
//! (origin + proxy + clients over real sockets) and reports throughput and
//! latency quantiles, once with **keep-alive** connections (the default
//! runtime behaviour: one persistent connection per client, pooled origin
//! connections inside the proxy) and once dialing a **fresh connection per
//! request** (the pre-pooling behaviour, kept behind
//! `ClientAgent::set_keep_alive(false)`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin live_load [--metrics] [n_clients] \
//!     [requests_per_client] [n_docs]
//! cargo run --release --bin live_load -- --sweep [--out BENCH_live.json] \
//!     [total_requests] [n_docs]
//! ```
//!
//! Defaults: 8 clients x 2000 requests over 64 documents.
//!
//! `--sweep` runs the keep-alive mode at 1/2/4/8/16 worker clients with a
//! fixed seed and a fixed total request count (split evenly across
//! workers), writes the scaling curve as JSON to `--out`, then measures
//! the observability overhead by re-running one point with recording
//! disabled ([`baps_obs::set_recording`]); the on/off delta lands in the
//! JSON too. Each point also records the proxy's miss-executor saturation
//! (busy-worker peak, queue depth, time-in-queue p50/p99) as the
//! `saturation` block, and one dedicated instrumented point is scraped
//! via `TRACE BAPS/1.0` and assembled into per-kind critical-path
//! attribution as the `critical_path` block. The sweep also walks the
//! connection-count axis — 100/1k/10k idle registered connections held
//! open (by a helper child process, so each side of the socket pair gets
//! its own fd table) while 16 active clients drive traffic — and records
//! it as the `connections` block. See the README for how to read the file.
//!
//! `--metrics` additionally scrapes the proxy's `METRICS BAPS/1.0`
//! exposition over the wire after the keep-alive run, checks that it
//! parses and that its counters balance, and prints the proxy-side
//! per-tier latency tails next to the client-observed ones.
//!
//! `--smoke` is the CI gate: one `--metrics`-style run (every scrape
//! assertion applies, including the `baps_build_info` /
//! `baps_uptime_seconds` identity gauges), then the overhead A/B, exiting
//! nonzero if always-on recording costs more than 3% throughput.
//!
//! `--scenario <name>` replays one adversarial workload shape from
//! `baps_trace::scenarios` (`flash-crowd`, `invalidation-storm`,
//! `diurnal-swing`, `heavy-tail`) concurrently — per-client `Get` queues
//! plus a dedicated publisher client driving the `Invalidate` stream —
//! and prints its throughput/tail point. `--sweep` measures all four and
//! records them as the `scenarios` block of `BENCH_live.json`.

use baps_bench::critical_path;
use baps_bench::scenario::{bed_config, flash_crowd_herd, scenario_corpus, url_of};
use baps_obs::{prom, span, LatencyHistogram};
use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, Message, SaturationSnapshot,
    TestBed, TestBedConfig,
};
use baps_trace::{DocId, Scenario, ScenarioOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts of the thread-scaling sweep.
const SWEEP_WORKERS: [u32; 5] = [1, 2, 4, 8, 16];

struct ModeReport {
    label: &'static str,
    wall_secs: f64,
    requests: u64,
    histo: LatencyHistogram,
    /// Raw `METRICS BAPS/1.0` exposition scraped over the wire just
    /// before shutdown (only when requested).
    metrics: Option<String>,
    /// Miss-executor saturation at the end of the run: queue depth/peak,
    /// busy workers, and the time-in-queue histogram.
    saturation: SaturationSnapshot,
    /// Raw `TRACE BAPS/1.0` JSONL span dump (only when requested).
    trace: Option<String>,
}

impl ModeReport {
    fn req_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_secs
    }

    fn print(&self) {
        println!(
            "{:<12} {:>9.0} req/s   p50 {:>7.3} ms   p90 {:>7.3} ms   p99 {:>7.3} ms   p99.9 {:>7.3} ms   mean {:>7.3} ms   ({} requests in {:.2} s)",
            self.label,
            self.req_per_sec(),
            self.histo.quantile_ms(0.50),
            self.histo.quantile_ms(0.90),
            self.histo.quantile_ms(0.99),
            self.histo.quantile_ms(0.999),
            self.histo.mean_ms(),
            self.requests,
            self.wall_secs,
        );
    }
}

fn run_mode(
    keep_alive: bool,
    n_clients: u32,
    per_client: u32,
    n_docs: usize,
    scrape_metrics: bool,
    scrape_trace: bool,
) -> ModeReport {
    // Fresh deployment per mode so neither run inherits warm caches.
    let store = DocumentStore::synthetic(n_docs, 256, 2048, 0x5eed);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity: 256 << 10,
            // Tiny browser caches keep most requests on the wire, which is
            // what this benchmark is about.
            browser_capacity: 4 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    for client in &bed.clients {
        client.set_keep_alive(keep_alive);
    }

    let t0 = Instant::now();
    let histos: Vec<LatencyHistogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x10ad ^ i as u64);
                    let mut histo = LatencyHistogram::new();
                    for _ in 0..per_client {
                        let doc = rng.gen_range(0..n_docs);
                        let url = format!("http://origin/doc/{doc}");
                        let t = Instant::now();
                        client.fetch(&url).expect("fetch succeeds under load");
                        histo.record(t.elapsed().as_secs_f64() * 1e3);
                    }
                    histo
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut histo = LatencyHistogram::new();
    for h in &histos {
        histo.merge(h);
    }
    // Sanity: the proxy saw real traffic (local browser hits never reach
    // it, so its GET count is at most the client-side total).
    let stats = bed.proxy.stats();
    assert!(stats.requests > 0, "no request reached the proxy");
    assert!(stats.requests <= histo.count(), "proxy GET over-count");
    // Scrape over the wire (not via `ProxyServer::metrics_text`) so the
    // run exercises the METRICS verb end to end.
    let metrics = scrape_metrics.then(|| {
        let reply = bed.clients[0]
            .proxy_metrics_raw()
            .expect("METRICS roundtrip");
        String::from_utf8(reply.body.to_vec()).expect("exposition is UTF-8")
    });
    let trace = scrape_trace.then(|| {
        let reply = bed.clients[0].proxy_trace_raw().expect("TRACE roundtrip");
        String::from_utf8(reply.body.to_vec()).expect("TRACE body is UTF-8")
    });
    let saturation = bed.proxy.saturation();
    bed.shutdown();
    ModeReport {
        label: if keep_alive {
            "keep-alive"
        } else {
            "per-request"
        },
        wall_secs,
        requests: histo.count(),
        histo,
        metrics,
        saturation,
        trace,
    }
}

/// Checks the scraped exposition (parseable, counters balance against the
/// per-tier serve counts) and prints the proxy-side tier latency tails.
fn summarize_metrics(text: &str) {
    let samples = prom::parse(text).expect("METRICS exposition parses");
    let get = |name: &str, labels: &[(&str, &str)]| {
        prom::find(&samples, name, labels)
            .unwrap_or_else(|| panic!("exposition is missing {name}{labels:?}"))
    };
    let requests = get("baps_requests_total", &[]);
    let by_tier: f64 = ["proxy", "disk", "peer", "origin"]
        .iter()
        .map(|t| get("baps_served_total", &[("tier", t)]))
        .sum();
    let errors = get("baps_errors_total", &[]);
    assert_eq!(
        requests,
        by_tier + errors,
        "requests_total must equal served-by-tier + errors"
    );
    // Counter/histogram agreement: every successfully served GET records
    // exactly one latency observation in its tier's histogram.
    let histo_count: f64 = ["local", "proxy", "disk", "peer", "origin"]
        .iter()
        .map(|t| {
            prom::find(&samples, "baps_request_latency_ms_count", &[("tier", t)])
                .unwrap_or_default()
        })
        .sum();
    assert_eq!(
        histo_count,
        requests - errors,
        "tier histogram counts must sum to requests - errors"
    );
    // Identity gauges (DESIGN.md §14): `baps_build_info` pins the version
    // of whatever produced the scrape, `baps_uptime_seconds` distinguishes
    // a restart from a counter reset.
    let build_info = samples
        .iter()
        .find(|s| s.name == "baps_build_info")
        .expect("exposition is missing baps_build_info");
    assert_eq!(build_info.value, 1.0, "baps_build_info must be exactly 1");
    assert!(
        build_info.label("version").is_some_and(|v| !v.is_empty()),
        "baps_build_info must carry a non-empty version label"
    );
    assert!(
        get("baps_uptime_seconds", &[]) >= 0.0,
        "uptime gauge missing or negative"
    );
    // Saturation families: the executor gauge is live, and — this bed has
    // no disk tier, the only thing the executor serves — its time-in-queue
    // histogram is present and empty: every miss was an exchange on an
    // event loop.
    assert!(get("baps_workers", &[]) > 0.0, "worker gauge missing/zero");
    assert!(
        get("baps_queue_wait_ms_count", &[]) == 0.0,
        "a memory-only proxy queued work for its executor"
    );
    assert!(get("baps_reactor_upstream_exchanges", &[]) >= 0.0);
    assert!(get("baps_reactor_parked_requests", &[]) >= 0.0);
    // Upstream connections: every exchange the proxy initiated was a dial
    // or a reuse, and under keep-alive load reuses are the bulk. A scrape
    // where dials track the served count means reuse stopped working.
    let upstream_sum = |family: &str| -> f64 {
        ["peer", "origin"]
            .iter()
            .map(|u| get(family, &[("upstream", u)]))
            .sum()
    };
    let dials = upstream_sum("baps_upstream_dials_total");
    let reuses = upstream_sum("baps_upstream_reuses_total");
    assert!(
        dials >= 1.0 && reuses > dials,
        "upstream connections are not being reused: {dials} dials, {reuses} reuses"
    );
    assert!(get("baps_upstream_stale_total", &[]) >= 0.0);
    assert!(upstream_sum("baps_upstream_idle_connections") >= 1.0);
    println!(
        "\nMETRICS scrape: {} samples, requests_total {requests} = served-by-tier {by_tier} + errors {errors}, histogram observations {histo_count}",
        samples.len()
    );
    println!("proxy-side serve latency (from baps_request_latency_ms):");
    for tier in ["local", "proxy", "disk", "peer", "origin"] {
        let labels = [("tier", tier)];
        let count =
            prom::find(&samples, "baps_request_latency_ms_count", &labels).unwrap_or_default();
        if count == 0.0 {
            continue;
        }
        let sum = get("baps_request_latency_ms_sum", &labels);
        println!(
            "  {tier:<12} {count:>8.0} obs   mean {:>7.3} ms",
            sum / count
        );
    }
}

/// Interleaved measurement rounds per sweep point; each point keeps its
/// best round. Rounds are interleaved (1,2,…,16, then again) rather than
/// repeated back-to-back so slow drift (CPU frequency, container
/// throttling) hits every point equally.
const SWEEP_ROUNDS: usize = 3;

/// Flatness tolerance for the 1→8-worker verdict. The sweep exists to
/// catch *serialization collapses* — a global lock or an undersized
/// downstream pool shows up as a multiple, not a percentage (an origin
/// pool that stopped scaling cost 13x here) — so the band only needs to
/// sit above scheduler jitter, which is ±10–15% for loopback
/// microbenchmarks on a shared single-core host.
const SWEEP_FLAT_TOLERANCE: f64 = 0.85;

/// Runs the keep-alive thread-scaling sweep and renders `BENCH_live.json`.
///
/// Total work is fixed: each point splits `total` requests evenly across
/// its workers, so the curve isolates how throughput responds to
/// concurrency rather than to a growing request count. The store seed and
/// per-worker RNG seeds are constants, making the request schedule
/// identical run to run.
fn run_sweep(total: u32, n_docs: usize, out_path: &str) {
    println!(
        "live_load --sweep: keep-alive, {total} total requests per point, {n_docs} docs, \
         workers {SWEEP_WORKERS:?}, best of {SWEEP_ROUNDS} rounds\n"
    );
    // Warmup: touch the page cache / allocator / loopback stack once so
    // the first measured point doesn't pay the process's cold-start costs.
    let _ = run_mode(true, 2, (total / 16).max(1), n_docs, false, false);

    let mut points: Vec<(u32, Option<ModeReport>)> =
        SWEEP_WORKERS.iter().map(|&w| (w, None)).collect();
    for round in 0..SWEEP_ROUNDS {
        for (workers, best) in &mut points {
            let per_client = (total / *workers).max(1);
            let report = run_mode(true, *workers, per_client, n_docs, false, false);
            println!(
                "round {}  {:>3} workers  {:>9.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   \
                 ({} requests in {:.2} s)",
                round + 1,
                workers,
                report.req_per_sec(),
                report.histo.quantile_ms(0.50),
                report.histo.quantile_ms(0.99),
                report.requests,
                report.wall_secs,
            );
            if best
                .as_ref()
                .is_none_or(|b| report.req_per_sec() > b.req_per_sec())
            {
                *best = Some(report);
            }
        }
    }
    let points: Vec<(u32, ModeReport)> = points
        .into_iter()
        .map(|(w, r)| (w, r.expect("every point measured")))
        .collect();

    println!();
    for (workers, report) in &points {
        println!(
            "best     {:>3} workers  {:>9.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms",
            workers,
            report.req_per_sec(),
            report.histo.quantile_ms(0.50),
            report.histo.quantile_ms(0.99),
        );
    }

    // Monotone-or-flat up to 8 workers: each point within the tolerance
    // band of the best seen at lower concurrency.
    let mut best = 0f64;
    let mut monotone_or_flat = true;
    for (workers, report) in &points {
        if *workers <= 8 {
            if report.req_per_sec() < best * SWEEP_FLAT_TOLERANCE {
                monotone_or_flat = false;
            }
            best = best.max(report.req_per_sec());
        }
    }

    println!("\nsaturation at each best point (proxy executor):");
    for (workers, report) in &points {
        let sat = &report.saturation;
        println!(
            "  {:>3} clients  pool {:>2} workers  busy peak {:>2}  queue peak {:>2}  \
             rejected {:>2}  queue-wait p50 {:>7.3} ms  p99 {:>7.3} ms  ({} waits)",
            workers,
            sat.workers,
            sat.busy_workers_peak,
            sat.queue_depth_peak,
            sat.rejected,
            sat.queue_wait.quantile_ms(0.50),
            sat.queue_wait.quantile_ms(0.99),
            sat.queue_wait.count(),
        );
    }

    let (overhead, overhead_measurements) = measure_overhead_gated(n_docs);
    let disk = measure_disk_tier(total, n_docs);
    let scenarios = measure_scenarios(total, n_docs);
    let connections = measure_connections(total, n_docs);

    // Critical-path attribution: one dedicated instrumented point whose
    // TRACE dump is assembled into span trees and aggregated per kind.
    println!("\ncritical-path attribution ({OVERHEAD_WORKERS} workers, from a TRACE scrape):");
    let traced = run_mode(
        true,
        OVERHEAD_WORKERS,
        (total / OVERHEAD_WORKERS).max(1),
        n_docs,
        false,
        true,
    );
    let trace_records = span::parse_jsonl(traced.trace.as_deref().expect("traced run dumps TRACE"))
        .expect("TRACE dump parses");
    let trees = span::assemble(&trace_records);
    let attribution = critical_path::attribution(&trees);
    print!("{}", critical_path::render_table(&attribution));

    // The in-tree serde shim is a no-op, so the JSON is rendered by hand.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"live_load_thread_scaling\",\n");
    json.push_str("  \"mode\": \"keep-alive\",\n");
    let _ = writeln!(json, "  \"total_requests_per_point\": {total},");
    let _ = writeln!(json, "  \"docs\": {n_docs},");
    json.push_str("  \"store_seed\": 24301,\n");
    let _ = writeln!(json, "  \"monotone_or_flat_1_to_8\": {monotone_or_flat},");
    json.push_str("  \"points\": [\n");
    for (i, (workers, r)) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"req_per_sec\": {:.1}, \"p50_ms\": {:.3}, \
             \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"mean_ms\": {:.3}, \"requests\": {}, \"wall_secs\": {:.3}}}",
            workers,
            r.req_per_sec(),
            r.histo.quantile_ms(0.50),
            r.histo.quantile_ms(0.90),
            r.histo.quantile_ms(0.99),
            r.histo.quantile_ms(0.999),
            r.histo.mean_ms(),
            r.requests,
            r.wall_secs,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"saturation\": [\n");
    for (i, (workers, r)) in points.iter().enumerate() {
        let sat = &r.saturation;
        let _ = write!(
            json,
            "    {{\"clients\": {}, \"pool_workers\": {}, \"busy_workers_peak\": {}, \
             \"queue_depth_peak\": {}, \"queue_rejected\": {}, \"queue_waits\": {}, \
             \"queue_wait_p50_ms\": {:.3}, \"queue_wait_p99_ms\": {:.3}, \
             \"service_p50_ms\": {:.3}}}",
            workers,
            sat.workers,
            sat.busy_workers_peak,
            sat.queue_depth_peak,
            sat.rejected,
            sat.queue_wait.count(),
            sat.queue_wait.quantile_ms(0.50),
            sat.queue_wait.quantile_ms(0.99),
            r.histo.quantile_ms(0.50),
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"critical_path\": [");
    let _ = writeln!(json, "{}", critical_path::render_json(&attribution, "    "));
    json.push_str("  ],\n");
    json.push_str("  \"scenarios\": [\n");
    for (i, p) in scenarios.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"workers\": {SCENARIO_WORKERS}, \"requests\": {}, \
             \"req_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"origin_fetches\": {}, \"origin_fetches_per_doc\": {:.2}, \
             \"coalesced_fetches\": {}, \"invalidation_msgs\": {}",
            p.scenario.name(),
            p.requests,
            p.req_per_sec,
            p.p50_ms,
            p.p99_ms,
            p.p999_ms,
            p.origin_fetches,
            p.origin_fetches_per_doc,
            p.coalesced_fetches,
            p.invalidation_msgs,
        );
        if let Some((workers, origin, coalesced)) = p.herd {
            let _ = write!(
                json,
                ", \"herd_workers\": {workers}, \"herd_origin_fetches\": {origin}, \
                 \"herd_coalesced_fetches\": {coalesced}"
            );
        }
        json.push('}');
        json.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"connections\": [\n");
    for (i, p) in connections.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"idle_conns\": {}, \"active_clients\": {CONN_ACTIVE}, \
             \"serving_threads\": {}, \"loops\": {}, \"registered_fds_peak\": {}, \
             \"req_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}}}",
            p.idle,
            p.serving_threads,
            p.loops,
            p.registered_fds_peak,
            p.req_per_sec,
            p.p50_ms,
            p.p99_ms,
            p.p999_ms,
        );
        json.push_str(if i + 1 < connections.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"disk_tier\": {\n");
    let _ = writeln!(json, "    \"workers\": {OVERHEAD_WORKERS},");
    let _ = writeln!(json, "    \"req_per_sec\": {:.1},", disk.req_per_sec);
    let _ = writeln!(json, "    \"disk_hits\": {},", disk.disk_hits);
    let _ = writeln!(json, "    \"disk_writes\": {},", disk.disk_writes);
    let _ = writeln!(json, "    \"disk_entries\": {},", disk.disk_entries);
    let _ = writeln!(
        json,
        "    \"post_restart_req_per_sec\": {:.1},",
        disk.post_restart_req_per_sec
    );
    let _ = writeln!(
        json,
        "    \"post_restart_disk_hits\": {},",
        disk.post_restart_disk_hits
    );
    let _ = writeln!(
        json,
        "    \"warm_restart\": {}",
        disk.post_restart_disk_hits > 0
    );
    json.push_str("  },\n");
    json.push_str("  \"observability_overhead\": {\n");
    let _ = writeln!(json, "    \"workers\": {OVERHEAD_WORKERS},");
    let _ = writeln!(json, "    \"paired_slices\": {OVERHEAD_PAIRS},");
    let _ = writeln!(
        json,
        "    \"estimator\": \"trimmed mean of per-round paired deltas; \
         median of 3 measurements when the first lands over budget\","
    );
    let _ = writeln!(json, "    \"measurements\": {overhead_measurements},");
    let _ = writeln!(
        json,
        "    \"recording_on_req_per_sec\": {:.1},",
        overhead.on_rps()
    );
    let _ = writeln!(
        json,
        "    \"recording_off_req_per_sec\": {:.1},",
        overhead.off_rps()
    );
    let _ = writeln!(json, "    \"delta_pct\": {:.2},", overhead.delta_pct());
    let _ = writeln!(json, "    \"within_3pct\": {}", overhead.delta_pct() < 3.0);
    json.push_str("  }\n}\n");
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "\nwrote {out_path} (monotone-or-flat 1→8 workers: {}, observability overhead {:+.2}%)",
        if monotone_or_flat { "yes" } else { "NO" },
        overhead.delta_pct(),
    );
}

/// Worker count of the observability-overhead A/B point.
const OVERHEAD_WORKERS: u32 = 4;

/// On/off slice pairs of the overhead measurement. Each slice is a short
/// burst of requests against one shared warm deployment; pairing at the
/// tens-of-milliseconds scale puts both sides of a pair inside the same
/// scheduler-burst regime, which whole-run A/B (seconds apart on a shared
/// host) cannot do — identical code measured "+3.5%" that way.
const OVERHEAD_PAIRS: usize = 80;

/// Requests per worker per slice (~40 ms per slice at loopback rates).
const OVERHEAD_SLICE_REQUESTS: u32 = 500;

/// Slice pairs trimmed from each extreme before averaging the paired
/// deltas. Scheduler bursts corrupt whole slices; a trimmed mean discards
/// them while using more of the sample than a median does.
const OVERHEAD_TRIM: usize = 10;

/// Throughput with recording on vs off, per interleaved slice pair.
struct Overhead {
    /// `(on_rps, off_rps)` per pair, measured back to back.
    rounds: Vec<(f64, f64)>,
}

impl Overhead {
    /// Trimmed-mean throughput of the recording-on slices.
    fn on_rps(&self) -> f64 {
        trimmed_mean(self.rounds.iter().map(|&(on, _)| on))
    }

    /// Trimmed-mean throughput of the recording-off slices.
    fn off_rps(&self) -> f64 {
        trimmed_mean(self.rounds.iter().map(|&(_, off)| off))
    }

    /// Throughput lost to recording: the **trimmed mean of the per-pair
    /// deltas**, percent of the pair's recording-off rate. Pairing first,
    /// then trimming the [`OVERHEAD_TRIM`] most extreme pairs from each
    /// side, discards the burst-corrupted pairs a plain mean is hostage
    /// to. Negative means the instrumented side came out faster (the true
    /// delta is below the noise floor).
    fn delta_pct(&self) -> f64 {
        trimmed_mean(
            self.rounds
                .iter()
                .map(|&(on, off)| (off - on) / off * 100.0),
        )
    }
}

/// Mean after dropping the [`OVERHEAD_TRIM`] lowest and highest values
/// (plain mean if too few values; 0 when empty).
fn trimmed_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 * OVERHEAD_TRIM {
        &v[OVERHEAD_TRIM..v.len() - OVERHEAD_TRIM]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One burst of `OVERHEAD_SLICE_REQUESTS` per worker against a shared
/// deployment; returns the slice's request rate.
fn run_slice(bed: &TestBed, n_docs: usize, slice: u64) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (i, client) in bed.clients.iter().enumerate() {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x51ce ^ (slice << 8) ^ i as u64);
                for _ in 0..OVERHEAD_SLICE_REQUESTS {
                    let doc = rng.gen_range(0..n_docs);
                    let url = format!("http://origin/doc/{doc}");
                    client.fetch(&url).expect("fetch succeeds under load");
                }
            });
        }
    });
    (OVERHEAD_SLICE_REQUESTS as u64 * bed.clients.len() as u64) as f64 / t0.elapsed().as_secs_f64()
}

/// Measures the cost of always-on recording by interleaving short
/// recording-on and recording-off slices over one warm deployment and
/// differencing each adjacent pair ([`baps_obs::set_recording`] flips
/// between slices). The alternation is fine-grained on purpose: drift
/// (CPU frequency, container throttling, a noisy neighbour) moves slower
/// than a slice, so it cancels inside each pair.
fn measure_overhead(n_docs: usize) -> Overhead {
    println!(
        "\nobservability overhead ({OVERHEAD_WORKERS} workers, trimmed mean of {OVERHEAD_PAIRS} interleaved on/off slice pairs):"
    );
    let store = DocumentStore::synthetic(n_docs, 256, 2048, 0x5eed);
    // The disk tier is configured so its bookkeeping is live, but the
    // memory cache is sized to hold the whole corpus and fully warmed
    // before the first measured slice: the A/B prices always-on recording
    // (plus disk bookkeeping) on the in-memory hot path, not disk I/O.
    // Miss traffic would not just add noise, it would change what is
    // being measured — a memory miss records a flight-recorder event by
    // design, a cost that rides requests already paying for disk or
    // origin I/O, so pricing it against a 14 µs loopback hit would gate
    // the wrong thing.
    let corpus_bytes = (n_docs as u64) * 2048;
    let disk_root = std::env::temp_dir().join(format!("baps_live_overhead_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: OVERHEAD_WORKERS,
            proxy_capacity: corpus_bytes + (64 << 10),
            browser_capacity: 4 << 10,
            disk_root: Some(disk_root.clone()),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    for client in &bed.clients {
        client.set_keep_alive(true);
    }
    // Touch every doc once so the whole corpus is resident in the proxy's
    // memory tier — uniform random slices alone would leave a long miss
    // tail bleeding into the measured pairs.
    for doc in 0..n_docs {
        let url = format!("http://origin/doc/{doc}");
        bed.clients[0].fetch(&url).expect("warmup fetch succeeds");
    }
    // Warmup slices (discarded): allocator arenas, loopback stack.
    for slice in 0..4 {
        let _ = run_slice(&bed, n_docs, slice);
    }

    let mut rounds = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS as u64 {
        // Alternate which side of the pair runs first: whatever warmth a
        // slice hands its successor then favours each side equally.
        let mut sides = [0f64; 2];
        let on_first = pair % 2 == 0;
        for (i, &on) in [on_first, !on_first].iter().enumerate() {
            baps_obs::set_recording(on);
            sides[usize::from(!on)] = run_slice(&bed, n_docs, 100 + pair * 2 + i as u64);
        }
        baps_obs::set_recording(true);
        let [on, off] = sides;
        rounds.push((on, off));
    }
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk_root);

    let overhead = Overhead { rounds };
    println!(
        "recording on {:>9.0} req/s   off {:>9.0} req/s   trimmed-mean paired delta {:+.2}%",
        overhead.on_rps(),
        overhead.off_rps(),
        overhead.delta_pct(),
    );
    overhead
}

/// Overhead measurement with the flake guard both the smoke gate and the
/// sweep's JSON block use: one measurement decides if it lands under the
/// 3% budget, but a reading over budget triggers two more full
/// measurements and the **median of the three** is what gets reported
/// and gated. A single trimmed-mean estimate still loses to a badly
/// timed scheduler regime shift (a committed 3.66% reading for identical
/// code motivated this); the median of three independent measurements
/// does not. Returns the chosen measurement and how many were taken.
fn measure_overhead_gated(n_docs: usize) -> (Overhead, usize) {
    let first = measure_overhead(n_docs);
    if first.delta_pct() < 3.0 {
        return (first, 1);
    }
    println!(
        "\noverhead {:+.2}% over budget on the first measurement; \
         taking the median of 3",
        first.delta_pct()
    );
    let mut all = vec![first, measure_overhead(n_docs), measure_overhead(n_docs)];
    all.sort_by(|a, b| a.delta_pct().total_cmp(&b.delta_pct()));
    let median = all.swap_remove(1);
    println!("median of 3 measurements: {:+.2}%", median.delta_pct());
    (median, 3)
}

/// Disk-tier point for `BENCH_live.json`.
struct DiskReport {
    req_per_sec: f64,
    disk_hits: u64,
    disk_writes: u64,
    disk_entries: u64,
    post_restart_req_per_sec: f64,
    post_restart_disk_hits: u64,
}

/// Measures the persistent disk tier under load: a deployment whose
/// memory cache is deliberately smaller than the corpus (so misses spill
/// to disk and some GETs serve from it), then a full in-place proxy
/// restart followed by a second driven phase — the post-restart disk-hit
/// count is the warm-restart evidence recorded in the JSON.
fn measure_disk_tier(total: u32, n_docs: usize) -> DiskReport {
    println!("\ndisk tier ({OVERHEAD_WORKERS} workers, memory cache under-sized, one mid-point proxy restart):");
    let disk_root = std::env::temp_dir().join(format!("baps_live_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    let store = DocumentStore::synthetic(n_docs, 256, 2048, 0x5eed);
    let mut bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: OVERHEAD_WORKERS,
            // Holds only a fraction of the corpus: memory misses spill to
            // the disk tier instead of always refetching from the origin.
            proxy_capacity: 16 << 10,
            browser_capacity: 4 << 10,
            disk_root: Some(disk_root.clone()),
            disk_capacity: 8 << 20,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let per_client = (total / OVERHEAD_WORKERS).max(1);
    let phase = |bed: &TestBed, salt: u64| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (i, client) in bed.clients.iter().enumerate() {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(salt ^ i as u64);
                    for _ in 0..per_client {
                        let doc = rng.gen_range(0..n_docs);
                        let url = format!("http://origin/doc/{doc}");
                        client.fetch(&url).expect("fetch succeeds under load");
                    }
                });
            }
        });
        (per_client as u64 * bed.clients.len() as u64) as f64 / t0.elapsed().as_secs_f64()
    };

    let req_per_sec = phase(&bed, 0xd15c);
    let stats = bed.proxy.stats();
    let dstats = bed.proxy.disk_stats().expect("disk tier configured");
    bed.restart_proxy().expect("proxy restarts in place");
    let post_restart_req_per_sec = phase(&bed, 0xd15c ^ 0xffff);
    let post = bed.proxy.stats();
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk_root);

    let report = DiskReport {
        req_per_sec,
        disk_hits: stats.disk_hits,
        disk_writes: dstats.writes,
        disk_entries: dstats.entries,
        post_restart_req_per_sec,
        post_restart_disk_hits: post.disk_hits.saturating_sub(stats.disk_hits),
    };
    println!(
        "pre-restart  {:>9.0} req/s   disk hits {}   writes {}   entries {}",
        report.req_per_sec, report.disk_hits, report.disk_writes, report.disk_entries
    );
    println!(
        "post-restart {:>9.0} req/s   disk hits {}   (warm restart: {})",
        report.post_restart_req_per_sec,
        report.post_restart_disk_hits,
        if report.post_restart_disk_hits > 0 {
            "yes"
        } else {
            "NO"
        }
    );
    report
}

/// Workers driving `Get` traffic in a scenario point (a dedicated extra
/// client acts as the invalidation publisher).
const SCENARIO_WORKERS: u32 = 8;

/// Herd size of the flash-crowd coalescing probe.
const SCENARIO_HERD: u32 = 16;

/// One adversarial-scenario measurement for `BENCH_live.json`.
struct ScenarioPoint {
    scenario: Scenario,
    requests: u64,
    invalidation_msgs: u64,
    req_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    origin_fetches: u64,
    /// Origin fetches divided by the number of distinct documents the
    /// schedule touches: the redundant-fetch factor. Near 1.0 means each
    /// doc was fetched from the origin about once despite churn.
    origin_fetches_per_doc: f64,
    coalesced_fetches: u64,
    /// `(workers, origin_fetches, coalesced)` of the herd probe
    /// (flash-crowd only).
    herd: Option<(u32, u64, u64)>,
}

impl ScenarioPoint {
    fn print(&self) {
        println!(
            "{:<18} {:>9.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   p99.9 {:>7.3} ms   \
             origin {:>5} ({:.2}/doc)   coalesced {:>4}   invalidations {:>4}",
            self.scenario.name(),
            self.req_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.origin_fetches,
            self.origin_fetches_per_doc,
            self.coalesced_fetches,
            self.invalidation_msgs,
        );
        if let Some((workers, origin, coalesced)) = self.herd {
            println!(
                "{:<18} herd: {workers} workers on a cold doc -> {origin} origin fetch(es), \
                 {coalesced} coalesced",
                ""
            );
        }
    }
}

/// Replays one scenario schedule concurrently: every scenario client
/// becomes a worker thread draining its own `Get` queue while one extra
/// publisher client drives the `Invalidate` stream (origin mutate on
/// every other update + piggybacked replica discards + one wire
/// INVALIDATE each). Content checking is the job of the sequential
/// `chaos_soak --scenario` gate; this measures what the shape costs.
fn run_scenario_point(scenario: Scenario, total: u32, n_docs: usize) -> ScenarioPoint {
    let seed = scenario.canonical_seed();
    let cfg = scenario.config(total as u64, SCENARIO_WORKERS, n_docs as u32);
    let schedule = cfg.generate(seed);
    let (store, _expected) = scenario_corpus(&schedule, seed);
    let disk_root = std::env::temp_dir().join(format!(
        "baps_live_scenario_{}_{}",
        scenario.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&disk_root);
    let mut tbc = bed_config(&cfg, Some(disk_root.clone()));
    tbc.n_clients += 1; // the publisher
    let bed = TestBed::start(store, tbc).expect("scenario bed starts");
    for client in &bed.clients {
        client.set_keep_alive(true);
    }

    let mut gets: Vec<Vec<DocId>> = vec![Vec::new(); SCENARIO_WORKERS as usize];
    let mut invalidations: Vec<DocId> = Vec::new();
    let mut touched: HashSet<u32> = HashSet::new();
    for op in &schedule.ops {
        match op {
            ScenarioOp::Get { client, doc } => {
                gets[client.0 as usize].push(*doc);
                touched.insert(doc.0);
            }
            ScenarioOp::Invalidate { doc } => invalidations.push(*doc),
        }
    }

    let (publisher, workers) = bed.clients.split_last().expect("bed has clients");
    let t0 = Instant::now();
    let histos: Vec<LatencyHistogram> = std::thread::scope(|scope| {
        let doc_sizes = &schedule.doc_sizes;
        let origin = &bed.origin;
        let worker_refs = workers;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x009b_115b);
            for (seq, doc) in invalidations.iter().enumerate() {
                let url = url_of(*doc);
                if seq.is_multiple_of(2) {
                    let mut next = vec![0u8; doc_sizes[doc.0 as usize] as usize];
                    rng.fill(next.as_mut_slice());
                    origin.mutate(&url, next);
                }
                for client in worker_refs {
                    client.discard(&url);
                }
                publisher
                    .publish_invalidate(&url)
                    .expect("publisher INVALIDATE succeeds");
            }
        });
        let handles: Vec<_> = workers
            .iter()
            .zip(&gets)
            .map(|(client, queue)| {
                scope.spawn(move || {
                    let mut histo = LatencyHistogram::new();
                    for doc in queue {
                        let url = url_of(*doc);
                        let t = Instant::now();
                        client.fetch(&url).expect("fetch succeeds under load");
                        histo.record(t.elapsed().as_secs_f64() * 1e3);
                    }
                    histo
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut histo = LatencyHistogram::new();
    for h in &histos {
        histo.merge(h);
    }
    let stats = bed.proxy.stats();
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk_root);

    let herd = (scenario == Scenario::FlashCrowd).then(|| {
        let probe = flash_crowd_herd(seed, SCENARIO_HERD);
        assert!(probe.violations.is_empty(), "{:?}", probe.violations);
        (probe.herd, probe.origin_fetches, probe.coalesced_fetches)
    });

    ScenarioPoint {
        scenario,
        requests: histo.count(),
        invalidation_msgs: schedule.invalidations(),
        req_per_sec: histo.count() as f64 / wall_secs,
        p50_ms: histo.quantile_ms(0.50),
        p99_ms: histo.quantile_ms(0.99),
        p999_ms: histo.quantile_ms(0.999),
        origin_fetches: stats.origin_fetches,
        origin_fetches_per_doc: stats.origin_fetches as f64 / touched.len().max(1) as f64,
        coalesced_fetches: stats.coalesced_fetches,
        herd,
    }
}

/// Measures all four adversarial scenarios for the sweep's JSON block.
fn measure_scenarios(total: u32, n_docs: usize) -> Vec<ScenarioPoint> {
    println!("\nadversarial scenarios ({SCENARIO_WORKERS} workers + 1 publisher, {total} requests each):");
    Scenario::all()
        .into_iter()
        .map(|scenario| {
            let point = run_scenario_point(scenario, total, n_docs);
            point.print();
            point
        })
        .collect()
}

/// Active clients driving traffic at every connection-axis point.
const CONN_ACTIVE: u32 = 16;

/// Idle-connection counts of the axis (the ROADMAP's 100/1k/10k ladder,
/// plus the zero baseline).
const CONN_IDLE: [usize; 4] = [0, 100, 1_000, 10_000];

/// Interleaved measurement rounds per connection-axis point (best kept).
const CONN_ROUNDS: usize = 3;

/// One point on the connection-count axis.
struct ConnPoint {
    idle: usize,
    /// Threads the proxy spent serving: event loops + miss-executor
    /// workers.
    serving_threads: u64,
    /// Event loops.
    loops: u64,
    /// Peak connections registered with the event loops.
    registered_fds_peak: u64,
    req_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

impl ConnPoint {
    fn print(&self) {
        println!(
            "idle {:>6}  {:>9.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   \
             p99.9 {:>7.3} ms   serving threads {:>4}   registered peak {:>6}",
            self.idle,
            self.req_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.serving_threads,
            self.registered_fds_peak,
        );
    }
}

/// Child-process entry for `--hold-conns ADDR COUNT BASE`: opens `COUNT`
/// keep-alive connections to the proxy at `ADDR`, REGISTERs each one
/// (client ids `BASE..`), reports readiness on stdout, then holds every
/// connection open until stdin closes. Run as a separate process so the
/// client side of 10k socket pairs does not share the benchmark's fd
/// table with the proxy side.
fn hold_conns(addr: &str, count: usize, base: u64) -> ! {
    use std::io::{BufRead, BufReader as StdBufReader, Write};
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let stream = std::net::TcpStream::connect(addr).expect("holder connects");
        // Read and write through shared borrows of the one socket — a
        // `try_clone` here would cost a second fd per connection and blow
        // the child's fd table at the 10k rung.
        write_message(
            &mut &stream,
            &Message::new("REGISTER 1 BAPS/1.0").header("Client", (base + i as u64).to_string()),
        )
        .expect("holder REGISTER write");
        let reply = read_message(&mut std::io::BufReader::new(&stream))
            .expect("holder REGISTER read")
            .expect("holder connection open");
        assert_eq!(response_code(&reply), Some(200), "holder REGISTER refused");
        held.push(stream);
    }
    println!("held {count}");
    std::io::stdout().flush().expect("holder reports readiness");
    // Park until the parent drops our stdin; the sockets close with us.
    let mut line = String::new();
    let _ = StdBufReader::new(std::io::stdin()).read_line(&mut line);
    drop(held);
    std::process::exit(0);
}

/// Spawns the idle-connection holder child and blocks until it reports
/// every connection registered. Returns the child; dropping its stdin
/// (killing it) releases the connections.
fn spawn_holder(addr: std::net::SocketAddr, count: usize) -> std::process::Child {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("--hold-conns")
        .arg(addr.to_string())
        .arg(count.to_string())
        .arg("1000000")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("holder child spawns");
    let stdout = child.stdout.take().expect("holder stdout piped");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("holder reports readiness");
    assert_eq!(
        line.trim(),
        format!("held {count}"),
        "holder failed to establish its connections"
    );
    child
}

/// Measures one idle-connection-count point: a fresh deployment, `idle`
/// held-open registered connections, then [`CONN_ACTIVE`] clients driving
/// `total` requests split evenly. The executor keeps its automatic
/// (active-scaled) sizing regardless of idle connections.
fn measure_conn_point(idle: usize, total: u32, n_docs: usize) -> ConnPoint {
    let store = DocumentStore::synthetic(n_docs, 256, 2048, 0x5eed);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: CONN_ACTIVE,
            proxy_capacity: 256 << 10,
            browser_capacity: 4 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    for client in &bed.clients {
        client.set_keep_alive(true);
    }
    let holder = (idle > 0).then(|| spawn_holder(bed.proxy.addr(), idle));
    let registered = bed.proxy.reactor_stats().registered_fds;
    assert!(
        registered >= idle as u64,
        "reactor lost idle connections: {registered} registered, {idle} held"
    );

    let per_client = (total / CONN_ACTIVE).max(1);
    let t0 = Instant::now();
    let histos: Vec<LatencyHistogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xc0a1 ^ i as u64);
                    let mut histo = LatencyHistogram::new();
                    for _ in 0..per_client {
                        let doc = rng.gen_range(0..n_docs);
                        let url = format!("http://origin/doc/{doc}");
                        let t = Instant::now();
                        client.fetch(&url).expect("fetch succeeds under load");
                        histo.record(t.elapsed().as_secs_f64() * 1e3);
                    }
                    histo
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut histo = LatencyHistogram::new();
    for h in &histos {
        histo.merge(h);
    }
    let reactor = bed.proxy.reactor_stats();
    let miss_workers = bed.proxy.saturation().workers;
    // The idle mass must still be registered after the measured burst:
    // the reactor held 10k connections *while* serving.
    assert!(
        reactor.registered_fds >= idle as u64,
        "reactor dropped idle connections under load: {} left of {idle}",
        reactor.registered_fds
    );
    if let Some(mut child) = holder {
        drop(child.stdin.take()); // EOF releases the held connections
        let _ = child.wait();
    }
    bed.shutdown();

    ConnPoint {
        idle,
        serving_threads: reactor.loops + miss_workers,
        loops: reactor.loops,
        registered_fds_peak: reactor.registered_fds_peak,
        req_per_sec: histo.count() as f64 / wall_secs,
        p50_ms: histo.quantile_ms(0.50),
        p99_ms: histo.quantile_ms(0.99),
        p999_ms: histo.quantile_ms(0.999),
    }
}

/// Walks the connection-count axis ([`CONN_ROUNDS`] interleaved rounds,
/// best-of per point): does holding 100/1k/10k idle registered
/// connections degrade the active path? The proxy walks the whole ladder
/// on its fixed loop + miss-executor thread budget.
fn measure_connections(total: u32, n_docs: usize) -> Vec<ConnPoint> {
    println!(
        "\nconnection-count axis ({CONN_ACTIVE} active clients, idle ladder {CONN_IDLE:?}, \
         best of {CONN_ROUNDS} rounds):"
    );
    let mut points: Vec<(usize, Option<ConnPoint>)> =
        CONN_IDLE.iter().map(|&idle| (idle, None)).collect();
    for _round in 0..CONN_ROUNDS {
        for (idle, best) in &mut points {
            let point = measure_conn_point(*idle, total, n_docs);
            if best
                .as_ref()
                .is_none_or(|b| point.req_per_sec > b.req_per_sec)
            {
                *best = Some(point);
            }
        }
    }
    let points: Vec<ConnPoint> = points
        .into_iter()
        .map(|(_, p)| p.expect("every point measured"))
        .collect();
    for point in &points {
        point.print();
    }
    points
}

/// CI smoke: scrape `METRICS BAPS/1.0` under load (parse + balance
/// assertions live in [`summarize_metrics`]), then gate on the recording
/// overhead staying under 3%. The overhead estimate rides on loopback
/// scheduler noise, so a first reading over budget triggers two more
/// measurements and the gate judges the median of the three
/// ([`measure_overhead_gated`]).
fn run_smoke(total: u32, n_docs: usize) {
    println!("live_load --smoke: METRICS exposition + recording-overhead gate\n");
    let report = run_mode(
        true,
        OVERHEAD_WORKERS,
        (total / OVERHEAD_WORKERS).max(1),
        n_docs,
        true,
        true,
    );
    report.print();
    summarize_metrics(
        report
            .metrics
            .as_deref()
            .expect("smoke run scrapes METRICS"),
    );
    // The same run's TRACE dump must hold at least one sampled span: the
    // exporter is live, not just the verb.
    let spans = span::parse_jsonl(report.trace.as_deref().expect("smoke run scrapes TRACE"))
        .expect("TRACE dump parses");
    assert!(!spans.is_empty(), "TRACE dump is empty under load");
    println!(
        "TRACE scrape: {} spans, {} trees assembled",
        spans.len(),
        span::assemble(&spans).len()
    );

    let (overhead, measurements) = measure_overhead_gated(n_docs);
    let delta = overhead.delta_pct();
    if measurements > 1 {
        println!("(gated on the median of {measurements} measurements)");
    }
    if delta >= 3.0 {
        eprintln!("FAIL: observability overhead {delta:+.2}% exceeds the 3% budget");
        std::process::exit(1);
    }
    println!("\nsmoke OK: exposition parses, counters balance, recording overhead {delta:+.2}% (budget 3%)");
}

fn arg<T: std::str::FromStr>(raw: Option<String>, name: &str, default: T) -> T {
    match raw {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad {name}: {s:?} (usage: live_load [n_clients] [per_client] [n_docs])");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut sweep = false;
    let mut smoke = false;
    let mut metrics = false;
    let mut scenario = None;
    let mut out_path = "BENCH_live.json".to_owned();
    let mut positional = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            // Internal re-exec mode used by the connection-count axis.
            "--hold-conns" => {
                let addr = raw.next().expect("--hold-conns needs ADDR COUNT BASE");
                let count = raw
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--hold-conns COUNT");
                let base = raw
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--hold-conns BASE");
                hold_conns(&addr, count, base);
            }
            "--sweep" => sweep = true,
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--scenario" => {
                let name = raw.next().unwrap_or_else(|| {
                    eprintln!("--scenario needs a name");
                    std::process::exit(2);
                });
                scenario = Some(Scenario::parse(&name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scenario {name:?} (one of: flash-crowd, invalidation-storm, \
                         diurnal-swing, heavy-tail)"
                    );
                    std::process::exit(2);
                }));
            }
            "--out" => {
                out_path = raw.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            _ => positional.push(a),
        }
    }
    let mut args = positional.into_iter();

    if let Some(scenario) = scenario {
        let total: u32 = arg(args.next(), "total_requests", 8000);
        let n_docs: usize = arg(args.next(), "n_docs", 64);
        println!(
            "live_load --scenario {}: {SCENARIO_WORKERS} workers + 1 publisher, \
             {total} requests, {n_docs} docs\n",
            scenario.name()
        );
        run_scenario_point(scenario, total, n_docs).print();
        return;
    }

    if sweep {
        let total: u32 = arg(args.next(), "total_requests", 8000);
        let n_docs: usize = arg(args.next(), "n_docs", 64);
        run_sweep(total, n_docs, &out_path);
        return;
    }

    if smoke {
        let total: u32 = arg(args.next(), "total_requests", 8000);
        let n_docs: usize = arg(args.next(), "n_docs", 64);
        run_smoke(total, n_docs);
        return;
    }

    let n_clients: u32 = arg(args.next(), "n_clients", 8);
    let per_client: u32 = arg(args.next(), "per_client", 2000);
    let n_docs: usize = arg(args.next(), "n_docs", 64);

    println!(
        "live_load: {n_clients} clients x {per_client} requests, {n_docs} docs (loopback sockets)\n"
    );

    let per_request = run_mode(false, n_clients, per_client, n_docs, false, false);
    per_request.print();
    let keep_alive = run_mode(true, n_clients, per_client, n_docs, metrics, false);
    keep_alive.print();

    println!(
        "\nkeep-alive speedup: {:.2}x req/s",
        keep_alive.req_per_sec() / per_request.req_per_sec()
    );
    if let Some(text) = &keep_alive.metrics {
        summarize_metrics(text);
    }
}
