//! CI gate for the `METRICS BAPS/1.0` exposition and the cost of always-on
//! recording; sits beside `health_smoke` (the SLO engine) and
//! `trace_report --live` (span trees).
//!
//! Drives one loopback [`TestBed`] (origin + proxy + clients over real
//! sockets, every client on its kept-alive connection) and then asserts:
//!
//! 1. The exposition scraped over the wire parses, `requests_total` equals
//!    served-by-tier + errors, the per-tier latency histograms hold one
//!    observation per served GET, the `baps_build_info` /
//!    `baps_uptime_seconds` identity gauges are present, and the upstream
//!    connections are being reused ([`summarize_metrics`]).
//! 2. The same run's `TRACE BAPS/1.0` dump parses and holds at least one
//!    sampled span: the exporter is live, not just the verb.
//! 3. Recording on ([`baps_obs::set_recording`]) costs less than 3 %
//!    throughput against recording off, over interleaved slice pairs on
//!    one warm deployment ([`measure_overhead_gated`]).
//!
//! Exits nonzero on the first violated assertion. How fast the proxy is,
//! is the repo benchmark's question (`benchmark/README.md`), not this
//! binary's.
//!
//! ```text
//! cargo run --release -p baps-bench --bin metrics_smoke [total_requests] [n_docs]
//! ```
//!
//! Defaults: 8000 requests over 64 documents.

use baps_obs::{prom, span, LatencyHistogram};
use baps_proxy::{DocumentStore, TestBed, TestBedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Clients of the scraped run and of the overhead A/B.
const WORKERS: u32 = 4;

/// Drives the load, prints its throughput and tails, and returns the raw
/// `METRICS BAPS/1.0` exposition and `TRACE BAPS/1.0` JSONL span dump
/// scraped over the wire just before shutdown.
fn run_load(per_client: u32, n_docs: usize) -> (String, String) {
    let store = DocumentStore::synthetic(n_docs, 256, 2048, 0x5eed);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: WORKERS,
            proxy_capacity: 256 << 10,
            // Tiny browser caches keep most requests on the wire, which is
            // what the scrape is about.
            browser_capacity: 4 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");

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
    // run exercises the METRICS and TRACE verbs end to end.
    let reply = bed.clients[0]
        .proxy_metrics_raw()
        .expect("METRICS roundtrip");
    let metrics = String::from_utf8(reply.body.to_vec()).expect("exposition is UTF-8");
    let reply = bed.clients[0].proxy_trace_raw().expect("TRACE roundtrip");
    let trace = String::from_utf8(reply.body.to_vec()).expect("TRACE body is UTF-8");
    bed.shutdown();
    println!(
        "{:>9.0} req/s   p50 {:>7.3} ms   p90 {:>7.3} ms   p99 {:>7.3} ms   p99.9 {:>7.3} ms   mean {:>7.3} ms   ({} requests in {:.2} s)",
        histo.count() as f64 / wall_secs,
        histo.quantile_ms(0.50),
        histo.quantile_ms(0.90),
        histo.quantile_ms(0.99),
        histo.quantile_ms(0.999),
        histo.mean_ms(),
        histo.count(),
        wall_secs,
    );
    (metrics, trace)
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
///
/// Returns the throughput lost to recording: the **trimmed mean of the
/// per-pair deltas**, percent of the pair's recording-off rate. Pairing
/// first, then trimming the [`OVERHEAD_TRIM`] most extreme pairs from each
/// side, discards the burst-corrupted pairs a plain mean is hostage to.
/// Negative means the instrumented side came out faster (the true delta is
/// below the noise floor).
fn measure_overhead(n_docs: usize) -> f64 {
    println!(
        "\nobservability overhead ({WORKERS} workers, trimmed mean of {OVERHEAD_PAIRS} interleaved on/off slice pairs):"
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
            n_clients: WORKERS,
            proxy_capacity: corpus_bytes + (64 << 10),
            browser_capacity: 4 << 10,
            disk_root: Some(disk_root.clone()),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
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

    // `(on_rps, off_rps)` per pair, measured back to back.
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

    let delta_pct = trimmed_mean(rounds.iter().map(|&(on, off)| (off - on) / off * 100.0));
    println!(
        "recording on {:>9.0} req/s   off {:>9.0} req/s   trimmed-mean paired delta {:+.2}%",
        trimmed_mean(rounds.iter().map(|&(on, _)| on)),
        trimmed_mean(rounds.iter().map(|&(_, off)| off)),
        delta_pct,
    );
    delta_pct
}

/// Overhead measurement with its flake guard: one measurement decides if
/// it lands under the 3% budget, but a reading over budget triggers two
/// more full measurements and the **median of the three** is what gets
/// reported and gated. A single trimmed-mean estimate still loses to a
/// badly timed scheduler regime shift (a 3.66% reading for identical code
/// motivated this); the median of three independent measurements does
/// not. Returns the delta to gate on.
fn measure_overhead_gated(n_docs: usize) -> f64 {
    let first = measure_overhead(n_docs);
    if first < 3.0 {
        return first;
    }
    println!(
        "\noverhead {first:+.2}% over budget on the first measurement; taking the median of 3"
    );
    let mut all = [first, measure_overhead(n_docs), measure_overhead(n_docs)];
    all.sort_by(f64::total_cmp);
    println!("median of 3 measurements: {:+.2}%", all[1]);
    all[1]
}

fn arg<T: std::str::FromStr>(raw: Option<String>, name: &str, default: T) -> T {
    match raw {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad {name}: {s:?} (usage: metrics_smoke [total_requests] [n_docs])");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let total: u32 = arg(args.next(), "total_requests", 8000);
    let n_docs: usize = arg(args.next(), "n_docs", 64);
    println!("metrics_smoke: METRICS exposition + recording-overhead gate\n");

    let (metrics, trace) = run_load((total / WORKERS).max(1), n_docs);
    summarize_metrics(&metrics);
    let spans = span::parse_jsonl(&trace).expect("TRACE dump parses");
    assert!(!spans.is_empty(), "TRACE dump is empty under load");
    println!(
        "TRACE scrape: {} spans, {} trees assembled",
        spans.len(),
        span::assemble(&spans).len()
    );

    let delta = measure_overhead_gated(n_docs);
    if delta >= 3.0 {
        eprintln!("FAIL: observability overhead {delta:+.2}% exceeds the 3% budget");
        std::process::exit(1);
    }
    println!("\nsmoke OK: exposition parses, counters balance, recording overhead {delta:+.2}% (budget 3%)");
}
