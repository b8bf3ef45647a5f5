//! CI gate for the `HEALTH BAPS/1.0` SLO engine and the tail-latency
//! exemplar pipeline (DESIGN.md §14).
//!
//! Starts a loopback deployment whose origin stalls every reply by a
//! fixed 15 ms (so every origin-tier GET lands in the ≥10 ms exemplar
//! tail deterministically), drives load, and then asserts the whole
//! observability loop end to end:
//!
//! 1. `HEALTH` answers 200 with the verdict headers, and the body parses
//!    into the full default rule table — every rule evaluated, every
//!    verdict well-formed.
//! 2. A second scrape two seconds later shows the windows moving: uptime
//!    advanced and the 10 s window saw the between-scrape requests.
//! 3. The `METRICS` exposition conforms (including exemplar syntax) and
//!    carries at least one tail-bucket exemplar on
//!    `baps_request_latency_ms`.
//! 4. **Every** exemplar trace id — from the exposition and from any
//!    offending `HEALTH` rule — resolves through `TRACE` to a complete
//!    sampled span tree (≥ 2 spans: the client fetch root plus at least
//!    one proxy-side hop under it).
//!
//! Exits nonzero on the first violated assertion; CI runs this next to
//! the metrics smoke. Takes no arguments.

use baps_obs::{prom, span};
use baps_proxy::{
    response_code, DocumentStore, FaultConfig, FaultPlan, HealthReport, TestBed, TestBedConfig,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Requests in the initial load phase (unique URLs — all origin misses).
const LOAD_REQUESTS: u32 = 192;
/// Requests driven between the two HEALTH scrapes.
const BETWEEN_REQUESTS: u32 = 64;

fn fail(what: &str) -> ! {
    eprintln!("FAIL: {what}");
    std::process::exit(1);
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--help" | "-h") => {
            println!("usage: health_smoke");
            return;
        }
        Some(other) => fail(&format!("unknown argument {other:?}")),
    }

    // Every origin reply stalls 15 ms mid-frame: decisively past the
    // 10 ms exemplar tail floor, far under every timeout — so each of
    // the all-miss GETs below is a *slow success*, and the 1-in-32
    // head-sampled ones must leave tail exemplars behind.
    let faults = Arc::new(FaultPlan::new(
        42,
        FaultConfig {
            p_origin_stall: 1.0,
            stall: Duration::from_millis(15),
            ..FaultConfig::default()
        },
    ));
    let store = DocumentStore::synthetic(512, 200, 1_500, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 2,
            fault_plan: Some(faults),
            ..TestBedConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("test bed failed to start: {e}")));
    println!("# health_smoke: load={LOAD_REQUESTS}+{BETWEEN_REQUESTS} requests");

    for i in 0..LOAD_REQUESTS {
        let url = format!("http://origin/doc/{i}");
        bed.clients[(i % 2) as usize]
            .fetch(&url)
            .unwrap_or_else(|e| fail(&format!("load fetch {url} failed: {e}")));
    }

    // --- Scrape 1: rule evaluation over the loaded windows. ---------
    let first = scrape_health(&bed);
    let table_len = TestBedConfig::default().slo.rules.len();
    if first.rules.len() != table_len {
        fail(&format!(
            "expected {table_len} evaluated rules, got {}",
            first.rules.len()
        ));
    }
    let signals: BTreeSet<&str> = first.rules.iter().map(|r| r.signal.name()).collect();
    if signals.len() != table_len {
        fail("default rule table must evaluate each signal exactly once");
    }
    for rule in &first.rules {
        println!(
            "# rule={} value={:.4} verdict={}",
            rule.name,
            rule.value,
            rule.verdict.name()
        );
    }
    let p999 = first
        .rule("p999_ceiling")
        .unwrap_or_else(|| fail("p999_ceiling rule missing"));
    if p999.value < 10.0 {
        fail(&format!(
            "stalled origin must push windowed p999 past the 10ms tail floor, got {:.3}ms",
            p999.value
        ));
    }

    // --- Scrape 2, two seconds later: the windows must move. --------
    for i in 0..BETWEEN_REQUESTS {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{}", LOAD_REQUESTS + i))
            .unwrap_or_else(|e| fail(&format!("between-scrape fetch failed: {e}")));
    }
    std::thread::sleep(Duration::from_secs(2));
    let second = scrape_health(&bed);
    if second.uptime_secs <= first.uptime_secs {
        fail(&format!(
            "uptime did not advance between scrapes ({} -> {})",
            first.uptime_secs, second.uptime_secs
        ));
    }
    let w10 = second
        .windows
        .iter()
        .find(|w| w.window_secs == 10)
        .unwrap_or_else(|| fail("10s window line missing"));
    if w10.requests < BETWEEN_REQUESTS as u64 {
        fail(&format!(
            "10s window must cover the {BETWEEN_REQUESTS} between-scrape requests, saw {}",
            w10.requests
        ));
    }
    if w10.span_secs == 0 || w10.req_per_s <= 0.0 {
        fail("10s window has no span/rate despite fresh load");
    }

    // --- Exemplars: exposition-conformant and TRACE-resolvable. -----
    let metrics = bed.clients[0]
        .proxy_metrics_raw()
        .unwrap_or_else(|e| fail(&format!("METRICS scrape failed: {e}")));
    let text = String::from_utf8(metrics.body.to_vec())
        .unwrap_or_else(|_| fail("METRICS body is not UTF-8"));
    prom::check_conformance(&text)
        .unwrap_or_else(|e| fail(&format!("exposition violates conformance: {e}")));
    let samples = prom::parse(&text).unwrap_or_else(|e| fail(&format!("bad exposition: {e}")));
    let mut exemplar_traces: BTreeSet<String> = samples
        .iter()
        .filter(|s| s.name == "baps_request_latency_ms_bucket")
        .filter_map(|s| s.exemplar.as_ref())
        .filter_map(|e| e.trace_id().map(str::to_string))
        .collect();
    if exemplar_traces.is_empty() {
        fail("no tail-bucket exemplars on baps_request_latency_ms after 15ms-stall load");
    }
    for rule in second.offending() {
        for t in &rule.exemplars {
            exemplar_traces.insert(format!("{t:016x}"));
        }
    }
    println!(
        "# resolving {} exemplar trace ids via TRACE",
        exemplar_traces.len()
    );

    let trace = bed.clients[0]
        .proxy_trace_raw()
        .unwrap_or_else(|e| fail(&format!("TRACE scrape failed: {e}")));
    let dump =
        String::from_utf8(trace.body.to_vec()).unwrap_or_else(|_| fail("TRACE body is not UTF-8"));
    let records =
        span::parse_jsonl(&dump).unwrap_or_else(|e| fail(&format!("bad TRACE dump: {e}")));
    let trees = span::assemble(&records);
    for id in &exemplar_traces {
        let trace_id: baps_obs::TraceId = id
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad exemplar trace id {id:?}")));
        if !span::sampled(trace_id) {
            fail(&format!("exemplar trace {id} is not head-sampled"));
        }
        let tree = trees
            .iter()
            .find(|t| t.trace == trace_id)
            .unwrap_or_else(|| fail(&format!("exemplar trace {id} has no TRACE span tree")));
        let spans = tree.root.records().len();
        if spans < 2 {
            fail(&format!(
                "exemplar trace {id} resolved to a degenerate tree ({spans} span)"
            ));
        }
    }

    println!(
        "PASS: health_smoke rules={} verdict={} exemplars_resolved={}",
        second.rules.len(),
        second.verdict.name(),
        exemplar_traces.len()
    );
}

/// One wire HEALTH scrape: asserts transport-level shape, returns the
/// parsed verdict document.
fn scrape_health(bed: &TestBed) -> HealthReport {
    let reply = bed.clients[0]
        .proxy_health_raw()
        .unwrap_or_else(|e| fail(&format!("HEALTH scrape failed: {e}")));
    if response_code(&reply) != Some(200) {
        fail(&format!("HEALTH answered {:?}", reply.start));
    }
    for header in ["Verdict", "Rules", "Uptime-Seconds"] {
        if reply.get(header).is_none() {
            fail(&format!("HEALTH reply missing {header} header"));
        }
    }
    let body =
        std::str::from_utf8(&reply.body).unwrap_or_else(|_| fail("HEALTH body is not UTF-8"));
    let report =
        HealthReport::parse(body).unwrap_or_else(|e| fail(&format!("bad verdict document: {e}")));
    if reply.get("Verdict") != Some(report.verdict.name()) {
        fail("Verdict header disagrees with the document verdict");
    }
    report
}
