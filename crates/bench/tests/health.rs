//! `baps_bench::health` against live beds: verdicts and windows worked
//! out from two `METRICS` scrapes of a running proxy (DESIGN.md §14).

use baps_bench::health::{evaluate, scrape, SloRule, SloSignal, SloTable, Verdict, Window};
use baps_obs::prom::{self, Sample};
use baps_proxy::{response_code, DocumentStore, FaultConfig, FaultPlan, TestBed, TestBedConfig};
use std::sync::Arc;
use std::time::Duration;

/// One wire `METRICS` scrape: a 200 whose body conforms, parsed.
fn scrape_metrics(bed: &TestBed) -> Vec<Sample> {
    let reply = bed.clients[0].proxy_metrics_raw().unwrap();
    assert_eq!(response_code(&reply), Some(200));
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    prom::check_conformance(&text).unwrap_or_else(|e| panic!("exposition violates format: {e}"));
    prom::parse(&text).unwrap()
}

/// The reader's evaluation end to end, against an origin that stalls
/// every reply 15 ms, so every GET below is a slow origin-tier success
/// and the head-sampled ones leave tail exemplars behind: the scrapes at
/// start and after the load judge the whole default table, the p999 sees
/// the stall, the window between two later scrapes counts exactly the
/// requests driven between them, and every exemplar the scrape's tier
/// buckets carry resolves through TRACE to a head-sampled span tree.
#[test]
fn health_windows_move_and_exemplars_resolve_through_trace() {
    use baps_obs::span;
    use std::collections::BTreeSet;

    const LOAD: u32 = 192;
    const BETWEEN: u32 = 64;
    let plan = FaultPlan::new(
        42,
        FaultConfig {
            p_origin_stall: 1.0,
            stall: Duration::from_millis(15),
            ..FaultConfig::default()
        },
    );
    let bed = TestBed::start(
        DocumentStore::synthetic(512, 200, 1_500, 42),
        TestBedConfig {
            n_clients: 2,
            fault_plan: Some(Arc::new(plan)),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let start = scrape_metrics(&bed);
    // Distinct URLs: every fetch is an origin miss.
    let fetch = |client: usize, i: u32| {
        bed.clients[client]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap()
    };
    for i in 0..LOAD {
        fetch(i as usize % 2, i);
    }

    let first = scrape_metrics(&bed);
    let table = SloTable::default();
    let report = evaluate(&start, &first, &table);
    assert_eq!(
        report.rules.len(),
        table.rules.len(),
        "every rule is evaluated"
    );
    let signals: BTreeSet<&str> = report.rules.iter().map(|r| r.signal.name()).collect();
    assert_eq!(signals.len(), table.rules.len(), "each signal exactly once");
    let p999 = report
        .rule("p999_ceiling")
        .expect("p999_ceiling rule")
        .value;
    assert!(p999 >= 10.0, "windowed p999 {p999} ms");

    // The window between two scrapes sees the requests driven between
    // them and nothing else.
    for i in 0..BETWEEN {
        fetch(0, LOAD + i);
    }
    let second = scrape_metrics(&bed);
    let w = Window::between(&first, &second);
    assert_eq!(w.requests, u64::from(BETWEEN));
    assert_eq!(w.request.count(), u64::from(BETWEEN));
    assert!(w.request.quantile_ms(0.5) >= 10.0, "every one waited 15 ms");

    let exemplars: BTreeSet<&str> = second
        .iter()
        .filter(|s| s.name == "baps_request_latency_ms_bucket")
        .filter_map(|s| s.exemplar.as_ref()?.trace_id())
        .collect();
    assert!(!exemplars.is_empty(), "no tail-bucket exemplars");
    // A request-facing rule that fires names those exemplars, at most 8.
    let strict = SloTable {
        rules: vec![SloRule::new(
            "p999_ceiling",
            SloSignal::RequestP999Ms,
            10.0,
            1e9,
        )],
    };
    let fired = &evaluate(&first, &second, &strict).rules[0];
    assert_eq!(fired.verdict, Verdict::Warn, "{}", fired.value);
    assert!((1..=8).contains(&fired.exemplars.len()), "{fired:?}");
    for t in &fired.exemplars {
        assert!(exemplars.contains(format!("{t:016x}").as_str()), "{t:016x}");
    }

    let reply = bed.clients[0].proxy_trace_raw().unwrap();
    let records = span::parse_jsonl(std::str::from_utf8(&reply.body).unwrap()).unwrap();
    let trees = span::assemble(&records);
    for id in &exemplars {
        let trace: baps_obs::TraceId = id.parse().expect("exemplar trace id");
        assert!(span::sampled(trace), "exemplar {id} is not head-sampled");
        let tree = trees
            .iter()
            .find(|t| t.trace == trace)
            .unwrap_or_else(|| panic!("exemplar {id} has no TRACE span tree"));
        assert!(tree.root.records().len() >= 2, "exemplar {id}: {tree:#?}");
    }
    bed.shutdown();
}

/// A full flight-recorder ring displaces its oldest event for every new
/// one: that is rotation, not shedding, and the `recorder_shed` rule
/// reads only shedding (`baps_flight_recorder_shed_total`). One client's
/// sequential origin misses contend for no stripe lock, so however often
/// the ring turned over, the rule reads 0 and is ok.
#[test]
fn recorder_shed_reads_contention_not_ring_rotation() {
    const MISSES: usize = 1_500;
    let bed = TestBed::start(
        DocumentStore::synthetic(MISSES, 200, 1_500, 42),
        TestBedConfig {
            n_clients: 1,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let start = scrape(&bed.proxy);
    for i in 0..MISSES {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let recorder = bed.proxy.recorder();
    assert!(
        recorder.dropped() > recorder.capacity() as u64,
        "the ring turned over ({} dropped)",
        recorder.dropped()
    );
    let end = scrape(&bed.proxy);
    assert_eq!(Window::between(&start, &end).recorder_shed, 0);
    let report = evaluate(&start, &end, &SloTable::default());
    let shed = report.rule("recorder_shed").expect("default table rule");
    assert_eq!(shed.value, 0.0);
    assert_eq!(shed.verdict, Verdict::Ok);
    bed.shutdown();
}
