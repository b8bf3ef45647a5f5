//! Scenario replay: shared plumbing for driving the adversarial workload
//! schedules of [`baps_trace::scenarios`] through a live [`TestBed`].
//!
//! `chaos_soak --scenario <name>` replays a schedule **sequentially**, so
//! its outcome tallies are run-to-run deterministic and can gate CI.
//!
//! An `Invalidate` op is the full publisher protocol: mutate the origin
//! copy (every *other* op leaves the bytes unchanged so the unchanged
//! half must come back via `If-Digest` revalidation, not a blind serve),
//! drop every browser replica via [`piggybacked
//! discards`](baps_proxy::ClientAgent::discard), and push exactly **one**
//! `INVALIDATE` with `Purge: 1` through the proxy — the wire cost of a
//! storm is one message per update, not one per replica.

use baps_core::Served;
use baps_obs::{EventKind, LatencyHistogram, TraceId};
use baps_proxy::{DocumentStore, FaultConfig, FaultPlan, ProxyError, TestBed, TestBedConfig};
use baps_trace::{DocId, Scenario, ScenarioConfig, ScenarioOp, ScenarioSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The synthetic origin URL for a scenario document.
pub fn url_of(doc: DocId) -> String {
    format!("http://origin/doc/{}", doc.0)
}

/// Builds the origin corpus a schedule dictates: one document per entry
/// of `doc_sizes`, with deterministic pseudo-random bodies. Returns the
/// store plus the byte-exact ground truth the replay checks against.
pub fn scenario_corpus(
    schedule: &ScenarioSchedule,
    seed: u64,
) -> (DocumentStore, HashMap<String, Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0a_9b0d);
    let mut store = DocumentStore::new();
    let mut expected = HashMap::with_capacity(schedule.doc_sizes.len());
    for (i, &size) in schedule.doc_sizes.iter().enumerate() {
        let mut body = vec![0u8; size as usize];
        rng.fill(body.as_mut_slice());
        let url = url_of(DocId(i as u32));
        store.insert(url.clone(), body.clone());
        expected.insert(url, body);
    }
    (store, expected)
}

/// Deployment shape for a scenario replay: caches deliberately
/// undersized relative to the corpus (so the shape actually churns the
/// LRU and spills to the disk tier) and a persistent disk root so
/// invalidation storms exercise the on-disk expiry path too. Heavy-tail
/// runs get megabyte-scale budgets; its bodies would otherwise never be
/// admitted anywhere.
pub fn bed_config(cfg: &ScenarioConfig, disk_root: Option<PathBuf>) -> TestBedConfig {
    let heavy = cfg.scenario == Scenario::HeavyTail;
    TestBedConfig {
        n_clients: cfg.n_clients,
        proxy_capacity: if heavy { 8 << 20 } else { 24 << 10 },
        browser_capacity: if heavy { 1 << 20 } else { 8 << 10 },
        disk_root,
        disk_capacity: if heavy { 64 << 20 } else { 1 << 20 },
        disk_ttl: Duration::from_secs(3600),
        ..TestBedConfig::default()
    }
}

/// Per-source outcome counts of one replay. Same-seed sequential replays
/// must produce identical tallies — the chaos-soak determinism gate
/// compares two of these directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScenarioTally {
    /// Successful fetches by where they were served, by [`Served::index`].
    pub served: [u64; Served::ALL.len()],
    /// Failed after bounded retries (honest degradation).
    pub failed: u64,
}

impl ScenarioTally {
    /// Total successful fetches.
    pub fn successes(&self) -> u64 {
        self.served.iter().sum()
    }

    /// The soak reports' line: `local N | proxy N | … | degraded-errors N`.
    pub fn outcomes(&self) -> String {
        let served = Served::ALL.map(|s| format!("{} {}", s.label(), self.served[s.index()]));
        format!("{} | degraded-errors {}", served.join(" | "), self.failed)
    }
}

/// Everything one sequential schedule replay produced.
pub struct ReplayOutcome {
    /// Per-source outcome counts.
    pub tally: ScenarioTally,
    /// Client-observed fetch latencies.
    pub histo: LatencyHistogram,
    /// Wall-clock time of the replay loop.
    pub wall: Duration,
    /// `INVALIDATE` messages actually put on the wire (exactly one per
    /// executed `Invalidate` op — replica discards piggyback for free).
    pub invalidation_msgs: u64,
    /// Invariant violations (wrong bytes, unacceptable errors, publisher
    /// failures). Each is also recorded as a `VIOLATION` event in the
    /// bed's flight-recorder ring at the moment it happened.
    pub violations: Vec<String>,
}

/// Replays `schedule` sequentially against `bed`, checking every fetched
/// body byte-for-byte against `expected` (which is kept current as
/// `Invalidate` ops mutate the corpus). `fetch_deadline` bounds any
/// single fetch; slower is a violation.
pub fn replay_schedule(
    bed: &TestBed,
    schedule: &ScenarioSchedule,
    expected: &mut HashMap<String, Vec<u8>>,
    seed: u64,
    fetch_deadline: Duration,
) -> ReplayOutcome {
    let mut tally = ScenarioTally::default();
    let mut histo = LatencyHistogram::new();
    let mut violations = Vec::new();
    let mut invalidation_msgs = 0u64;
    let mut mutate_rng = StdRng::seed_from_u64(seed ^ 0x17a1_1da7e);
    let mut seq = 0u64;
    let violate = |violations: &mut Vec<String>, msg: String| {
        bed.recorder
            .note(TraceId::NONE, EventKind::Violation, msg.clone());
        violations.push(msg);
    };
    let t0 = Instant::now();
    for (i, op) in schedule.ops.iter().enumerate() {
        match op {
            ScenarioOp::Get { client, doc } => {
                let url = url_of(*doc);
                let t = Instant::now();
                let result = bed.clients[client.0 as usize].fetch(&url);
                let dt = t.elapsed();
                histo.record(dt.as_secs_f64() * 1e3);
                if dt > fetch_deadline {
                    violate(
                        &mut violations,
                        format!("op {i}: fetch of {url} took {dt:?} (> {fetch_deadline:?})"),
                    );
                }
                match result {
                    Ok(res) => {
                        if res.body[..] != expected[&url][..] {
                            violate(
                                &mut violations,
                                format!(
                                    "op {i}: WRONG BYTES for {url} from {:?} \
                                     ({} bytes, expected {})",
                                    res.source,
                                    res.body.len(),
                                    expected[&url].len()
                                ),
                            );
                        }
                        tally.served[res.source.index()] += 1;
                    }
                    Err(ProxyError::Io(_) | ProxyError::Timeout | ProxyError::Unavailable(_)) => {
                        tally.failed += 1
                    }
                    Err(other) => violate(
                        &mut violations,
                        format!("op {i}: unacceptable error for {url}: {other}"),
                    ),
                }
            }
            ScenarioOp::Invalidate { doc } => {
                let url = url_of(*doc);
                seq += 1;
                // Every other update actually changes the bytes; the
                // rest republish identical content, so the revalidation
                // path (If-Digest -> 304) is exercised alongside the
                // refetch path.
                if seq.is_multiple_of(2) {
                    let body = expected.get_mut(&url).expect("scenario doc exists");
                    let mut next = vec![0u8; body.len()];
                    mutate_rng.fill(next.as_mut_slice());
                    let stamp = seq.to_le_bytes();
                    let n = stamp.len().min(next.len());
                    next[..n].copy_from_slice(&stamp[..n]);
                    *body = next.clone();
                    if !bed.origin.mutate(&url, next) {
                        violate(
                            &mut violations,
                            format!("op {i}: origin refused mutate of {url}"),
                        );
                    }
                }
                for client in &bed.clients {
                    client.discard(&url);
                }
                match bed.clients[0].publish_invalidate(&url) {
                    Ok(()) => invalidation_msgs += 1,
                    Err(e) => violate(
                        &mut violations,
                        format!("op {i}: publisher INVALIDATE of {url} failed: {e}"),
                    ),
                }
            }
        }
    }
    let wall = t0.elapsed();
    ReplayOutcome {
        tally,
        histo,
        wall,
        invalidation_msgs,
        violations,
    }
}

/// Result of a thundering-herd probe (see [`flash_crowd_herd`]).
pub struct HerdProbe {
    /// Concurrent workers released against the cold document.
    pub herd: u32,
    /// Origin fetches the whole herd cost (the coalescing claim is that
    /// this stays 1 per TTL window regardless of herd size).
    pub origin_fetches: u64,
    /// Requests that coalesced onto the leader's in-flight fetch.
    pub coalesced_fetches: u64,
    /// Proxy-side errors.
    pub errors: u64,
    /// Wall-clock time of the stampede.
    pub wall: Duration,
    /// Byte mismatches or failed fetches — empty on a clean probe.
    pub violations: Vec<String>,
}

/// The flash-crowd moment itself, isolated: a dedicated deployment whose
/// origin stalls every reply, with `herd` clients released by a barrier
/// against one cold document — the start of a TTL window for a viral
/// doc. With miss coalescing, exactly one origin fetch happens and the
/// remaining `herd - 1` requests share the in-flight body.
///
/// This runs on its own bed (not the sequential replay's) because the
/// stampede is genuinely concurrent: its *outcome counters* are
/// deterministic, its interleaving is not, so it must not share counters
/// with the determinism-gated replay. The whole herd misses memory (a
/// cold doc), so all but its leader park as continuations on the proxy's
/// event loops: the probe doubles as the coalescing gate for that path.
pub fn flash_crowd_herd(seed: u64, herd: u32) -> HerdProbe {
    let store = DocumentStore::synthetic(2, 512, 1024, seed);
    let url = "http://origin/doc/0";
    let want = store.get(url).expect("synthetic doc exists").to_vec();
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: herd,
            // Retries off: each fetch is exactly one proxy GET, keeping
            // the counter arithmetic exact. The stall pins the leader in
            // flight long enough for the whole herd to pile in.
            client_retries: 0,
            fault_plan: Some(Arc::new(FaultPlan::new(
                seed,
                FaultConfig {
                    p_origin_stall: 1.0,
                    stall: Duration::from_millis(300),
                    ..FaultConfig::default()
                },
            ))),
            ..TestBedConfig::default()
        },
    )
    .expect("herd bed starts");

    let barrier = Arc::new(Barrier::new(herd as usize));
    let t0 = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = bed
            .clients
            .iter()
            .map(|client| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    client.fetch(url)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut violations = Vec::new();
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(res) if res.body[..] == want[..] => {}
            Ok(res) => violations.push(format!(
                "herd worker {i}: wrong bytes ({} != {} expected)",
                res.body.len(),
                want.len()
            )),
            Err(e) => violations.push(format!("herd worker {i}: fetch failed: {e}")),
        }
    }
    let stats = bed.proxy.stats();
    let probe = HerdProbe {
        herd,
        origin_fetches: stats.origin_fetches,
        coalesced_fetches: stats.coalesced_fetches,
        errors: stats.errors,
        wall,
        violations,
    };
    bed.shutdown();
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_schedule_sizes() {
        let cfg = Scenario::InvalidationStorm.config(200, 4, 16);
        let schedule = cfg.generate(9);
        let (store, expected) = scenario_corpus(&schedule, 9);
        assert_eq!(store.len(), 16);
        for (i, &size) in schedule.doc_sizes.iter().enumerate() {
            let url = url_of(DocId(i as u32));
            assert_eq!(store.get(&url).unwrap().len(), size as usize);
            assert_eq!(expected[&url].len(), size as usize);
        }
        // Deterministic in the seed.
        let (store2, _) = scenario_corpus(&schedule, 9);
        for url in store.urls() {
            assert_eq!(store.get(url), store2.get(url));
        }
    }

    #[test]
    fn herd_probe_coalesces_to_one_origin_fetch() {
        let probe = flash_crowd_herd(5, 8);
        assert!(probe.violations.is_empty(), "{:?}", probe.violations);
        assert_eq!(probe.origin_fetches, 1);
        assert_eq!(probe.coalesced_fetches, 7);
        assert_eq!(probe.errors, 0);
    }
}
