//! End-to-end benchmark of the real loopback deployment.
//!
//! ```text
//! bench_e2e [--seed N] [--seconds S] [--trace 0|1] [--out DIR]   all four workloads, report + result.json
//! bench_e2e --workload W --seed N --seconds S --trace 0|1       one workload, result as the last stdout line
//! bench_e2e --selfcheck                                          run the default set twice and compare
//! ```
//!
//! Load shape: a closed loop of [`DRIVERS`] threads, each owning half the
//! agents and keeping one fetch in flight. Every workload runs [`ROUNDS`]
//! rounds, interleaved across workloads, each round a fresh child process
//! (`--child`): build inputs from the seed → start the bed → warm sweep →
//! sequential, fully verified *count pass* (deterministic tallies) →
//! *timed pass* cut into slices. `--trace 1` instead runs one round whose
//! timed part is an untraced pass, a traced pass (driver-side spans) and
//! the open-loop diagnostic, then `bench_layers`.
//!
//! This file names only the deployment's narrow surface — `TestBed`,
//! `TestBedConfig`, `ClientAgent::{fetch, discard, publish_invalidate,
//! peer_serves}`, `OriginServer::{mutate, hits}`, `ProxyServer::{stats,
//! disk_stats}`, `DocumentStore::{new, insert}` — and measures whatever
//! `Default` ships. Layer-level APIs live in `bench_layers` only.

use baps_benchmark::budget;
use baps_benchmark::compare;
use baps_benchmark::gen::{self, Inputs, Op, PUBLISH_BATCH, SCHED_LEN};
use baps_benchmark::json::{self, Value};
use baps_benchmark::metrics::{per_layer, Better, BUDGET_TIERS, END_TO_END, TIERS};
use baps_benchmark::proc::{peak_rss_mib, pin_to_one_cpu, process_cpu_ns};
use baps_benchmark::span::{self, Recorder, NO_PARENT, NO_TIER};
use baps_benchmark::stats::{best_decile, median, quantile_ns, Estimate};
use baps_benchmark::workload::{self, WorkloadSpec, DRIVERS, WORKLOADS};
use baps_proxy::{DocumentStore, Source, TestBed, TestBedConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fresh-process rounds per workload in an untraced run.
const ROUNDS: usize = 3;
/// Bytes compared at each end of a body in the timed pass.
const HEAD_TAIL: usize = 64;
/// Default measured seconds per workload (all rounds together).
const DEFAULT_SECONDS: f64 = 15.0;
/// Sample-buffer capacity per driver, fetches per second of pass.
const SAMPLES_PER_SEC: f64 = 200_000.0;

// ───────────────────────────── arguments ─────────────────────────────

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selfcheck: bool,
    child_round: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        selfcheck: false,
        child_round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(val("--workload")?),
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = val("--trace")? == "1",
            "--out" => a.out = PathBuf::from(val("--out")?),
            "--selfcheck" => a.selfcheck = true,
            "--child" => {
                a.child_round = Some(
                    val("--child")?
                        .parse()
                        .map_err(|e| format!("--child: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

// ─────────────────────── the deployment under test ───────────────────────

/// A document's current and previous published bodies. The publisher
/// updates this *before* it mutates the origin, so a reader racing a
/// publish sees either version here.
struct Versions {
    version: u32,
    cur: Arc<[u8]>,
    prev: Arc<[u8]>,
}

struct Doc {
    url: String,
    versions: Mutex<Versions>,
}

fn ends_match(a: &[u8], b: &[u8]) -> bool {
    let k = HEAD_TAIL.min(a.len());
    a.len() == b.len() && a[..k] == b[..k] && a[a.len() - k..] == b[b.len() - k..]
}

/// What one successful, verified fetch returned.
struct Got {
    tier: u8,
    bytes: usize,
}

fn tier_of(source: Source) -> u8 {
    match source {
        Source::LocalBrowser => 0,
        Source::Proxy => 1,
        Source::ProxyDisk => 2,
        Source::Peer => 3,
        Source::Origin => 4,
    }
}

/// Removes the temporary disk root when the round ends, however it ends.
struct TempRoot(Option<PathBuf>);

impl Drop for TempRoot {
    fn drop(&mut self) {
        if let Some(root) = &self.0 {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

struct Ctx<'a> {
    spec: &'a WorkloadSpec,
    seed: u64,
    inputs: &'a Inputs,
    docs: &'a [Doc],
    bed: &'a TestBed,
}

impl Ctx<'_> {
    /// One fetch, checked. `strict` compares every byte against the
    /// current version (sequential passes); otherwise length plus head and
    /// tail against the current or the immediately previous version.
    /// `None` is a failed op: an error or wrong bytes.
    fn fetch(&self, op: Op, strict: bool) -> Option<Got> {
        let doc = &self.docs[op.doc as usize];
        let got = match self.bed.clients[op.agent as usize].fetch(&doc.url) {
            Ok(got) => got,
            Err(e) => {
                eprintln!("FAIL {}: fetch {} errored: {e}", self.spec.name, doc.url);
                return None;
            }
        };
        let v = doc
            .versions
            .lock()
            .expect("no panic while holding versions");
        let ok = if strict {
            got.body[..] == v.cur[..]
        } else {
            ends_match(&got.body, &v.cur) || ends_match(&got.body, &v.prev)
        };
        if !ok {
            eprintln!(
                "FAIL {}: wrong bytes for {} ({} B from {:?}, version {})",
                self.spec.name,
                doc.url,
                got.body.len(),
                got.source,
                v.version
            );
            return None;
        }
        Some(Got {
            tier: tier_of(got.source),
            bytes: got.body.len(),
        })
    }

    /// Publisher op `batch`: republishes [`PUBLISH_BATCH`] documents. Each
    /// is discarded from every browser and invalidated at the proxy; every
    /// other one also changes its bytes at the origin (the rest cost an
    /// `If-Digest` 304 on the next read). Returns whether all succeeded.
    fn publish(&self, batch: usize, op: u32, t0: Instant, mut rec: Option<&mut Recorder>) -> bool {
        let since = |t: Instant| t.duration_since(t0).as_nanos() as u64;
        let docs = self.inputs.publishes[batch % self.inputs.publishes.len()];
        let mut ok = true;
        for (j, doc_idx) in docs.into_iter().enumerate() {
            let doc = &self.docs[doc_idx as usize];
            let t_root = Instant::now();
            let root = rec.as_deref_mut().map(|r| {
                // Placeholder end; patched below once the children ran.
                r.push(
                    "invalidate",
                    op,
                    NO_PARENT,
                    NO_TIER,
                    since(t_root),
                    since(t_root),
                    0,
                )
            });
            let mut child = |name: &'static str, t: Instant, bytes: usize| {
                if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
                    r.push(
                        name,
                        op,
                        root,
                        NO_TIER,
                        since(t),
                        since(Instant::now()),
                        bytes as u32,
                    );
                }
            };
            if (batch * PUBLISH_BATCH + j).is_multiple_of(2) {
                let t = Instant::now();
                let next = {
                    let mut v = doc
                        .versions
                        .lock()
                        .expect("no panic while holding versions");
                    v.version += 1;
                    let next = gen::body(self.seed, doc_idx as usize, v.version, v.cur.len());
                    v.prev = std::mem::replace(&mut v.cur, Arc::clone(&next));
                    next
                };
                ok &= self.bed.origin.mutate(&doc.url, next.to_vec());
                child("origin.mutate", t, next.len());
            }
            let t = Instant::now();
            for client in &self.bed.clients {
                client.discard(&doc.url);
            }
            child("client.discard", t, 0);
            let t = Instant::now();
            if let Err(e) = self.bed.clients[0].publish_invalidate(&doc.url) {
                eprintln!(
                    "FAIL {}: publish_invalidate {}: {e}",
                    self.spec.name, doc.url
                );
                ok = false;
            }
            child("client.publish_invalidate", t, 0);
            if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
                r.spans[root as usize].end_ns = since(Instant::now());
            }
        }
        ok
    }

    /// Whether position `pos` of driver `d`'s schedule is a publisher op,
    /// and if so which batch.
    fn publish_at(&self, d: usize, pos: usize) -> Option<usize> {
        let every = self.spec.publish_every;
        (d == 0 && every > 0 && pos % every == every - 1).then(|| pos / every)
    }
}

// ───────────────────────── sequential passes ─────────────────────────

/// Exact counts of the count pass. Sequential and seeded, so two rounds of
/// one commit must produce the same tally, field for field.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    gets: u64,
    get_bytes: u64,
    by_tier: [u64; 5],
    bytes_by_tier: [u64; 5],
    publishes: u64,
    // Deltas of the deployment's own counters over the pass.
    proxy_requests: u64,
    proxy_hits: u64,
    disk_hits: u64,
    peer_hits: u64,
    origin_fetches: u64,
    proxy_errors: u64,
    peer_failures: u64,
    peer_fallbacks: u64,
    coalesced_fetches: u64,
    index_invalidations: u64,
    disk_revalidations: u64,
    disk_write_bytes: u64,
    disk_heals: u64,
    disk_evictions: u64,
    origin_hits: u64,
    peer_serves_total: u64,
    peer_serves_max: u64,
}

impl Tally {
    fn to_json(&self) -> Value {
        let mut v = Value::obj();
        for (name, n) in [
            ("gets", self.gets),
            ("get_bytes", self.get_bytes),
            ("publishes", self.publishes),
            ("proxy_requests", self.proxy_requests),
            ("proxy_hits", self.proxy_hits),
            ("disk_hits", self.disk_hits),
            ("peer_hits", self.peer_hits),
            ("origin_fetches", self.origin_fetches),
            ("proxy_errors", self.proxy_errors),
            ("peer_failures", self.peer_failures),
            ("peer_fallbacks", self.peer_fallbacks),
            ("coalesced_fetches", self.coalesced_fetches),
            ("index_invalidations", self.index_invalidations),
            ("disk_revalidations", self.disk_revalidations),
            ("disk_write_bytes", self.disk_write_bytes),
            ("disk_heals", self.disk_heals),
            ("disk_evictions", self.disk_evictions),
            ("origin_hits", self.origin_hits),
            ("peer_serves_total", self.peer_serves_total),
            ("peer_serves_max", self.peer_serves_max),
        ] {
            v.set(name, n);
        }
        for (t, name) in TIERS.iter().enumerate() {
            v.set(&format!("n_{name}"), self.by_tier[t]);
            v.set(&format!("bytes_{name}"), self.bytes_by_tier[t]);
        }
        v
    }

    /// The count pass's own consistency gates.
    fn gate(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                bad.push(what);
            }
        };
        let tiers = self.proxy_hits + self.disk_hits + self.peer_hits + self.origin_fetches;
        check(
            self.proxy_requests == tiers + self.proxy_errors,
            format!(
                "ProxyStats.requests {} != sum of tier counters {tiers}",
                self.proxy_requests
            ),
        );
        check(
            self.proxy_requests == self.gets - self.by_tier[0],
            format!(
                "proxy saw {} GETs, clients sent {}",
                self.proxy_requests,
                self.gets - self.by_tier[0]
            ),
        );
        check(
            [
                self.proxy_hits,
                self.disk_hits,
                self.peer_hits,
                self.origin_fetches,
            ] == self.by_tier[1..],
            format!(
                "proxy tier counters disagree with FetchResult::source {:?}",
                self.by_tier
            ),
        );
        check(
            self.origin_hits == self.by_tier[4],
            format!(
                "origin served {} bodies, {} fetches say origin",
                self.origin_hits, self.by_tier[4]
            ),
        );
        bad
    }
}

/// Every agent fetches its own ranking from coldest to hottest, so caches
/// end in steady state with the hot documents most recent. Returns
/// (attempted, failed).
fn warm_sweep(ctx: &Ctx) -> (u64, u64) {
    let spec = ctx.spec;
    let mut failed = 0;
    for rank in (0..spec.docs).rev() {
        let agent = rank % spec.agents;
        let op = Op {
            agent: agent as u16,
            doc: ((rank + agent * spec.rotate) % spec.docs) as u16,
        };
        failed += ctx.fetch(op, true).is_none() as u64;
    }
    (spec.docs as u64, failed)
}

/// The first `count_ops` ops, one at a time, every byte compared. Returns
/// the tally, the failed ops, and per tier the mean fetch time in µs with
/// nothing else in flight (what the time budget is held against: under the
/// two-driver load every fetch also waits for the other driver's).
fn count_pass(ctx: &Ctx) -> (Tally, u64, [f64; TIERS.len()]) {
    let bed = ctx.bed;
    let (s0, d0, o0) = (
        bed.proxy.stats(),
        bed.proxy.disk_stats().unwrap_or_default(),
        bed.origin.hits(),
    );
    let serves0: Vec<u64> = bed.clients.iter().map(|c| c.peer_serves()).collect();
    let mut t = Tally::default();
    let mut failed = 0u64;
    let mut alone_us = [0.0; TIERS.len()];
    let t0 = Instant::now();
    for i in 0..ctx.spec.count_ops {
        let (d, pos) = (i % DRIVERS, i / DRIVERS);
        if let Some(batch) = ctx.publish_at(d, pos) {
            t.publishes += 1;
            failed += !ctx.publish(batch, pos as u32, t0, None) as u64;
            continue;
        }
        t.gets += 1;
        let begin = Instant::now();
        match ctx.fetch(ctx.inputs.ops[d][pos], true) {
            Some(got) => {
                alone_us[got.tier as usize] += begin.elapsed().as_secs_f64() * 1e6;
                t.get_bytes += got.bytes as u64;
                t.by_tier[got.tier as usize] += 1;
                t.bytes_by_tier[got.tier as usize] += got.bytes as u64;
            }
            None => failed += 1,
        }
    }
    let (s1, d1) = (
        bed.proxy.stats(),
        bed.proxy.disk_stats().unwrap_or_default(),
    );
    t.proxy_requests = s1.requests - s0.requests;
    t.proxy_hits = s1.proxy_hits - s0.proxy_hits;
    t.disk_hits = s1.disk_hits - s0.disk_hits;
    t.peer_hits = s1.peer_hits - s0.peer_hits;
    t.origin_fetches = s1.origin_fetches - s0.origin_fetches;
    t.proxy_errors = s1.errors - s0.errors;
    t.peer_failures = s1.peer_failures - s0.peer_failures;
    t.peer_fallbacks = s1.peer_fallbacks - s0.peer_fallbacks;
    t.coalesced_fetches = s1.coalesced_fetches - s0.coalesced_fetches;
    t.index_invalidations = s1.invalidations - s0.invalidations;
    t.disk_revalidations = s1.disk_revalidations - s0.disk_revalidations;
    t.disk_write_bytes = d1.write_bytes - d0.write_bytes;
    t.disk_heals = d1.heals - d0.heals;
    t.disk_evictions = d1.evictions - d0.evictions;
    t.origin_hits = bed.origin.hits() - o0;
    let serves = bed
        .clients
        .iter()
        .zip(serves0)
        .map(|(c, s0)| c.peer_serves() - s0);
    for s in serves {
        t.peer_serves_total += s;
        t.peer_serves_max = t.peer_serves_max.max(s);
    }
    for (sum, n) in alone_us.iter_mut().zip(t.by_tier) {
        *sum = if n == 0 { 0.0 } else { *sum / n as f64 };
    }
    (t, failed, alone_us)
}

// ─────────────────────────── timed passes ───────────────────────────

/// What one driver brings back from a closed-loop pass.
struct DriverOut {
    /// Fetch latencies, ns, in completion order.
    samples: Vec<u32>,
    /// `samples[..slice_end[k]]` completed in slices `0..=k`.
    slice_end: Vec<usize>,
    /// Fetches completed per slice (counted even if `samples` is full).
    count: Vec<u64>,
    attempted: u64,
    failed: u64,
    next_pos: usize,
    rec: Option<Recorder>,
}

/// Per-slice values of one closed-loop pass, drivers merged.
#[derive(Default)]
struct Slices {
    /// Which slice of the pass each entry is (empty slices are skipped).
    index: Vec<usize>,
    req_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    cpu_us_per_req: Vec<f64>,
}

struct PassOut {
    slices: Slices,
    attempted: u64,
    failed: u64,
    next_pos: [usize; DRIVERS],
    spans: Vec<span::Span>,
    slice_secs: f64,
}

fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Closed loop: [`DRIVERS`] threads, one fetch in flight each, for about
/// `secs` (a whole number of slices). With `trace`, ops that complete in
/// an odd slice record driver-side spans and those in an even slice do
/// not: traced and untraced slices alternate, so the drift of the box over
/// the pass cancels out of their difference (`trace.overhead_pct`).
fn closed_pass(ctx: &Ctx, secs: f64, start: [usize; DRIVERS], trace: bool) -> PassOut {
    // Each slice yields its own rate, p50, p99 and CPU per request.
    let slice = Duration::from_millis(ctx.spec.slice_ms);
    let n_slices = ((secs / slice.as_secs_f64()).round() as usize).max(1);
    let slice_ns = slice.as_nanos() as u64;
    let cap = (SAMPLES_PER_SEC * n_slices as f64 * slice.as_secs_f64()) as usize;
    // Buffers are allocated and touched before the clock starts.
    let mut bufs: Vec<(Vec<u32>, Option<Recorder>)> = (0..DRIVERS)
        .map(|d| {
            let mut samples = vec![0u32; cap];
            samples.clear();
            (samples, trace.then(|| Recorder::new(d, cap / 2)))
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut cpu = vec![0u64; n_slices + 1];
    let outs: Vec<DriverOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = bufs
            .drain(..)
            .enumerate()
            .map(|(d, (mut samples, mut rec))| {
                let ops = &ctx.inputs.ops[d];
                let mut pos = start[d];
                scope.spawn(move || {
                    let mut slice_end = Vec::with_capacity(n_slices);
                    let mut count = vec![0u64; n_slices];
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    // Whether the slice the last op completed in is traced.
                    let mut tracing = false;
                    wait_until(t0);
                    loop {
                        let at = pos % SCHED_LEN;
                        if let Some(batch) = ctx.publish_at(d, at) {
                            let rec = rec.as_mut().filter(|_| tracing);
                            attempted += 1;
                            failed += !ctx.publish(batch, at as u32, t0, rec) as u64;
                            pos += 1;
                            continue;
                        }
                        let begin = Instant::now();
                        let got = ctx.fetch(ops[at], false);
                        let end = Instant::now();
                        let end_ns = end.duration_since(t0).as_nanos() as u64;
                        let k = (end_ns / slice_ns) as usize;
                        if k >= n_slices {
                            break;
                        }
                        pos += 1;
                        attempted += 1;
                        let Some(got) = got else {
                            failed += 1;
                            continue;
                        };
                        while slice_end.len() < k {
                            slice_end.push(samples.len());
                        }
                        count[k] += 1;
                        if samples.len() < samples.capacity() {
                            samples.push(end.duration_since(begin).as_nanos() as u32);
                        }
                        tracing = k % 2 == 1;
                        if let Some(rec) = rec.as_mut().filter(|_| tracing) {
                            let begin_ns = begin.duration_since(t0).as_nanos() as u64;
                            rec.push(
                                "client.fetch",
                                at as u32,
                                NO_PARENT,
                                got.tier,
                                begin_ns,
                                end_ns,
                                got.bytes as u32,
                            );
                        }
                    }
                    slice_end.resize(n_slices, samples.len());
                    DriverOut {
                        samples,
                        slice_end,
                        count,
                        attempted,
                        failed,
                        next_pos: pos,
                        rec,
                    }
                })
            })
            .collect();
        // This thread samples process CPU time at the slice boundaries.
        wait_until(t0);
        cpu[0] = process_cpu_ns();
        for (k, c) in cpu.iter_mut().enumerate().skip(1) {
            let due = t0 + slice * k as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            *c = process_cpu_ns();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });

    let mut slices = Slices::default();
    for k in 0..n_slices {
        let mut merged: Vec<u32> = Vec::new();
        let mut done = 0u64;
        for o in &outs {
            let lo = if k == 0 { 0 } else { o.slice_end[k - 1] };
            merged.extend_from_slice(&o.samples[lo..o.slice_end[k]]);
            done += o.count[k];
        }
        if merged.is_empty() {
            continue; // a slice in which nothing completed has no latency
        }
        slices.index.push(k);
        slices.req_per_s.push(done as f64 / slice.as_secs_f64());
        slices
            .p50_ms
            .push(quantile_ns(&mut merged, 0.5) as f64 / 1e6);
        slices
            .p99_ms
            .push(quantile_ns(&mut merged, 0.99) as f64 / 1e6);
        slices
            .cpu_us_per_req
            .push((cpu[k + 1] - cpu[k]) as f64 / 1e3 / done as f64);
    }
    let mut next_pos = [0; DRIVERS];
    let mut spans = Vec::new();
    for (d, o) in outs.iter().enumerate() {
        next_pos[d] = o.next_pos;
        if let Some(rec) = &o.rec {
            spans.extend_from_slice(&rec.spans);
        }
    }
    PassOut {
        slices,
        attempted: outs.iter().map(|o| o.attempted).sum(),
        failed: outs.iter().map(|o| o.failed).sum(),
        next_pos,
        spans,
        slice_secs: slice.as_secs_f64(),
    }
}

struct OpenOut {
    p99_ms: f64,
    late_p99_ms: f64,
    attempted: u64,
    failed: u64,
}

/// Open-loop diagnostic: constant arrivals at `spec.open_rate`, split
/// across the drivers. Each request is timed from when it was *due*, so a
/// stall is charged to every request queued behind it; how late the
/// generator itself started each request is reported beside it.
fn open_pass(ctx: &Ctx, secs: f64, start: [usize; DRIVERS]) -> OpenOut {
    let interval = Duration::from_secs_f64(DRIVERS as f64 / ctx.spec.open_rate as f64);
    let t0 = Instant::now() + Duration::from_millis(5);
    let t_end = t0 + Duration::from_secs_f64(secs);
    let per_driver = (secs / interval.as_secs_f64()) as usize + 1;
    let outs: Vec<(Vec<u32>, Vec<u32>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let ops = &ctx.inputs.ops[d];
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_driver);
                    let mut late = Vec::with_capacity(per_driver);
                    let (mut attempted, mut failed, mut pos) = (0u64, 0u64, start[d]);
                    // Drivers are staggered by interval / DRIVERS.
                    let first = t0 + interval.mul_f64(d as f64 / DRIVERS as f64);
                    for k in 0.. {
                        let due = first + interval * k;
                        if due >= t_end {
                            break;
                        }
                        let at = pos % SCHED_LEN;
                        pos += 1;
                        if let Some(batch) = ctx.publish_at(d, at) {
                            attempted += 1;
                            failed += !ctx.publish(batch, at as u32, t0, None) as u64;
                            continue;
                        }
                        // Sleep to within 100 µs of the due time, then spin.
                        let ahead = due.saturating_duration_since(Instant::now());
                        if ahead > Duration::from_micros(100) {
                            std::thread::sleep(ahead - Duration::from_micros(100));
                        }
                        wait_until(due);
                        let begin = Instant::now();
                        let ok = ctx.fetch(ops[at], false).is_some();
                        let end = Instant::now();
                        attempted += 1;
                        failed += !ok as u64;
                        lat.push(end.duration_since(due).as_nanos().min(u32::MAX as u128) as u32);
                        late.push(
                                begin.duration_since(due).as_nanos().min(u32::MAX as u128) as u32
                            );
                    }
                    (lat, late, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop driver panicked"))
            .collect()
    });
    let mut lat: Vec<u32> = outs.iter().flat_map(|o| o.0.iter().copied()).collect();
    let mut late: Vec<u32> = outs.iter().flat_map(|o| o.1.iter().copied()).collect();
    OpenOut {
        p99_ms: quantile_ns(&mut lat, 0.99) as f64 / 1e6,
        late_p99_ms: quantile_ns(&mut late, 0.99) as f64 / 1e6,
        attempted: outs.iter().map(|o| o.2).sum(),
        failed: outs.iter().map(|o| o.3).sum(),
    }
}

// ───────────────────────────── one round ─────────────────────────────

/// The slices of `s` whose index has the given parity (`None`: all).
fn slices_json(s: &Slices, odd: Option<bool>) -> Value {
    let pick = |v: &[f64]| -> Vec<f64> {
        let keep = |k: &usize| odd.is_none_or(|odd| (k % 2 == 1) == odd);
        s.index
            .iter()
            .zip(v)
            .filter(|(k, _)| keep(k))
            .map(|(_, x)| *x)
            .collect()
    };
    Value::obj()
        .with("req_per_s", pick(&s.req_per_s))
        .with("p50_ms", pick(&s.p50_ms))
        .with("p99_ms", pick(&s.p99_ms))
        .with("cpu_us_per_req", pick(&s.cpu_us_per_req))
}

/// Runs one round in this process and prints its result as one JSON line.
fn child(spec: &WorkloadSpec, args: &Args, round: usize, t_start: Instant) -> Result<(), String> {
    // Before any thread exists, so the whole deployment inherits it.
    if pin_to_one_cpu().is_none() {
        eprintln!("warning: could not pin to one CPU; timings will be bimodal");
    }
    let seed = args.seed;
    let inputs = gen::generate(spec, seed);
    let docs: Vec<Doc> = inputs
        .sizes
        .iter()
        .enumerate()
        .map(|(d, &len)| {
            let body = gen::body(seed, d, 0, len as usize);
            Doc {
                url: gen::url(seed, d),
                versions: Mutex::new(Versions {
                    version: 0,
                    prev: Arc::clone(&body),
                    cur: body,
                }),
            }
        })
        .collect();
    let mut store = DocumentStore::new();
    for doc in &docs {
        let v = doc.versions.lock().expect("fresh mutex");
        store.insert(doc.url.clone(), Arc::clone(&v.cur));
    }
    let mut config = TestBedConfig {
        n_clients: spec.agents as u32,
        proxy_capacity: spec.proxy_capacity,
        browser_capacity: spec.browser_capacity,
        ..Default::default()
    };
    // The disk tier lives under the benchmark's own output directory: a
    // run reads and writes nothing outside its checkout.
    let temp = TempRoot(spec.disk_capacity.map(|_| {
        args.out
            .join(format!("tmp/disk-{}-{}", spec.name, std::process::id()))
    }));
    if let (Some(root), Some(capacity)) = (&temp.0, spec.disk_capacity) {
        let _ = std::fs::remove_dir_all(root);
        config.disk_root = Some(root.clone());
        config.disk_capacity = capacity;
    }
    let bed =
        TestBed::start(store, config).map_err(|e| format!("test bed failed to start: {e}"))?;
    let ctx = Ctx {
        spec,
        seed,
        inputs: &inputs,
        docs: &docs,
        bed: &bed,
    };

    let (mut attempted, mut failed) = warm_sweep(&ctx);
    let (tally, count_failed, alone_mean_us) = count_pass(&ctx);
    attempted += spec.count_ops as u64;
    failed += count_failed;
    let setup_s = t_start.elapsed().as_secs_f64();

    let start = [spec.count_ops / DRIVERS; DRIVERS];
    let mut out = Value::obj()
        .with("workload", spec.name)
        .with("round", round)
        .with("inputs_hash", format!("{:016x}", inputs.hash))
        .with("setup_s", setup_s)
        .with("alone_mean_us", alone_mean_us.to_vec())
        .with("tally", tally.to_json())
        .with(
            "gates",
            Value::Arr(tally.gate().into_iter().map(Value::Str).collect()),
        );
    if args.trace {
        // One closed-loop pass whose slices alternate untraced / traced,
        // then the open-loop diagnostic.
        let traced = closed_pass(&ctx, args.seconds * 0.7, start, true);
        let open = open_pass(&ctx, args.seconds * 0.3, traced.next_pos);
        attempted += traced.attempted + open.attempted;
        failed += traced.failed + open.failed;

        let tiers = span::tier_times(&traced.spans);
        let mut tiers_json = Value::obj();
        for (name, t) in TIERS.iter().zip(tiers) {
            tiers_json.set(
                name,
                Value::obj()
                    .with("count", t.count)
                    .with("p50_us", t.p50_us)
                    .with("p99_us", t.p99_us)
                    .with("time_share", t.time_share),
            );
        }
        let fetched: u64 = traced
            .spans
            .iter()
            .filter(|s| s.tier != NO_TIER)
            .map(|s| s.bytes as u64)
            .sum();
        let path = args.out.join(format!("trace-{}.jsonl", spec.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        span::write_jsonl(
            std::io::BufWriter::new(file),
            spec.name,
            round,
            &traced.spans,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        let untraced = slices_json(&traced.slices, Some(false));
        let in_trace = slices_json(&traced.slices, Some(true));
        let traced_secs = in_trace.nums("req_per_s").len() as f64 * traced.slice_secs;
        out.set("slices", untraced);
        out.set(
            "trace",
            Value::obj()
                .with("traced_req_per_s", in_trace.nums("req_per_s"))
                .with("tiers", tiers_json)
                .with(
                    "invalidate_p50_us",
                    span::p50_us_of(&traced.spans, "invalidate"),
                )
                .with("body_mb_per_s", fetched as f64 / 1e6 / traced_secs)
                .with("open_p99_ms", open.p99_ms)
                .with("open_late_p99_ms", open.late_p99_ms)
                .with("spans", traced.spans.len()),
        );
    } else {
        let timed = closed_pass(&ctx, args.seconds, start, false);
        attempted += timed.attempted;
        failed += timed.failed;
        out.set("slices", slices_json(&timed.slices, None));
    }
    bed.shutdown();
    drop(temp);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("rss_mb", peak_rss_mib());
    println!("{out}");
    Ok(())
}

// ─────────────────────────── orchestration ───────────────────────────

/// An end-to-end metric as reported: the estimate over all rounds, and the
/// same estimate with each round left out in turn — how much the value
/// hangs on any one round, which `bench_compare` takes as its spread.
struct Reported {
    est: Estimate,
    leave_one_out: Vec<f64>,
}

struct WorkloadResult {
    spec: &'static WorkloadSpec,
    inputs_hash: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    end_to_end: BTreeMap<&'static str, Reported>,
    per_layer: BTreeMap<String, f64>,
}

fn spawn_round(
    spec: &WorkloadSpec,
    args: &Args,
    round: usize,
    seconds: f64,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", &round.to_string(), "--workload", spec.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning round: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} round {round} exited with {}",
            spec.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("round printed nothing")?;
    json::parse(last).map_err(|e| format!("{} round {round}: bad result line: {e}", spec.name))
}

/// `estimate` over all rounds, and over all but one round for each round
/// left out in turn (nothing to leave out of a single round).
fn with_leave_one_out<T: Clone>(rounds: &[T], estimate: impl Fn(&[T]) -> Estimate) -> Reported {
    let leave_one_out = if rounds.len() < 2 {
        Vec::new()
    } else {
        (0..rounds.len())
            .map(|skip| {
                let mut rest = rounds.to_vec();
                rest.remove(skip);
                estimate(&rest).value
            })
            .collect()
    };
    Reported {
        est: estimate(rounds),
        leave_one_out,
    }
}

/// A sliced metric: the best-decile slice pooled over the rounds.
fn sliced(rounds: &[Value], key: &str, better: Better) -> Result<Reported, String> {
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.get("slices").map(|s| s.nums(key)).unwrap_or_default())
        .collect();
    if per_round.iter().any(Vec::is_empty) {
        return Err(format!("a round completed no slice for `{key}`"));
    }
    Ok(with_leave_one_out(&per_round, |rounds| {
        best_decile(&rounds.concat(), better)
    }))
}

/// A metric that has one value per round: the median round is reported.
fn per_round(rounds: &[Value], key: &str) -> Result<Reported, String> {
    let values = rounds
        .iter()
        .map(|r| r.need_num(key))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(with_leave_one_out(&values, |values| {
        let mut sorted = values.to_vec();
        let mid = median(&mut sorted);
        Estimate {
            value: mid,
            median: mid,
            q1: sorted[0],
            q3: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }))
}

fn exact(value: f64) -> Reported {
    Reported {
        est: Estimate {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        },
        leave_one_out: Vec::new(),
    }
}

fn aggregate(
    spec: &'static WorkloadSpec,
    args: &Args,
    rounds: &[Value],
) -> Result<WorkloadResult, String> {
    let first = &rounds[0];
    let mut problems: Vec<String> = Vec::new();
    let inputs_hash = first
        .get("inputs_hash")
        .and_then(Value::str)
        .unwrap_or("")
        .to_string();
    if args.seed == 1 && inputs_hash != format!("{:016x}", spec.seed1_inputs_hash) {
        problems.push(format!(
            "inputs_hash {inputs_hash} is not the recorded {:016x}",
            spec.seed1_inputs_hash
        ));
    }
    for r in rounds {
        if r.get("tally") != first.get("tally") || r.get("inputs_hash") != first.get("inputs_hash")
        {
            problems.push(format!(
                "round {} tallies differ from round 0: {} vs {}",
                r.need_num("round")?,
                r.get("tally").unwrap_or(&Value::Null),
                first.get("tally").unwrap_or(&Value::Null)
            ));
        }
        for g in r.get("gates").map(Value::arr).unwrap_or_default() {
            problems.push(g.str().unwrap_or("gate").to_string());
        }
    }
    let attempted: f64 = rounds
        .iter()
        .map(|r| r.need_num("attempted"))
        .sum::<Result<_, _>>()?;
    let failed: f64 = rounds
        .iter()
        .map(|r| r.need_num("failed"))
        .sum::<Result<_, _>>()?;

    let tally = first.get("tally").ok_or("round has no tally")?;
    let t = |k: &str| tally.need_num(k);
    let gets = t("gets")?;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut e2e = BTreeMap::new();
    e2e.insert("req_per_s", sliced(rounds, "req_per_s", Better::Higher)?);
    e2e.insert("p50_ms", sliced(rounds, "p50_ms", Better::Lower)?);
    e2e.insert("p99_ms", sliced(rounds, "p99_ms", Better::Lower)?);
    e2e.insert(
        "cpu_us_per_req",
        sliced(rounds, "cpu_us_per_req", Better::Lower)?,
    );
    e2e.insert("hit_ratio", exact(1.0 - ratio(t("origin_hits")?, gets)));
    e2e.insert(
        "byte_hit_ratio",
        exact(1.0 - ratio(t("bytes_origin")?, t("get_bytes")?)),
    );
    e2e.insert("fail_ratio", exact(ratio(failed, attempted)));
    e2e.insert("rss_mb", per_round(rounds, "rss_mb")?);
    e2e.insert("setup_s", per_round(rounds, "setup_s")?);

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        let mut put = |k: &str, v: f64| {
            layers.insert(k.to_string(), v);
        };
        put("client.local_share", ratio(t("n_local")?, gets));
        put("proxy.memory_share", ratio(t("n_proxy")?, gets));
        put("disk.hit_share", ratio(t("n_disk")?, gets));
        put("proxy.peer_share", ratio(t("n_peer")?, gets));
        put("origin.fetch_share", ratio(t("n_origin")?, gets));
        put(
            "index.false_hit_ratio",
            ratio(t("peer_failures")?, t("peer_hits")? + t("peer_failures")?),
        );
        // One on_store per request the proxy served, one on_evict per
        // applied eviction notice and per failed probe.
        put(
            "index.updates_per_req",
            ratio(
                t("proxy_requests")? - t("proxy_errors")?
                    + t("index_invalidations")?
                    + t("peer_failures")?,
                gets,
            ),
        );
        put("proxy.peer_fallbacks", t("peer_fallbacks")?);
        put("proxy.coalesced_fetches", t("coalesced_fetches")?);
        put("disk.revalidations", t("disk_revalidations")?);
        put(
            "disk.write_bytes_per_origin_byte",
            ratio(t("disk_write_bytes")?, t("bytes_origin")?),
        );
        put("disk.heals", t("disk_heals")?);
        put("disk.evictions", t("disk_evictions")?);
        put("origin.bytes_per_req", ratio(t("bytes_origin")?, gets));
        put(
            "client.peer_serve_max_share",
            ratio(t("peer_serves_max")?, t("peer_serves_total")?),
        );
        let trace = first
            .get("trace")
            .ok_or("traced round has no trace block")?;
        for (tier, alone) in TIERS.iter().zip(first.nums("alone_mean_us")) {
            put(&format!("fetch.{tier}.alone_mean_us"), alone);
        }
        for tier in TIERS {
            let tt = trace
                .get("tiers")
                .and_then(|x| x.get(tier))
                .ok_or("no tier block")?;
            for k in ["p50_us", "p99_us", "time_share"] {
                put(&format!("fetch.{tier}.{k}"), tt.need_num(k)?);
            }
        }
        put("invalidate.p50_us", trace.need_num("invalidate_p50_us")?);
        put("body.mb_per_s", trace.need_num("body_mb_per_s")?);
        let plain = e2e["req_per_s"].est.value;
        let traced = best_decile(&trace.nums("traced_req_per_s"), Better::Higher).value;
        put("trace.overhead_pct", 100.0 * (1.0 - traced / plain));
        put("driver.open.p99_ms", trace.need_num("open_p99_ms")?);
        put(
            "driver.open.late_p99_ms",
            trace.need_num("open_late_p99_ms")?,
        );

        match run_layers(spec, args) {
            Ok(timed) => {
                for (k, v) in timed.members() {
                    layers.insert(k.clone(), v.num().unwrap_or(0.0));
                }
            }
            Err(e) => eprintln!("warning: bench_layers unavailable ({e}); its metrics read 0"),
        }
        for tier in BUDGET_TIERS {
            let alone = layers[&format!("fetch.{tier}.alone_mean_us")];
            let explained = budget::explained_us(tier, spec.disk_capacity.is_some(), &layers);
            layers.insert(
                format!("budget.{tier}.explained_pct"),
                if alone > 0.0 {
                    100.0 * explained / alone
                } else {
                    0.0
                },
            );
        }
        // Every per-layer name is always present; one that does not apply
        // to this workload reads 0.
        for m in per_layer() {
            layers.entry(m.name).or_insert(0.0);
        }
    }
    for p in &problems {
        eprintln!("FAIL {}: {p}", spec.name);
    }
    Ok(WorkloadResult {
        spec,
        inputs_hash,
        attempted: attempted as u64,
        failed: failed as u64,
        problems,
        end_to_end: e2e,
        per_layer: layers,
    })
}

/// Runs the sibling `bench_layers` binary for this workload and returns
/// its `metrics` object.
fn run_layers(spec: &WorkloadSpec, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("bench_layers");
    let output = Command::new(&exe)
        .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("printed nothing")?;
    json::parse(last)?
        .get("metrics")
        .cloned()
        .ok_or_else(|| "no `metrics` in its result".to_string())
}

/// Runs `specs` with rounds interleaved across workloads.
fn run_set(specs: &[&'static WorkloadSpec], args: &Args) -> Result<Vec<WorkloadResult>, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let rounds = if args.trace { 1 } else { ROUNDS };
    let per_round = if args.trace {
        args.seconds
    } else {
        args.seconds / rounds as f64
    };
    let mut got: Vec<Vec<Value>> = vec![Vec::new(); specs.len()];
    for round in 0..rounds {
        for (spec, results) in specs.iter().zip(&mut got) {
            eprintln!("[bench_e2e] {} round {}/{rounds} ...", spec.name, round + 1);
            results.push(spawn_round(spec, args, round, per_round)?);
        }
    }
    specs
        .iter()
        .zip(&got)
        .map(|(spec, r)| aggregate(spec, args, r))
        .collect()
}

// ───────────────────────────── reporting ─────────────────────────────

fn result_json(args: &Args, results: &[WorkloadResult]) -> Value {
    let layer_defs = per_layer();
    let mut workloads = Value::obj();
    for r in results {
        let mut e2e = Value::obj();
        for m in &END_TO_END {
            let rep = &r.end_to_end[m.name];
            e2e.set(
                m.name,
                Value::obj()
                    .with("value", rep.est.value)
                    .with("unit", m.unit)
                    .with("better", m.better.name())
                    .with("bound", m.bound)
                    .with("median", rep.est.median)
                    .with("q1", rep.est.q1)
                    .with("q3", rep.est.q3)
                    .with("n", rep.est.n)
                    .with("leave_one_out", rep.leave_one_out.clone()),
            );
        }
        let mut w = Value::obj()
            .with("why", r.spec.why)
            .with("inputs_hash", r.inputs_hash.as_str())
            .with("attempted", r.attempted)
            .with("failed", r.failed)
            .with("correct", r.correct())
            .with("end_to_end", e2e);
        if !r.per_layer.is_empty() {
            let mut layers = Value::obj();
            for m in &layer_defs {
                layers.set(
                    &m.name,
                    Value::obj()
                        .with("value", r.per_layer[&m.name])
                        .with("unit", m.unit)
                        .with("better", m.better.name())
                        .with("moves", m.moves),
                );
            }
            w.set("per_layer", layers);
        }
        workloads.set(r.spec.name, w);
    }
    Value::obj()
        .with("benchmark", "baps-benchmark")
        // No gain is claimed by the change that defines the benchmark; a
        // later change states its claim in its own issue.
        .with("claim", Value::Null)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("traced", args.trace)
        .with("drivers", DRIVERS)
        .with("rounds", if args.trace { 1 } else { ROUNDS })
        .with(
            "cores",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("workloads", workloads)
}

fn print_report(results: &[WorkloadResult]) {
    let layer_defs = per_layer();
    for r in results {
        println!(
            "== {}  (inputs_hash {}, {} ops attempted, {} failed)",
            r.spec.name, r.inputs_hash, r.attempted, r.failed
        );
        println!(
            "   {:<16} {:>14} {:<6} {:>14} {:>14} {:>14} {:>4}",
            "end-to-end", "value", "unit", "median", "q1", "q3", "n"
        );
        for m in &END_TO_END {
            let e = &r.end_to_end[m.name].est;
            println!(
                "   {:<16} {:>14.6} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
                m.name, e.value, m.unit, e.median, e.q1, e.q3, e.n
            );
        }
        if !r.per_layer.is_empty() {
            println!("   {:<34} {:>14} {:<6} moves", "per-layer", "value", "unit");
            for m in &layer_defs {
                println!(
                    "   {:<34} {:>14.4} {:<6} {}",
                    m.name, r.per_layer[&m.name], m.unit, m.moves
                );
            }
        }
    }
}

fn save(path: &Path, v: &Value) -> Result<(), String> {
    std::fs::write(path, format!("{v}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

impl WorkloadResult {
    /// No failed op and no broken gate.
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// The line the benchmark driver reads: one workload, one JSON object.
fn driver_line(args: &Args, r: &WorkloadResult) -> Value {
    let mut metrics = Value::obj();
    if args.trace {
        for m in per_layer() {
            metrics.set(
                &m.name,
                Value::obj()
                    .with("value", r.per_layer[&m.name])
                    .with("unit", m.unit),
            );
        }
    } else {
        for m in END_TO_END.iter().filter(|m| m.gated) {
            metrics.set(
                m.name,
                Value::obj()
                    .with("value", r.end_to_end[m.name].est.value)
                    .with("unit", m.unit),
            );
        }
    }
    Value::obj()
        .with("correct", r.correct())
        .with("attempted", r.attempted)
        .with("failed", r.failed)
        .with("metrics", metrics)
}

fn run(args: &Args, t_start: Instant) -> Result<bool, String> {
    if let Some(round) = args.child_round {
        let name = args.workload.as_deref().ok_or("--child needs --workload")?;
        let spec = workload::find(name).ok_or(format!("unknown workload `{name}`"))?;
        child(spec, args, round, t_start)?;
        return Ok(true);
    }
    // Runs a set, prints the report, saves the result document.
    let measure = |specs: &[&'static WorkloadSpec], file: &str| {
        let results = run_set(specs, args)?;
        print_report(&results);
        let doc = result_json(args, &results);
        save(&args.out.join(file), &doc)?;
        Ok::<_, String>((results, doc))
    };
    let all: Vec<&WorkloadSpec> = WORKLOADS.iter().collect();
    let correct = |results: &[WorkloadResult]| results.iter().all(WorkloadResult::correct);
    if args.selfcheck {
        let (ra, a) = measure(&all, "selfcheck-a.json")?;
        let (rb, b) = measure(&all, "selfcheck-b.json")?;
        let (worse, unresolved) = compare::print(&compare::compare(&a, &b)?);
        return Ok(worse == 0 && unresolved == 0 && correct(&ra) && correct(&rb));
    }
    let results = match &args.workload {
        Some(name) => {
            let spec = workload::find(name).ok_or(format!("unknown workload `{name}`"))?;
            let (results, _) = measure(&[spec], &format!("result-{name}.json"))?;
            println!("{}", driver_line(args, &results[0]));
            results
        }
        None if args.trace => measure(&all, "result-trace.json")?.0,
        None => measure(&all, "result.json")?.0,
    };
    Ok(correct(&results))
}

fn main() -> ExitCode {
    let t_start = Instant::now();
    let outcome = parse_args().and_then(|args| run(&args, t_start));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: FAILED (wrong bytes, failed ops or a broken gate; see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
