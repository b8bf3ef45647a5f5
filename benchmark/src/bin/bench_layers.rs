//! Per-layer timings: calls into the layers' public functions with inputs
//! drawn from one workload's own body-size distribution.
//!
//! ```text
//! bench_layers --workload W [--seed N] [--out DIR]
//! ```
//!
//! Each metric is nanoseconds (or µs / MB/s where named so) per call, the
//! best decile of at least [`MIN_BATCHES`] timed batches; one span per
//! batch is appended to `DIR/trace-<workload>.jsonl`. The last stdout line
//! is `{"workload": .., "metrics": {name: value}}`.
//!
//! This is the one place that names the wide layer APIs (`ShardedCache`,
//! `StripedIndex`, `BodyCache`, `DiskTier`, `read_message`, ...). It is a
//! separate binary so that churn in those APIs can break *it*, and with it
//! only the per-layer block of a traced run, never the end-to-end build.

use baps_benchmark::gen;
use baps_benchmark::json::Value;
use baps_benchmark::metrics::Better;
use baps_benchmark::proc::pin_to_one_cpu;
use baps_benchmark::span::{self, Recorder, NO_PARENT, NO_TIER};
use baps_benchmark::stats::best_decile;
use baps_benchmark::workload;
use baps_core::LatencyParams;
use baps_crypto::{md5, verify_document, ProxySigner};
use baps_obs::AtomicHistogram;
use baps_proxy::shard::DEFAULT_INDEX_SHARDS;
use baps_proxy::{
    auto_shards, encode_message, read_message, write_message, BodyCache, CachedDoc, DiskConfig,
    DiskTier, DocumentStore, Message, OriginServer, ShardedCache, StripedIndex,
};
use baps_trace::{ClientId, DocId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct documents sampled from the head of the workload's schedule.
const SAMPLE: usize = 32;
const MIN_BATCHES: usize = 30;
/// A batch is repeated until it lasts at least this long.
const MIN_BATCH: Duration = Duration::from_micros(200);
/// Wall-time target per metric once `MIN_BATCHES` are in.
const PER_METRIC: Duration = Duration::from_millis(120);

struct Timer {
    t0: Instant,
    rec: Recorder,
    metrics: BTreeMap<String, f64>,
}

impl Timer {
    /// Times `pass` (one call per sampled document, returning how many
    /// calls it made) and records the best-decile nanoseconds per call.
    fn time(&mut self, name: &'static str, mut pass: impl FnMut() -> usize) -> f64 {
        // Warm-up pass, also used to size the batch.
        let t = Instant::now();
        let calls = pass();
        let once = t.elapsed().max(Duration::from_nanos(1));
        let reps = (MIN_BATCH.as_nanos() / once.as_nanos()).max(1) as usize;
        let mut per_call: Vec<f64> = Vec::new();
        let started = Instant::now();
        while per_call.len() < MIN_BATCHES || started.elapsed() < PER_METRIC {
            let begin = Instant::now();
            for _ in 0..reps {
                black_box(pass());
            }
            let end = Instant::now();
            per_call.push((end - begin).as_nanos() as f64 / (reps * calls) as f64);
            self.rec.push(
                name,
                per_call.len() as u32,
                NO_PARENT,
                NO_TIER,
                (begin - self.t0).as_nanos() as u64,
                (end - self.t0).as_nanos() as u64,
                0,
            );
        }
        let ns = best_decile(&per_call, Better::Lower).value;
        self.metrics.insert(name.to_string(), ns);
        ns
    }
}

/// Echo peer for `wire.loopback_rtt_us`: reads a fixed-length request
/// whose first four bytes name the response length, and answers with that
/// many bytes. A zero-length request ends it.
fn echo_server(listener: TcpListener, request_len: usize) -> std::io::Result<()> {
    let (mut conn, _) = listener.accept()?;
    conn.set_nodelay(true)?;
    let mut request = vec![0u8; request_len];
    let mut response = Vec::new();
    loop {
        conn.read_exact(&mut request)?;
        let want = u32::from_le_bytes(request[..4].try_into().expect("4 bytes")) as usize;
        if want == 0 {
            return Ok(());
        }
        response.resize(want, 0x5a);
        conn.write_all(&response)?;
    }
}

fn run(spec: &workload::WorkloadSpec, seed: u64, out: PathBuf) -> Result<Value, String> {
    let io = |e: std::io::Error| e.to_string();
    let inputs = gen::generate(spec, seed);
    let mut docs: Vec<usize> = Vec::new();
    for op in &inputs.ops[0] {
        if !docs.contains(&(op.doc as usize)) {
            docs.push(op.doc as usize);
            if docs.len() == SAMPLE {
                break;
            }
        }
    }
    let urls: Vec<String> = docs.iter().map(|&d| gen::url(seed, d)).collect();
    let bodies: Vec<Arc<[u8]>> = docs
        .iter()
        .map(|&d| gen::body(seed, d, 0, inputs.sizes[d] as usize))
        .collect();
    let total_bytes: u64 = bodies.iter().map(|b| b.len() as u64).sum();
    let mut sizes: Vec<usize> = bodies.iter().map(|b| b.len()).collect();
    sizes.sort_unstable();
    let median_body = sizes[sizes.len() / 2] as u64;

    let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(seed));
    let key = signer.public_key();
    let cached: Vec<CachedDoc> = bodies
        .iter()
        .map(|b| CachedDoc {
            body: Arc::clone(b),
            watermark: signer.watermark(b),
        })
        .collect();
    let n = docs.len();
    let mut t = Timer {
        t0: Instant::now(),
        rec: Recorder::new(0, 4096),
        metrics: BTreeMap::new(),
    };

    // protocol: the frames a proxy hit puts on the wire.
    let responses: Vec<Message> = cached
        .iter()
        .map(|c| {
            Message::new("BAPS/1.0 200 OK")
                .header("X-Source", "proxy")
                .header("X-Watermark", c.watermark.to_hex())
                .with_body(Arc::clone(&c.body))
        })
        .collect();
    let requests: Vec<Message> = urls
        .iter()
        .map(|u| {
            Message::new(format!("GET {u} BAPS/1.0"))
                .header("Client", "1")
                .header("Trace-Id", "4294967297")
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|m| encode_message(m).map_err(io))
        .collect::<Result<_, _>>()?;
    let request_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|m| encode_message(m).map_err(io))
        .collect::<Result<_, _>>()?;
    let parse_all = |frames: &[Vec<u8>]| {
        for f in frames {
            let mut r: &[u8] = f;
            black_box(read_message(&mut r).expect("own frame parses"));
        }
        frames.len()
    };
    t.time("protocol.encode_ns", || {
        for m in &responses {
            black_box(encode_message(m).expect("encodes"));
        }
        n
    });
    t.time("protocol.encode_req_ns", || {
        for m in &requests {
            black_box(encode_message(m).expect("encodes"));
        }
        n
    });
    t.time("protocol.parse_ns", || parse_all(&response_frames));
    t.time("protocol.parse_req_ns", || parse_all(&request_frames));

    // crypto: digest, watermark, verify.
    let md5_ns = t.time("crypto.md5_ns", || {
        for b in &bodies {
            black_box(md5(b));
        }
        n
    });
    let mean_body = total_bytes as f64 / n as f64;
    t.metrics
        .insert("crypto.md5_mb_per_s".into(), mean_body / md5_ns * 1e3);
    t.time("crypto.sign_ns", || {
        for b in &bodies {
            black_box(signer.watermark(b));
        }
        n
    });
    t.time("crypto.verify_ns", || {
        for c in &cached {
            black_box(
                verify_document(&key, &c.body, &c.watermark).expect("own watermark verifies"),
            );
        }
        n
    });

    // shard: the proxy's memory tier and browser index.
    let roomy = ShardedCache::new(total_bytes * 2, auto_shards(total_bytes * 2));
    for (i, c) in cached.iter().enumerate() {
        roomy.insert(DocId(i as u32), &urls[i], c.clone());
    }
    t.time("shard.cache_get_ns", || {
        for (i, u) in urls.iter().enumerate() {
            black_box(roomy.get(DocId(i as u32), u));
        }
        n
    });
    // Half the sample fits, so cycling through it inserts at capacity and
    // evicts on (nearly) every call.
    let tight = ShardedCache::new(total_bytes / 2, auto_shards(total_bytes / 2));
    t.time("shard.cache_insert_ns", || {
        for (i, c) in cached.iter().enumerate() {
            black_box(tight.insert(DocId(i as u32), &urls[i], c.clone()));
        }
        n
    });
    let index = StripedIndex::new(DEFAULT_INDEX_SHARDS);
    for i in 0..n as u32 {
        for c in 0..3 {
            index.on_store(ClientId(c), DocId(i));
        }
    }
    t.time("shard.index_lookup_ns", || {
        for i in 0..n as u32 {
            black_box(index.lookup_all(DocId(i), ClientId(0)));
        }
        n
    });
    t.time("shard.index_update_ns", || {
        for i in 0..n as u32 {
            index.on_store(ClientId(9), DocId(i));
            black_box(index.on_evict(ClientId(9), DocId(i)));
        }
        n
    });

    // store: a browser cache of the workload's own capacity.
    let mut browser = BodyCache::new(spec.browser_capacity);
    for (u, c) in urls.iter().zip(&cached) {
        browser.insert(u, c.clone());
    }
    t.time("store.browser_get_ns", || {
        for u in &urls {
            black_box(browser.get(u).is_some());
        }
        n
    });
    t.time("store.browser_insert_ns", || {
        for (u, c) in urls.iter().zip(&cached) {
            black_box(browser.insert(u, c.clone()));
        }
        n
    });

    // disk: write-through and verified read, under the output directory.
    let root = out.join(format!("tmp/layers-{}-{}", spec.name, std::process::id()));
    let disk = DiskTier::open(
        DiskConfig {
            root: root.clone(),
            capacity: total_bytes * 2,
            default_ttl: Duration::from_secs(3600),
        },
        key,
    )
    .map_err(io)?;
    t.time("disk.store_ns", || {
        for (u, c) in urls.iter().zip(&cached) {
            disk.store(u, c);
        }
        n
    });
    t.time("disk.load_ns", || {
        for u in &urls {
            black_box(disk.load(u).expect("stored entry loads"));
        }
        n
    });
    drop(disk);
    let _ = std::fs::remove_dir_all(&root);

    let hist = AtomicHistogram::new();
    t.time("obs.hist_record_ns", || {
        for i in 0..1024u64 {
            hist.record(Duration::from_nanos(15_000 + i * 37));
        }
        1024
    });

    // origin: one GET straight at the origin server, keep-alive.
    let mut store = DocumentStore::new();
    for (u, b) in urls.iter().zip(&bodies) {
        store.insert(u.clone(), Arc::clone(b));
    }
    let origin = OriginServer::start(store).map_err(io)?;
    let stream = TcpStream::connect(origin.addr()).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let origin_gets: Vec<Message> = urls
        .iter()
        .map(|u| Message::new(format!("GET {u} ORIGIN/1.0")).header("Trace-Id", "4294967297"))
        .collect();
    let ns = t.time("origin.roundtrip_us", || {
        for m in &origin_gets {
            write_message(&mut writer, m).expect("origin accepts the request");
            black_box(read_message(&mut reader).expect("origin answers"));
        }
        n
    });
    t.metrics.insert("origin.roundtrip_us".into(), ns / 1e3);
    drop((reader, writer));
    origin.shutdown();

    // wire: frames of the same sizes echoed between two threads, no
    // parsing, no program code — the loopback I/O floor.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let request_len = request_frames.iter().map(Vec::len).max().unwrap_or(64);
    let server = std::thread::spawn(move || echo_server(listener, request_len));
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_nodelay(true).map_err(io)?;
    let mut request = vec![0u8; request_len];
    let mut sink = vec![0u8; response_frames.iter().map(Vec::len).max().unwrap_or(0)];
    let ns = t.time("wire.loopback_rtt_us", || {
        for f in &response_frames {
            request[..4].copy_from_slice(&(f.len() as u32).to_le_bytes());
            conn.write_all(&request).expect("echo peer reads");
            conn.read_exact(&mut sink[..f.len()])
                .expect("echo peer answers");
        }
        n
    });
    t.metrics.insert("wire.loopback_rtt_us".into(), ns / 1e3);
    request[..4].copy_from_slice(&0u32.to_le_bytes());
    conn.write_all(&request).map_err(io)?;
    server
        .join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(io)?;

    // The paper's section-5 model for the same transfer (median body).
    let p = LatencyParams::paper();
    let lan = p.lan_transfer_ms(median_body);
    for (tier, ms) in [
        ("proxy", p.mem_ms(median_body) + lan),
        ("disk", p.disk_ms(median_body) + lan),
        ("peer", p.lan_ms(median_body) + lan),
        ("origin", p.wan_ms(median_body) + lan),
    ] {
        t.metrics.insert(format!("model.{tier}_us"), ms * 1e3);
    }

    let path = out.join(format!("trace-{}.jsonl", spec.name));
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    span::write_jsonl(std::io::BufWriter::new(file), spec.name, 0, &t.rec.spans).map_err(io)?;

    let mut metrics = Value::obj();
    for (k, v) in &t.metrics {
        println!("{k:<28} {v:>14.2}");
        metrics.set(k, *v);
    }
    Ok(Value::obj()
        .with("workload", spec.name)
        .with("seed", seed)
        .with("sample_docs", n)
        .with("median_body", median_body)
        .with("metrics", metrics))
}

fn main() -> ExitCode {
    let mut name = None;
    let mut seed = 1u64;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => name = Some(v),
            ("--seed", Some(v)) if v.parse::<u64>().is_ok() => seed = v.parse().expect("checked"),
            ("--out", Some(v)) => out = PathBuf::from(v),
            _ => {
                eprintln!("usage: bench_layers --workload W [--seed N] [--out DIR]");
                return ExitCode::from(2);
            }
        }
    }
    let Some(spec) = name.as_deref().and_then(workload::find) else {
        eprintln!("bench_layers: --workload must be one of the benchmark's workloads");
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("bench_layers: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    // Same placement as the end-to-end rounds (see `pin_to_one_cpu`).
    if pin_to_one_cpu().is_none() {
        eprintln!("warning: could not pin to one CPU; timings will be bimodal");
    }
    match run(spec, seed, out) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_layers: {e}");
            ExitCode::FAILURE
        }
    }
}
