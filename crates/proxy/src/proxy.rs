//! The live browsers-aware proxy server.
//!
//! Request path (paper §2): proxy cache → browser index → origin. On an
//! index hit the proxy opens a `PEERGET` to the holding client's peer port,
//! mediating the exchange so requester and server browser never learn each
//! other's identity (§6.2). Every document first fetched from the origin is
//! stamped with a digital watermark signed by the proxy (§6.1); watermarks
//! travel with cached copies and are verified end to end.
//!
//! Observability (DESIGN.md §9): every verb is timed into a per-verb
//! latency histogram, every answered `GET` into a per-tier histogram, and
//! the interesting spans (shard wait, peer probes, origin fetches) land in
//! a shared [`FlightRecorder`] keyed by the client-minted `Trace-Id`. The
//! `METRICS BAPS/1.0` verb renders all of it as Prometheus text.

use crate::disk::{DiskConfig, DiskStats, DiskTier};
use crate::fault::{FaultKind, FaultPlan};
use crate::health::{HealthReport, ProxyWindows, SloTable};
use crate::protocol::{response, response_code, status, Body, Message};
use crate::reactor::{
    loops_per_core, FrameCtx, FrameService, PoolTelemetry, ReactorSnapshot, ReactorTelemetry,
    SaturationSnapshot, Server,
};
use crate::shard::{auto_shards, ShardedCache, StripedIndex, DEFAULT_INDEX_SHARDS};
use crate::store::CachedDoc;
use crate::upstream::UpstreamPool;
use baps_crypto::{md5, AnonymizingProxy, Digest, PeerId, ProxySigner, PublicKey, Watermark};
use baps_obs::{
    span, EventKind, FlightRecorder, LabeledHistograms, SpanId, Tier, TraceId, TIER_NAMES,
};
use baps_trace::{ClientId, DocId, Interner};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Miss-executor threads when [`ProxyConfig::worker_threads`] is `0`.
pub(crate) const DEFAULT_WORKERS: usize = 8;
/// Maximum peer candidates probed per request.
const MAX_PEER_PROBES: usize = 4;
/// Default dial/read/write timeout for peer probes, so one dead client
/// cannot stall the proxy.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);
/// Default dial/read/write timeout for origin fetches.
const ORIGIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Initial backoff between retried peer probes / origin fetches.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Proxy cache capacity in bytes.
    pub cache_capacity: u64,
    /// Address of the origin server.
    pub origin_addr: SocketAddr,
    /// Seed for the proxy's signing key pair.
    pub key_seed: u64,
    /// Whether the proxy absorbs peer-served documents into its own cache
    /// (the paper's default is no; see `RemoteHitCaching`).
    pub cache_peer_hits: bool,
    /// Use the paper's *first* implementation alternative: on an index hit
    /// the proxy instructs the holder to push the document **directly** to
    /// the requester instead of relaying it through the proxy. Saves proxy
    /// bandwidth, but the holder learns the requester's transport address
    /// (the paper's companion anonymity protocols, HPL-2001-204, address
    /// that; the relayed mode keeps full mutual anonymity).
    pub direct_forward: bool,
    /// Threads of the blocking miss executor — the ones that run
    /// disk/peer/origin fetches, so this bounds concurrent miss-path work
    /// (`0` = the library default). Connections themselves are served by
    /// event loops, one per available core, and are not bounded by threads.
    pub worker_threads: usize,
    /// Dial/read/write deadline for peer probes (`Duration::ZERO` falls
    /// back to the built-in default).
    pub peer_timeout: Duration,
    /// Extra attempts per peer probe after a *transport* failure. A peer
    /// that answers `410 Gone` is authoritative and never re-probed.
    pub peer_retries: u32,
    /// Dial/read/write deadline for origin fetches (`Duration::ZERO`
    /// falls back to the built-in default).
    pub origin_timeout: Duration,
    /// Extra origin fetch attempts after a transport failure or 5xx.
    pub origin_retries: u32,
    /// Optional persistent disk tier beneath the memory cache (DESIGN.md
    /// §10). A restarted proxy pointed at the same root comes back warm,
    /// and the monotonic Prometheus counters survive the restart via a
    /// baseline file in the same root. `None` keeps the cache memory-only
    /// (a restart starts cold, as before).
    pub disk: Option<DiskConfig>,
    /// Fault plan consulted once per client-facing `GET` (chaos testing).
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared flight recorder. `None` gives the proxy a private ring; the
    /// test bed passes one ring shared with the origin and every client so
    /// a single dump interleaves all sides of a request.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Declarative SLO rules the `HEALTH BAPS/1.0` verb evaluates over
    /// the rolling telemetry windows (DESIGN.md §14).
    pub slo: SloTable,
}

impl ProxyConfig {
    fn peer_deadline(&self) -> Duration {
        if self.peer_timeout.is_zero() {
            PEER_TIMEOUT
        } else {
            self.peer_timeout
        }
    }

    fn origin_deadline(&self) -> Duration {
        if self.origin_timeout.is_zero() {
            ORIGIN_TIMEOUT
        } else {
            self.origin_timeout
        }
    }
}

/// Aggregate counters, readable while the proxy runs.
///
/// There is deliberately no `requests` counter: a request total incremented
/// separately from the outcome counters can be read mid-request, producing
/// snapshots where `requests != proxy_hits + disk_hits + peer_hits +
/// origin_fetches + errors`. [`ProxyCounters::snapshot`] instead *derives*
/// the total from the outcome counters, so the balance identity holds in
/// every snapshot by construction (each outcome counter is bumped exactly
/// once, when the request's fate is decided).
#[derive(Debug, Default)]
pub struct ProxyCounters {
    /// Served from the proxy's in-memory cache.
    pub proxy_hits: AtomicU64,
    /// Served from the proxy's disk tier (fresh or revalidated).
    pub disk_hits: AtomicU64,
    /// Disk-tier serves that required a `304 Not Modified` revalidation
    /// round trip first (a subset of `disk_hits`).
    pub disk_revalidations: AtomicU64,
    /// Served from a peer browser cache.
    pub peer_hits: AtomicU64,
    /// Fetched from the origin.
    pub origin_fetches: AtomicU64,
    /// INVALIDATE messages processed.
    pub invalidations: AtomicU64,
    /// Peer probes that failed (connection refused / GONE / bad reply).
    pub peer_failures: AtomicU64,
    /// Peer hits served by direct client-to-client pushes.
    pub direct_pushes: AtomicU64,
    /// Requests where the browser index offered candidates but every
    /// probe failed, so the request degraded to the origin path.
    pub peer_fallbacks: AtomicU64,
    /// GET requests answered with an error (404 or 5xx) instead of a
    /// document.
    pub errors: AtomicU64,
    /// Concurrent misses for the same document that were coalesced onto
    /// another request's in-flight fetch instead of fetching themselves
    /// (the thundering-herd guard). Followers are counted under
    /// `proxy_hits` (success) or `errors` (broadcast failure); this
    /// counter is the diagnostic overlay saying how many of those were
    /// coalesced.
    pub coalesced_fetches: AtomicU64,
}

impl ProxyCounters {
    /// A consistent snapshot: each outcome counter is read exactly once
    /// and the request total is derived from them, so
    /// `requests == proxy_hits + disk_hits + peer_hits + origin_fetches +
    /// errors` holds in the result even while workers are mid-flight.
    pub fn snapshot(&self) -> ProxyStats {
        let proxy_hits = self.proxy_hits.load(Ordering::Relaxed);
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        let peer_hits = self.peer_hits.load(Ordering::Relaxed);
        let origin_fetches = self.origin_fetches.load(Ordering::Relaxed);
        let errors = self.errors.load(Ordering::Relaxed);
        ProxyStats {
            requests: proxy_hits + disk_hits + peer_hits + origin_fetches + errors,
            proxy_hits,
            disk_hits,
            disk_revalidations: self.disk_revalidations.load(Ordering::Relaxed),
            peer_hits,
            origin_fetches,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            peer_failures: self.peer_failures.load(Ordering::Relaxed),
            direct_pushes: self.direct_pushes.load(Ordering::Relaxed),
            peer_fallbacks: self.peer_fallbacks.load(Ordering::Relaxed),
            errors,
            coalesced_fetches: self.coalesced_fetches.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`ProxyCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// GET requests completed (derived: the sum of the five outcome
    /// counters, so the balance identity holds in every snapshot).
    pub requests: u64,
    /// Served from the proxy's in-memory cache.
    pub proxy_hits: u64,
    /// Served from the proxy's disk tier (fresh or revalidated).
    pub disk_hits: u64,
    /// Disk serves that needed a `304 Not Modified` revalidation first
    /// (a subset of `disk_hits`).
    pub disk_revalidations: u64,
    /// Served from a peer browser cache.
    pub peer_hits: u64,
    /// Fetched from the origin.
    pub origin_fetches: u64,
    /// Eviction notices applied to the browser index. Counted only when
    /// the notice actually removed an entry, so a notice replayed by a
    /// reconnecting client (delivered, but the reply was lost) counts
    /// exactly once.
    pub invalidations: u64,
    /// Failed peer probes.
    pub peer_failures: u64,
    /// Peer hits served by direct client-to-client pushes.
    pub direct_pushes: u64,
    /// Requests that degraded from the peer path to the origin path.
    pub peer_fallbacks: u64,
    /// GET requests answered with an error instead of a document.
    pub errors: u64,
    /// Requests that coalesced onto another request's in-flight fetch (a
    /// diagnostic overlay on `proxy_hits`/`errors`, outside the balance
    /// identity).
    pub coalesced_fetches: u64,
}

impl ProxyStats {
    /// Field-wise sum with a persisted pre-restart baseline. Both addends
    /// satisfy the balance identity (each derives `requests` from its own
    /// outcome counters), so the sum does too — restart-surviving totals
    /// stay monotonic *and* balanced.
    pub fn offset_by(mut self, base: &ProxyStats) -> ProxyStats {
        self.requests += base.requests;
        self.proxy_hits += base.proxy_hits;
        self.disk_hits += base.disk_hits;
        self.disk_revalidations += base.disk_revalidations;
        self.peer_hits += base.peer_hits;
        self.origin_fetches += base.origin_fetches;
        self.invalidations += base.invalidations;
        self.peer_failures += base.peer_failures;
        self.direct_pushes += base.direct_pushes;
        self.peer_fallbacks += base.peer_fallbacks;
        self.errors += base.errors;
        self.coalesced_fetches += base.coalesced_fetches;
        self
    }
}

/// Shard-lock waits above this are worth a flight-recorder event even on
/// a cache hit; anything quicker is uncontended-fast-path noise.
const SLOW_SHARD_WAIT: Duration = Duration::from_micros(100);

/// Label set for the proxy's per-verb latency histograms.
pub(crate) const PROXY_VERBS: [&str; 8] = [
    "GET",
    "INVALIDATE",
    "REGISTER",
    "STATS",
    "METRICS",
    "TRACE",
    "HEALTH",
    "other",
];

/// Position of a request's first token in [`PROXY_VERBS`].
pub(crate) fn verb_index(verb: Option<&&str>) -> usize {
    match verb {
        Some(&"GET") => 0,
        Some(&"INVALIDATE") => 1,
        Some(&"REGISTER") => 2,
        Some(&"STATS") => 3,
        Some(&"METRICS") => 4,
        Some(&"TRACE") => 5,
        Some(&"HEALTH") => 6,
        _ => 7,
    }
}

/// The proxy's observability surfaces: tier + verb histograms and the
/// flight-recorder ring (possibly shared deployment-wide).
pub(crate) struct ProxyObs {
    pub(crate) recorder: Arc<FlightRecorder>,
    /// `baps_request_latency_ms{tier=…}`: answered GETs by serve tier.
    pub(crate) tiers: LabeledHistograms,
    /// `baps_verb_latency_ms{verb=…}`: every dispatched message.
    pub(crate) verbs: LabeledHistograms,
}

/// Shared proxy state. Lock discipline (see DESIGN.md): `cache` and
/// `index` are doc-sharded stripes (one lock per shard); `urls` and
/// `peers` are read-mostly RwLocks; `relay` and the `upstream` pool's map
/// are brief bookkeeping mutexes. No lock is ever held across socket I/O,
/// an origin fetch, or a body copy, and no worker holds two locks at once.
pub(crate) struct ProxyState {
    pub(crate) cache: ShardedCache,
    pub(crate) index: StripedIndex,
    urls: RwLock<Interner>,
    peers: RwLock<HashMap<u32, SocketAddr>>,
    relay: Mutex<AnonymizingProxy>,
    signer: ProxySigner,
    /// The watermark of the empty body, minted once: what closes a relay
    /// transaction whose delivery rides the GET reply instead.
    empty_watermark: Watermark,
    pub(crate) counters: ProxyCounters,
    /// Counter totals carried over from previous incarnations of this
    /// proxy (loaded from the disk root at start). Folded into every
    /// snapshot so the monotonic `baps_*_total` series survive a restart.
    baseline: ProxyStats,
    pub(crate) config: ProxyConfig,
    pub(crate) obs: ProxyObs,
    /// The persistent disk tier, when configured.
    pub(crate) disk: Option<DiskTier>,
    /// Kept-alive connections to peers and the origin: every exchange the
    /// proxy initiates goes through it.
    pub(crate) upstream: UpstreamPool,
    /// Miss-executor saturation telemetry (shared with the executor), so
    /// STATS/METRICS can report queue depth, busy workers, and
    /// time-in-queue.
    pub(crate) telemetry: Arc<PoolTelemetry>,
    /// Event-loop telemetry (shared with the loops).
    pub(crate) reactor: Arc<ReactorTelemetry>,
    /// Per-document in-flight miss registry (thundering-herd coalescing):
    /// the first miss for a doc becomes the leader and fetches; concurrent
    /// misses park on the entry's condvar and share the leader's outcome.
    /// The lock guards only the map — never the fetch itself.
    inflight: Mutex<HashMap<DocId, Arc<Inflight>>>,
    /// Rolling per-second telemetry windows (fed by the sampler thread
    /// and forced captures), the substrate of `HEALTH` SLO verdicts.
    pub(crate) windows: ProxyWindows,
}

impl ProxyState {
    /// Restart-surviving counter snapshot: the live counters plus the
    /// persisted baseline. The balance identity holds (see
    /// [`ProxyStats::offset_by`]).
    pub(crate) fn stats(&self) -> ProxyStats {
        self.counters.snapshot().offset_by(&self.baseline)
    }

    /// In-flight coalescing entries open right now (flight-registry
    /// occupancy). Nonzero under load means misses are actively sharing
    /// leaders; a stuck high value means leaders aren't finishing.
    pub(crate) fn inflight_occupancy(&self) -> usize {
        self.inflight.lock().len()
    }
}

/// A running browsers-aware proxy.
pub struct ProxyServer {
    shutdown: Arc<AtomicBool>,
    /// The 1 Hz window sampler thread feeding `state.windows`.
    sampler: Option<JoinHandle<()>>,
    /// Acceptor, one event loop per core, and the miss executor.
    server: Server,
    state: Arc<ProxyState>,
}

impl ProxyServer {
    /// Starts the proxy on an ephemeral loopback port.
    pub fn start(config: ProxyConfig) -> io::Result<ProxyServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        ProxyServer::start_on(listener, config)
    }

    /// Starts the proxy on an already-bound listener (the restart path
    /// reuses the previous incarnation's socket).
    fn start_on(listener: TcpListener, config: ProxyConfig) -> io::Result<ProxyServer> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(config.key_seed));
        let workers = if config.worker_threads == 0 {
            DEFAULT_WORKERS
        } else {
            config.worker_threads
        };
        let recorder = config
            .recorder
            .clone()
            .unwrap_or_else(|| Arc::new(FlightRecorder::default()));
        // Re-open the persistent tier (warm after a restart) and the
        // counter baseline that lives beside it.
        let disk = match &config.disk {
            Some(disk_config) => Some(DiskTier::open(disk_config.clone(), signer.public_key())?),
            None => None,
        };
        let baseline = disk
            .as_ref()
            .map(|d| load_baseline(d.root()))
            .unwrap_or_default();
        let telemetry = Arc::<PoolTelemetry>::default();
        let reactor_telemetry = Arc::<ReactorTelemetry>::default();
        // Every miss-executor worker may hold one connection to an address
        // between exchanges, so that is how many the pool keeps idle each.
        let upstream = UpstreamPool::new(config.origin_addr, workers);
        let state = Arc::new(ProxyState {
            cache: ShardedCache::new(config.cache_capacity, auto_shards(config.cache_capacity)),
            index: StripedIndex::new(DEFAULT_INDEX_SHARDS),
            urls: RwLock::new(Interner::new()),
            peers: RwLock::new(HashMap::new()),
            relay: Mutex::new(AnonymizingProxy::new()),
            empty_watermark: signer.watermark(b""),
            signer,
            counters: ProxyCounters::default(),
            baseline,
            config,
            obs: ProxyObs {
                recorder,
                tiers: LabeledHistograms::new(&TIER_NAMES),
                verbs: LabeledHistograms::new(&PROXY_VERBS),
            },
            disk,
            upstream,
            telemetry: Arc::clone(&telemetry),
            reactor: Arc::clone(&reactor_telemetry),
            inflight: Mutex::new(HashMap::new()),
            windows: ProxyWindows::new(),
        });
        // Zero-point capture: the first window differences against the
        // counters as they stood at start (the restart baseline included),
        // so windows measure activity of *this* incarnation only.
        state.windows.force_capture(&state);
        let sampler = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("baps-proxy-windows".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        if state.windows.maybe_capture(&state) {
                            // Once a second is also how often idle
                            // upstream connections are aged out.
                            state.upstream.reap(Instant::now());
                        }
                        std::thread::park_timeout(Duration::from_millis(50));
                    }
                })?
        };
        let server = Server::start_on(
            listener,
            "baps-proxy",
            Arc::clone(&state),
            loops_per_core(),
            workers,
            reactor_telemetry,
            telemetry,
        )?;
        Ok(ProxyServer {
            shutdown,
            sampler: Some(sampler),
            server,
            state,
        })
    }

    /// Warm restart: stops this incarnation completely (connections
    /// severed, workers joined, counter baseline persisted beside the
    /// disk tier), then starts a fresh one **on the same bound socket**
    /// with the same configuration. With a disk tier configured the new
    /// incarnation re-opens the store and serves the persisted documents
    /// immediately — a restart degrades to disk latency instead of a full
    /// cache loss. Keep-alive clients see EOF and reconnect as they
    /// already do for dropped connections.
    pub fn restart(&mut self) -> io::Result<()> {
        let config = self.state.config.clone();
        self.stop();
        *self = ProxyServer::start_on(self.server.listener()?, config)?;
        Ok(())
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The public key clients use to verify watermarks.
    pub fn public_key(&self) -> PublicKey {
        self.state.signer.public_key()
    }

    /// Counter snapshot, including totals carried over from previous
    /// incarnations when a disk tier is configured. The balance identity
    /// `requests == proxy_hits + disk_hits + peer_hits + origin_fetches +
    /// errors` holds in every snapshot, even taken mid-load (see
    /// [`ProxyCounters::snapshot`] and [`ProxyStats::offset_by`]).
    pub fn stats(&self) -> ProxyStats {
        self.state.stats()
    }

    /// Disk-tier counter/occupancy snapshot (`None` when the proxy runs
    /// memory-only).
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.state.disk.as_ref().map(DiskTier::stats)
    }

    /// The flight recorder this proxy records into (shared with the whole
    /// deployment when the config provided one).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.state.obs.recorder)
    }

    /// The Prometheus exposition the `METRICS BAPS/1.0` verb serves,
    /// rendered directly (test/ops hook — no connection needed).
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.state)
    }

    /// Per-tier latency snapshot (`Tier::index` selects the series).
    pub fn tier_latency(&self, tier: Tier) -> baps_obs::LatencyHistogram {
        self.state.obs.tiers.snapshot(tier.index())
    }

    /// Test/diagnostic hook: whether the browser index currently lists
    /// `client` as a holder of `url`.
    pub fn index_holds(&self, client: u32, url: &str) -> bool {
        let doc = doc_id(&self.state, url);
        // `lookup_all` excludes the requester, so ask as nobody.
        self.state
            .index
            .lookup_all(doc, ClientId(u32::MAX))
            .iter()
            .any(|holder| holder.0 == client)
    }

    /// Current browser-index entry count (summed across shards).
    pub fn index_entries(&self) -> u64 {
        self.state.index.entries()
    }

    /// Test hook: a shared handle to the proxy-cached body for `url`, if
    /// cached. Two calls return the *same* allocation (`Arc::ptr_eq`),
    /// proving a cache hit is a refcount bump, not a copy.
    pub fn cached_body(&self, url: &str) -> Option<Body> {
        let doc = doc_id(&self.state, url);
        self.state.cache.get(doc, url).map(|d| d.body)
    }

    /// Client connections currently registered with the event loops.
    pub fn open_connections(&self) -> usize {
        self.server.open_connections()
    }

    /// Runtime-saturation snapshot of the blocking miss executor:
    /// configured workers, queue depth (current and peak), busy workers
    /// (current and peak), rejected jobs, and the time-in-queue histogram.
    pub fn saturation(&self) -> SaturationSnapshot {
        self.state.telemetry.snapshot()
    }

    /// Event-loop telemetry snapshot: registered fds (current and peak),
    /// ready-batch depth, loop busy-fraction, inline vs offloaded
    /// dispatches.
    pub fn reactor_stats(&self) -> ReactorSnapshot {
        self.state.reactor.snapshot()
    }

    /// Entries currently in the in-flight miss registry (thundering-herd
    /// coalescing flights open right now).
    pub fn flight_occupancy(&self) -> usize {
        self.state.inflight.lock().len()
    }

    /// The causal-trace span dump the `TRACE BAPS/1.0` verb serves,
    /// rendered directly (test/ops hook — no connection needed).
    pub fn trace_spans(&self) -> String {
        self.state.obs.recorder.dump_spans()
    }

    /// The SLO verdict the `HEALTH BAPS/1.0` verb serves, evaluated
    /// directly (test/ops hook — no connection needed). Forces a window
    /// capture first, exactly as the wire verb does.
    pub fn health(&self) -> HealthReport {
        self.state.windows.force_capture(&self.state);
        crate::health::evaluate(&self.state)
    }

    /// Test hook: forces one window capture *now*, advancing the capture
    /// tick by at least one second even if the wall clock has not moved.
    /// Deterministic tests bracket a burst with two calls and difference
    /// the resulting windows.
    pub fn sample_windows_now(&self) {
        self.state.windows.force_capture(&self.state);
    }

    /// Seconds since this proxy incarnation started (the
    /// `baps_uptime_seconds` gauge).
    pub fn uptime_secs(&self) -> u64 {
        self.state.windows.uptime_secs()
    }

    /// Ops/test hook: abruptly severs every open client connection and
    /// closes every idle upstream connection (peers and origin) without
    /// stopping the server. Keep-alive clients observe EOF mid-session and
    /// must reconnect; the next upstream exchange dials.
    pub fn drop_connections(&self) {
        self.server.drop_all();
        self.state.upstream.clear();
    }

    /// Stops the accept loop, severs open client connections, joins the
    /// acceptor and worker threads, and closes every upstream connection
    /// (peers and origin).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Closes every open connection, then joins the threads.
        self.server.shutdown();
        if let Some(sampler) = self.sampler.take() {
            sampler.thread().unpark();
            let _ = sampler.join();
        }
        self.state.upstream.clear();
        // Persist the cumulative counters beside the disk tier so the
        // next incarnation's `baps_*_total` series continue monotonically
        // instead of resetting to zero. Written after the workers have
        // joined, so the totals are final. (A crash skips this — the
        // series then resume from the last graceful stop, still
        // monotonic, merely missing the unpersisted tail.)
        if let Some(disk) = &self.state.disk {
            persist_baseline(disk.root(), &self.state.stats());
        }
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// File beside the disk tier holding the cumulative counter totals of
/// previous proxy incarnations (plain `key=value` lines).
const BASELINE_FILE: &str = "counters.baseline";

/// Writes the cumulative counters as `key=value` lines. `requests` is not
/// written — it is derived on load, preserving the balance identity.
fn persist_baseline(root: &std::path::Path, s: &ProxyStats) {
    let text = format!(
        "proxy_hits={}\ndisk_hits={}\ndisk_revalidations={}\npeer_hits={}\n\
         origin_fetches={}\ninvalidations={}\npeer_failures={}\n\
         direct_pushes={}\npeer_fallbacks={}\nerrors={}\ncoalesced_fetches={}\n",
        s.proxy_hits,
        s.disk_hits,
        s.disk_revalidations,
        s.peer_hits,
        s.origin_fetches,
        s.invalidations,
        s.peer_failures,
        s.direct_pushes,
        s.peer_fallbacks,
        s.errors,
        s.coalesced_fetches,
    );
    let _ = std::fs::write(root.join(BASELINE_FILE), text);
}

/// Loads the persisted counter baseline; unknown keys are skipped and a
/// missing or garbled file yields zeros, so a corrupt baseline degrades
/// to a counter reset, never a failed start.
fn load_baseline(root: &std::path::Path) -> ProxyStats {
    let mut s = ProxyStats::default();
    if let Ok(text) = std::fs::read_to_string(root.join(BASELINE_FILE)) {
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<u64>() else {
                continue;
            };
            match key.trim() {
                "proxy_hits" => s.proxy_hits = value,
                "disk_hits" => s.disk_hits = value,
                "disk_revalidations" => s.disk_revalidations = value,
                "peer_hits" => s.peer_hits = value,
                "origin_fetches" => s.origin_fetches = value,
                "invalidations" => s.invalidations = value,
                "peer_failures" => s.peer_failures = value,
                "direct_pushes" => s.direct_pushes = value,
                "peer_fallbacks" => s.peer_fallbacks = value,
                "errors" => s.errors = value,
                "coalesced_fetches" => s.coalesced_fetches = value,
                _ => {}
            }
        }
    }
    s.requests = s.proxy_hits + s.disk_hits + s.peer_hits + s.origin_fetches + s.errors;
    s
}

impl FrameService for ProxyState {
    fn faults(&self) -> Option<&FaultPlan> {
        self.config.faults.as_deref()
    }

    /// One draw per client-facing GET; the administrative verbs stay
    /// honest so chaos runs can still register clients and read counters.
    fn fault(&self, plan: &FaultPlan, msg: &Message) -> Option<FaultKind> {
        match msg.tokens().first() {
            Some(&"GET") => plan.proxy_fault(),
            _ => None,
        }
    }

    fn may_block(&self, msg: &Message) -> bool {
        needs_miss_executor(msg, self)
    }

    fn handle(
        &self,
        msg: &Message,
        _fault: Option<FaultKind>,
        ctx: &mut FrameCtx,
    ) -> Option<Message> {
        let t_verb = Instant::now();
        let verb = verb_index(msg.tokens().first());
        let reply = dispatch(msg, ctx.peer_ip, &mut ctx.queue_wait, self);
        self.obs.verbs.record(verb, t_verb.elapsed());
        reply
    }
}

/// Whether this request can block the thread that runs it (disk reads,
/// peer probes with retry backoff, origin fetches, coalesced followers
/// parking on a condvar) — i.e. whether the event loop must hand it to the
/// blocking miss executor instead of running it inline.
/// Only a `GET` that misses the memory cache qualifies; every admin verb
/// and every memory hit answers from local state. The probe uses
/// `ShardedCache::contains` (no LRU promotion, no hit/miss counters), so
/// the real `cache.get` in `handle_get` alone moves the cache stats. The
/// probe can race an eviction — `contains` true, then the real
/// `get` misses — in which case the loop rarely runs one miss inline;
/// correctness is unaffected (DESIGN.md §13 discusses the trade).
fn needs_miss_executor(msg: &Message, state: &ProxyState) -> bool {
    match msg.tokens().as_slice() {
        ["GET", url, "BAPS/1.0"] => {
            let doc = doc_id(state, url);
            !state.cache.contains(doc, url)
        }
        _ => false,
    }
}

fn dispatch(
    msg: &Message,
    peer_ip: std::net::IpAddr,
    queue_wait: &mut Option<Duration>,
    state: &ProxyState,
) -> Option<Message> {
    // The client mints a trace id per logical fetch and stamps every hop;
    // administrative verbs and legacy clients simply have none. For
    // head-sampled traces the `Span-Id` header carries the upstream span
    // every proxy-side span of this request attaches to.
    let trace = msg
        .get("Trace-Id")
        .and_then(|h| h.parse().ok())
        .unwrap_or(TraceId::NONE);
    let parent = msg
        .get("Span-Id")
        .and_then(|h| h.parse().ok())
        .unwrap_or(SpanId::NONE);
    if span::sampled(trace) {
        if let Some(wait) = queue_wait.take() {
            state.obs.recorder.record_span(
                trace,
                SpanId::mint(),
                parent,
                EventKind::QueueWait,
                wait,
                "queue=accept-handoff",
            );
        }
    }
    match msg.tokens().as_slice() {
        ["GET", url, "BAPS/1.0"] => {
            let client: u32 = msg.get("Client")?.parse().ok()?;
            // Piggybacked eviction notices (processed before the GET so a
            // re-fetch of a just-evicted document is ordered correctly).
            if let Some(evicted) = msg.get("Evicted") {
                for victim in evicted.split(' ').filter(|u| !u.is_empty()) {
                    handle_invalidate(victim, client, trace, state);
                }
            }
            let bypass = msg.get("Bypass-Peers").is_some();
            Some(handle_get(url, client, bypass, trace, parent, state))
        }
        ["INVALIDATE", url, "BAPS/1.0"] => {
            let client: u32 = msg.get("Client")?.parse().ok()?;
            // `Purge: 1` marks a *publisher* invalidation: the document
            // changed at the origin, so the proxy's own replicas must go
            // too, not just the sender's index entry.
            if msg.get("Purge").is_some() {
                handle_purge(url, trace, state);
            }
            handle_invalidate(url, client, trace, state);
            Some(response(status::OK, "OK"))
        }
        ["REGISTER", port, "BAPS/1.0"] => {
            let client: u32 = msg.get("Client")?.parse().ok()?;
            let port: u16 = port.parse().ok()?;
            let addr = SocketAddr::new(peer_ip, port);
            let previous = state.peers.write().insert(client, addr);
            if let Some(old) = previous.filter(|&old| old != addr) {
                // The browser moved: nothing will be asked of its old
                // address again.
                state.upstream.forget(old);
            }
            Some(response(status::OK, "OK"))
        }
        ["STATS", "BAPS/1.0"] => Some(stats_response(state)),
        ["TRACE", "BAPS/1.0"] => {
            let body = state.obs.recorder.dump_spans();
            Some(
                response(status::OK, "OK")
                    .header("Content-Type", "application/jsonl")
                    .header("Sample-One-In", span::SAMPLE_ONE_IN.to_string())
                    .with_body(body.into_bytes()),
            )
        }
        ["METRICS", "BAPS/1.0"] => {
            let text = crate::metrics::render(state);
            Some(
                response(status::OK, "OK")
                    .header("Content-Type", "text/plain; version=0.0.4")
                    .with_body(text.into_bytes()),
            )
        }
        // Like the other read-only admin verbs this runs inline on an
        // event loop (`needs_miss_executor` is false).
        ["HEALTH", "BAPS/1.0"] => {
            state.windows.force_capture(state);
            let report = crate::health::evaluate(state);
            Some(
                response(status::OK, "OK")
                    .header("Content-Type", "text/plain")
                    .header("Verdict", report.verdict.name())
                    .header("Rules", report.rules.len().to_string())
                    .header("Uptime-Seconds", report.uptime_secs.to_string())
                    .with_body(report.render().into_bytes()),
            )
        }
        _ => Some(response(status::BAD_REQUEST, "Bad Request")),
    }
}

/// Mints a span id for one proxy-side hop of a head-sampled trace
/// ([`SpanId::NONE`] otherwise). The id is minted *before* the hop runs so
/// outbound wire messages (PEERGET/PUSH/origin GET) can carry it in their
/// `Span-Id` header — the downstream hop's spans then attach under it.
fn hop_span(trace: TraceId) -> SpanId {
    span::hop(trace)
}

/// Records one hop into the proxy's recorder: as a causal span (under
/// `parent`) when `span` was minted, as a legacy plain event otherwise.
fn record_hop(
    state: &ProxyState,
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    kind: EventKind,
    dur: Duration,
    detail: impl Into<String>,
) {
    state
        .obs
        .recorder
        .record_hop(trace, span, parent, kind, dur, detail);
}

/// Interns `url`, taking only the shared read lock on the steady-state
/// path (every URL after its first sighting). The read→write upgrade race
/// is benign: `intern` is idempotent, so two writers agree on the id.
pub(crate) fn doc_id(state: &ProxyState, url: &str) -> DocId {
    if let Some(id) = state.urls.read().get(url) {
        return DocId(id);
    }
    DocId(state.urls.write().intern(url))
}

fn handle_get(
    url: &str,
    client: u32,
    bypass_peers: bool,
    trace: TraceId,
    parent: SpanId,
    state: &ProxyState,
) -> Message {
    let t_request = Instant::now();
    let doc = doc_id(state, url);
    let requester = ClientId(client);

    // 1. Proxy cache. The hit hands back a shared body handle — the shard
    // lock is held only for the map lookup, never while the reply frame is
    // written.
    let t_shard = Instant::now();
    let cached = state.cache.get(doc, url);
    let shard_wait = t_shard.elapsed();
    // Fast cache hits are the hot path (tens of thousands per second, all
    // identical); a ring event for each would be pure overhead with no
    // diagnostic value. Record the span only when it says something — a
    // miss (the request is about to leave the fast path), a slow lock
    // acquisition (shard contention, the thing this span exists to show),
    // or a head-sampled trace (whose tree must be complete).
    let sampled = span::sampled(trace);
    if sampled || cached.is_none() || shard_wait > SLOW_SHARD_WAIT {
        record_hop(
            state,
            trace,
            hop_span(trace),
            parent,
            EventKind::WaitForShard,
            shard_wait,
            if cached.is_some() {
                "cache=hit"
            } else {
                "cache=miss"
            },
        );
    }
    if let Some(cached) = cached {
        state.counters.proxy_hits.fetch_add(1, Ordering::Relaxed);
        // The client will cache what we send it (it invalidates on evict).
        state.index.on_store(requester, doc);
        state
            .obs
            .tiers
            .record_traced(Tier::Proxy.index(), t_request.elapsed(), trace);
        return ok_response("proxy", &cached);
    }

    // 1c. Thundering-herd coalescing (singleflight). The first miss for a
    // doc becomes the *leader* and runs the full miss path; concurrent
    // misses for the same doc park on the flight's condvar and share the
    // leader's outcome — one backend fetch per herd, not one per waiter.
    // The no-lock-across-I/O rule holds: the registry mutex is held only
    // for the map operation, and the leader fetches holding no lock.
    let wait_budget = state.config.origin_deadline() + state.config.peer_deadline();
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        match join_inflight(state, doc) {
            FlightRole::Leader(entry) => {
                let leader = FlightLeader {
                    state,
                    doc,
                    entry,
                    published: false,
                };
                let (reply, outcome) = handle_miss(
                    url,
                    client,
                    bypass_peers,
                    trace,
                    parent,
                    state,
                    doc,
                    requester,
                    t_request,
                );
                leader.publish(outcome);
                return reply;
            }
            FlightRole::Follower(entry) => {
                let t_wait = Instant::now();
                let outcome = if attempt < MAX_FLIGHT_JOINS {
                    entry.wait(wait_budget)
                } else {
                    FlightOutcome::Unshared
                };
                match outcome {
                    FlightOutcome::Doc(cached) => {
                        state
                            .counters
                            .coalesced_fetches
                            .fetch_add(1, Ordering::Relaxed);
                        state.counters.proxy_hits.fetch_add(1, Ordering::Relaxed);
                        state.index.on_store(requester, doc);
                        record_hop(
                            state,
                            trace,
                            hop_span(trace),
                            parent,
                            EventKind::Coalesced,
                            t_wait.elapsed(),
                            format!("url={url} outcome=ok"),
                        );
                        state.obs.tiers.record_traced(
                            Tier::Proxy.index(),
                            t_request.elapsed(),
                            trace,
                        );
                        return ok_response("proxy", &cached);
                    }
                    FlightOutcome::Error(code, reason) => {
                        // The leader's failure is broadcast: every waiter
                        // fails the same way instead of dogpiling a dead
                        // origin — and instead of hanging.
                        state
                            .counters
                            .coalesced_fetches
                            .fetch_add(1, Ordering::Relaxed);
                        state.counters.errors.fetch_add(1, Ordering::Relaxed);
                        record_hop(
                            state,
                            trace,
                            hop_span(trace),
                            parent,
                            EventKind::Coalesced,
                            t_wait.elapsed(),
                            format!("url={url} outcome=err code={code}"),
                        );
                        return response(code, &reason);
                    }
                    FlightOutcome::Unshared => {
                        // The flight ended without a shareable outcome (a
                        // direct push carries no body; an unwound leader
                        // publishes this from Drop; or the wait budget ran
                        // out). The doc may have landed in memory in the
                        // meantime; otherwise retry, degrading to an
                        // uncoalesced miss after MAX_FLIGHT_JOINS rounds
                        // so no request loops forever.
                        if let Some(cached) = state.cache.get(doc, url) {
                            state.counters.proxy_hits.fetch_add(1, Ordering::Relaxed);
                            state.index.on_store(requester, doc);
                            state.obs.tiers.record_traced(
                                Tier::Proxy.index(),
                                t_request.elapsed(),
                                trace,
                            );
                            return ok_response("proxy", &cached);
                        }
                        if attempt >= MAX_FLIGHT_JOINS {
                            let (reply, _) = handle_miss(
                                url,
                                client,
                                bypass_peers,
                                trace,
                                parent,
                                state,
                                doc,
                                requester,
                                t_request,
                            );
                            return reply;
                        }
                    }
                }
            }
        }
    }
}

/// Rounds through the in-flight registry a request makes before giving up
/// on coalescing and fetching for itself (guards against pathological
/// chains of unshareable outcomes).
const MAX_FLIGHT_JOINS: usize = 3;

/// How a request relates to the in-flight registry entry for its doc.
enum FlightRole {
    /// This request created the entry: it must fetch, then publish.
    Leader(Arc<Inflight>),
    /// Another request is already fetching this doc: park and share.
    Follower(Arc<Inflight>),
}

/// One in-flight miss: the slot the leader fills and the condvar the
/// followers park on.
struct Inflight {
    slot: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl Inflight {
    /// Parks until the leader publishes or `budget` elapses.
    fn wait(&self, budget: Duration) -> FlightOutcome {
        let start = Instant::now();
        let mut slot = self.slot.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            let Some(remaining) = budget.checked_sub(start.elapsed()) else {
                // The leader overran every backend deadline combined; stop
                // trusting it and fend for ourselves.
                return FlightOutcome::Unshared;
            };
            self.cv.wait_for(&mut slot, remaining);
        }
    }
}

/// What a coalescing leader hands its followers.
#[derive(Clone)]
enum FlightOutcome {
    /// The miss produced a verified document; followers share the body
    /// (`Body` is `Arc<[u8]>`, so each waiter costs a refcount bump, not
    /// a copy).
    Doc(CachedDoc),
    /// The miss failed with this status/reason; followers fail the same
    /// way.
    Error(u16, String),
    /// The outcome cannot be shared; followers rerun the miss path.
    Unshared,
}

/// Joins (or creates) the in-flight entry for `doc`.
fn join_inflight(state: &ProxyState, doc: DocId) -> FlightRole {
    use std::collections::hash_map::Entry;
    let mut registry = state.inflight.lock();
    match registry.entry(doc) {
        Entry::Occupied(e) => FlightRole::Follower(Arc::clone(e.get())),
        Entry::Vacant(v) => {
            let entry = Arc::new(Inflight {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            });
            v.insert(Arc::clone(&entry));
            FlightRole::Leader(entry)
        }
    }
}

/// Leader-side handle: guarantees the registry entry is removed and the
/// followers woken exactly once, even if the miss path unwinds.
struct FlightLeader<'a> {
    state: &'a ProxyState,
    doc: DocId,
    entry: Arc<Inflight>,
    published: bool,
}

impl FlightLeader<'_> {
    fn publish(mut self, outcome: FlightOutcome) {
        self.finish(outcome);
        self.published = true;
    }

    fn finish(&self, outcome: FlightOutcome) {
        // Deregister first so a request arriving after the outcome was
        // decided starts a fresh flight instead of joining a finished one.
        self.state.inflight.lock().remove(&self.doc);
        *self.entry.slot.lock() = Some(outcome);
        self.entry.cv.notify_all();
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        if !self.published {
            // The miss path unwound: release the followers rather than
            // stranding them until their wait budget expires.
            self.finish(FlightOutcome::Unshared);
        }
    }
}

/// The full miss path (disk → peers → origin), shared by coalescing
/// leaders and by followers that gave up on coalescing. Returns the reply
/// plus the outcome a leader broadcasts to its followers.
#[allow(clippy::too_many_arguments)]
fn handle_miss(
    url: &str,
    client: u32,
    bypass_peers: bool,
    trace: TraceId,
    parent: SpanId,
    state: &ProxyState,
    doc: DocId,
    requester: ClientId,
    t_request: Instant,
) -> (Message, FlightOutcome) {
    // 1b. Disk tier — consulted only after a memory miss, so the
    // in-memory hot path never touches it. A fresh verified entry serves
    // directly; a stale one is revalidated against the origin with a
    // conditional GET; a torn or corrupted file already self-healed
    // inside `load` and reads as a miss.
    if let Some(disk) = &state.disk {
        let t_disk = Instant::now();
        let hit = disk.load(url);
        record_hop(
            state,
            trace,
            hop_span(trace),
            parent,
            EventKind::DiskRead,
            t_disk.elapsed(),
            format!(
                "url={url} outcome={}",
                match &hit {
                    Some(h) if h.fresh => "fresh",
                    Some(_) => "stale",
                    None => "miss",
                }
            ),
        );
        if let Some(hit) = hit {
            if hit.fresh {
                let outcome = FlightOutcome::Doc(hit.doc.clone());
                return (
                    serve_from_disk(state, requester, doc, url, hit.doc, false, trace, t_request),
                    outcome,
                );
            }
            // TTL expired: ask the origin whether our copy is still
            // current before serving it.
            let reval_span = hop_span(trace);
            let t_reval = Instant::now();
            let outcome =
                revalidate_with_origin(state, url, &hit.digest.to_hex(), trace, reval_span);
            record_hop(
                state,
                trace,
                reval_span,
                parent,
                EventKind::OriginFetch,
                t_reval.elapsed(),
                format!(
                    "url={url} outcome={}",
                    match &outcome {
                        Revalidation::NotModified => "not-modified",
                        Revalidation::Changed(_) => "changed",
                        Revalidation::Gone => "gone",
                        Revalidation::Failed => "err",
                    }
                ),
            );
            match outcome {
                Revalidation::NotModified => {
                    disk.refresh(url);
                    let outcome = FlightOutcome::Doc(hit.doc.clone());
                    return (
                        serve_from_disk(
                            state, requester, doc, url, hit.doc, true, trace, t_request,
                        ),
                        outcome,
                    );
                }
                Revalidation::Changed(body) => {
                    // The document changed at the origin: this is an
                    // origin fetch in every respect, write-through
                    // included.
                    let (reply, cached) =
                        serve_origin_fetch(state, requester, doc, url, body, trace, t_request);
                    return (reply, FlightOutcome::Doc(cached));
                }
                Revalidation::Gone => {
                    // The origin no longer serves the document; the
                    // stale disk copy must not outlive it.
                    disk.remove(url);
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    return (
                        response(status::NOT_FOUND, "Not Found"),
                        FlightOutcome::Error(status::NOT_FOUND, "Not Found".into()),
                    );
                }
                Revalidation::Failed => {
                    // Origin unreachable: keep the stale entry (a later
                    // revalidation may still rescue it) and degrade to
                    // the peer path below.
                }
            }
        }
    }

    // 2. Browser index -> peer browser caches.
    let mut probed_peers = false;
    if !bypass_peers {
        let candidates = state.index.lookup_all(doc, requester);
        for peer in candidates.into_iter().take(MAX_PEER_PROBES) {
            probed_peers = true;
            if state.config.direct_forward {
                let push_span = hop_span(trace);
                let t_push = Instant::now();
                let pushed = order_direct_push(state, PeerId(client), peer, url, trace, push_span);
                record_hop(
                    state,
                    trace,
                    push_span,
                    parent,
                    EventKind::PushOrder,
                    t_push.elapsed(),
                    format!(
                        "peer={} url={url} outcome={}",
                        peer.0,
                        if pushed.is_ok() { "ok" } else { "err" }
                    ),
                );
                match pushed {
                    Ok(txn) => {
                        state.counters.peer_hits.fetch_add(1, Ordering::Relaxed);
                        state.counters.direct_pushes.fetch_add(1, Ordering::Relaxed);
                        state.index.on_store(requester, doc);
                        state.obs.tiers.record_traced(
                            Tier::Peer.index(),
                            t_request.elapsed(),
                            trace,
                        );
                        // A direct push carries no body through the proxy,
                        // so there is nothing to share with followers.
                        return (
                            response(status::OK, "OK")
                                .header("X-Source", "peer-direct")
                                .header("Txn", txn.to_string()),
                            FlightOutcome::Unshared,
                        );
                    }
                    Err(_) => {
                        state.counters.peer_failures.fetch_add(1, Ordering::Relaxed);
                        state.index.on_evict(peer, doc);
                    }
                }
                continue;
            }
            let probe_span = hop_span(trace);
            let t_probe = Instant::now();
            let probed = fetch_from_peer(state, PeerId(client), peer, url, trace, probe_span);
            record_hop(
                state,
                trace,
                probe_span,
                parent,
                EventKind::PeerProbe,
                t_probe.elapsed(),
                format!(
                    "peer={} url={url} outcome={}",
                    peer.0,
                    if probed.is_ok() { "ok" } else { "err" }
                ),
            );
            match probed {
                Ok(cached) => {
                    state.counters.peer_hits.fetch_add(1, Ordering::Relaxed);
                    if state.config.cache_peer_hits {
                        state.cache.insert(doc, url, cached.clone());
                        write_through_to_disk(state, url, &cached, None, trace);
                    }
                    state.index.on_store(requester, doc);
                    state
                        .obs
                        .tiers
                        .record_traced(Tier::Peer.index(), t_request.elapsed(), trace);
                    let reply = ok_response("peer", &cached);
                    return (reply, FlightOutcome::Doc(cached));
                }
                Err(_) => {
                    // The index was stale (or the peer is gone): self-heal.
                    state.counters.peer_failures.fetch_add(1, Ordering::Relaxed);
                    state.index.on_evict(peer, doc);
                }
            }
        }
    }

    // 3. Origin server. Reaching this point after probing peers means the
    // index path degraded gracefully instead of failing the request.
    if probed_peers {
        state
            .counters
            .peer_fallbacks
            .fetch_add(1, Ordering::Relaxed);
    }
    let origin_span = hop_span(trace);
    let t_origin = Instant::now();
    let fetched = fetch_from_origin(state, url, trace, origin_span);
    record_hop(
        state,
        trace,
        origin_span,
        parent,
        EventKind::OriginFetch,
        t_origin.elapsed(),
        format!(
            "url={url} outcome={}",
            if fetched.is_ok() { "ok" } else { "err" }
        ),
    );
    match fetched {
        Ok(body) => {
            let (reply, cached) =
                serve_origin_fetch(state, requester, doc, url, body, trace, t_request);
            (reply, FlightOutcome::Doc(cached))
        }
        Err(e) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            let (code, reason) = match e {
                OriginError::NotFound => (status::NOT_FOUND, "Not Found".to_string()),
                OriginError::Unavailable => (status::UNAVAILABLE, "Origin Unavailable".to_string()),
                OriginError::Io(e) => (
                    status::UNAVAILABLE,
                    format!("Origin Unreachable ({})", e.kind()),
                ),
            };
            let reply = response(code, &reason);
            (reply, FlightOutcome::Error(code, reason))
        }
    }
}

/// Serves an origin-fetched body: mints the watermark, populates both
/// cache tiers (write-through), updates the index, and counts the fetch.
/// Also hands back the cached doc so a coalescing leader can broadcast it.
#[allow(clippy::too_many_arguments)]
fn serve_origin_fetch(
    state: &ProxyState,
    requester: ClientId,
    doc: DocId,
    url: &str,
    body: Body,
    trace: TraceId,
    t_request: Instant,
) -> (Message, CachedDoc) {
    state
        .counters
        .origin_fetches
        .fetch_add(1, Ordering::Relaxed);
    // The one hash of this hop: signed for the watermark, and stored in
    // the disk entry's header.
    let digest = md5(&body);
    let cached = CachedDoc {
        watermark: state.signer.sign(&digest),
        body,
    };
    state.cache.insert(doc, url, cached.clone());
    write_through_to_disk(state, url, &cached, Some(&digest), trace);
    state.index.on_store(requester, doc);
    state
        .obs
        .tiers
        .record_traced(Tier::Origin.index(), t_request.elapsed(), trace);
    (ok_response("origin", &cached), cached)
}

/// Serves a verified disk-tier document: counts the hit, promotes the
/// document into the memory tier (repeat requests become memory hits),
/// and updates the index.
#[allow(clippy::too_many_arguments)]
fn serve_from_disk(
    state: &ProxyState,
    requester: ClientId,
    doc: DocId,
    url: &str,
    cached: CachedDoc,
    revalidated: bool,
    trace: TraceId,
    t_request: Instant,
) -> Message {
    state.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
    if revalidated {
        state
            .counters
            .disk_revalidations
            .fetch_add(1, Ordering::Relaxed);
    }
    state.cache.insert(doc, url, cached.clone());
    state.index.on_store(requester, doc);
    state
        .obs
        .tiers
        .record_traced(Tier::Disk.index(), t_request.elapsed(), trace);
    ok_response("disk", &cached)
}

/// Best-effort write-through to the disk tier (no-op without one). The
/// store itself never fails a request; filesystem trouble is counted in
/// the tier's `io_errors`. `digest` is `md5(&cached.body)` from a caller
/// that already hashed the body on this hop; `None` leaves it to the tier.
fn write_through_to_disk(
    state: &ProxyState,
    url: &str,
    cached: &CachedDoc,
    digest: Option<&Digest>,
    trace: TraceId,
) {
    let Some(disk) = &state.disk else { return };
    let t_write = Instant::now();
    match digest {
        Some(digest) => disk.store_hashed(url, cached, digest),
        None => disk.store(url, cached),
    }
    state.obs.recorder.record(
        trace,
        EventKind::DiskWrite,
        t_write.elapsed(),
        format!("url={url} bytes={}", cached.byte_size()),
    );
}

/// Publisher purge (INVALIDATE with `Purge: 1`): the document changed at
/// the origin, so the proxy's replicas are dropped from memory and the
/// disk entry is *expired in place* rather than deleted — the next read
/// revalidates with `If-Digest`, so a false alarm still costs only a 304
/// instead of a full refetch. Browser-held replicas are the clients' own
/// responsibility (local discard + piggybacked eviction notices).
fn handle_purge(url: &str, trace: TraceId, state: &ProxyState) {
    let doc = doc_id(state, url);
    let dropped = state.cache.remove(doc, url);
    let expired = state.disk.as_ref().map(|d| d.expire(url)).unwrap_or(false);
    state.obs.recorder.record(
        trace,
        EventKind::Invalidate,
        Duration::ZERO,
        format!("url={url} purge memory={dropped} disk={expired}"),
    );
}

fn handle_invalidate(url: &str, client: u32, trace: TraceId, state: &ProxyState) {
    let doc = doc_id(state, url);
    // Idempotent by construction: the counter moves only when the notice
    // actually removed an index entry. A notice the client replays after
    // a reconnect (it was delivered, but the reply was lost) finds the
    // entry already gone and counts nothing — notices are at-least-once
    // on the wire but exactly-once in the index and the counter.
    let applied = state.index.on_evict(ClientId(client), doc);
    if applied {
        state.counters.invalidations.fetch_add(1, Ordering::Relaxed);
    }
    state.obs.recorder.record(
        trace,
        EventKind::Invalidate,
        Duration::ZERO,
        format!(
            "client={client} url={url} outcome={}",
            if applied { "applied" } else { "stale" }
        ),
    );
}

/// Reply for the `STATS BAPS/1.0` verb: every [`ProxyStats`] field as a
/// header, so operators (and the load generator) can read live counters
/// over the wire without a side channel. Reads one consistent
/// [`ProxyCounters::snapshot`], so the headers always balance.
fn stats_response(state: &ProxyState) -> Message {
    let s = state.stats();
    let disk = state.disk.as_ref().map(DiskTier::stats).unwrap_or_default();
    let sat = state.telemetry.snapshot();
    let r = state.reactor.snapshot();
    // `Reactor-*` describe the event loops; `Workers`/`Queue-*` below
    // describe the miss executor.
    response(status::OK, "OK")
        .header("Reactor-Loops", r.loops.to_string())
        .header("Reactor-Fds", r.registered_fds.to_string())
        .header("Reactor-Fds-Peak", r.registered_fds_peak.to_string())
        .header("Reactor-Ready-Peak", r.ready_batch_peak.to_string())
        .header(
            "Reactor-Busy-Permille",
            format!("{:.0}", r.busy_fraction * 1000.0),
        )
        .header("Reactor-Inline", r.inline_served.to_string())
        .header("Reactor-Offloaded", r.offloaded.to_string())
        .header("Requests", s.requests.to_string())
        .header("Recorder-Dropped", state.obs.recorder.dropped().to_string())
        .header("Workers", sat.workers.to_string())
        .header("Busy-Workers", sat.busy_workers.to_string())
        .header("Busy-Workers-Peak", sat.busy_workers_peak.to_string())
        .header("Queue-Depth", sat.queue_depth.to_string())
        .header("Queue-Depth-Peak", sat.queue_depth_peak.to_string())
        .header("Queue-Rejected", sat.rejected.to_string())
        .header("Flight-Occupancy", state.inflight.lock().len().to_string())
        .header("Proxy-Hits", s.proxy_hits.to_string())
        .header("Disk-Hits", s.disk_hits.to_string())
        .header("Disk-Revalidations", s.disk_revalidations.to_string())
        .header("Disk-Entries", disk.entries.to_string())
        .header("Disk-Bytes", disk.bytes.to_string())
        .header("Peer-Hits", s.peer_hits.to_string())
        .header("Origin-Fetches", s.origin_fetches.to_string())
        .header("Invalidations", s.invalidations.to_string())
        .header("Peer-Failures", s.peer_failures.to_string())
        .header("Direct-Pushes", s.direct_pushes.to_string())
        .header("Peer-Fallbacks", s.peer_fallbacks.to_string())
        .header("Errors", s.errors.to_string())
        .header("Coalesced-Fetches", s.coalesced_fetches.to_string())
        .header("Cache-Shards", state.cache.n_shards().to_string())
        .header("Cache-Bytes", state.cache.used().to_string())
        .header(
            "Cache-Shard-Entries",
            join_counts(state.cache.shard_stats().iter().map(|s| s.entries)),
        )
        .header(
            "Cache-Shard-Bytes",
            join_counts(state.cache.shard_stats().iter().map(|s| s.bytes)),
        )
        .header(
            "Cache-Lock-Acquires",
            join_counts(state.cache.shard_stats().iter().map(|s| s.lock_acquires)),
        )
        .header("Index-Shards", state.index.n_shards().to_string())
        .header("Index-Entries", state.index.entries().to_string())
        .header(
            "Index-Shard-Entries",
            join_counts(state.index.shard_stats().iter().map(|s| s.entries)),
        )
        .header(
            "Index-Lock-Acquires",
            join_counts(state.index.shard_stats().iter().map(|s| s.lock_acquires)),
        )
}

/// Formats per-shard counters as a comma-separated list header value.
fn join_counts(counts: impl Iterator<Item = u64>) -> String {
    counts.map(|c| c.to_string()).collect::<Vec<_>>().join(",")
}

/// Builds a 200 reply sharing the cached body — `with_body` on an existing
/// [`Body`] is a refcount bump, so no byte of the document is copied
/// between the cache and the socket.
fn ok_response(source: &str, doc: &CachedDoc) -> Message {
    response(status::OK, "OK")
        .header("X-Source", source)
        .header("X-Watermark", doc.watermark.to_hex())
        .with_body(Arc::clone(&doc.body))
}

/// Mediated peer fetch: the peer sees only a transaction id and the URL,
/// never the requester's identity.
///
/// Transport failures (refused dial, deadline expiry, truncated frame) are
/// retried up to `peer_retries` extra times with backoff; an explicit
/// `410 Gone` is authoritative (the peer no longer caches the document)
/// and returns immediately as `ErrorKind::NotFound`.
fn fetch_from_peer(
    state: &ProxyState,
    requester: PeerId,
    peer: ClientId,
    url: &str,
    trace: TraceId,
    span: SpanId,
) -> Result<CachedDoc, io::Error> {
    let addr = state
        .peers
        .read()
        .get(&peer.0)
        .copied()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer not registered"))?;
    let mut attempts_left = state.config.peer_retries;
    let mut backoff = RETRY_BACKOFF;
    loop {
        match probe_peer_once(state, requester, addr, url, trace, span) {
            Err(e) if e.kind() != io::ErrorKind::NotFound && attempts_left > 0 => {
                attempts_left -= 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            other => return other,
        }
    }
}

/// One mediated PEERGET probe, with its own relay transaction.
fn probe_peer_once(
    state: &ProxyState,
    requester: PeerId,
    addr: SocketAddr,
    url: &str,
    trace: TraceId,
    span: SpanId,
) -> Result<CachedDoc, io::Error> {
    let order = state.relay.lock().begin(requester, url);
    let result = (|| -> io::Result<CachedDoc> {
        // The probe's own hop span becomes the parent of the peer's serve
        // span, stitching the tree across processes.
        let probe = traced(
            Message::new(format!("PEERGET {url} BAPS/1.0")).header("Txn", order.txn.0.to_string()),
            trace,
            span,
        );
        let reply = state
            .upstream
            .exchange(addr, state.config.peer_deadline(), &probe)?;
        if response_code(&reply) != Some(status::OK) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "peer gone"));
        }
        let watermark = reply
            .get("X-Watermark")
            .and_then(|h| Watermark::from_hex(h).ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing watermark"))?;
        Ok(CachedDoc {
            body: reply.body,
            watermark,
        })
    })();
    match &result {
        Ok(_) => {
            // Close the transaction (delivery happens on the GET reply).
            let _ = state.relay.lock().complete(baps_crypto::FetchReply {
                txn: order.txn,
                body: Vec::new(),
                watermark: state.empty_watermark,
            });
        }
        Err(_) => {
            let _ = state.relay.lock().abort(order.txn);
        }
    }
    result
}

/// Stamps an upstream request with the trace it belongs to and, on a
/// head-sampled trace, the hop span the receiver's spans attach under.
fn traced(msg: Message, trace: TraceId, span: SpanId) -> Message {
    let msg = msg.header("Trace-Id", trace.to_string());
    if span.is_none() {
        msg
    } else {
        msg.header("Span-Id", span.to_string())
    }
}

/// Direct-forward mode: orders `peer` to push `url` straight to the
/// requester's registered delivery address. Returns the transaction id the
/// requester should await. The push itself happens synchronously inside
/// the peer before it acknowledges, so a 200 here means the delivery was
/// already sent.
fn order_direct_push(
    state: &ProxyState,
    requester: PeerId,
    peer: ClientId,
    url: &str,
    trace: TraceId,
    span: SpanId,
) -> Result<u64, io::Error> {
    let (peer_addr, target_addr) = {
        let peers = state.peers.read();
        (
            peers.get(&peer.0).copied(),
            peers.get(&requester.0).copied(),
        )
    };
    let peer_addr =
        peer_addr.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer not registered"))?;
    let target_addr = target_addr
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "requester not registered"))?;
    let order = state.relay.lock().begin(requester, url);
    let push = traced(
        Message::new(format!("PUSH {url} BAPS/1.0"))
            .header("Txn", order.txn.0.to_string())
            .header("Target", target_addr.to_string()),
        trace,
        span,
    );
    let reply = state
        .upstream
        .exchange(peer_addr, state.config.peer_deadline(), &push);
    let _ = state.relay.lock().abort(order.txn); // bookkeeping only
    if response_code(&reply?) != Some(status::OK) {
        return Err(io::Error::new(io::ErrorKind::NotFound, "peer gone"));
    }
    Ok(order.txn.0)
}

enum OriginError {
    NotFound,
    /// The origin kept failing (5xx or garbage) after every retry.
    Unavailable,
    Io(io::Error),
}

/// One origin exchange (`If-Digest` makes it conditional: the origin
/// answers 304 if the digest still matches, saving the body transfer).
/// Any fully framed reply comes back `Ok`, 404s and 500s included.
fn origin_attempt(
    state: &ProxyState,
    url: &str,
    trace: TraceId,
    span: SpanId,
    if_digest: Option<&str>,
) -> io::Result<Message> {
    // The proxy's origin-fetch span parents the origin's serve span.
    let mut msg = traced(Message::new(format!("GET {url} ORIGIN/1.0")), trace, span);
    if let Some(digest) = if_digest {
        msg = msg.header("If-Digest", digest);
    }
    state.upstream.exchange(
        state.config.origin_addr,
        state.config.origin_deadline(),
        &msg,
    )
}

/// Fetches `url` from the origin with bounded retries: transport failures
/// and 5xx replies are retried up to `origin_retries` extra times with
/// backoff; 200 and 404 are authoritative.
fn fetch_from_origin(
    state: &ProxyState,
    url: &str,
    trace: TraceId,
    span: SpanId,
) -> Result<Body, OriginError> {
    let mut attempts_left = state.config.origin_retries;
    let mut backoff = RETRY_BACKOFF;
    loop {
        let failure = match origin_attempt(state, url, trace, span, None) {
            Ok(reply) => match response_code(&reply) {
                Some(status::OK) => return Ok(reply.body),
                Some(status::NOT_FOUND) => return Err(OriginError::NotFound),
                _ => OriginError::Unavailable,
            },
            Err(e) => OriginError::Io(e),
        };
        if attempts_left == 0 {
            return Err(failure);
        }
        attempts_left -= 1;
        std::thread::sleep(backoff);
        backoff *= 2;
    }
}

/// Outcome of a conditional (`If-Digest`) origin exchange for a stale
/// disk entry.
enum Revalidation {
    /// The disk copy is still current; its freshness stamp can be reset.
    NotModified,
    /// The document changed; here is the new body.
    Changed(Body),
    /// The origin no longer serves the document (authoritative 404).
    Gone,
    /// The origin was unreachable or kept erroring after every retry;
    /// nothing is known about the copy's currency.
    Failed,
}

/// Revalidates a stale disk entry against the origin with bounded retries
/// (the same transport/5xx retry policy as [`fetch_from_origin`]; 200,
/// 304, and 404 are authoritative).
fn revalidate_with_origin(
    state: &ProxyState,
    url: &str,
    digest_hex: &str,
    trace: TraceId,
    span: SpanId,
) -> Revalidation {
    let mut attempts_left = state.config.origin_retries;
    let mut backoff = RETRY_BACKOFF;
    loop {
        if let Ok(reply) = origin_attempt(state, url, trace, span, Some(digest_hex)) {
            match response_code(&reply) {
                Some(status::OK) => return Revalidation::Changed(reply.body),
                Some(status::NOT_MODIFIED) => return Revalidation::NotModified,
                Some(status::NOT_FOUND) => return Revalidation::Gone,
                _ => {}
            }
        }
        if attempts_left == 0 {
            return Revalidation::Failed;
        }
        attempts_left -= 1;
        std::thread::sleep(backoff);
        backoff *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose GET fills the loop's last read chunk exactly and who
    /// then half-closes still gets its reply — here through the executor,
    /// since the GET misses. The frame and the FIN wait on the listener
    /// before the proxy starts, so its first read of the connection sees
    /// both.
    #[test]
    fn get_filling_the_last_read_chunk_is_answered_after_half_close() {
        use crate::protocol::read_message;
        use std::io::Write as _;

        let store = crate::store::DocumentStore::synthetic(1, 50, 100, 1);
        let body = store.get("http://origin/doc/0").unwrap().to_vec();
        let origin = crate::origin::OriginServer::start(store).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let get = Message::new("GET http://origin/doc/0 BAPS/1.0").header("Client", "1");
        conn.write_all(&crate::reactor::chunk_aligned_frame(get, 1))
            .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let proxy = ProxyServer::start_on(
            listener,
            ProxyConfig {
                cache_capacity: 64 << 10,
                origin_addr: origin.addr(),
                key_seed: 1,
                cache_peer_hits: false,
                direct_forward: false,
                worker_threads: 0,
                peer_timeout: Duration::ZERO,
                peer_retries: 0,
                origin_timeout: Duration::ZERO,
                origin_retries: 0,
                disk: None,
                faults: None,
                recorder: None,
                slo: SloTable::default(),
            },
        )
        .unwrap();
        let reply = read_message(&mut std::io::BufReader::new(conn))
            .unwrap()
            .expect("a reply before EOF");
        assert_eq!(reply.get("X-Source"), Some("origin"));
        assert_eq!(&reply.body[..], &body[..]);
        proxy.shutdown();
    }

    /// A hit response shares the cached allocation — the body is never
    /// copied between the cache and the outgoing frame.
    #[test]
    fn ok_response_shares_cached_body() {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(7));
        let body: Body = Arc::from(&b"watermarked body"[..]);
        let cached = CachedDoc {
            watermark: signer.watermark(&body),
            body: Arc::clone(&body),
        };
        let reply = ok_response("proxy", &cached);
        assert!(Arc::ptr_eq(&reply.body, &body));
    }

    /// Followers of a coalesced flight share the leader's body
    /// allocation: the broadcast outcome clones [`CachedDoc`], whose body
    /// is `Arc<[u8]>`, so every waiter holds the same bytes by pointer.
    #[test]
    fn flight_followers_share_one_body_allocation() {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(9));
        let body: Body = Arc::from(&b"herd body"[..]);
        let cached = CachedDoc {
            watermark: signer.watermark(&body),
            body: Arc::clone(&body),
        };
        let entry = Arc::new(Inflight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let entry = Arc::clone(&entry);
                std::thread::spawn(move || entry.wait(Duration::from_secs(5)))
            })
            .collect();
        *entry.slot.lock() = Some(FlightOutcome::Doc(cached));
        entry.cv.notify_all();
        for follower in followers {
            match follower.join().unwrap() {
                FlightOutcome::Doc(doc) => assert!(Arc::ptr_eq(&doc.body, &body)),
                _ => panic!("expected the shared doc"),
            }
        }
    }

    /// A follower whose leader never publishes gives up after its wait
    /// budget instead of hanging.
    #[test]
    fn flight_wait_times_out_to_unshared() {
        let entry = Inflight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        };
        let outcome = entry.wait(Duration::from_millis(20));
        assert!(matches!(outcome, FlightOutcome::Unshared));
    }

    /// The snapshot derives `requests` from the outcome counters, so the
    /// balance identity can never be observed broken.
    #[test]
    fn snapshot_balances_by_construction() {
        let c = ProxyCounters::default();
        c.proxy_hits.fetch_add(3, Ordering::Relaxed);
        c.disk_hits.fetch_add(4, Ordering::Relaxed);
        c.peer_hits.fetch_add(2, Ordering::Relaxed);
        c.origin_fetches.fetch_add(5, Ordering::Relaxed);
        c.errors.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.requests, 15);
        assert_eq!(
            s.requests,
            s.proxy_hits + s.disk_hits + s.peer_hits + s.origin_fetches + s.errors
        );
    }

    /// The persisted baseline round-trips through the key=value file and
    /// folds into snapshots without breaking the balance identity.
    #[test]
    fn baseline_roundtrip_preserves_balance() {
        let root = std::env::temp_dir().join(format!("baps-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let before = ProxyStats {
            requests: 10,
            proxy_hits: 4,
            disk_hits: 2,
            disk_revalidations: 1,
            peer_hits: 1,
            origin_fetches: 3,
            invalidations: 7,
            peer_failures: 2,
            direct_pushes: 1,
            peer_fallbacks: 1,
            errors: 0,
            coalesced_fetches: 6,
        };
        persist_baseline(&root, &before);
        let loaded = load_baseline(&root);
        assert_eq!(loaded, before);
        let c = ProxyCounters::default();
        c.proxy_hits.fetch_add(5, Ordering::Relaxed);
        c.errors.fetch_add(1, Ordering::Relaxed);
        let total = c.snapshot().offset_by(&loaded);
        assert_eq!(total.requests, 16);
        assert_eq!(
            total.requests,
            total.proxy_hits
                + total.disk_hits
                + total.peer_hits
                + total.origin_fetches
                + total.errors
        );
        // A missing file is a zero baseline, not an error.
        let empty = load_baseline(&root.join("nope"));
        assert_eq!(empty, ProxyStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }
}
