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

pub use crate::counters::ProxyStats;
use crate::counters::{load_baseline, persist_baseline, ProxyCounters};
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
use baps_crypto::{md5, Digest, ProxySigner, PublicKey, Watermark};
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

/// Shard-lock waits above this are worth a flight-recorder event even on
/// a cache hit; anything quicker is uncontended-fast-path noise.
const SLOW_SHARD_WAIT: Duration = Duration::from_micros(100);

/// Label set for the proxy's per-verb latency histograms; the last label
/// takes every message whose first token is none of the others.
pub(crate) const PROXY_VERBS: [&str; 7] = [
    "GET",
    "INVALIDATE",
    "REGISTER",
    "METRICS",
    "TRACE",
    "HEALTH",
    "other",
];

/// Position of a request's first token in [`PROXY_VERBS`].
pub(crate) fn verb_index(verb: Option<&&str>) -> usize {
    let other = PROXY_VERBS.len() - 1;
    verb.and_then(|verb| PROXY_VERBS[..other].iter().position(|label| label == verb))
        .unwrap_or(other)
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
/// `peers` are read-mostly RwLocks; the `upstream` pool's map and the
/// `inflight` registry are brief bookkeeping mutexes. No lock is ever held
/// across socket I/O, an origin fetch, or a body copy, and no worker holds
/// two locks at once.
pub(crate) struct ProxyState {
    pub(crate) cache: ShardedCache,
    pub(crate) index: StripedIndex,
    urls: RwLock<Interner>,
    peers: RwLock<HashMap<u32, SocketAddr>>,
    /// The next `Txn` number (1, 2, …) a PEERGET or PUSH order carries:
    /// all a holder learns about who asked (§6.2).
    next_txn: AtomicU64,
    signer: ProxySigner,
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
    /// METRICS can report queue depth, busy workers, and time-in-queue.
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
            next_txn: AtomicU64::new(1),
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
    /// errors` holds in every snapshot, even taken mid-load: `requests` is
    /// derived from the outcome counters, never counted beside them.
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

/// What the miss path and the serve sites need to know about the GET
/// being answered.
struct GetRequest<'a> {
    url: &'a str,
    doc: DocId,
    requester: ClientId,
    bypass_peers: bool,
    trace: TraceId,
    parent: SpanId,
    t_request: Instant,
}

/// The one place a GET is counted as served: bumps `tier`'s outcome
/// counter, lists the requester in the index (it caches what we send and
/// invalidates on evict), and records the latency under the same tier — so
/// the balance identity holds and the tier-histogram counts equal the
/// served counters by construction.
fn count_served(state: &ProxyState, req: &GetRequest, tier: Tier) {
    let counters = &state.counters;
    let counter = match tier {
        Tier::Proxy => &counters.proxy_hits,
        Tier::Disk => &counters.disk_hits,
        Tier::Peer => &counters.peer_hits,
        Tier::Origin => &counters.origin_fetches,
        Tier::Local => unreachable!("a browser's own cache never reaches the proxy"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    state.index.on_store(req.requester, req.doc);
    state
        .obs
        .tiers
        .record_traced(tier.index(), req.t_request.elapsed(), req.trace);
}

/// Counts the GET as served from `tier` and builds its 200 reply around
/// the shared body.
fn serve(state: &ProxyState, req: &GetRequest, tier: Tier, doc: &CachedDoc) -> Message {
    count_served(state, req, tier);
    ok_response(tier.name(), doc)
}

/// The one place a GET is counted as failed; builds its error reply.
fn fail(state: &ProxyState, code: u16, reason: &str) -> Message {
    state.counters.errors.fetch_add(1, Ordering::Relaxed);
    response(code, reason)
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
    let req = GetRequest {
        url,
        doc,
        requester: ClientId(client),
        bypass_peers,
        trace,
        parent,
        t_request,
    };

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
        return serve(state, &req, Tier::Proxy, &cached);
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
                let (reply, outcome) = handle_miss(state, &req);
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
                // Followers that share the leader's outcome, good or bad.
                let coalesced = |detail: String| {
                    state
                        .counters
                        .coalesced_fetches
                        .fetch_add(1, Ordering::Relaxed);
                    record_hop(
                        state,
                        trace,
                        hop_span(trace),
                        parent,
                        EventKind::Coalesced,
                        t_wait.elapsed(),
                        detail,
                    );
                };
                match outcome {
                    FlightOutcome::Doc(cached) => {
                        coalesced(format!("url={url} outcome=ok"));
                        return serve(state, &req, Tier::Proxy, &cached);
                    }
                    FlightOutcome::Error(code, reason) => {
                        // The leader's failure is broadcast: every waiter
                        // fails the same way instead of dogpiling a dead
                        // origin — and instead of hanging.
                        coalesced(format!("url={url} outcome=err code={code}"));
                        return fail(state, code, &reason);
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
                            return serve(state, &req, Tier::Proxy, &cached);
                        }
                        if attempt >= MAX_FLIGHT_JOINS {
                            return handle_miss(state, &req).0;
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
fn handle_miss(state: &ProxyState, req: &GetRequest) -> (Message, FlightOutcome) {
    let GetRequest {
        url,
        doc,
        requester,
        trace,
        parent,
        ..
    } = *req;
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
                let reply = serve_from_disk(state, req, &hit.doc, false);
                return (reply, FlightOutcome::Doc(hit.doc));
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
                    let reply = serve_from_disk(state, req, &hit.doc, true);
                    return (reply, FlightOutcome::Doc(hit.doc));
                }
                Revalidation::Changed(body) => {
                    // The document changed at the origin: this is an
                    // origin fetch in every respect, write-through
                    // included.
                    let (reply, cached) = serve_origin_fetch(state, req, body);
                    return (reply, FlightOutcome::Doc(cached));
                }
                Revalidation::Gone => {
                    // The origin no longer serves the document; the
                    // stale disk copy must not outlive it.
                    disk.remove(url);
                    return (
                        fail(state, status::NOT_FOUND, "Not Found"),
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
    if !req.bypass_peers {
        let candidates = state.index.lookup_all(doc, requester);
        for peer in candidates.into_iter().take(MAX_PEER_PROBES) {
            probed_peers = true;
            if state.config.direct_forward {
                let push_span = hop_span(trace);
                let t_push = Instant::now();
                let pushed = order_direct_push(state, requester, peer, url, trace, push_span);
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
                        state.counters.direct_pushes.fetch_add(1, Ordering::Relaxed);
                        count_served(state, req, Tier::Peer);
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
            let probed = fetch_from_peer(state, peer, url, trace, probe_span);
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
                    if state.config.cache_peer_hits {
                        state.cache.insert(doc, url, cached.clone());
                        write_through_to_disk(state, url, &cached, None, trace);
                    }
                    let reply = serve(state, req, Tier::Peer, &cached);
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
            let (reply, cached) = serve_origin_fetch(state, req, body);
            (reply, FlightOutcome::Doc(cached))
        }
        Err(e) => {
            let (code, reason) = match e {
                OriginError::NotFound => (status::NOT_FOUND, "Not Found".to_string()),
                OriginError::Unavailable => (status::UNAVAILABLE, "Origin Unavailable".to_string()),
                OriginError::Io(e) => (
                    status::UNAVAILABLE,
                    format!("Origin Unreachable ({})", e.kind()),
                ),
            };
            let reply = fail(state, code, &reason);
            (reply, FlightOutcome::Error(code, reason))
        }
    }
}

/// Serves an origin-fetched body: mints the watermark, populates both
/// cache tiers (write-through), updates the index, and counts the fetch.
/// Also hands back the cached doc so a coalescing leader can broadcast it.
fn serve_origin_fetch(state: &ProxyState, req: &GetRequest, body: Body) -> (Message, CachedDoc) {
    // The one hash of this hop: signed for the watermark, and stored in
    // the disk entry's header.
    let digest = md5(&body);
    let cached = CachedDoc {
        watermark: state.signer.sign(&digest),
        body,
    };
    state.cache.insert(req.doc, req.url, cached.clone());
    write_through_to_disk(state, req.url, &cached, Some(&digest), req.trace);
    (serve(state, req, Tier::Origin, &cached), cached)
}

/// Serves a verified disk-tier document: counts the hit, promotes the
/// document into the memory tier (repeat requests become memory hits),
/// and updates the index.
fn serve_from_disk(
    state: &ProxyState,
    req: &GetRequest,
    cached: &CachedDoc,
    revalidated: bool,
) -> Message {
    if revalidated {
        state
            .counters
            .disk_revalidations
            .fetch_add(1, Ordering::Relaxed);
    }
    state.cache.insert(req.doc, req.url, cached.clone());
    serve(state, req, Tier::Disk, cached)
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
        match probe_peer_once(state, addr, url, trace, span) {
            Err(e) if e.kind() != io::ErrorKind::NotFound && attempts_left > 0 => {
                attempts_left -= 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            other => return other,
        }
    }
}

/// One mediated PEERGET probe, under a transaction number of its own.
fn probe_peer_once(
    state: &ProxyState,
    addr: SocketAddr,
    url: &str,
    trace: TraceId,
    span: SpanId,
) -> Result<CachedDoc, io::Error> {
    // The probe's own hop span becomes the parent of the peer's serve
    // span, stitching the tree across processes.
    let probe = traced(
        Message::new(format!("PEERGET {url} BAPS/1.0")).header("Txn", next_txn(state).to_string()),
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
}

/// Mints the transaction number of one PEERGET or PUSH order.
fn next_txn(state: &ProxyState) -> u64 {
    state.next_txn.fetch_add(1, Ordering::Relaxed)
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
    requester: ClientId,
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
    let txn = next_txn(state);
    let push = traced(
        Message::new(format!("PUSH {url} BAPS/1.0"))
            .header("Txn", txn.to_string())
            .header("Target", target_addr.to_string()),
        trace,
        span,
    );
    let reply = state
        .upstream
        .exchange(peer_addr, state.config.peer_deadline(), &push)?;
    if response_code(&reply) != Some(status::OK) {
        return Err(io::Error::new(io::ErrorKind::NotFound, "peer gone"));
    }
    Ok(txn)
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

    /// A memory-only proxy in front of `origin_addr`, defaults elsewhere.
    fn test_config(origin_addr: SocketAddr) -> ProxyConfig {
        ProxyConfig {
            cache_capacity: 64 << 10,
            origin_addr,
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
        }
    }

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
        let proxy = ProxyServer::start_on(listener, test_config(origin.addr())).unwrap();
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

    /// "Add a row" is sufficient: with counter *i* set to the *i*-th prime,
    /// every surface derived from the table — the snapshot and its
    /// derived `requests`, `offset_by`, the `METRICS` exposition, the
    /// baseline file and the restart that folds it back in — reports
    /// exactly that value under the row's name.
    #[test]
    fn every_table_row_reaches_every_surface() {
        use crate::counters::{Family, COUNTERS};
        use baps_obs::prom;

        let root = std::env::temp_dir().join(format!("baps-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ProxyConfig {
            disk: Some(DiskConfig {
                root: root.clone(),
                capacity: 1 << 20,
                default_ttl: Duration::from_secs(3600),
            }),
            // Nothing is fetched, so nothing dials this.
            ..test_config("127.0.0.1:1".parse().unwrap())
        };
        let proxy = ProxyServer::start(config.clone()).unwrap();
        let primes: Vec<u64> = (2u64..)
            .filter(|n| (2..*n).all(|d| n % d != 0))
            .take(COUNTERS.len())
            .collect();
        for (cell, prime) in proxy.state.counters.cells().iter().zip(&primes) {
            cell.store(*prime, Ordering::Relaxed);
        }

        let stats = proxy.stats();
        let values: Vec<u64> = stats.counters().map(|(_, value)| value).collect();
        assert_eq!(values, primes);
        let outcomes = COUNTERS.iter().zip(&primes).filter(|(def, _)| def.outcome);
        assert_eq!(outcomes.clone().count(), 5);
        assert_eq!(stats.requests, outcomes.map(|(_, p)| p).sum::<u64>());
        let doubled = stats.offset_by(&stats);
        assert_eq!(doubled.requests, 2 * stats.requests);
        for ((_, value), prime) in doubled.counters().zip(&primes) {
            assert_eq!(value, 2 * prime);
        }

        let text = proxy.metrics_text();
        let samples = prom::parse(&text).expect("exposition parses");
        for (def, prime) in COUNTERS.iter().zip(&primes) {
            let sample = match def.family {
                Family::Served(tier) => {
                    prom::find(&samples, "baps_served_total", &[("tier", tier)])
                }
                Family::Plain(name, _) | Family::Disk(name, _) => prom::find(&samples, name, &[]),
            };
            assert_eq!(sample, Some(*prime as f64), "{} in:\n{text}", def.name);
        }
        assert_eq!(
            prom::find(&samples, "baps_requests_total", &[]),
            Some(stats.requests as f64)
        );

        // A graceful stop writes the baseline; the next incarnation starts
        // from zero live counters and reports the same totals.
        proxy.shutdown();
        let file = std::fs::read_to_string(root.join("counters.baseline")).unwrap();
        for (def, prime) in COUNTERS.iter().zip(&primes) {
            assert!(
                file.lines().any(|l| l == format!("{}={prime}", def.name)),
                "{} missing from:\n{file}",
                def.name
            );
        }
        let reborn = ProxyServer::start(config).unwrap();
        assert_eq!(reborn.stats(), stats);
        reborn.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
