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
use crate::disk::{DiskConfig, DiskHit, DiskStats, DiskTier, Entry, ReadOutcome, ReadVia};
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::process_minor_faults;
use crate::protocol::{response, response_code, status, trace_of, Body, Message};
use crate::reactor::{
    loops_per_core, Event, FrameCtx, FrameService, MintedMap, ReactorSnapshot, ReactorTelemetry,
    Seat, Server, Step, Waker,
};
use crate::shard::{ShardedCache, StripedIndex, DEFAULT_INDEX_SHARDS};
use crate::store::CachedDoc;
use crate::upstream::{Ask, Upstream};
use baps_core::{ClientId, DocId, Interner, Served};
use baps_crypto::{verify_document, Digest, ProxySigner, PublicKey};
use baps_obs::{decimal, span, EventKind, FlightRecorder, LabeledHistograms, SpanId, TraceId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Seed of the proxy's signing key pair. One key for every proxy: a
/// restarted proxy must verify the watermarks its disk tier holds.
const KEY_SEED: u64 = 0xbaf5;
/// Maximum peer candidates probed per request.
const MAX_PEER_PROBES: usize = 4;
/// Initial backoff between retried peer probes / origin fetches.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Proxy configuration.
///
/// Placement is fixed: the proxy caches what it fetched from the origin or
/// read from its disk tier, and relays a peer's body without keeping it —
/// the requesting browser caches that (the simulator's
/// `RemoteHitCaching::CacheAtRequester`).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Proxy cache capacity in bytes.
    pub cache_capacity: u64,
    /// Address of the origin server.
    pub origin_addr: SocketAddr,
    /// Deadline for one peer exchange — connect, request, reply — so one
    /// dead browser cannot hold a request.
    pub peer_timeout: Duration,
    /// Extra attempts per peer probe after a *transport* failure. A peer
    /// that answers `410 Gone` is authoritative and never re-probed.
    pub peer_retries: u32,
    /// Deadline for one origin exchange.
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
}

/// Shard-lock waits above this are worth a flight-recorder event even on
/// a cache hit; anything quicker is uncontended-fast-path noise.
const SLOW_SHARD_WAIT: Duration = Duration::from_micros(100);

/// Label set for the proxy's per-verb latency histograms; the last label
/// takes every message whose first token is none of the others.
const PROXY_VERBS: [&str; 6] = ["GET", "INVALIDATE", "REGISTER", "METRICS", "TRACE", "other"];

/// Position of a request's first token in [`PROXY_VERBS`].
fn verb_index(verb: Option<&&str>) -> usize {
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

/// Shared proxy state. Lock discipline (see DESIGN.md): `cache` is one
/// LRU behind one lock, `index` doc-sharded stripes (one lock per shard);
/// `urls` and `peers` are read-mostly RwLocks; the `inflight` registry is
/// a brief bookkeeping mutex. (Upstream connections belong to the event
/// loops and take no lock.) No lock is ever held across socket I/O, an
/// origin fetch, or a body copy, and no thread holds two locks at once.
pub(crate) struct ProxyState {
    pub(crate) cache: ShardedCache,
    pub(crate) index: StripedIndex,
    /// Keyed by URL, which a client chooses: SipHash, like every map whose
    /// keys come off the wire.
    urls: RwLock<Interner>,
    /// Registered peer ports by `Client:` id, a key a client chooses:
    /// SipHash.
    peers: RwLock<HashMap<u32, SocketAddr>>,
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
    /// Event-loop and executor telemetry (shared with the loops and the
    /// executor), the upstream connections' counters included.
    pub(crate) reactor: Arc<ReactorTelemetry>,
    /// Per-document in-flight miss registry (thundering-herd coalescing):
    /// the first miss for a doc becomes the leader and fetches; concurrent
    /// misses park as continuations on their loops and share the leader's
    /// outcome. Shared with every [`FlightLeader`], which may outlive a
    /// borrow of this state.
    inflight: Arc<FlightRegistry>,
    /// When this incarnation started (`baps_uptime_seconds`).
    pub(crate) started: Instant,
    /// The process's minor faults at the last scrape (at start before the
    /// first): `counters.minor_faults` grows by the difference.
    faults_read: AtomicU64,
}

impl ProxyState {
    /// Restart-surviving counter snapshot: the live counters plus the
    /// persisted baseline. The balance identity holds (see
    /// [`ProxyStats::offset_by`]).
    pub(crate) fn stats(&self) -> ProxyStats {
        self.counters.snapshot().offset_by(&self.baseline)
    }

    /// Adds the minor faults the process has taken since the last call to
    /// `counters.minor_faults`: once per `METRICS` scrape.
    pub(crate) fn note_minor_faults(&self) {
        let now = process_minor_faults();
        let last = self.faults_read.swap(now, Ordering::Relaxed);
        self.counters
            .minor_faults
            .fetch_add(now.saturating_sub(last), Ordering::Relaxed);
    }

    /// In-flight coalescing entries open right now (flight-registry
    /// occupancy). Nonzero under load means misses are actively sharing
    /// leaders; a stuck high value means leaders aren't finishing.
    pub(crate) fn inflight_occupancy(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }
}

/// A running browsers-aware proxy.
pub struct ProxyServer {
    stopped: bool,
    /// One event loop per core (loop 0 also accepts), and the disk-tier
    /// executor.
    server: Server<Suspended>,
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
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(KEY_SEED));
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
        let telemetry = Arc::<ReactorTelemetry>::default();
        let state = Arc::new(ProxyState {
            cache: ShardedCache::single(config.cache_capacity),
            index: StripedIndex::new(DEFAULT_INDEX_SHARDS),
            urls: RwLock::new(Interner::new()),
            peers: RwLock::new(HashMap::new()),
            signer,
            counters: ProxyCounters::default(),
            baseline,
            config,
            obs: ProxyObs {
                recorder,
                tiers: LabeledHistograms::new(&Served::LABELS),
                verbs: LabeledHistograms::new(&PROXY_VERBS),
            },
            disk,
            reactor: Arc::clone(&telemetry),
            inflight: Arc::default(),
            started: Instant::now(),
            faults_read: AtomicU64::new(process_minor_faults()),
        });
        let server = Server::start_on(
            listener,
            "baps-proxy",
            Arc::clone(&state),
            loops_per_core(),
            telemetry,
        )?;
        Ok(ProxyServer {
            stopped: false,
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

    /// Test/diagnostic hook: whether the browser index currently lists
    /// `client` as a holder of `url` (`false` for a URL never interned).
    pub fn index_holds(&self, client: u32, url: &str) -> bool {
        let Some(doc) = known_doc(&self.state, url) else {
            return false;
        };
        self.state.index.contains(ClientId(client), doc)
    }

    /// Current browser-index entry count (summed across shards).
    pub fn index_entries(&self) -> u64 {
        self.state.index.entries()
    }

    /// Test hook: a shared handle to the proxy-cached body for `url`, if
    /// cached. Two calls return the *same* allocation (`Arc::ptr_eq`),
    /// proving a cache hit is a refcount bump, not a copy.
    pub fn cached_body(&self, url: &str) -> Option<Body> {
        let doc = known_doc(&self.state, url)?;
        self.state.cache.get(doc, url).map(|d| d.body)
    }

    /// Client connections currently registered with the event loops.
    pub fn open_connections(&self) -> usize {
        self.server.open_connections()
    }

    /// Event-loop and executor telemetry snapshot: registered fds (current
    /// and peak), ready-batch depth, loop busy-fraction, inline vs
    /// offloaded dispatches, upstream exchanges in flight, parked requests,
    /// and the executor queue's depth (current and peak), wait histogram
    /// and rejected jobs.
    pub fn reactor_stats(&self) -> ReactorSnapshot {
        self.state.reactor.snapshot()
    }

    /// Entries currently in the in-flight miss registry (thundering-herd
    /// coalescing flights open right now).
    pub fn flight_occupancy(&self) -> usize {
        self.state.inflight.lock().unwrap().len()
    }

    /// Ops/test hook: abruptly severs every open client connection and
    /// closes every idle upstream connection (peers and origin) without
    /// stopping the server. Keep-alive clients observe EOF mid-session and
    /// must reconnect; the next upstream exchange dials.
    pub fn drop_connections(&self) {
        self.server.drop_all();
    }

    /// Stops accepting, severs open client connections, joins the event
    /// loops and executor threads, and closes every upstream connection
    /// (peers and origin).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        // Closes every open connection — the clients' and the loops' own
        // to peers and origin — then joins the threads.
        self.server.shutdown();
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

/// What a request the proxy has suspended carries to its next step.
// Nearly every suspension is a GET: boxing it to even out the variants
// would cost each miss an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Suspended {
    /// A GET past the memory tier.
    Get(Miss),
    /// A publisher's INVALIDATE on its way to the executor.
    Purge(Notice),
}

impl FrameService for ProxyState {
    type Cont = Suspended;

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

    /// Every admin verb and every memory hit is answered here and now,
    /// from local state; a GET that misses the memory cache comes back as
    /// the first step of its [`Miss`], and a purge that has a disk entry
    /// to re-stamp goes to the executor.
    fn handle(
        &self,
        msg: &Message,
        _fault: Option<FaultKind>,
        ctx: &mut FrameCtx<'_>,
    ) -> Step<Suspended> {
        let t_verb = Instant::now();
        let verb = verb_index(msg.tokens().first());
        let step = dispatch(msg, t_verb, ctx, self).unwrap_or(Step::Reply(None));
        // A suspended GET is timed when it is answered (`Miss::done`).
        if matches!(step, Step::Reply(_)) {
            self.obs.verbs.record(verb, t_verb.elapsed());
        }
        step
    }

    fn resume(&self, suspended: Suspended, event: Event, seat: &Seat<'_>) -> Step<Suspended> {
        match suspended {
            Suspended::Get(miss) => miss.resume(self, event, seat).map(Suspended::Get),
            Suspended::Purge(notice) => {
                let reply = notice.apply(self);
                let verb = verb_index(Some(&"INVALIDATE"));
                self.obs.verbs.record(verb, notice.t_verb.elapsed());
                Step::Reply(Some(reply))
            }
        }
    }
}

/// The first step for `msg`; `None` answers nothing (a GET, INVALIDATE or
/// REGISTER without a usable `Client` header).
fn dispatch(
    msg: &Message,
    t_verb: Instant,
    ctx: &mut FrameCtx<'_>,
    state: &ProxyState,
) -> Option<Step<Suspended>> {
    // The client mints a trace id per logical fetch and stamps every hop;
    // administrative verbs and legacy clients simply have none. For
    // head-sampled traces the `Span-Id` header carries the upstream span
    // every proxy-side span of this request attaches to.
    let (trace, parent) = trace_of(msg);
    let reply = match msg.tokens().as_slice() {
        ["GET", url, "BAPS/1.0"] => {
            let client: u32 = msg.get("Client")?.parse().ok()?;
            // Piggybacked eviction notices (processed before the GET so a
            // re-fetch of a just-evicted document is ordered correctly).
            if let Some(evicted) = msg.get("Evicted") {
                for victim in evicted.split(' ').filter(|u| !u.is_empty()) {
                    handle_invalidate(victim, client, trace, state);
                }
            }
            let req = GetRequest {
                doc: doc_id(state, url),
                requester: ClientId(client),
                bypass_peers: msg.get("Bypass-Peers").is_some(),
                trace,
                parent,
                t_request: t_verb,
            };
            return Some(handle_get(url, req, state, &ctx.seat).map(Suspended::Get));
        }
        ["INVALIDATE", url, "BAPS/1.0"] => {
            let notice = Notice {
                url: url.to_string(),
                client: msg.get("Client")?.parse().ok()?,
                purge: msg.get("Purge").is_some(),
                trace,
                t_verb,
            };
            // Purging re-stamps the disk tier's entry: a file write, so
            // not an event loop's to make.
            if notice.purge && state.disk.is_some() {
                return Some(Step::Offload(Suspended::Purge(notice)));
            }
            notice.apply(state)
        }
        ["REGISTER", port, "BAPS/1.0"] => {
            let client: u32 = msg.get("Client")?.parse().ok()?;
            let port: u16 = port.parse().ok()?;
            let addr = SocketAddr::new(ctx.peer_ip, port);
            let previous = state.peers.write().unwrap().insert(client, addr);
            if let Some(old) = previous.filter(|&old| old != addr) {
                // The browser moved: nothing will be asked of its old
                // address again.
                ctx.seat.forget_upstream(old);
            }
            response(status::OK, "OK")
        }
        ["TRACE", "BAPS/1.0"] => {
            let body = state.obs.recorder.dump_spans();
            response(status::OK, "OK")
                .header("Content-Type", "application/jsonl")
                .header_num("Sample-One-In", span::SAMPLE_ONE_IN)
                .with_body(body.into_bytes())
        }
        ["METRICS", "BAPS/1.0"] => {
            let text = crate::metrics::render(state);
            response(status::OK, "OK")
                .header("Content-Type", "text/plain; version=0.0.4")
                .with_body(text.into_bytes())
        }
        _ => response(status::BAD_REQUEST, "Bad Request"),
    };
    Some(Step::Reply(Some(reply)))
}

/// Interns `url`, taking only the shared read lock on the steady-state
/// path (every URL after its first sighting). The read→write upgrade race
/// is benign: `intern` is idempotent, so two writers agree on the id.
pub(crate) fn doc_id(state: &ProxyState, url: &str) -> DocId {
    known_doc(state, url).unwrap_or_else(|| DocId(state.urls.write().unwrap().intern(url)))
}

/// The id of a URL some GET has already interned, `None` for one the proxy
/// has never served: the cache and the index hold nothing under it. What a
/// notice looks its URL up with — anybody can send one, so a URL in it
/// must not cost the interner an entry.
fn known_doc(state: &ProxyState, url: &str) -> Option<DocId> {
    state.urls.read().unwrap().get(url).map(DocId)
}

/// What the miss path and the serve sites need to know about the GET
/// being answered (its URL aside, which a memory hit only borrows).
#[derive(Clone, Copy)]
struct GetRequest {
    doc: DocId,
    requester: ClientId,
    /// `Bypass-Peers`: the browser's integrity retry, see [`vouch`].
    bypass_peers: bool,
    trace: TraceId,
    parent: SpanId,
    t_request: Instant,
}

/// The one place a GET is counted as served: bumps `tier`'s outcome
/// counter, lists the requester in the index (it caches what we send and
/// invalidates on evict), and records the latency under the same tier — so
/// the balance identity holds and the tier-histogram counts equal the
/// served counters by construction. Builds the 200 reply around the shared
/// body.
fn serve(state: &ProxyState, req: &GetRequest, tier: Served, doc: &CachedDoc) -> Message {
    let counters = &state.counters;
    let counter = match tier {
        Served::Proxy => &counters.proxy_hits,
        Served::ProxyDisk => &counters.disk_hits,
        Served::Peer => &counters.peer_hits,
        Served::Origin => &counters.origin_fetches,
        Served::LocalBrowser => unreachable!("a browser's own cache never reaches the proxy"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    state.index.on_store(req.requester, req.doc);
    state
        .obs
        .tiers
        .record_traced(tier.index(), req.t_request.elapsed(), req.trace);
    ok_response(tier, doc)
}

/// The one place the proxy hashes a body it is about to serve (DESIGN.md
/// §5): whether `doc.watermark` signs the body. A peer's reply is
/// held to the watermark the proxy recorded for the document; its own
/// copy only on a browser's integrity retry (`Bypass-Peers`, sent after a
/// failed §6.1 verify: a memory copy poisoned after it was vouched for, a
/// forged disk entry, an origin's lie), which drops a copy that fails and
/// goes on to the origin.
fn vouch(state: &ProxyState, doc: &CachedDoc) -> bool {
    verify_document(&state.signer.public_key(), &doc.body, &doc.watermark).is_ok()
}

/// The one place a GET is counted as failed; builds its error reply.
fn fail(state: &ProxyState, code: u16, reason: &str) -> Message {
    state.counters.errors.fetch_add(1, Ordering::Relaxed);
    response(code, reason)
}

fn handle_get(url: &str, req: GetRequest, state: &ProxyState, seat: &Seat<'_>) -> Step<Miss> {
    // 1. Proxy cache. The hit hands back a shared body handle — the shard
    // lock is held only for the map lookup, never while the reply frame is
    // written.
    let t_shard = Instant::now();
    let cached = state.cache.get(req.doc, url);
    let shard_wait = t_shard.elapsed();
    // Fast cache hits are the hot path (tens of thousands per second, all
    // identical); a ring event for each would be pure overhead with no
    // diagnostic value. Record the span only when it says something — a
    // miss (the request is about to leave the fast path), a slow lock
    // acquisition (shard contention, the thing this span exists to show),
    // or a head-sampled trace (whose tree must be complete).
    let sampled = span::sampled(req.trace);
    if sampled || cached.is_none() || shard_wait > SLOW_SHARD_WAIT {
        state.obs.recorder.record_hop(
            req.trace,
            span::hop(req.trace),
            req.parent,
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
        if !req.bypass_peers || vouch(state, &cached) {
            return Step::Reply(Some(serve(state, &req, Served::Proxy, &cached)));
        }
        state.cache.remove(req.doc, url);
    }
    Miss {
        req,
        url: url.to_owned(),
        lead: None,
        joins: 0,
        probed: false,
        landed: None,
        stage: Stage::Joining,
    }
    .join(state, seat)
}

// ---------------------------------------------------------------------------
// Thundering-herd coalescing (singleflight)
// ---------------------------------------------------------------------------

/// Rounds through the in-flight registry a request makes before giving up
/// on coalescing and fetching for itself (guards against pathological
/// chains of unshareable outcomes).
const MAX_FLIGHT_JOINS: usize = 3;

/// The per-document in-flight miss registry, keyed by the id the proxy's
/// interner minted (so hashed by [`MintedKeyHasher`]). The lock guards
/// only the map — never a fetch.
///
/// [`MintedKeyHasher`]: crate::reactor::MintedKeyHasher
type FlightRegistry = Mutex<MintedMap<DocId, Arc<Inflight>>>;

/// How a request relates to the in-flight registry entry for its doc.
enum FlightRole {
    /// This request created the entry: it must fetch, then publish.
    Leader(FlightLeader),
    /// Another request is already fetching this doc: park and share.
    Follower(Arc<Inflight>),
}

/// One in-flight miss: the outcome the leader fills in, and the wakers of
/// the followers parked until it does. A follower costs its loop one
/// parked continuation and this list one boxed waker — no thread.
#[derive(Default)]
struct Inflight {
    slot: Mutex<FlightSlot>,
}

#[derive(Default)]
struct FlightSlot {
    outcome: Option<FlightOutcome>,
    followers: Vec<Waker>,
}

impl Inflight {
    /// The leader's outcome, if it is in.
    fn outcome(&self) -> Option<FlightOutcome> {
        self.slot.lock().unwrap().outcome.clone()
    }

    /// The leader's outcome if it is in already; otherwise enlists
    /// `waker`, to be fired when it is.
    fn outcome_or_enlist(&self, waker: impl FnOnce() -> Waker) -> Option<FlightOutcome> {
        let mut slot = self.slot.lock().unwrap();
        if slot.outcome.is_none() {
            slot.followers.push(waker());
        }
        slot.outcome.clone()
    }
}

/// What a coalescing leader hands its followers.
#[derive(Clone)]
enum FlightOutcome {
    /// The miss produced a verified document; followers share the body
    /// (`Body` is `Arc<[u8]>`, so each follower costs a refcount bump, not
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
    let mut registry = state.inflight.lock().unwrap();
    match registry.entry(doc) {
        Entry::Occupied(e) => FlightRole::Follower(Arc::clone(e.get())),
        Entry::Vacant(v) => {
            let flight = Arc::<Inflight>::default();
            v.insert(Arc::clone(&flight));
            FlightRole::Leader(FlightLeader {
                registry: Arc::clone(&state.inflight),
                doc,
                flight,
                published: false,
            })
        }
    }
}

/// Leader-side handle: guarantees the registry entry is removed and the
/// followers woken exactly once, even if the leading request is dropped
/// half-way (its loop shut down under it).
struct FlightLeader {
    registry: Arc<FlightRegistry>,
    doc: DocId,
    flight: Arc<Inflight>,
    published: bool,
}

impl FlightLeader {
    fn publish(mut self, outcome: FlightOutcome) {
        self.finish(outcome);
        self.published = true;
    }

    fn finish(&self, outcome: FlightOutcome) {
        // Deregister first so a request arriving after the outcome was
        // decided starts a fresh flight instead of joining a finished one.
        self.registry.lock().unwrap().remove(&self.doc);
        let followers = {
            let mut slot = self.flight.slot.lock().unwrap();
            slot.outcome = Some(outcome);
            std::mem::take(&mut slot.followers)
        };
        // Each wake is a message to the follower's own loop.
        for wake in followers {
            wake();
        }
    }
}

impl Drop for FlightLeader {
    fn drop(&mut self) {
        // Release the followers rather than stranding them until their
        // wait budget expires. A poisoned registry or slot is left alone:
        // every later lock of it panics anyway, and a second panic here,
        // while a first one unwinds, would abort the process.
        if !self.published && !self.registry.is_poisoned() && !self.flight.slot.is_poisoned() {
            self.finish(FlightOutcome::Unshared);
        }
    }
}

// ---------------------------------------------------------------------------
// The miss path: disk → peers → origin, one step at a time
// ---------------------------------------------------------------------------

/// A GET past the memory tier: what it carries from one [`Step`] to the
/// next. The serve order below the memory cache — in-flight registry, disk
/// tier, candidate holders in index order, origin — is the order of this
/// type's methods, and nowhere else. Nothing here blocks except on the
/// executor ([`Event::Run`]): peers and the origin are *asked* through the
/// request's event loop, retry back-offs and a follower's wait are loop
/// timers.
pub(crate) struct Miss {
    req: GetRequest,
    url: String,
    /// The flight this request leads; its followers get the outcome.
    lead: Option<FlightLeader>,
    /// Rounds through the in-flight registry so far.
    joins: usize,
    /// A candidate holder was tried, so reaching the origin is a fallback.
    probed: bool,
    /// An upstream's answer being carried to the executor (see
    /// [`Miss::settles_on_disk`]).
    landed: Option<io::Result<Message>>,
    stage: Stage,
}

/// Where a [`Miss`] is suspended.
enum Stage {
    /// Not suspended (between stages).
    Joining,
    /// Parked behind the request that leads this document's flight.
    Following {
        flight: Arc<Inflight>,
        t_wait: Instant,
    },
    /// On its way to the executor to read the disk tier's entry: the loop
    /// could not without waiting for the disk.
    Disk(Entry),
    /// Asking the origin whether a stale disk entry is still current.
    Revalidating { hit: DiskHit, call: Call },
    /// Asking `peer` (PEERGET), with `rest` still to try.
    Probing {
        peer: ClientId,
        rest: std::vec::IntoIter<ClientId>,
        call: Call,
    },
    /// Fetching from the origin.
    Fetching { call: Call },
}

/// One upstream hop and its retries: the hop span and the clock cover
/// every attempt.
struct Call {
    span: SpanId,
    t0: Instant,
    attempts_left: u32,
    backoff: Duration,
}

impl Call {
    fn new(trace: TraceId, retries: u32) -> Call {
        Call {
            span: span::hop(trace),
            t0: Instant::now(),
            attempts_left: retries,
            backoff: RETRY_BACKOFF,
        }
    }

    /// How long to back off before the next attempt, if one is left.
    fn again(&mut self) -> Option<Duration> {
        self.attempts_left = self.attempts_left.checked_sub(1)?;
        let wait = self.backoff;
        self.backoff *= 2;
        Some(wait)
    }
}

/// Outcome of a conditional (`If-Digest`) origin exchange for a stale
/// disk entry.
enum Revalidation {
    /// The disk copy is still current; its freshness stamp can be reset.
    NotModified,
    /// The document changed; here is the new one, with the digest the
    /// origin declared for it.
    Changed(Body, Digest),
    /// The origin no longer serves the document (authoritative 404).
    Gone,
    /// The origin was unreachable or kept erroring after every retry;
    /// nothing is known about the copy's currency.
    Failed,
}

impl Miss {
    fn resume(mut self, state: &ProxyState, event: Event, seat: &Seat<'_>) -> Step<Miss> {
        let event = match event {
            Event::Answer(answer) if self.settles_on_disk(state) => {
                self.landed = Some(answer);
                return Step::Offload(self);
            }
            Event::Run => match self.landed.take() {
                Some(answer) => Event::Answer(answer),
                None => Event::Run,
            },
            event => event,
        };
        match (std::mem::replace(&mut self.stage, Stage::Joining), event) {
            (Stage::Following { flight, t_wait }, Event::Wake) => {
                // No outcome yet: the leader overran every backend
                // deadline combined; stop trusting it.
                let outcome = flight.outcome().unwrap_or(FlightOutcome::Unshared);
                self.followed(state, seat, outcome, t_wait)
            }
            (Stage::Disk(entry), Event::Run) => self.read_disk(state, entry, ReadVia::Executor),
            (Stage::Revalidating { hit, call }, Event::Answer(answer)) => {
                self.revalidated(state, hit, call, answer)
            }
            (Stage::Probing { peer, rest, call }, Event::Answer(answer)) => {
                self.probed(state, peer, rest, call, answer)
            }
            (Stage::Fetching { call }, Event::Answer(answer)) => self.fetched(state, call, answer),
            // A retry's back-off is over.
            (stage @ Stage::Probing { .. }, Event::Wake) => {
                self.stage = stage;
                self.ask_peer(state)
            }
            (stage @ (Stage::Revalidating { .. } | Stage::Fetching { .. }), Event::Wake) => {
                self.stage = stage;
                self.ask_origin(state)
            }
            _ => {
                debug_assert!(
                    false,
                    "a miss resumed by an event its stage never waits for"
                );
                self.fail(state, status::SERVER_ERROR, "Internal Server Error")
            }
        }
    }

    /// Whether handling the upstream answer this request waits for can end
    /// in disk-tier I/O (a write-through, a refresh, a remove). Such an
    /// answer is taken to the executor whole and handled there — the
    /// origin declared the digest it needs, the file write is not the
    /// loop's to wait for.
    fn settles_on_disk(&self, state: &ProxyState) -> bool {
        state.disk.is_some()
            && matches!(
                self.stage,
                Stage::Revalidating { .. } | Stage::Fetching { .. }
            )
    }

    /// Ends the request: the flight's followers get `outcome`, the
    /// requester gets `reply`.
    fn done(mut self, state: &ProxyState, reply: Message, outcome: FlightOutcome) -> Step<Miss> {
        if let Some(lead) = self.lead.take() {
            lead.publish(outcome);
        }
        let get = verb_index(Some(&"GET"));
        state.obs.verbs.record(get, self.req.t_request.elapsed());
        Step::Reply(Some(reply))
    }

    fn fail(self, state: &ProxyState, code: u16, reason: &str) -> Step<Miss> {
        let reply = fail(state, code, reason);
        self.done(state, reply, FlightOutcome::Error(code, reason.to_owned()))
    }

    /// Step 1c, the in-flight registry. The first miss for a doc becomes the
    /// *leader* and runs the miss path; concurrent misses for the same doc
    /// park as followers and share the leader's outcome — one backend
    /// fetch per herd, not one per request.
    fn join(mut self, state: &ProxyState, seat: &Seat<'_>) -> Step<Miss> {
        self.joins += 1;
        match join_inflight(state, self.req.doc) {
            FlightRole::Leader(lead) => {
                self.lead = Some(lead);
                self.below_memory(state)
            }
            FlightRole::Follower(flight) => {
                let t_wait = Instant::now();
                let outcome = if self.joins < MAX_FLIGHT_JOINS {
                    match flight.outcome_or_enlist(|| seat.waker()) {
                        Some(outcome) => outcome,
                        None => {
                            let budget = state.config.origin_timeout + state.config.peer_timeout;
                            self.stage = Stage::Following { flight, t_wait };
                            return Step::Wait(budget, self);
                        }
                    }
                } else {
                    FlightOutcome::Unshared
                };
                self.followed(state, seat, outcome, t_wait)
            }
        }
    }

    /// A follower with its leader's outcome, good or bad.
    fn followed(
        self,
        state: &ProxyState,
        seat: &Seat<'_>,
        outcome: FlightOutcome,
        t_wait: Instant,
    ) -> Step<Miss> {
        let GetRequest { trace, parent, .. } = self.req;
        let url = self.url.as_str();
        let coalesced = |outcome: &str, code: &str| {
            state
                .counters
                .coalesced_fetches
                .fetch_add(1, Ordering::Relaxed);
            state.obs.recorder.record_hop(
                trace,
                span::hop(trace),
                parent,
                EventKind::Coalesced,
                t_wait.elapsed(),
                |out: &mut String| {
                    for part in ["url=", url, " outcome=", outcome, code] {
                        out.push_str(part);
                    }
                },
            );
        };
        match outcome {
            FlightOutcome::Doc(cached) => {
                coalesced("ok", "");
                let reply = serve(state, &self.req, Served::Proxy, &cached);
                self.done(state, reply, FlightOutcome::Unshared)
            }
            FlightOutcome::Error(code, reason) => {
                // The leader's failure is broadcast: every follower fails
                // the same way instead of dogpiling a dead origin — and
                // instead of hanging.
                coalesced("err code=", decimal(code.into(), &mut [0; 20]));
                self.fail(state, code, &reason)
            }
            FlightOutcome::Unshared => {
                // The flight ended without a shareable outcome (a dropped
                // leader publishes this; or the wait budget ran out). The
                // doc may have landed in memory in the meantime; otherwise
                // rejoin, degrading to an uncoalesced miss after
                // MAX_FLIGHT_JOINS rounds so no request loops forever.
                if let Some(cached) = state.cache.get(self.req.doc, &self.url) {
                    let reply = serve(state, &self.req, Served::Proxy, &cached);
                    self.done(state, reply, FlightOutcome::Unshared)
                } else if self.joins >= MAX_FLIGHT_JOINS {
                    self.below_memory(state)
                } else {
                    self.join(state, seat)
                }
            }
        }
    }

    /// The miss path proper, for a leader or an uncoalesced request.
    /// Step 1b, the disk tier — consulted only after a memory miss, so the
    /// in-memory hot path never touches it. Whether the tier lists the
    /// document is a question for its in-memory index, asked here, on the
    /// loop; so is the read of a listed entry, for as long as it does not
    /// have to wait for the disk.
    fn below_memory(self, state: &ProxyState) -> Step<Miss> {
        let Some(disk) = &state.disk else {
            return self.probe_peers(state);
        };
        let t_disk = Instant::now();
        match disk.find(&self.url) {
            Some(entry) => self.read_disk(state, entry, ReadVia::Loop),
            None => {
                self.disk_hop(state, t_disk.elapsed(), "miss", None);
                self.probe_peers(state)
            }
        }
    }

    /// Records a disk-tier lookup: its outcome and, when a file was read,
    /// who read it.
    fn disk_hop(&self, state: &ProxyState, took: Duration, outcome: &str, via: Option<ReadVia>) {
        let url = &self.url;
        state.obs.recorder.record_hop(
            self.req.trace,
            span::hop(self.req.trace),
            self.req.parent,
            EventKind::DiskRead,
            took,
            |out: &mut String| {
                for part in ["url=", url, " outcome=", outcome] {
                    out.push_str(part);
                }
                if let Some(via) = via {
                    out.push_str(" via=");
                    out.push_str(via.name());
                }
            },
        );
    }

    /// A fresh checked entry serves directly; a stale one is revalidated
    /// against the origin with a conditional GET; a torn or corrupted one
    /// already self-healed inside `read` and reads as a miss, and so does
    /// one a browser's integrity retry refutes ([`vouch`]). A read the
    /// loop could not finish at once — pages not in memory, a large body,
    /// a failed check, a refuted entry to heal — is made again by the
    /// executor, which may block and may write.
    fn read_disk(mut self, state: &ProxyState, entry: Entry, via: ReadVia) -> Step<Miss> {
        let Some(disk) = &state.disk else {
            return self.probe_peers(state);
        };
        let t_disk = Instant::now();
        let hit = match disk.read(&self.url, &entry, via) {
            ReadOutcome::Hit(hit) if self.req.bypass_peers && !vouch(state, &hit.doc) => {
                if via == ReadVia::Loop {
                    self.stage = Stage::Disk(entry);
                    return Step::Offload(self);
                }
                disk.heal(&self.url, &entry);
                None
            }
            ReadOutcome::Hit(hit) => Some(hit),
            ReadOutcome::Healed => None,
            ReadOutcome::Deferred => {
                self.stage = Stage::Disk(entry);
                return Step::Offload(self);
            }
        };
        let outcome = match &hit {
            Some(h) if h.fresh => "fresh",
            Some(_) => "stale",
            None => "miss",
        };
        self.disk_hop(state, t_disk.elapsed(), outcome, Some(via));
        match hit {
            Some(hit) if hit.fresh => self.serve_from_disk(state, hit.doc, false),
            // TTL expired: ask the origin whether our copy is still
            // current before serving it.
            Some(hit) => {
                let call = Call::new(self.req.trace, state.config.origin_retries);
                self.stage = Stage::Revalidating { hit, call };
                self.ask_origin(state)
            }
            None => self.probe_peers(state),
        }
    }

    /// One origin exchange: the fetch, or — for a stale disk entry — its
    /// `If-Digest` revalidation (the origin answers 304 if the digest
    /// still matches, saving the body transfer).
    fn ask_origin(self, state: &ProxyState) -> Step<Miss> {
        let (call, if_digest) = match &self.stage {
            Stage::Revalidating { hit, call } => (call, Some(hit.digest)),
            Stage::Fetching { call } => (call, None),
            _ => unreachable!("only the origin stages ask the origin"),
        };
        let ask = Ask {
            addr: state.config.origin_addr,
            upstream: Upstream::Origin,
            deadline: state.config.origin_timeout,
            request: origin_request(&self.url, self.req.trace, call.span, if_digest),
        };
        Step::Ask(ask, self)
    }

    /// Records the origin hop `call` covered, every attempt included.
    fn origin_hop(&self, state: &ProxyState, call: &Call, outcome: &str) {
        state.obs.recorder.record_hop(
            self.req.trace,
            call.span,
            self.req.parent,
            EventKind::OriginFetch,
            call.t0.elapsed(),
            |out: &mut String| {
                for part in ["url=", &self.url, " outcome=", outcome] {
                    out.push_str(part);
                }
            },
        );
    }

    /// The origin's answer to an `If-Digest`: 200, 304 and 404 are
    /// authoritative; transport failures, 5xx and a 200 without a
    /// well-formed `Digest` are retried up to `origin_retries` extra times
    /// with back-off.
    fn revalidated(
        mut self,
        state: &ProxyState,
        hit: DiskHit,
        mut call: Call,
        answer: io::Result<Message>,
    ) -> Step<Miss> {
        let verdict = answer.ok().and_then(|reply| match response_code(&reply) {
            Some(status::OK) => {
                declared_digest(&reply).map(|digest| Revalidation::Changed(reply.body, digest))
            }
            Some(status::NOT_MODIFIED) => Some(Revalidation::NotModified),
            Some(status::NOT_FOUND) => Some(Revalidation::Gone),
            _ => None,
        });
        let verdict = match verdict {
            Some(verdict) => verdict,
            None => match call.again() {
                Some(wait) => {
                    self.stage = Stage::Revalidating { hit, call };
                    return Step::Wait(wait, self);
                }
                None => Revalidation::Failed,
            },
        };
        self.origin_hop(
            state,
            &call,
            match &verdict {
                Revalidation::NotModified => "not-modified",
                Revalidation::Changed(..) => "changed",
                Revalidation::Gone => "gone",
                Revalidation::Failed => "err",
            },
        );
        let disk = state
            .disk
            .as_ref()
            .expect("a disk hit came from a disk tier");
        match verdict {
            Revalidation::NotModified => {
                disk.refresh(&self.url);
                self.serve_from_disk(state, hit.doc, true)
            }
            // The document changed at the origin: this is an origin fetch
            // in every respect, write-through included.
            Revalidation::Changed(body, digest) => self.serve_origin_fetch(state, body, digest),
            Revalidation::Gone => {
                // The origin no longer serves the document; the stale disk
                // copy must not outlive it.
                disk.remove(&self.url);
                self.fail(state, status::NOT_FOUND, "Not Found")
            }
            // Origin unreachable: keep the stale entry (a later
            // revalidation may still rescue it) and degrade to the peers.
            Revalidation::Failed => self.probe_peers(state),
        }
    }

    /// Step 2, browser index → peer browser caches, most recent holder
    /// first.
    fn probe_peers(self, state: &ProxyState) -> Step<Miss> {
        let mut holders = if self.req.bypass_peers {
            Vec::new()
        } else {
            state.index.lookup_all(self.req.doc, self.req.requester)
        };
        holders.truncate(MAX_PEER_PROBES);
        self.next_holder(state, holders.into_iter())
    }

    fn next_holder(
        mut self,
        state: &ProxyState,
        mut rest: std::vec::IntoIter<ClientId>,
    ) -> Step<Miss> {
        let Some(peer) = rest.next() else {
            return self.fall_to_origin(state);
        };
        self.probed = true;
        self.stage = Stage::Probing {
            peer,
            rest,
            call: Call::new(self.req.trace, state.config.peer_retries),
        };
        self.ask_peer(state)
    }

    /// One mediated attempt on the current holder: it sees the URL, never
    /// the requester's identity (§6.2).
    fn ask_peer(mut self, state: &ProxyState) -> Step<Miss> {
        let Stage::Probing { peer, rest, call } =
            std::mem::replace(&mut self.stage, Stage::Joining)
        else {
            unreachable!("only the probing stage asks a peer");
        };
        let holder = state.peers.read().unwrap().get(&peer.0).copied();
        let Some(addr) = holder else {
            let unasked = Err(io::Error::new(
                io::ErrorKind::NotFound,
                "peer not registered",
            ));
            return self.probe_settled(state, peer, rest, call, unasked);
        };
        // The probe's own hop span becomes the parent of the peer's serve
        // span, stitching the tree across processes.
        let ask = Ask {
            addr,
            upstream: Upstream::Peer,
            deadline: state.config.peer_timeout,
            request: peer_request(&self.url, self.req.trace, call.span),
        };
        self.stage = Stage::Probing { peer, rest, call };
        Step::Ask(ask, self)
    }

    /// The holder's answer: a `200` is just a body. Transport failures
    /// (refused dial, deadline expiry, truncated frame) are retried up to
    /// `peer_retries` extra times with back-off; an explicit `410 Gone` is
    /// authoritative (the peer no longer caches the document).
    fn probed(
        mut self,
        state: &ProxyState,
        peer: ClientId,
        rest: std::vec::IntoIter<ClientId>,
        mut call: Call,
        answer: io::Result<Message>,
    ) -> Step<Miss> {
        let outcome = answer.and_then(|reply| match response_code(&reply) {
            Some(status::OK) => Ok(reply.body),
            _ => Err(io::Error::new(io::ErrorKind::NotFound, "peer gone")),
        });
        if outcome
            .as_ref()
            .is_err_and(|e| e.kind() != io::ErrorKind::NotFound)
        {
            if let Some(wait) = call.again() {
                self.stage = Stage::Probing { peer, rest, call };
                return Step::Wait(wait, self);
            }
        }
        self.probe_settled(state, peer, rest, call, outcome)
    }

    /// One holder is done with, every retry included: serve what it gave
    /// if it is the version on record now (a purge during the PEERGET
    /// counts), or heal the index and move on to the next.
    fn probe_settled(
        self,
        state: &ProxyState,
        peer: ClientId,
        rest: std::vec::IntoIter<ClientId>,
        call: Call,
        outcome: io::Result<Body>,
    ) -> Step<Miss> {
        let verdict = match outcome {
            Ok(body) => state
                .index
                .signed(self.req.doc)
                .map(|watermark| CachedDoc { body, watermark })
                .filter(|doc| vouch(state, doc))
                .ok_or(("refuted", &state.counters.peer_refuted)),
            Err(_) => Err(("err", &state.counters.peer_failures)),
        };
        state.obs.recorder.record_hop(
            self.req.trace,
            call.span,
            self.req.parent,
            EventKind::PeerProbe,
            call.t0.elapsed(),
            |out: &mut String| {
                let outcome = verdict.as_ref().map_or_else(|(why, _)| *why, |_| "ok");
                out.push_str("peer=");
                out.push_str(decimal(peer.0.into(), &mut [0; 20]));
                for part in [" url=", &self.url, " outcome=", outcome] {
                    out.push_str(part);
                }
            },
        );
        match verdict {
            Ok(cached) => {
                // Relayed, not absorbed: the requester caches it.
                let reply = serve(state, &self.req, Served::Peer, &cached);
                self.done(state, reply, FlightOutcome::Doc(cached))
            }
            Err((_, counter)) => {
                // A stale index, a gone peer or unsigned bytes: self-heal.
                counter.fetch_add(1, Ordering::Relaxed);
                state.index.on_evict(peer, self.req.doc);
                self.next_holder(state, rest)
            }
        }
    }

    /// Step 3, the origin server. Reaching this point after probing peers
    /// means the index path degraded gracefully instead of failing the
    /// request.
    fn fall_to_origin(mut self, state: &ProxyState) -> Step<Miss> {
        if self.probed {
            state
                .counters
                .peer_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        self.stage = Stage::Fetching {
            call: Call::new(self.req.trace, state.config.origin_retries),
        };
        self.ask_origin(state)
    }

    /// The origin's answer to a fetch: 200 and 404 are authoritative;
    /// transport failures, 5xx and a 200 without a well-formed `Digest`
    /// are retried up to `origin_retries` extra times with back-off.
    fn fetched(
        mut self,
        state: &ProxyState,
        mut call: Call,
        answer: io::Result<Message>,
    ) -> Step<Miss> {
        let (code, reason) = match answer {
            Ok(reply) => match response_code(&reply) {
                Some(status::OK) => match declared_digest(&reply) {
                    Some(digest) => {
                        self.origin_hop(state, &call, "ok");
                        return self.serve_origin_fetch(state, reply.body, digest);
                    }
                    None => (status::UNAVAILABLE, "Origin Sent No Digest".to_string()),
                },
                Some(status::NOT_FOUND) => (status::NOT_FOUND, "Not Found".to_string()),
                _ => (status::UNAVAILABLE, "Origin Unavailable".to_string()),
            },
            Err(e) => (
                status::UNAVAILABLE,
                format!("Origin Unreachable ({})", e.kind()),
            ),
        };
        if code != status::NOT_FOUND {
            if let Some(wait) = call.again() {
                self.stage = Stage::Fetching { call };
                return Step::Wait(wait, self);
            }
        }
        self.origin_hop(state, &call, "err");
        self.fail(state, code, &reason)
    }

    /// Serves an origin-fetched body: mints and records the watermark,
    /// populates both cache tiers (write-through), updates the index,
    /// counts the fetch, and shares the document with the flight's followers.
    fn serve_origin_fetch(self, state: &ProxyState, body: Body, digest: Digest) -> Step<Miss> {
        // The digest the origin minted when it authored this version is
        // signed for the watermark and stored in the disk entry's header,
        // unhashed here: if the bytes disagree with it, the browser's §6.1
        // verify refuses them and its integrity retry refutes this copy.
        let cached = CachedDoc {
            watermark: state.signer.sign(&digest),
            body,
        };
        state.index.set_signed(self.req.doc, Some(cached.watermark));
        state.cache.insert(self.req.doc, &self.url, cached.clone());
        write_through_to_disk(state, &self.url, &cached, &digest, self.req.trace);
        let reply = serve(state, &self.req, Served::Origin, &cached);
        self.done(state, reply, FlightOutcome::Doc(cached))
    }

    /// Serves a verified disk-tier document: counts the hit, records its
    /// watermark, promotes the document into the memory tier (repeat
    /// requests become memory hits), and updates the index.
    fn serve_from_disk(
        self,
        state: &ProxyState,
        cached: CachedDoc,
        revalidated: bool,
    ) -> Step<Miss> {
        if revalidated {
            state
                .counters
                .disk_revalidations
                .fetch_add(1, Ordering::Relaxed);
        }
        state.index.set_signed(self.req.doc, Some(cached.watermark));
        state.cache.insert(self.req.doc, &self.url, cached.clone());
        let reply = serve(state, &self.req, Served::ProxyDisk, &cached);
        self.done(state, reply, FlightOutcome::Doc(cached))
    }
}

/// The digest an origin `200` declares for its body (`Digest: <hex>`, its
/// `document_digest`): minted where the version was authored, signed here
/// unhashed. `None` when it is missing or malformed, which makes the reply
/// an origin failure.
fn declared_digest(reply: &Message) -> Option<Digest> {
    reply.get("Digest").and_then(Digest::from_hex)
}

/// Best-effort write-through to the disk tier (no-op without one). The
/// store itself never fails a request; filesystem trouble is counted in
/// the tier's `io_errors`. `digest` is the one the origin declared.
fn write_through_to_disk(
    state: &ProxyState,
    url: &str,
    cached: &CachedDoc,
    digest: &Digest,
    trace: TraceId,
) {
    let Some(disk) = &state.disk else { return };
    let t_write = Instant::now();
    disk.store_hashed(url, cached, digest);
    state.obs.recorder.record(
        trace,
        EventKind::DiskWrite,
        t_write.elapsed(),
        |out: &mut String| {
            out.push_str("url=");
            out.push_str(url);
            out.push_str(" bytes=");
            out.push_str(decimal(cached.byte_size(), &mut [0; 20]));
        },
    );
}

/// One INVALIDATE frame.
pub(crate) struct Notice {
    url: String,
    client: u32,
    /// `Purge: 1` marks a *publisher* invalidation: the document changed
    /// at the origin, so the proxy's own replicas must go too, not just
    /// the sender's index entry.
    purge: bool,
    trace: TraceId,
    t_verb: Instant,
}

impl Notice {
    fn apply(&self, state: &ProxyState) -> Message {
        if self.purge {
            handle_purge(&self.url, self.trace, state);
        }
        handle_invalidate(&self.url, self.client, self.trace, state);
        response(status::OK, "OK")
    }
}

/// Publisher purge (INVALIDATE with `Purge: 1`): the document changed at
/// the origin, so the disk entry is *expired in place* rather than deleted
/// — the next read revalidates with `If-Digest`, so a false alarm still
/// costs only a 304 instead of a full refetch — the proxy's replica is
/// dropped from memory and its watermark record cleared. Browsers holding
/// the old version stay indexed until refuted when next probed.
fn handle_purge(url: &str, trace: TraceId, state: &ProxyState) {
    let expired = state.disk.as_ref().map(|d| d.expire(url)).unwrap_or(false);
    let dropped = known_doc(state, url).is_some_and(|doc| {
        state.index.set_signed(doc, None);
        state.cache.remove(doc, url)
    });
    state.obs.recorder.record(
        trace,
        EventKind::Invalidate,
        Duration::ZERO,
        |out: &mut String| {
            for part in ["url=", url, " purge memory="] {
                out.push_str(part);
            }
            out.push_str(if dropped { "true" } else { "false" });
            out.push_str(" disk=");
            out.push_str(if expired { "true" } else { "false" });
        },
    );
}

fn handle_invalidate(url: &str, client: u32, trace: TraceId, state: &ProxyState) {
    // Idempotent by construction: the counter moves only when the notice
    // actually removed an index entry. A notice the client replays after
    // a reconnect (it was delivered, but the reply was lost) finds the
    // entry already gone and counts nothing — notices are at-least-once
    // on the wire but exactly-once in the index and the counter.
    let applied =
        known_doc(state, url).is_some_and(|doc| state.index.on_evict(ClientId(client), doc));
    if applied {
        state.counters.invalidations.fetch_add(1, Ordering::Relaxed);
    }
    state.obs.recorder.record(
        trace,
        EventKind::Invalidate,
        Duration::ZERO,
        |out: &mut String| {
            out.push_str("client=");
            out.push_str(decimal(client.into(), &mut [0; 20]));
            for part in [" url=", url, " outcome="] {
                out.push_str(part);
            }
            out.push_str(if applied { "applied" } else { "stale" });
        },
    );
}

/// Builds a 200 reply sharing the cached body — `with_body` on an existing
/// [`Body`] is a refcount bump, so no byte of the document is copied
/// between the cache and the socket — with the watermark's hex written
/// from its bytes.
pub(crate) fn ok_response(source: Served, doc: &CachedDoc) -> Message {
    response(status::OK, "OK")
        .header("X-Source", source.label())
        .header_hex("X-Watermark", &doc.watermark.to_bytes())
        .with_body(Arc::clone(&doc.body))
}

/// The proxy's PEERGET for `url`: the trace, and the probe's hop span the
/// peer's serve span attaches under.
pub(crate) fn peer_request(url: &str, trace: TraceId, span: SpanId) -> Message {
    Message::request("PEERGET", url, "BAPS/1.0").traced(trace, span)
}

/// The proxy's origin GET for `url` — with `If-Digest` when it revalidates
/// a stale disk entry — under the origin-fetch span that parents the
/// origin's serve span.
pub(crate) fn origin_request(
    url: &str,
    trace: TraceId,
    span: SpanId,
    if_digest: Option<Digest>,
) -> Message {
    let request = Message::request("GET", url, "ORIGIN/1.0").traced(trace, span);
    match if_digest {
        Some(digest) => request.header_hex("If-Digest", &digest.0),
        None => request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// A memory-only proxy in front of `origin_addr`, defaults elsewhere.
    fn test_config(origin_addr: SocketAddr) -> ProxyConfig {
        ProxyConfig {
            cache_capacity: 64 << 10,
            origin_addr,
            peer_timeout: Duration::from_secs(2),
            peer_retries: 0,
            origin_timeout: Duration::from_secs(5),
            origin_retries: 0,
            disk: None,
            faults: None,
            recorder: None,
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

    /// An origin `200` the proxy cannot sign without hashing — no
    /// `Digest`, or one that does not parse — is an origin failure: it is
    /// retried `origin_retries` times, then answered 503, and neither
    /// cache tier keeps the body.
    #[test]
    fn origin_200_without_a_well_formed_digest_is_retried_then_503() {
        use crate::protocol::{read_message, write_message};

        for digest in [None, Some("not-an-md5".to_owned()), Some("zz".repeat(16))] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let origin_addr = listener.local_addr().unwrap();
            let served = Arc::new(AtomicU64::new(0));
            let count = Arc::clone(&served);
            let declared = digest.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { return };
                    let mut conn = std::io::BufReader::new(stream);
                    while let Ok(Some(_)) = read_message(&mut conn) {
                        count.fetch_add(1, Ordering::SeqCst);
                        let mut reply = response(status::OK, "OK");
                        if let Some(digest) = &declared {
                            reply = reply.header("Digest", digest.as_str());
                        }
                        if write_message(conn.get_mut(), &reply.with_body(b"x".to_vec())).is_err() {
                            break;
                        }
                    }
                }
            });
            let root = std::env::temp_dir().join(format!("baps-nodigest-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let proxy = ProxyServer::start(ProxyConfig {
                origin_retries: 2,
                disk: Some(DiskConfig {
                    root: root.clone(),
                    capacity: 1 << 20,
                    default_ttl: Duration::from_secs(3600),
                }),
                ..test_config(origin_addr)
            })
            .unwrap();
            let mut conn =
                std::io::BufReader::new(std::net::TcpStream::connect(proxy.addr()).unwrap());
            let url = "http://origin/undigested";
            let get = Message::new(format!("GET {url} BAPS/1.0")).header("Client", "1");
            write_message(conn.get_mut(), &get).unwrap();
            let reply = read_message(&mut conn).unwrap().expect("a reply");
            assert_eq!(
                response_code(&reply),
                Some(status::UNAVAILABLE),
                "{digest:?}"
            );
            assert_eq!(served.load(Ordering::SeqCst), 3, "{digest:?}");
            assert!(proxy.cached_body(url).is_none());
            assert_eq!(proxy.disk_stats().unwrap().entries, 0);
            assert_eq!((proxy.stats().origin_fetches, proxy.stats().errors), (0, 1));
            proxy.shutdown();
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// Notices for documents nobody ever fetched — 1 000 INVALIDATEs (every
    /// other one a publisher purge) and one GET carrying 50 `Evicted` URLs
    /// — are answered and remove nothing, and none of their URLs is
    /// interned: what an unauthenticated sender can name does not grow the
    /// proxy. Nor do the test hooks that look a URL up.
    #[test]
    fn notices_for_unknown_urls_intern_nothing() {
        let store = crate::store::DocumentStore::synthetic(1, 50, 100, 1);
        let origin = crate::origin::OriginServer::start(store).unwrap();
        let proxy = ProxyServer::start(test_config(origin.addr())).unwrap();
        let mut conn = std::io::BufReader::new(std::net::TcpStream::connect(proxy.addr()).unwrap());
        let mut ask = |msg: Message| {
            crate::protocol::write_message(conn.get_mut(), &msg).unwrap();
            let reply = crate::protocol::read_message(&mut conn).unwrap();
            reply.expect("a reply, not EOF")
        };
        let get = || Message::new("GET http://origin/doc/0 BAPS/1.0").header("Client", "1");
        assert_eq!(response_code(&ask(get())), Some(status::OK));
        let interned = proxy.state.urls.read().unwrap().len();

        for i in 0..1_000 {
            let mut notice = Message::new(format!("INVALIDATE http://nowhere/{i} BAPS/1.0"))
                .header("Client", "1");
            if i % 2 == 0 {
                notice = notice.header("Purge", "1");
            }
            assert_eq!(response_code(&ask(notice)), Some(status::OK));
        }
        let evicted: Vec<String> = (0..50).map(|i| format!("http://nowhere/e{i}")).collect();
        let reply = ask(get().header("Evicted", evicted.join(" ")));
        assert_eq!(reply.get("X-Source"), Some("proxy"));
        for i in 0..100 {
            let url = format!("http://nowhere/hook{i}");
            assert!(!proxy.index_holds(1, &url));
            assert!(proxy.cached_body(&url).is_none());
        }

        assert_eq!(proxy.state.urls.read().unwrap().len(), interned);
        assert_eq!(proxy.stats().invalidations, 0);
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
        let reply = ok_response(Served::Proxy, &cached);
        assert!(Arc::ptr_eq(&reply.body, &body));
    }

    fn herd_doc(seed: u64) -> (Body, CachedDoc) {
        let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(seed));
        let body: Body = Arc::from(&b"herd body"[..]);
        let cached = CachedDoc {
            watermark: signer.watermark(&body),
            body: Arc::clone(&body),
        };
        (body, cached)
    }

    /// Followers of a coalesced flight are woken once each, by the
    /// leader's publish, and share the leader's body allocation: the
    /// broadcast outcome clones [`CachedDoc`], whose body is `Arc<[u8]>`,
    /// so every follower holds the same bytes by pointer. A request that
    /// arrives after the publish finds the outcome without enlisting.
    #[test]
    fn flight_followers_are_woken_once_and_share_one_body_allocation() {
        let (body, cached) = herd_doc(9);
        let registry = Arc::<FlightRegistry>::default();
        let flight = Arc::<Inflight>::default();
        registry
            .lock()
            .unwrap()
            .insert(DocId(1), Arc::clone(&flight));
        let lead = FlightLeader {
            registry: Arc::clone(&registry),
            doc: DocId(1),
            flight: Arc::clone(&flight),
            published: false,
        };
        let woken = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let woken = Arc::clone(&woken);
            let waker = || -> Waker {
                Box::new(move || {
                    woken.fetch_add(1, Ordering::SeqCst);
                })
            };
            assert!(flight.outcome_or_enlist(waker).is_none());
        }
        lead.publish(FlightOutcome::Doc(cached));
        assert_eq!(woken.load(Ordering::SeqCst), 2);
        assert!(
            registry.lock().unwrap().is_empty(),
            "deregistered before the wake"
        );
        let late = flight.outcome_or_enlist(|| unreachable!("the outcome is in"));
        for outcome in [flight.outcome(), late] {
            match outcome {
                Some(FlightOutcome::Doc(doc)) => assert!(Arc::ptr_eq(&doc.body, &body)),
                _ => panic!("expected the shared doc"),
            }
        }
    }

    /// A leader dropped before it published (its loop shut down under it)
    /// releases its followers with an unshareable outcome.
    #[test]
    fn dropped_leader_releases_its_followers() {
        let registry = Arc::<FlightRegistry>::default();
        let flight = Arc::<Inflight>::default();
        let woken = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&woken);
        assert!(flight
            .outcome_or_enlist(|| Box::new(move || flag.store(true, Ordering::SeqCst)))
            .is_none());
        drop(FlightLeader {
            registry,
            doc: DocId(1),
            flight: Arc::clone(&flight),
            published: false,
        });
        assert!(woken.load(Ordering::SeqCst));
        assert!(matches!(flight.outcome(), Some(FlightOutcome::Unshared)));
    }

    /// A follower whose wait ends with no outcome published (its budget
    /// ran out: the leader overran every backend deadline) stops trusting
    /// the flight instead of hanging: it rejoins, and past
    /// `MAX_FLIGHT_JOINS` fetches for itself.
    #[test]
    fn follower_out_of_budget_rejoins_then_fetches_for_itself() {
        let proxy = ProxyServer::start(test_config("127.0.0.1:1".parse().unwrap())).unwrap();
        let state = &proxy.state;
        let url = "http://origin/doc/0";
        let doc = doc_id(state, url);
        // Somebody else's flight, which never publishes.
        let FlightRole::Leader(stuck) = join_inflight(state, doc) else {
            panic!("first to join");
        };
        let seat = Seat::nowhere();
        let req = GetRequest {
            doc,
            requester: ClientId(1),
            bypass_peers: false,
            trace: TraceId::NONE,
            parent: SpanId::NONE,
            t_request: Instant::now(),
        };
        let mut step = handle_get(url, req, state, &seat);
        for _round in 1..MAX_FLIGHT_JOINS {
            let Step::Wait(budget, miss) = step else {
                panic!("a follower parks");
            };
            assert_eq!(budget, Duration::from_secs(5 + 2), "origin + peer deadline");
            assert!(matches!(miss.stage, Stage::Following { .. }));
            step = miss.resume(state, Event::Wake, &seat);
        }
        let Step::Ask(ask, miss) = step else {
            panic!("out of rounds: the request asks the origin itself");
        };
        assert_eq!(ask.upstream, Upstream::Origin);
        assert!(miss.lead.is_none(), "uncoalesced");
        assert_eq!(state.counters.snapshot().coalesced_fetches, 0);
        drop(stuck);
        proxy.shutdown();
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
        // The scrape adds the process's minor faults since start to the
        // row that counts them; every other row reads as stored.
        let scraped = proxy.stats();
        let faults = COUNTERS.iter().position(|def| def.name == "minor_faults");
        assert!(faults.is_some(), "the table counts minor faults");
        for (i, (want, prime)) in scraped.values().into_iter().zip(&primes).enumerate() {
            if Some(i) == faults {
                assert!(want >= *prime);
            } else {
                assert_eq!(want, *prime, "{}", COUNTERS[i].name);
            }
        }
        for (def, want) in scraped.counters() {
            let sample = match def.family {
                Family::Served(tier) => {
                    prom::find(&samples, "baps_served_total", &[("tier", tier.label())])
                }
                Family::Plain(name, _) | Family::Disk(name, _) => prom::find(&samples, name, &[]),
            };
            assert_eq!(sample, Some(want as f64), "{} in:\n{text}", def.name);
        }
        assert_eq!(
            prom::find(&samples, "baps_requests_total", &[]),
            Some(stats.requests as f64)
        );

        // A graceful stop writes the baseline; the next incarnation starts
        // from zero live counters and reports the same totals.
        proxy.shutdown();
        let file = std::fs::read_to_string(root.join("counters.baseline")).unwrap();
        for (def, want) in scraped.counters() {
            assert!(
                file.lines().any(|l| l == format!("{}={want}", def.name)),
                "{} missing from:\n{file}",
                def.name
            );
        }
        let reborn = ProxyServer::start(config).unwrap();
        assert_eq!(reborn.stats(), scraped);
        reborn.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
