//! A client agent: a browser cache, a peer-serving port, and the fetch
//! logic with end-to-end integrity verification.
//!
//! The agent is also where request tracing starts: every logical
//! [`ClientAgent::fetch`] mints a [`TraceId`] that rides a `Trace-Id`
//! header on each hop (GET to the proxy, the proxy's PEERGET to a peer,
//! the origin fetch), so one grep through a flight-recorder dump
//! reconstructs the whole request path.
//!
//! Head-sampled traces ([`baps_obs::span::sampled`], a deterministic 1-in-N
//! hash of the trace id) additionally carry a causal **span tree**: the
//! client mints the root span beside the trace id and forwards it in the
//! `Span-Id` header; every downstream hop mints child spans under it, so a
//! `TRACE BAPS/1.0` dump reassembles the whole client→proxy→peer/origin
//! tree with parent/child timing attribution.

use crate::error::ProxyError;
use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    read_message, response, response_code, status, trace_of, write_message, Body, Message,
};
use crate::reactor::{Event, FrameCtx, FrameService, Seat, Server, Step};
use crate::store::{BodyCache, CachedDoc};
use crate::upstream::dial_with_deadline;
use baps_core::Served;
use baps_crypto::{verify_document, CryptoError, PublicKey, Watermark};
use baps_obs::{decimal, span, EventKind, FlightRecorder, SpanId, TraceId};
use std::convert::Infallible;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency floor ([`ran_slow`]) of a plain cache-hit fetch's span.
/// Multi-hop fetches (peer, origin) and errors are always recorded;
/// fast local/proxy hits are the ~50k req/s bulk, fully accounted by the
/// tier histograms, and recording each one measurably taxed the hot path.
const SLOW_FETCH: Duration = Duration::from_millis(2);

/// Latency floor above which a watermark check earns a `verify` span.
const SLOW_VERIFY: Duration = Duration::from_micros(250);

/// Backoff before a fetch's first retry; doubles per attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Whether an operation on `len` body bytes that took `elapsed` ran slow:
/// longer than `floor` plus 10 ns a byte (slower than 100 MB/s). A fixed
/// time alone calls every large body slow and turns the shared ring over
/// with events that are merely big. The per-byte term is priced for the
/// slowest honest host, not the fastest: a 1 MiB verify is ≈ 0.1 ms on the
/// AVX-512 digest kernel but ≈ 0.8 ms on the portable one (≈ 0.8 ns a byte),
/// and a fetch's budget also covers its socket copies, so it stays at 10.
fn ran_slow(elapsed: Duration, floor: Duration, len: usize) -> bool {
    elapsed > floor + Duration::from_nanos(10 * len as u64)
}

/// A span detail `client=<id>` followed by `rest`, written into the
/// recorder's buffer.
fn client_detail<'a>(id: u32, rest: &'a [&'a str]) -> impl FnOnce(&mut String) + 'a {
    move |out| {
        out.push_str("client=");
        out.push_str(decimal(id.into(), &mut [0; 20]));
        for part in rest {
            out.push_str(part);
        }
    }
}

/// What a tampering client serves its peers (test/fault hook; the honest
/// value is [`TamperMode::Honest`]). A peer reply is only a body, so every
/// dishonest mode must be caught by the relaying proxy's check against the
/// watermark it signed for the document — never relayed as wrong bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperMode {
    /// Serve the cached document faithfully.
    Honest,
    /// Flip the first body byte (classic bit-rot / malicious edit).
    FlipByte,
    /// Serve only the first half of the body, with a matching
    /// `Content-Length` (well-formed frame, wrong content).
    Truncate,
    /// Serve the intact body of another document this browser caches.
    Substitute,
}

/// Tuning knobs for one [`ClientAgent`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Browser cache capacity in bytes.
    pub browser_capacity: u64,
    /// Connect/read/write deadline on the proxy connection. A stalled
    /// proxy makes the in-flight call fail with [`ProxyError::Timeout`]
    /// instead of hanging the agent forever.
    pub proxy_deadline: Duration,
    /// Extra fetch attempts after the first for retryable failures
    /// (timeouts, transport errors, 5xx), with exponential backoff from
    /// 10 ms.
    pub retries: u32,
    /// Fault plan consulted by the peer port (chaos testing).
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared flight recorder (`None` gives the agent a private ring; the
    /// test bed shares one ring across the whole deployment).
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            browser_capacity: 32 << 10,
            proxy_deadline: Duration::from_secs(5),
            retries: 2,
            faults: None,
            recorder: None,
        }
    }
}

/// A successful fetch. The body is a shared handle: a browser-cache hit
/// returns the cached allocation itself, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// The document body.
    pub body: Body,
    /// Where it was served from.
    pub source: Served,
}

struct ClientState {
    id: u32,
    cache: Mutex<BodyCache>,
    /// Test hook: what this client serves its peers (a malicious client).
    tamper: Mutex<TamperMode>,
    peer_serves: AtomicU64,
    /// Fault plan consulted once per served PEERGET.
    faults: Option<Arc<FaultPlan>>,
    /// The (possibly deployment-shared) flight recorder the agent and its
    /// peer port record into.
    recorder: Arc<FlightRecorder>,
}

impl ClientState {
    fn new(id: u32, config: &ClientConfig, recorder: Arc<FlightRecorder>) -> ClientState {
        ClientState {
            id,
            cache: Mutex::new(BodyCache::new(config.browser_capacity)),
            tamper: Mutex::new(TamperMode::Honest),
            peer_serves: AtomicU64::new(0),
            faults: config.faults.clone(),
            recorder,
        }
    }
}

/// A kept-alive connection to the proxy: a buffered reader over the one
/// TCP stream. Writes go through `BufReader::get_mut`, so the connection
/// is one fd.
struct ProxyConn(BufReader<TcpStream>);

impl ProxyConn {
    fn dial(addr: SocketAddr, deadline: Duration) -> io::Result<ProxyConn> {
        Ok(ProxyConn(BufReader::new(dial_with_deadline(
            addr, deadline,
        )?)))
    }

    /// One request/response exchange on this connection. `Ok(None)` means
    /// the proxy closed the connection cleanly before replying.
    fn exchange(&mut self, msg: &Message) -> io::Result<Option<Message>> {
        write_message(self.0.get_mut(), msg)?;
        read_message(&mut self.0)
    }
}

/// A running client agent.
pub struct ClientAgent {
    id: u32,
    proxy_addr: SocketAddr,
    proxy_key: PublicKey,
    config: ClientConfig,
    state: Arc<ClientState>,
    /// The peer-serving port: one event loop, so a connection the proxy
    /// keeps alive to this browser costs it an fd and no thread.
    peer_port: Server<Infallible>,
    /// The persistent keep-alive connection to the proxy, dialed lazily
    /// and redialed transparently when the proxy drops it.
    proxy_conn: Mutex<Option<ProxyConn>>,
    /// Eviction notices awaiting the next request. An eviction does not
    /// cost a synchronous INVALIDATE round trip; the notice rides in the
    /// `Evicted` header of the next GET. The proxy tolerates the brief
    /// staleness the same way it tolerates a crashed client (probe fails,
    /// index self-heals).
    pending_evictions: Mutex<Vec<String>>,
    /// Times the persistent connection was found dead and redialed.
    reconnects: AtomicU64,
    /// Monotone per-agent fetch counter; with the client id it forms the
    /// [`TraceId`] minted for each logical fetch.
    fetch_seq: AtomicU64,
}

impl ClientAgent {
    /// Starts the agent with default tuning ([`ClientConfig::default`],
    /// with the given browser cache capacity).
    pub fn start(
        id: u32,
        proxy_addr: SocketAddr,
        proxy_key: PublicKey,
        browser_capacity: u64,
    ) -> Result<ClientAgent, ProxyError> {
        ClientAgent::start_with(
            id,
            proxy_addr,
            proxy_key,
            ClientConfig {
                browser_capacity,
                ..ClientConfig::default()
            },
        )
    }

    /// Starts the agent: binds a peer-serving port, registers with the
    /// proxy, and is then ready to [`ClientAgent::fetch`].
    pub fn start_with(
        id: u32,
        proxy_addr: SocketAddr,
        proxy_key: PublicKey,
        config: ClientConfig,
    ) -> Result<ClientAgent, ProxyError> {
        let recorder = config
            .recorder
            .clone()
            .unwrap_or_else(|| Arc::new(FlightRecorder::default()));
        let state = Arc::new(ClientState::new(id, &config, recorder));
        let peer_port = Server::bind(&format!("baps-client-{id}"), Arc::clone(&state), 1)?;
        let agent = ClientAgent {
            id,
            proxy_addr,
            proxy_key,
            config,
            state,
            peer_port,
            proxy_conn: Mutex::new(None),
            pending_evictions: Mutex::new(Vec::new()),
            reconnects: AtomicU64::new(0),
            fetch_seq: AtomicU64::new(0),
        };
        agent.register()?;
        Ok(agent)
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The peer-serving address (for diagnostics).
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_port.addr()
    }

    /// How many PEERGETs this client has served.
    pub fn peer_serves(&self) -> u64 {
        self.state.peer_serves.load(Ordering::Relaxed)
    }

    /// Test hook: choose exactly how this client tampers with the
    /// documents it serves to peers.
    pub fn set_tamper_mode(&self, mode: TamperMode) {
        *self.state.tamper.lock().unwrap() = mode;
    }

    /// Test hook: silently drops `url` from the browser cache *without*
    /// notifying the proxy, so the proxy's browser index still lists this
    /// client as holding it. Models the index racing a local eviction
    /// (crash, out-of-band cache clear). Returns whether it was present.
    pub fn purge_local(&self, url: &str) -> bool {
        self.state.cache.lock().unwrap().remove(url)
    }

    /// Ops/test hook: abruptly severs every open connection on this
    /// client's peer port without stopping it — what the proxy's kept-alive
    /// upstream connections see when a browser drops them while idle.
    /// Returns once every one is closed.
    pub fn drop_peer_connections(&self) {
        self.peer_port.drop_all();
    }

    /// How many times the persistent proxy connection was found dead and
    /// transparently redialed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// The flight recorder this agent records into.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.state.recorder)
    }

    /// Scrapes the proxy's Prometheus exposition over the wire
    /// (`METRICS BAPS/1.0`). The exposition text is the reply body.
    pub fn proxy_metrics_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(&Message::new("METRICS BAPS/1.0"))
    }

    /// Scrapes the deployment's causal-trace span dump over the wire
    /// (`TRACE BAPS/1.0`). The reply body is JSONL, one
    /// [`baps_obs::SpanRecord`] per line, assembled into trees with
    /// [`baps_obs::span::assemble`].
    pub fn proxy_trace_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(&Message::new("TRACE BAPS/1.0"))
    }

    fn register(&self) -> Result<(), ProxyError> {
        let reply = self.roundtrip(&register_request(self.id, self.peer_addr().port()))?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol(format!(
                "register rejected: {}",
                reply.start()
            )));
        }
        Ok(())
    }

    /// Fetches a document: browser cache, then the browsers-aware proxy.
    /// Every reply is integrity-verified against the proxy's watermark
    /// (§6.1; a peer's bytes were already checked by the proxy, which
    /// relays them). On a failed check the request is retried once with
    /// `Bypass-Peers`, so an origin whose bytes disagree with its declared
    /// digest or a forged disk entry cannot poison the client, and the
    /// proxy re-checks its own copy before serving it again (DESIGN.md §5).
    ///
    /// Transient failures ([`ProxyError::is_retryable`]: socket deadlines,
    /// transport errors, proxy 5xx) are retried up to
    /// [`ClientConfig::retries`] extra times with exponential backoff
    /// before the error is surfaced.
    pub fn fetch(&self, url: &str) -> Result<FetchResult, ProxyError> {
        // One trace id per *logical* fetch: retries and the bypass refetch
        // reuse it, so a dump shows them as spans of the same request.
        let trace = TraceId::mint(self.id, self.fetch_seq.fetch_add(1, Ordering::Relaxed));
        // Head sampling: 1-in-N traces carry a full causal span tree. The
        // root span is minted here at the edge; every downstream hop
        // attaches under it via the `Span-Id` header.
        let root = span::hop(trace);
        let t_fetch = Instant::now();
        let local = self
            .state
            .cache
            .lock()
            .unwrap()
            .get(url)
            .map(|doc| doc.body.clone());
        if let Some(body) = local {
            let elapsed = t_fetch.elapsed();
            if !root.is_none() || ran_slow(elapsed, SLOW_FETCH, body.len()) {
                self.state.recorder.record_hop(
                    trace,
                    root,
                    SpanId::NONE,
                    EventKind::Fetch,
                    elapsed,
                    client_detail(self.id, &[" url=", url, " source=local"]),
                );
            }
            return Ok(FetchResult {
                body,
                source: Served::LocalBrowser,
            });
        }
        let mut attempts_left = self.config.retries;
        let mut backoff = RETRY_BACKOFF;
        loop {
            let result = match self.fetch_via_proxy(url, false, trace, root) {
                Err(ProxyError::Integrity(_)) => {
                    // The proxy's storage or the origin served bytes that
                    // disagree with the signed digest: bypass peers and
                    // retry, which makes the proxy re-check its copy
                    // (doesn't consume an attempt — it is a different
                    // request, not a repeat).
                    self.fetch_via_proxy(url, true, trace, root)
                }
                other => other,
            };
            match result {
                Err(e) if e.is_retryable() && attempts_left > 0 => {
                    attempts_left -= 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                other => {
                    let elapsed = t_fetch.elapsed();
                    match &other {
                        Ok(got) => {
                            // Multi-hop fetches are always worth a span;
                            // plain cache hits only when they ran slow or
                            // the trace is head-sampled (whose tree needs
                            // its root); the proxy's histograms account
                            // for the fast unsampled bulk.
                            let multi_hop = matches!(got.source, Served::Peer | Served::Origin);
                            let slow = ran_slow(elapsed, SLOW_FETCH, got.body.len());
                            if !root.is_none() || multi_hop || slow {
                                self.state.recorder.record_hop(
                                    trace,
                                    root,
                                    SpanId::NONE,
                                    EventKind::Fetch,
                                    elapsed,
                                    client_detail(
                                        self.id,
                                        &[" url=", url, " source=", got.source.label()],
                                    ),
                                );
                            }
                        }
                        Err(e) => self.state.recorder.record_hop(
                            trace,
                            root,
                            SpanId::NONE,
                            EventKind::Fetch,
                            elapsed,
                            format!("client={} url={url} outcome=err: {e}", self.id),
                        ),
                    }
                    return other;
                }
            }
        }
    }

    fn fetch_via_proxy(
        &self,
        url: &str,
        bypass: bool,
        trace: TraceId,
        root: SpanId,
    ) -> Result<FetchResult, ProxyError> {
        let notices: Vec<String> = std::mem::take(&mut *self.pending_evictions.lock().unwrap());
        let req = get_request(self.id, url, trace, root, &notices, bypass);
        let reply = match self.roundtrip(&req) {
            Ok(reply) => reply,
            Err(e) => {
                // The notices may not have reached the proxy: requeue them
                // exactly once. The proxy's invalidation handling is
                // idempotent too (a replayed notice is counted as stale),
                // but deduplicating here keeps the queue bounded when the
                // same request fails repeatedly.
                self.requeue_evictions(notices);
                return Err(e);
            }
        };
        match response_code(&reply) {
            Some(status::OK) => {}
            Some(status::NOT_FOUND) => return Err(ProxyError::NotFound(url.to_owned())),
            Some(code @ (status::SERVER_ERROR | status::UNAVAILABLE)) => {
                return Err(ProxyError::Unavailable(code))
            }
            other => {
                return Err(ProxyError::Protocol(format!(
                    "unexpected proxy response {other:?}: {}",
                    reply.start()
                )))
            }
        }
        // Any tier but this browser's own: a proxy cannot serve from it.
        let source = reply.get("X-Source");
        let Some(source) = source
            .and_then(Served::from_label)
            .filter(|&s| s != Served::LocalBrowser)
        else {
            return Err(ProxyError::Protocol(format!("bad X-Source: {source:?}")));
        };
        let watermark = reply
            .get("X-Watermark")
            .ok_or_else(|| ProxyError::Protocol("missing watermark".into()))
            .and_then(|h| Watermark::from_hex(h).map_err(ProxyError::Integrity))?;
        self.verify_traced(trace, root, url, &reply.body, &watermark)?;

        // Cache the verified copy; queue eviction notices for the next
        // request instead of spending a round trip per victim now.
        let evicted = self.state.cache.lock().unwrap().insert(
            url,
            CachedDoc {
                body: reply.body.clone(),
                watermark,
            },
        );
        self.note_stored(url, evicted);
        Ok(FetchResult {
            body: reply.body,
            source,
        })
    }

    /// Reconciles the pending-eviction queue after storing `url` in the
    /// browser cache: a queued notice for `url` itself is now stale (this
    /// client holds the document again, and the proxy re-indexed it when
    /// serving) and is cancelled, and the insert's victims are queued
    /// exactly once even when a replayed requeue already listed them.
    fn note_stored(&self, url: &str, evicted: Vec<(Arc<str>, u64)>) {
        let mut pending = self.pending_evictions.lock().unwrap();
        pending.retain(|u| u != url);
        for (victim, _) in &evicted {
            let victim: &str = victim;
            if victim != url && !pending.iter().any(|u| u == victim) {
                pending.push(victim.to_owned());
            }
        }
    }

    /// Puts notices back on the queue after a failed request, skipping any
    /// that a concurrent fetch already re-queued.
    fn requeue_evictions(&self, notices: Vec<String>) {
        if notices.is_empty() {
            return;
        }
        let mut pending = self.pending_evictions.lock().unwrap();
        for url in notices {
            if !pending.contains(&url) {
                pending.push(url);
            }
        }
    }

    /// Test hook: the eviction notices queued to ride the next GET.
    pub fn pending_eviction_notices(&self) -> Vec<String> {
        self.pending_evictions.lock().unwrap().clone()
    }

    /// §6.1 watermark verification wrapped in a `verify` span.
    ///
    /// Like the proxy's wait-for-shard span, a routine fast verification
    /// is not worth a ring event on every request; the span is recorded
    /// when the verdict is a mismatch or the check ran slow — the two
    /// cases a dump reader would look for.
    fn verify_traced(
        &self,
        trace: TraceId,
        root: SpanId,
        url: &str,
        body: &Body,
        watermark: &Watermark,
    ) -> Result<(), ProxyError> {
        let t_verify = Instant::now();
        let verdict = verify_document(&self.proxy_key, body, watermark);
        let verify_time = t_verify.elapsed();
        if verdict.is_err() || ran_slow(verify_time, SLOW_VERIFY, body.len()) || !root.is_none() {
            self.state.recorder.record_hop(
                trace,
                span::child(root),
                root,
                EventKind::Verify,
                verify_time,
                client_detail(
                    self.id,
                    &[
                        " url=",
                        url,
                        " outcome=",
                        if verdict.is_ok() { "ok" } else { "MISMATCH" },
                    ],
                ),
            );
        }
        verdict
            .map(|_| ())
            .map_err(|_| ProxyError::Integrity(CryptoError::WatermarkMismatch))
    }

    /// Tells the proxy this client no longer caches `url`.
    fn invalidate(&self, url: &str) -> Result<(), ProxyError> {
        let reply = self.roundtrip(&notice_request(self.id, url, false))?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol("invalidate rejected".into()));
        }
        Ok(())
    }

    /// Evicts `url` locally and notifies the proxy (models the user
    /// clearing cache entries).
    pub fn evict(&self, url: &str) -> Result<bool, ProxyError> {
        let present = self.state.cache.lock().unwrap().remove(url);
        if present {
            self.invalidate(url)?;
        }
        Ok(present)
    }

    /// Discards `url` from the browser cache because its content changed
    /// upstream, queueing a piggybacked eviction notice instead of a
    /// synchronous INVALIDATE round trip. During an invalidation storm
    /// this is what keeps wire traffic bounded: N clients discarding a
    /// doc cost zero extra messages (the notices ride the next GETs),
    /// versus N INVALIDATE round trips. Returns whether it was cached.
    pub fn discard(&self, url: &str) -> bool {
        let present = self.state.cache.lock().unwrap().remove(url);
        if present {
            self.requeue_evictions(vec![url.to_string()]);
        }
        present
    }

    /// Publisher-side invalidation: tells the proxy `url`'s content
    /// changed at the origin, so the proxy must drop its memory replica
    /// and expire (not delete) its disk replica — the next read
    /// revalidates with `If-Digest`. One wire message per changed doc,
    /// regardless of how many clients hold replicas; the holders clean up
    /// via [`ClientAgent::discard`] + piggybacked notices.
    pub fn publish_invalidate(&self, url: &str) -> Result<(), ProxyError> {
        let reply = self.roundtrip(&notice_request(self.id, url, true))?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol("invalidate rejected".into()));
        }
        Ok(())
    }

    /// Dials the proxy, recording the dial as a span of `trace` (a causal
    /// child of `parent` when the request carries a sampled span tree).
    fn dial_traced(&self, trace: TraceId, parent: SpanId, reason: &str) -> io::Result<ProxyConn> {
        let t_dial = Instant::now();
        let conn = ProxyConn::dial(self.proxy_addr, self.config.proxy_deadline);
        self.state.recorder.record_hop(
            trace,
            span::child(parent),
            parent,
            EventKind::Dial,
            t_dial.elapsed(),
            client_detail(
                self.id,
                &[
                    " reason=",
                    reason,
                    " outcome=",
                    if conn.is_ok() { "ok" } else { "err" },
                ],
            ),
        );
        conn
    }

    /// One request/response against the proxy.
    ///
    /// The persistent connection is dialed lazily on first use and reused
    /// for every subsequent message. If the proxy drops it between
    /// requests (restart, [`drop_connections`], idle reaping), the
    /// exchange fails or returns a clean EOF; the client then redials once
    /// and replays the message. Only an error on a *fresh* connection
    /// propagates, so a mid-session connection loss is invisible to
    /// callers.
    ///
    /// [`drop_connections`]: crate::proxy::ProxyServer::drop_connections
    fn roundtrip(&self, msg: &Message) -> Result<Message, ProxyError> {
        // EOF before a reply is a transport failure (restart, drop), not a
        // protocol violation — callers may retry it.
        fn hung_up() -> ProxyError {
            ProxyError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "proxy closed connection",
            ))
        }
        // The dial span joins the request's trace.
        let dial = |reason| {
            let (trace, parent) = trace_of(msg);
            self.dial_traced(trace, parent, reason)
        };
        let mut guard = self.proxy_conn.lock().unwrap();
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(dial("first-use")?);
        }
        let conn = guard.as_mut().expect("connection dialed above");
        match conn.exchange(msg) {
            Ok(Some(reply)) => Ok(reply),
            // An error or EOF on a reused connection means it went stale
            // while idle: reconnect and replay the request once.
            Ok(None) | Err(_) if reused => {
                *guard = None;
                self.reconnects.fetch_add(1, Ordering::Relaxed);
                let mut conn = dial("reconnect")?;
                // A dropped connection may mean the proxy restarted and
                // lost its in-memory registrations: re-introduce this
                // client's peer port before replaying, so peer fetches
                // keep finding it. REGISTER is idempotent — against a
                // merely-reaped connection it just refreshes the address.
                if !matches!(msg.tokens().first(), Some(&"REGISTER")) {
                    let reg = register_request(self.id, self.peer_addr().port());
                    match conn.exchange(&reg)? {
                        Some(reply) if response_code(&reply) == Some(status::OK) => {}
                        _ => return Err(hung_up()),
                    }
                }
                let reply = conn.exchange(msg)?.ok_or_else(hung_up)?;
                *guard = Some(conn);
                Ok(reply)
            }
            Ok(None) => {
                *guard = None;
                Err(hung_up())
            }
            Err(e) => {
                *guard = None;
                Err(e.into())
            }
        }
    }

    /// Closes the proxy connection and stops the peer port, joining its
    /// threads (dropping the agent does the same).
    pub fn shutdown(mut self) {
        *self.proxy_conn.lock().unwrap() = None;
        self.peer_port.shutdown();
    }
}

/// The browser's enrolment: its peer port and client id.
pub(crate) fn register_request(client: u32, port: u16) -> Message {
    Message::request("REGISTER", decimal(port.into(), &mut [0; 20]), "BAPS/1.0")
        .header_num("Client", client.into())
}

/// The browser's INVALIDATE for `url`; `purge` marks a publisher's.
pub(crate) fn notice_request(client: u32, url: &str, purge: bool) -> Message {
    let notice =
        Message::request("INVALIDATE", url, "BAPS/1.0").header_num("Client", client.into());
    if purge {
        notice.header("Purge", "1")
    } else {
        notice
    }
}

/// The browser's GET for `url` to the proxy: its client id, the trace and
/// (when sampled) its root span, the eviction notices riding along, and
/// `Bypass-Peers` on an integrity retry.
pub(crate) fn get_request(
    client: u32,
    url: &str,
    trace: TraceId,
    root: SpanId,
    notices: &[String],
    bypass: bool,
) -> Message {
    // The root span parents every proxy-side span of this request.
    let mut req = Message::request("GET", url, "BAPS/1.0")
        .header_num("Client", client.into())
        .traced(trace, root);
    if !notices.is_empty() {
        req = req.header_words("Evicted", notices.iter().map(String::as_str));
    }
    if bypass {
        req = req.header("Bypass-Peers", "1");
    }
    req
}

/// The body a browser serves a peer for `url`, if `cache` holds it, as
/// `mode` tampers with it. The honest path shares the cached body; only
/// the corrupting modes copy.
fn peer_body(mode: TamperMode, cache: &mut BodyCache, url: &str) -> Option<Body> {
    let body = Arc::clone(&cache.get(url)?.body);
    Some(match mode {
        TamperMode::Honest => body,
        TamperMode::FlipByte => {
            let mut bytes = body.to_vec();
            if let Some(b) = bytes.first_mut() {
                *b ^= 0xff;
            }
            bytes.into()
        }
        TamperMode::Truncate => Body::from(&body[..body.len() / 2]),
        TamperMode::Substitute => cache.another(url).map_or(body, |doc| Arc::clone(&doc.body)),
    })
}

/// The peer port: PEERGET from the proxy's kept-alive upstream
/// connections. A request names only the URL — the serving peer never
/// learns who is asking (§6.2: every peer transfer is relayed).
impl FrameService for ClientState {
    type Cont = Infallible;

    fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Exactly one fault draw per served PEERGET (never for malformed
    /// requests — faults apply only to what we serve *to* peers). The loop
    /// severs on `PeerDrop` and distorts the otherwise-correct reply for
    /// the wire kinds (stall/truncate/corrupt); `PeerRefuse` is answered
    /// in [`serve`](Self::serve).
    fn fault(&self, plan: &FaultPlan, msg: &Message) -> Option<FaultKind> {
        match msg.tokens().first() {
            Some(&"PEERGET") => plan.peer_fault(),
            _ => None,
        }
    }

    /// Every request answers from local state in its first step.
    fn handle(
        &self,
        msg: &Message,
        fault: Option<FaultKind>,
        _ctx: &mut FrameCtx<'_>,
    ) -> Step<Infallible> {
        Step::Reply(Some(self.serve(msg, fault)))
    }

    fn resume(&self, cont: Infallible, _: Event, _: &Seat<'_>) -> Step<Infallible> {
        match cont {}
    }
}

impl ClientState {
    /// The reply to one peer-port request.
    fn serve(&self, msg: &Message, fault: Option<FaultKind>) -> Message {
        // The proxy forwards the requester's trace id on PEERGET, so
        // peer-side spans join the same trace as the client's fetch; for
        // sampled traces also its probe's hop span, which our serve span
        // attaches under, stitching the tree across processes.
        let (trace, parent) = trace_of(msg);
        let t_serve = Instant::now();
        let serve_span = span::child(parent);
        match msg.tokens().as_slice() {
            _ if fault == Some(FaultKind::PeerRefuse) => {
                // Claim the document is gone even though we may hold it.
                response(status::GONE, "Gone")
            }
            ["PEERGET", url, "BAPS/1.0"] => {
                // The body alone (the proxy checks it), out of the lock.
                let body = peer_body(
                    *self.tamper.lock().unwrap(),
                    &mut self.cache.lock().unwrap(),
                    url,
                );
                let reply = match body {
                    Some(body) => {
                        self.peer_serves.fetch_add(1, Ordering::Relaxed);
                        response(status::OK, "OK").with_body(body)
                    }
                    None => response(status::GONE, "Gone"),
                };
                let outcome = if response_code(&reply) == Some(status::OK) {
                    "ok"
                } else {
                    "gone"
                };
                self.recorder.record_hop(
                    trace,
                    serve_span,
                    parent,
                    EventKind::PeerServe,
                    t_serve.elapsed(),
                    client_detail(self.id, &[" verb=PEERGET url=", url, " outcome=", outcome]),
                );
                reply
            }
            _ => response(status::BAD_REQUEST, "Bad Request"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_is_a_per_byte_budget() {
        // A 1 MiB verify at ≈ 500 MB/s, one MD5 chain's speed and under
        // half the portable digest kernel's, is not slow; a 1 KiB verify
        // that took 300 µs is.
        let mib_verify = Duration::from_micros(2_100);
        assert!(!ran_slow(mib_verify, SLOW_VERIFY, 1 << 20));
        assert!(ran_slow(Duration::from_micros(300), SLOW_VERIFY, 1 << 10));
        assert!(!ran_slow(Duration::from_micros(300), SLOW_FETCH, 1 << 10));
        assert!(ran_slow(Duration::from_millis(3), SLOW_FETCH, 0));
    }
}
