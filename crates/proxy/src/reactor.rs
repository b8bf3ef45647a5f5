//! Event-driven connection serving for the proxy (DESIGN.md §13).
//!
//! The paper's proxy holds a connection for every browser, most of them
//! idle most of the time, so connections must not cost a thread each. This
//! module multiplexes every client connection onto a small set of event
//! loops:
//!
//! - an **accept loop** (blocking) hands accepted sockets round-robin to
//!   per-core event loops through a mutex-protected inbox, waking the loop
//!   via an eventfd;
//! - each **event loop** owns an epoll instance and a set of per-connection
//!   state machines that carry partial reads and partial writes of BAPS
//!   frames across readiness events — an idle connection costs one
//!   registered fd and a parser buffer, not a parked thread;
//! - a complete frame is dispatched through `proxy::dispatch`: inline on
//!   the loop when the answer cannot block (memory-cache hits, admin
//!   verbs), or on a small blocking **miss executor** when it can (disk,
//!   peer probes, origin fetches, coalesced followers parking on a
//!   condvar);
//! - replies are queued as `[owned head, shared body]` segments and pushed
//!   with nonblocking vectored writes, continuing from the exact byte where
//!   the kernel said `EAGAIN`.
//!
//! Fault injection: drops sever before handling, stalls write half the
//! frame and arm a loop timer (the loop never sleeps), truncation closes
//! after the half frame flushes.

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{FaultKind, FaultPlan, WireFault};
use crate::pool::PoolTelemetry;
use crate::protocol::{encode_head, encode_message, Body, HeadParser, Message};
use crate::proxy::{dispatch, needs_miss_executor, verb_index, ProxyState};
use crate::sys::{Epoll, EpollEvent, WakeFd, EV_ERROR, EV_HUP, EV_RDHUP, EV_READ, EV_WRITE};

/// Token reserved for each loop's wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Ready events fetched per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 << 10;
/// Most write-queue segments offered to one vectored write.
const MAX_IOVEC: usize = 16;

// ---------------------------------------------------------------------------
// Incremental frame parsing
// ---------------------------------------------------------------------------

/// Incremental, resumable counterpart of [`crate::protocol::read_message`]:
/// feed it raw socket bytes with [`push`](Self::push), pull complete frames
/// with [`next`](Self::next). The head grammar and every limit live in
/// [`HeadParser`], which `read_message` drives too, so both transports
/// accept and refuse the same bytes; only body acquisition differs (here:
/// one copy out of the connection buffer once it holds the whole body).
pub(crate) struct FrameParser {
    buf: Vec<u8>,
    /// Parse cursor into `buf`; everything before it has been consumed.
    pos: usize,
    head: HeadParser,
    /// A completed head waiting for this many body bytes.
    awaiting_body: Option<(Message, usize)>,
}

impl FrameParser {
    pub(crate) fn new() -> FrameParser {
        FrameParser {
            buf: Vec::new(),
            pos: 0,
            head: HeadParser::default(),
            awaiting_body: None,
        }
    }

    /// Appends freshly read socket bytes.
    pub(crate) fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Whether the parser sits at a clean frame boundary with nothing
    /// buffered — i.e. EOF here is a graceful close, exactly the case where
    /// `read_message` returns `Ok(None)`. (The loop closes on EOF either
    /// way, so this is a test-only distinction.)
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        !self.head.in_head() && self.awaiting_body.is_none() && self.pos == self.buf.len()
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the same `InvalidData` errors `read_message` raises.
    pub(crate) fn next(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some((_, len)) = self.awaiting_body {
                if self.buf.len() - self.pos < len {
                    return Ok(None);
                }
                let (mut msg, _) = self.awaiting_body.take().expect("checked above");
                msg.body = Arc::from(&self.buf[self.pos..self.pos + len]);
                // Compact: everything consumed so far is dead weight.
                self.buf.drain(..self.pos + len);
                self.pos = 0;
                return Ok(Some(msg));
            }
            let rest = &self.buf[self.pos..];
            let Some(i) = rest.iter().position(|&b| b == b'\n') else {
                self.head.fits(rest.len())?;
                return Ok(None);
            };
            let line = std::str::from_utf8(&rest[..=i]).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            self.awaiting_body = self.head.line(line)?;
            self.pos += i + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-write queue
// ---------------------------------------------------------------------------

enum SegBytes {
    /// Encoded head (or a fault-mangled private frame copy).
    Owned(Vec<u8>),
    /// The reply body, shared zero-copy with the cache.
    Shared(Body),
}

struct Segment {
    bytes: SegBytes,
    /// Bytes of this segment already written to the socket.
    pos: usize,
}

impl Segment {
    fn remaining(&self) -> &[u8] {
        let all = match &self.bytes {
            SegBytes::Owned(v) => v.as_slice(),
            SegBytes::Shared(b) => b,
        };
        &all[self.pos..]
    }
}

/// Pending reply bytes for one connection, flushed with vectored writes
/// that resume mid-segment after `EAGAIN`.
pub(crate) struct WriteQueue {
    segs: VecDeque<Segment>,
}

impl WriteQueue {
    pub(crate) fn new() -> WriteQueue {
        WriteQueue {
            segs: VecDeque::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    pub(crate) fn push_owned(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.segs.push_back(Segment {
                bytes: SegBytes::Owned(bytes),
                pos: 0,
            });
        }
    }

    pub(crate) fn push_shared(&mut self, body: Body) {
        if !body.is_empty() {
            self.segs.push_back(Segment {
                bytes: SegBytes::Shared(body),
                pos: 0,
            });
        }
    }

    /// Advances the queue past `n` freshly written bytes.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.segs.front_mut() else {
                return;
            };
            let left = front.remaining().len();
            if n < left {
                front.pos += n;
                return;
            }
            n -= left;
            self.segs.pop_front();
        }
    }

    /// Writes as much as the socket accepts. `Ok(true)` = fully drained,
    /// `Ok(false)` = the kernel pushed back (`EAGAIN`); re-arm `EPOLLOUT`
    /// and continue from the same byte on the next writable event.
    pub(crate) fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.segs.is_empty() {
            let bufs: Vec<IoSlice<'_>> = self
                .segs
                .iter()
                .take(MAX_IOVEC)
                .map(|s| IoSlice::new(s.remaining()))
                .collect();
            match w.write_vectored(&bufs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection write stalled",
                    ))
                }
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Always-on gauges for the event loops: registered connections, epoll
/// batch depth, loop busy-fraction, inline vs offloaded dispatches.
/// ([`PoolTelemetry`] beside it describes the blocking miss executor.)
#[derive(Debug)]
pub struct ReactorTelemetry {
    loops: AtomicU64,
    registered: AtomicU64,
    registered_peak: AtomicU64,
    ready_events: AtomicU64,
    ready_batch_peak: AtomicU64,
    wakeups: AtomicU64,
    inline_served: AtomicU64,
    offloaded: AtomicU64,
    busy_micros: AtomicU64,
    started: Instant,
}

impl ReactorTelemetry {
    pub(crate) fn new() -> ReactorTelemetry {
        ReactorTelemetry {
            loops: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            registered_peak: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            ready_batch_peak: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            inline_served: AtomicU64::new(0),
            offloaded: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn set_loops(&self, n: u64) {
        self.loops.store(n, Ordering::Relaxed);
    }

    fn conn_registered(&self) {
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        if now > self.registered_peak.load(Ordering::Relaxed) {
            self.registered_peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn conn_closed(&self) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
    }

    fn on_batch(&self, ready: u64) {
        self.ready_events.fetch_add(ready, Ordering::Relaxed);
        if ready > self.ready_batch_peak.load(Ordering::Relaxed) {
            self.ready_batch_peak.fetch_max(ready, Ordering::Relaxed);
        }
    }

    fn on_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    fn inline(&self) {
        self.inline_served.fetch_add(1, Ordering::Relaxed);
    }

    fn offload(&self) {
        self.offloaded.fetch_add(1, Ordering::Relaxed);
    }

    fn add_busy(&self, busy: Duration) {
        self.busy_micros
            .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every reactor gauge.
    pub fn snapshot(&self) -> ReactorSnapshot {
        let loops = self.loops.load(Ordering::Relaxed).max(1);
        let elapsed_us = self.started.elapsed().as_micros().max(1) as u64;
        let busy_us = self.busy_micros.load(Ordering::Relaxed);
        ReactorSnapshot {
            loops,
            registered_fds: self.registered.load(Ordering::Relaxed),
            registered_fds_peak: self.registered_peak.load(Ordering::Relaxed),
            ready_events: self.ready_events.load(Ordering::Relaxed),
            ready_batch_peak: self.ready_batch_peak.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            inline_served: self.inline_served.load(Ordering::Relaxed),
            offloaded: self.offloaded.load(Ordering::Relaxed),
            busy_fraction: (busy_us as f64 / (elapsed_us as f64 * loops as f64)).min(1.0),
        }
    }
}

/// A point-in-time copy of a reactor's [`ReactorTelemetry`], surfaced via
/// `ProxyServer::reactor_stats`, STATS headers, and `baps_reactor_*`
/// metrics.
#[derive(Debug, Clone)]
pub struct ReactorSnapshot {
    /// Event loops serving connections.
    pub loops: u64,
    /// Connections currently registered with an epoll instance.
    pub registered_fds: u64,
    /// Most connections simultaneously registered since start.
    pub registered_fds_peak: u64,
    /// Total readiness events delivered to the loops.
    pub ready_events: u64,
    /// Most events one `epoll_wait` returned at once (ready-queue depth).
    pub ready_batch_peak: u64,
    /// Times a loop was woken through its eventfd (new connection or
    /// miss-executor completion).
    pub wakeups: u64,
    /// Requests answered inline on a loop (memory hits, admin verbs).
    pub inline_served: u64,
    /// Requests handed to the blocking miss executor.
    pub offloaded: u64,
    /// Fraction of wall time the loops spent processing events rather than
    /// parked in `epoll_wait` (0.0–1.0, averaged across loops).
    pub busy_fraction: f64,
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing
// ---------------------------------------------------------------------------

/// Work delivered *to* an event loop by other threads.
enum Inbound {
    /// A freshly accepted connection (with its accept timestamp, so the
    /// handoff delay becomes the connection's queue-wait attribution).
    Conn(TcpStream, Instant),
    /// A finished miss-executor dispatch, routed back to the owning loop.
    Done {
        token: u64,
        reply: Option<Message>,
        fault: Option<FaultKind>,
        queue_wait: Option<Duration>,
    },
    /// Sever every connection this loop owns, then ack. The ack makes
    /// `drop_connections` synchronous from the caller's side (it returns
    /// only after every socket is closed) — the sequential chaos driver
    /// relies on that.
    DropAll(Sender<()>),
}

struct LoopShared {
    inbox: Mutex<Vec<Inbound>>,
    wake: WakeFd,
}

/// One offloaded request: everything a miss worker needs to run
/// `dispatch` and route the reply home.
struct MissJob {
    loop_id: usize,
    token: u64,
    msg: Message,
    peer_ip: std::net::IpAddr,
    fault: Option<FaultKind>,
    queue_wait: Option<Duration>,
    enqueued: Instant,
}

/// A stalled reply's second half, due at `at` (`FaultKind::ProxyStall`:
/// the loop arms a timer and keeps serving everyone else).
struct StallTimer {
    at: Instant,
    token: u64,
    rest: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Epoll/loop-local token.
    token: u64,
    peer_ip: std::net::IpAddr,
    parser: FrameParser,
    wq: WriteQueue,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// A dispatch is in flight (offloaded) or a stall timer is pending:
    /// buffered frames wait, so replies leave in request order.
    busy: bool,
    /// Close once the write queue drains (fault truncation).
    close_after_flush: bool,
    /// Accept-to-loop handoff wait, attributed to the first sampled
    /// request.
    queue_wait: Option<Duration>,
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

struct EventLoop {
    id: usize,
    epoll: Epoll,
    shared: Arc<LoopShared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    timers: Vec<StallTimer>,
    state: Arc<ProxyState>,
    misses: Arc<MissQueue>,
    pool_telemetry: Arc<PoolTelemetry>,
    telemetry: Arc<ReactorTelemetry>,
    stop: Arc<AtomicBool>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        loop {
            let timeout = self.next_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let t_busy = Instant::now();
            if n > 0 {
                self.telemetry.on_batch(n as u64);
            }
            for ev in events.iter().take(n) {
                // Copy out of the (packed) event before using the fields.
                let token = ev.data;
                let bits = ev.events;
                if token == WAKE_TOKEN {
                    self.telemetry.on_wakeup();
                    self.shared.wake.drain();
                    self.drain_inbox();
                } else {
                    self.on_ready(token, bits);
                }
            }
            self.fire_timers();
            self.telemetry.add_busy(t_busy.elapsed());
        }
    }

    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.timers
            .iter()
            .map(|t| t.at.saturating_duration_since(now))
            .min()
    }

    fn drain_inbox(&mut self) {
        let inbound = std::mem::take(&mut *self.shared.inbox.lock());
        for item in inbound {
            match item {
                Inbound::Conn(stream, accepted) => self.add_conn(stream, accepted),
                Inbound::Done {
                    token,
                    reply,
                    fault,
                    queue_wait,
                } => self.on_done(token, reply, fault, queue_wait),
                Inbound::DropAll(ack) => {
                    self.drop_all_conns();
                    let _ = ack.send(());
                }
            }
        }
    }

    /// Severs every connection this loop owns (`drop_connections`). Closing
    /// the stream is the severing: the loop is the fd's only owner — no
    /// duplicate handle exists anywhere, which is what keeps 10k idle
    /// connections at 10k proxy-side fds instead of 20k.
    fn drop_all_conns(&mut self) {
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.drop_conn(conn);
        }
    }

    fn add_conn(&mut self, stream: TcpStream, accepted: Instant) {
        if self.stop.load(Ordering::Acquire) {
            return; // shutting down: close instead of registering
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.peer_addr() else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        let interest = EV_READ | EV_RDHUP;
        if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
            return;
        }
        self.telemetry.conn_registered();
        self.conns.insert(
            token,
            Conn {
                stream,
                token,
                peer_ip: peer.ip(),
                parser: FrameParser::new(),
                wq: WriteQueue::new(),
                interest,
                busy: false,
                close_after_flush: false,
                queue_wait: Some(accepted.elapsed()),
            },
        );
    }

    fn drop_conn(&mut self, conn: Conn) {
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.telemetry.conn_closed();
        self.timers.retain(|t| t.token != conn.token);
    }

    fn on_ready(&mut self, token: u64, bits: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = bits & EV_ERROR == 0;
        if alive && bits & (EV_READ | EV_RDHUP | EV_HUP) != 0 {
            alive = self.drive_readable(&mut conn);
        }
        let alive = alive && self.after_io(&mut conn);
        if alive {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    /// Reads until the socket would block, feeding the frame parser.
    /// `false` = peer gone (EOF) or hard error: close.
    fn drive_readable(&mut self, conn: &mut Conn) -> bool {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.parser.push(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parses and dispatches buffered frames (unless the connection is
    /// mid-dispatch), flushes pending writes, and re-arms epoll interest.
    /// `false` = close the connection.
    fn after_io(&mut self, conn: &mut Conn) -> bool {
        while !conn.busy {
            match conn.parser.next() {
                Ok(Some(msg)) => {
                    if !self.handle_frame(conn, msg) {
                        return false;
                    }
                }
                Ok(None) => break,
                // Protocol violation: close without a reply.
                Err(_) => return false,
            }
        }
        match conn.wq.flush(&mut conn.stream) {
            Ok(true) => {
                if conn.close_after_flush && !conn.busy {
                    return false;
                }
            }
            Ok(false) => {}
            Err(_) => return false,
        }
        self.update_interest(conn)
    }

    fn update_interest(&mut self, conn: &mut Conn) -> bool {
        let mut want = EV_READ | EV_RDHUP;
        if !conn.wq.is_empty() {
            want |= EV_WRITE;
        }
        if want == conn.interest {
            return true;
        }
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), conn.token, want)
            .is_err()
        {
            return false;
        }
        conn.interest = want;
        true
    }

    /// One complete request frame: draw the fault decision (one RNG draw
    /// per client-facing GET, in arrival order; the administrative verbs
    /// stay honest so chaos runs can still register clients and read
    /// counters), then dispatch inline or offload to the miss executor.
    /// `false` = close.
    fn handle_frame(&mut self, conn: &mut Conn, msg: Message) -> bool {
        let fault = match (msg.tokens().first(), self.state.config.faults.as_deref()) {
            (Some(&"GET"), Some(plan)) => plan.proxy_fault(),
            _ => None,
        };
        if fault == Some(FaultKind::ProxyDrop) {
            // Sever before handling: the client sees EOF and replays.
            return false;
        }
        if needs_miss_executor(&msg, &self.state) {
            conn.busy = true;
            self.telemetry.offload();
            self.pool_telemetry.enqueued();
            let job = MissJob {
                loop_id: self.id,
                token: conn.token,
                peer_ip: conn.peer_ip,
                fault,
                queue_wait: conn.queue_wait.take(),
                enqueued: Instant::now(),
                msg,
            };
            if !self.misses.push(job) {
                self.pool_telemetry.enqueue_failed();
                return false; // executor closed: shutting down
            }
            return true;
        }
        self.telemetry.inline();
        let t_verb = Instant::now();
        let verb = verb_index(msg.tokens().first());
        let reply = dispatch(&msg, conn.peer_ip, &mut conn.queue_wait, &self.state);
        self.state.obs.verbs.record(verb, t_verb.elapsed());
        match reply {
            Some(reply) => self.enqueue_reply(conn, &reply, fault),
            None => true,
        }
    }

    /// A miss-executor completion for connection `token` (which may have
    /// died in the meantime).
    fn on_done(
        &mut self,
        token: u64,
        reply: Option<Message>,
        fault: Option<FaultKind>,
        queue_wait: Option<Duration>,
    ) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        conn.queue_wait = queue_wait;
        conn.busy = false;
        let mut alive = true;
        if let Some(reply) = reply {
            alive = self.enqueue_reply(&mut conn, &reply, fault);
        }
        let alive = alive && self.after_io(&mut conn);
        if alive {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    /// Queues a reply, applying the wire-level fault exactly as
    /// [`crate::fault::write_reply_with_fault`] does on the blocking
    /// servers — except a stall arms a loop timer instead of sleeping the
    /// thread. `false` = close.
    fn enqueue_reply(
        &mut self,
        conn: &mut Conn,
        reply: &Message,
        fault: Option<FaultKind>,
    ) -> bool {
        match fault.and_then(FaultKind::wire) {
            None => {
                let Ok(head) = encode_head(reply) else {
                    return false;
                };
                conn.wq.push_owned(head.into_bytes());
                conn.wq.push_shared(Arc::clone(&reply.body));
                true
            }
            Some(WireFault::Corrupt) => {
                // Flip a byte on a private copy; the shared body stays good.
                let mut bad = reply.body.to_vec();
                if let Some(b) = bad.first_mut() {
                    *b ^= 0xff;
                }
                let corrupted = reply.clone().with_body(bad);
                let Ok(frame) = encode_message(&corrupted) else {
                    return false;
                };
                conn.wq.push_owned(frame);
                true
            }
            Some(WireFault::Truncate) => {
                let Ok(frame) = encode_message(reply) else {
                    return false;
                };
                let half = frame.len() / 2;
                conn.wq.push_owned(frame[..half].to_vec());
                conn.close_after_flush = true;
                true
            }
            Some(WireFault::Stall) => {
                let Ok(frame) = encode_message(reply) else {
                    return false;
                };
                let stall = self
                    .state
                    .config
                    .faults
                    .as_deref()
                    .map(FaultPlan::stall)
                    .unwrap_or_default();
                let half = frame.len() / 2;
                conn.wq.push_owned(frame[..half].to_vec());
                // No further requests on this connection until the frame
                // completes.
                conn.busy = true;
                self.timers.push(StallTimer {
                    at: Instant::now() + stall,
                    token: conn.token,
                    rest: frame[half..].to_vec(),
                });
                true
            }
        }
    }

    /// Delivers the second half of stalled frames whose deadline passed.
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.timers.len() {
            if self.timers[i].at <= now {
                due.push(self.timers.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for timer in due {
            let Some(mut conn) = self.conns.remove(&timer.token) else {
                continue;
            };
            conn.wq.push_owned(timer.rest);
            conn.busy = false;
            let alive = self.after_io(&mut conn);
            if alive {
                self.conns.insert(timer.token, conn);
            } else {
                self.drop_conn(conn);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor: loops + miss executor + accept-side handle
// ---------------------------------------------------------------------------

/// The miss executor's job queue: one mutex-guarded deque and one condvar.
/// A push wakes exactly one parked worker. (An `mpsc::Receiver` shared
/// behind a mutex wakes two per job — the worker parked in `recv` and the
/// next one parked on the mutex — which cost `disk-storm` +36 % p99; see
/// DESIGN.md §13.)
struct MissQueue {
    /// Pending jobs; `None` once [`close`](Self::close) has been called.
    jobs: Mutex<Option<VecDeque<MissJob>>>,
    ready: Condvar,
}

impl MissQueue {
    fn new() -> MissQueue {
        MissQueue {
            jobs: Mutex::new(Some(VecDeque::new())),
            ready: Condvar::new(),
        }
    }

    /// Queues a job; `false` once the queue is closed.
    fn push(&self, job: MissJob) -> bool {
        let mut jobs = self.jobs.lock();
        let Some(queue) = jobs.as_mut() else {
            return false;
        };
        queue.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        true
    }

    /// Parks until a job arrives; `None` once the queue is closed.
    fn pop(&self) -> Option<MissJob> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.as_mut()?.pop_front() {
                return Some(job);
            }
            self.ready.wait(&mut jobs);
        }
    }

    /// Refuses further pushes, abandons jobs still queued (their loops
    /// are already gone) and wakes every parked worker to exit.
    fn close(&self) {
        *self.jobs.lock() = None;
        self.ready.notify_all();
    }
}

/// The proxy's connection-serving engine: per-core event loops plus a
/// small blocking miss executor.
pub(crate) struct Reactor {
    shared: Arc<Vec<Arc<LoopShared>>>,
    next: AtomicUsize,
    loops: Vec<JoinHandle<()>>,
    misses: Arc<MissQueue>,
    miss_workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<ReactorTelemetry>,
}

/// Cloneable control surface over a running reactor, detached from the
/// [`Reactor`] itself (which moves into the acceptor thread). The loops
/// are the sole owners of their sockets — one fd per connection, which is
/// what lets a 10k-idle-connection ladder fit in an ordinary fd table — so
/// `open_connections` reads the registered gauge and `drop_all` asks each
/// loop to close its own.
pub(crate) struct ReactorHandle {
    shared: Arc<Vec<Arc<LoopShared>>>,
    telemetry: Arc<ReactorTelemetry>,
}

impl ReactorHandle {
    /// Client connections currently registered across the loops.
    pub(crate) fn open_connections(&self) -> usize {
        self.telemetry.snapshot().registered_fds as usize
    }

    /// Severs every open connection without stopping the loops, returning
    /// once every loop has acked (callers may immediately assert on EOF).
    pub(crate) fn drop_all(&self) {
        let (tx, rx) = std::sync::mpsc::channel();
        for sh in self.shared.iter() {
            sh.inbox.lock().push(Inbound::DropAll(tx.clone()));
            sh.wake.wake();
        }
        drop(tx);
        for _ in 0..self.shared.len() {
            let _ = rx.recv();
        }
    }
}

impl Reactor {
    /// Spawns one event loop per available core (`{name}-loop-N`) and
    /// `miss_workers` blocking executor threads (`{name}-miss-N`).
    /// `pool_telemetry` tracks the miss executor's queue/busy gauges;
    /// `telemetry` tracks the loops themselves.
    pub(crate) fn start(
        name: &str,
        miss_workers: usize,
        state: Arc<ProxyState>,
        pool_telemetry: Arc<PoolTelemetry>,
        telemetry: Arc<ReactorTelemetry>,
    ) -> io::Result<Reactor> {
        let loops = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let miss_workers = miss_workers.max(1);
        telemetry.set_loops(loops as u64);
        pool_telemetry.set_workers(miss_workers as u64);
        let stop = Arc::new(AtomicBool::new(false));
        let misses = Arc::new(MissQueue::new());

        let mut shared = Vec::with_capacity(loops);
        let mut loop_handles = Vec::with_capacity(loops);
        let mut prepared = Vec::with_capacity(loops);
        for _ in 0..loops {
            let epoll = Epoll::new()?;
            let sh = Arc::new(LoopShared {
                inbox: Mutex::new(Vec::new()),
                wake: WakeFd::new()?,
            });
            epoll.add(sh.wake.raw(), WAKE_TOKEN, EV_READ)?;
            shared.push(Arc::clone(&sh));
            prepared.push((epoll, sh));
        }
        let shared = Arc::new(shared);

        for (id, (epoll, sh)) in prepared.into_iter().enumerate() {
            let ev_loop = EventLoop {
                id,
                epoll,
                shared: sh,
                conns: HashMap::new(),
                next_token: 0,
                timers: Vec::new(),
                state: Arc::clone(&state),
                misses: Arc::clone(&misses),
                pool_telemetry: Arc::clone(&pool_telemetry),
                telemetry: Arc::clone(&telemetry),
                stop: Arc::clone(&stop),
                scratch: vec![0u8; READ_CHUNK],
            };
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-loop-{id}"))
                    .spawn(move || ev_loop.run())?,
            );
        }

        let mut miss_handles = Vec::with_capacity(miss_workers);
        for i in 0..miss_workers {
            let misses = Arc::clone(&misses);
            let state = Arc::clone(&state);
            let shared = Arc::clone(&shared);
            let pool_telemetry = Arc::clone(&pool_telemetry);
            miss_handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-miss-{i}"))
                    .spawn(move || miss_worker_loop(&misses, &state, &shared, &pool_telemetry))?,
            );
        }

        Ok(Reactor {
            shared,
            next: AtomicUsize::new(0),
            loops: loop_handles,
            misses,
            miss_workers: miss_handles,
            stop,
            telemetry,
        })
    }

    /// Hands an accepted connection to the next loop, round-robin. Never
    /// rejects: an idle connection costs a registered fd, nothing more.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.len();
        let sh = &self.shared[i];
        sh.inbox.lock().push(Inbound::Conn(stream, Instant::now()));
        sh.wake.wake();
    }

    /// Control surface for `open_connections` / `drop_connections`,
    /// cloneable out before the reactor moves into the acceptor thread.
    pub(crate) fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// Stops the loops and the miss executor, joining every thread. The
    /// loops never block in socket I/O, so the stop flag plus an eventfd
    /// wake is enough; each loop closes its own connections on exit
    /// (dropping its conn table), so keep-alive clients see EOF.
    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for sh in self.shared.iter() {
            sh.wake.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        // Parked workers wake and exit; a busy one exits after its job.
        self.misses.close();
        for handle in self.miss_workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocking executor for requests the loops must not run inline: the whole
/// miss path (disk tier, peer probes with retry backoff, origin fetches,
/// coalesced followers parking on the in-flight condvar). Runs `dispatch`,
/// then routes the reply to the owning loop's inbox.
fn miss_worker_loop(
    misses: &MissQueue,
    state: &Arc<ProxyState>,
    shared: &Arc<Vec<Arc<LoopShared>>>,
    pool_telemetry: &Arc<PoolTelemetry>,
) {
    while let Some(job) = misses.pop() {
        pool_telemetry.dequeued(job.enqueued.elapsed());
        pool_telemetry.task_started();
        let mut queue_wait = job.queue_wait;
        let t_verb = Instant::now();
        let verb = verb_index(job.msg.tokens().first());
        let reply = dispatch(&job.msg, job.peer_ip, &mut queue_wait, state);
        state.obs.verbs.record(verb, t_verb.elapsed());
        pool_telemetry.task_finished();
        let sh = &shared[job.loop_id];
        sh.inbox.lock().push(Inbound::Done {
            token: job.token,
            reply,
            fault: job.fault,
            queue_wait,
        });
        sh.wake.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_message, response, status, MAX_BODY, MAX_HEADERS, MAX_HEAD_BYTES};
    use std::io::BufReader;

    fn frame(msg: &Message) -> Vec<u8> {
        encode_message(msg).unwrap()
    }

    fn sample_request() -> Message {
        Message::new("GET /doc/1 BAPS/1.0")
            .header("Client", "7")
            .header("Trace-Id", "42")
            .with_body(b"hello body".to_vec())
    }

    #[test]
    fn parser_matches_read_message_byte_at_a_time() {
        let msg = sample_request();
        let bytes = frame(&msg);
        let mut parser = FrameParser::new();
        let mut out = None;
        for (i, b) in bytes.iter().enumerate() {
            parser.push(std::slice::from_ref(b));
            if let Some(got) = parser.next().unwrap() {
                assert_eq!(i, bytes.len() - 1, "frame completed exactly at the end");
                out = Some(got);
            }
        }
        let got = out.expect("frame parsed");
        let want = read_message(&mut BufReader::new(&bytes[..]))
            .unwrap()
            .unwrap();
        assert_eq!(got.start, want.start);
        assert_eq!(got.headers, want.headers);
        assert_eq!(&got.body[..], &want.body[..]);
        assert!(parser.is_idle());
    }

    #[test]
    fn parser_handles_pipelined_frames_in_one_push() {
        let a = sample_request();
        let b = response(status::OK, "OK").with_body(b"second".to_vec());
        let mut bytes = frame(&a);
        bytes.extend_from_slice(&frame(&b));
        let mut parser = FrameParser::new();
        parser.push(&bytes);
        let first = parser.next().unwrap().expect("first frame");
        assert_eq!(first.start, a.start);
        let second = parser.next().unwrap().expect("second frame");
        assert_eq!(&second.body[..], b"second");
        assert!(parser.next().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn parser_accepts_bodyless_frames() {
        let msg = Message::new("STATS BAPS/1.0");
        let mut parser = FrameParser::new();
        parser.push(&frame(&msg));
        let got = parser.next().unwrap().expect("frame");
        assert_eq!(got.start, "STATS BAPS/1.0");
        assert!(got.body.is_empty());
    }

    #[test]
    fn parser_rejects_what_read_message_rejects() {
        // Empty start line.
        let mut p = FrameParser::new();
        p.push(b"\r\n");
        assert_eq!(
            p.next().unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "empty start line"
        );

        // Header without a colon.
        let mut p = FrameParser::new();
        p.push(b"GET /x BAPS/1.0\r\nnot-a-header\r\n\r\n");
        assert_eq!(p.next().unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Unparseable Content-Length.
        let mut p = FrameParser::new();
        p.push(b"GET /x BAPS/1.0\r\nContent-Length: nope\r\n\r\n");
        assert_eq!(p.next().unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Oversized body declaration.
        let mut p = FrameParser::new();
        let huge = format!(
            "GET /x BAPS/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        p.push(huge.as_bytes());
        assert_eq!(p.next().unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Too many headers.
        let mut p = FrameParser::new();
        let mut many = String::from("GET /x BAPS/1.0\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        p.push(many.as_bytes());
        assert_eq!(p.next().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parser_caps_unterminated_heads() {
        let mut p = FrameParser::new();
        p.push(&vec![b'a'; MAX_HEAD_BYTES + 2]);
        assert_eq!(p.next().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// Writer that accepts at most `cap` bytes per call and then a
    /// `WouldBlock`, like a full socket send buffer.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        blocked: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.blocked {
                self.blocked = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            self.blocked = true;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_after_eagain_across_segments() {
        let reply = response(status::OK, "OK").with_body(b"shared-body-bytes".to_vec());
        let head = encode_head(&reply).unwrap();
        let mut expected = head.clone().into_bytes();
        expected.extend_from_slice(&reply.body);

        let mut wq = WriteQueue::new();
        wq.push_owned(head.into_bytes());
        wq.push_shared(Arc::clone(&reply.body));

        let mut sink = Throttled {
            out: Vec::new(),
            cap: 5,
            blocked: false,
        };
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 1000, "flush must terminate");
            match wq.flush(&mut sink) {
                Ok(true) => break,
                Ok(false) => continue, // EAGAIN: a real loop would re-arm EPOLLOUT
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        assert!(wq.is_empty());
        assert_eq!(
            sink.out, expected,
            "byte-exact frame despite partial writes"
        );
    }
}
