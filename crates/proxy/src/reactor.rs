//! Event-driven connection serving for every BAPS server (DESIGN.md §13).
//!
//! The paper's proxy holds a connection for every browser, a recruited
//! browser one for every proxy connection kept alive to it, and the origin
//! one per proxy loop and concurrent miss — most of them idle most of the
//! time, so a connection must not cost a thread. [`Server`] is the one
//! shell the proxy, the origin and each browser's peer port start through:
//!
//! - an **acceptor** thread (blocking) hands accepted sockets round-robin
//!   to the event loops through a mutex-protected inbox, waking the loop
//!   via an eventfd;
//! - each **event loop** owns an epoll instance and a set of per-connection
//!   state machines that carry partial reads and partial writes of BAPS
//!   frames across readiness events — an idle connection costs one
//!   registered fd and a parser buffer, not a parked thread;
//! - a complete frame goes to the server's [`FrameService`], which answers
//!   with a [`Step`]: a **reply**; an **ask** — one request to an upstream
//!   server, sent from this loop over a connection the loop owns
//!   (`upstream.rs`), the service resumed with the answer; an **offload**
//!   of blocking work to a small **executor** (the proxy's disk tier)
//!   whose threads start with the first such step, so a server that never
//!   offloads never runs them;
//!   or a **wait** for a wake-up or a timer (a coalesced follower, a retry
//!   back-off). Whatever resumes a request yields its next step;
//! - replies are queued as `[owned head, shared body]` segments and pushed
//!   with nonblocking vectored writes, continuing from the exact byte where
//!   the kernel said `EAGAIN`; upstream requests leave through the same
//!   queue, and upstream replies arrive through the same head parser.
//!
//! Fault injection, the same on every server: drops sever before handling,
//! stalls write half the frame and arm a loop timer (the loop never
//! sleeps), truncation closes after the half frame flushes, corruption
//! flips a byte of a private copy.

use baps_crypto::Md5;
use baps_obs::{AtomicHistogram, LatencyHistogram};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{FaultKind, FaultPlan, WireFault};
use crate::protocol::{encode_head, encode_message, zeroed_body, Body, HeadParser, Message};
use crate::sys::{
    connect_nonblocking, Epoll, EpollEvent, WakeFd, EV_ERROR, EV_HUP, EV_RDHUP, EV_READ, EV_WRITE,
};
use crate::upstream::{Answer, Ask, IdleSet, Upstream, UpstreamCounters, UpstreamSnapshot};

/// Token reserved for each loop's wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Set in the token of every upstream connection: one token space per
/// loop, two connection tables.
const UPSTREAM_BIT: u64 = 1 << 62;
/// How often a loop with idle upstream connections looks for expired ones.
const REAP_TICK: Duration = Duration::from_secs(1);
/// Ready events fetched per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 << 10;
/// Most write-queue segments offered to one vectored write.
const MAX_IOVEC: usize = 16;

/// `msg` as a frame of exactly `chunks × READ_CHUNK` bytes (its body is
/// padded to fit): the sender's last byte fills the loop's last read, so a
/// close behind it is seen by the same `drive_readable` call.
#[cfg(test)]
pub(crate) fn chunk_aligned_frame(msg: Message, chunks: usize) -> Vec<u8> {
    let want = chunks * READ_CHUNK;
    let mut body = want;
    loop {
        let frame = encode_message(&msg.clone().with_body(vec![b'x'; body])).unwrap();
        if frame.len() == want {
            return frame;
        }
        body = body + want - frame.len();
    }
}

// ---------------------------------------------------------------------------
// What a server plugs into the loop
// ---------------------------------------------------------------------------

/// What the loop knows about the connection a frame arrived on.
pub(crate) struct FrameCtx<'a> {
    /// The sender's address.
    pub(crate) peer_ip: IpAddr,
    /// Accept-to-loop handoff wait, until a handler takes it to attribute
    /// it to a sampled request.
    pub(crate) queue_wait: Option<Duration>,
    /// Where the request sits.
    pub(crate) seat: Seat<'a>,
}

/// Where a request sits — which loop, which connection, which of its
/// waits comes next: what a service needs to have the request woken later,
/// or to reach every loop of its server.
pub(crate) struct Seat<'a> {
    loops: &'a dyn LoopSet,
    loop_id: usize,
    token: u64,
    seq: u64,
}

/// Ends the [`Step::Wait`] of the request it was made for, from any
/// thread; a no-op once that wait is over.
pub(crate) type Waker = Box<dyn FnOnce() + Send>;

impl Seat<'_> {
    /// A waker for the wait this request enters next. Hand it to whoever
    /// will know the wait is over *before* returning [`Step::Wait`]: the
    /// wake travels through the loop's inbox, so it cannot overtake the
    /// step.
    pub(crate) fn waker(&self) -> Waker {
        self.loops.waker(self.loop_id, self.token, self.seq)
    }

    /// Has every loop close its idle upstream connections to `addr`.
    pub(crate) fn forget_upstream(&self, addr: SocketAddr) {
        self.loops.forget_upstream(addr);
    }
}

#[cfg(test)]
impl Seat<'static> {
    /// A seat on no loop, for driving a service's steps by hand: its
    /// wakers do nothing.
    pub(crate) fn nowhere() -> Seat<'static> {
        struct NoLoops;
        impl LoopSet for NoLoops {
            fn waker(&self, _: usize, _: u64, _: u64) -> Waker {
                Box::new(|| {})
            }
            fn forget_upstream(&self, _: SocketAddr) {}
        }
        Seat {
            loops: &NoLoops,
            loop_id: 0,
            token: 0,
            seq: 0,
        }
    }
}

/// A server's loops as a [`Seat`] sees them, whatever their continuation
/// type.
trait LoopSet {
    fn waker(&self, loop_id: usize, token: u64, seq: u64) -> Waker;
    fn forget_upstream(&self, addr: SocketAddr);
}

impl<C: Send + 'static> LoopSet for Vec<Arc<LoopShared<C>>> {
    fn waker(&self, loop_id: usize, token: u64, seq: u64) -> Waker {
        let target = Arc::clone(&self[loop_id]);
        Box::new(move || target.send(Inbound::Wake { token, seq }))
    }

    fn forget_upstream(&self, addr: SocketAddr) {
        for sh in self {
            sh.send(Inbound::ForgetUpstream(addr));
        }
    }
}

/// A service's next move for one request. `C` is the service's
/// continuation: what the request carries while it is suspended.
pub(crate) enum Step<C> {
    /// Send this reply (`None`: send nothing) and take the connection's
    /// next frame.
    Reply(Option<Message>),
    /// Send one request to an upstream from this loop; resume with
    /// [`Event::Answer`].
    Ask(Ask, C),
    /// Resume on the blocking executor with [`Event::Run`]; the step that
    /// returns comes back to the loop.
    Offload(C),
    /// Resume with [`Event::Wake`] when a [`Waker`] from this request's
    /// [`Seat`] fires or after this long, whichever is first.
    Wait(Duration, C),
}

impl<C> Step<C> {
    /// The same step, its continuation wrapped by `wrap`.
    pub(crate) fn map<D>(self, wrap: impl FnOnce(C) -> D) -> Step<D> {
        match self {
            Step::Reply(reply) => Step::Reply(reply),
            Step::Ask(ask, cont) => Step::Ask(ask, wrap(cont)),
            Step::Offload(cont) => Step::Offload(wrap(cont)),
            Step::Wait(budget, cont) => Step::Wait(budget, wrap(cont)),
        }
    }
}

/// What resumes a suspended request.
pub(crate) enum Event {
    /// The upstream's fully framed reply to an [`Ask`], or why there is
    /// none (refused or failed connection, EOF, broken frame, deadline).
    Answer(io::Result<Answer>),
    /// This is an executor thread: do the blocking work now.
    Run,
    /// The wait is over: woken, or out of time.
    Wake,
}

/// One server's answer to a complete request frame. The loop owns
/// everything about the connection — framing, reply order, partial writes,
/// upstream sockets and timers, and the effect of every fault kind on the
/// wire (a kind that drops severs before [`handle`](Self::handle) is
/// called); the service owns what a frame means.
pub(crate) trait FrameService: Send + Sync + 'static {
    /// What a suspended request carries from one [`Step`] to the next.
    /// ([`std::convert::Infallible`] for a service that always replies at
    /// once.)
    type Cont: Send + 'static;

    /// The fault plan this server consults, if it runs under one.
    fn faults(&self) -> Option<&FaultPlan>;

    /// The one fault draw for this frame from the site's table in `plan`,
    /// taken on the loop in arrival order; `None` without a draw for
    /// frames the table does not cover.
    fn fault(&self, plan: &FaultPlan, msg: &Message) -> Option<FaultKind>;

    /// The first step for `msg`. Runs on the loop: must not block.
    fn handle(
        &self,
        msg: &Message,
        fault: Option<FaultKind>,
        ctx: &mut FrameCtx<'_>,
    ) -> Step<Self::Cont>;

    /// The next step of a suspended request. Runs on the loop (must not
    /// block) except for [`Event::Run`].
    fn resume(&self, cont: Self::Cont, event: Event, seat: &Seat<'_>) -> Step<Self::Cont>;
}

/// One event loop per available core: what the proxy and the origin run.
pub(crate) fn loops_per_core() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Incremental frame parsing
// ---------------------------------------------------------------------------

/// Incremental, resumable counterpart of [`crate::protocol::read_message`]:
/// feed it raw socket bytes with [`push`](Self::push), pull complete frames
/// with [`next`](Self::next). The head grammar and every limit live in
/// [`HeadParser`], which `read_message` drives too, so both transports
/// accept and refuse the same bytes; only body acquisition differs:
/// [`next`](Self::next) copies a request's body out of the connection
/// buffer once it holds all of it, [`next_head`](Self::next_head) leaves a
/// reply's body to a caller that reads it into its final allocation.
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
    /// buffered — EOF here is a graceful close, exactly the case where
    /// `read_message` returns `Ok(None)`, and an upstream connection in
    /// this state is in step with its requests.
    pub(crate) fn is_idle(&self) -> bool {
        !self.head.in_head() && self.awaiting_body.is_none() && self.pos == self.buf.len()
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the same `InvalidData` errors `read_message` raises.
    pub(crate) fn next(&mut self) -> io::Result<Option<Message>> {
        if self.awaiting_body.is_none() {
            self.awaiting_body = self.next_head()?;
        }
        match self.awaiting_body.take() {
            Some((mut msg, len)) if self.buf.len() - self.pos >= len => {
                msg.body = Arc::from(&self.buf[self.pos..self.pos + len]);
                // Compact: everything consumed so far is dead weight.
                self.buf.drain(..self.pos + len);
                self.pos = 0;
                Ok(Some(msg))
            }
            waiting => {
                self.awaiting_body = waiting;
                Ok(None)
            }
        }
    }

    /// Returns the next complete head (its message, body still empty) and
    /// the body length it declares, or `Ok(None)` if more bytes are needed.
    /// The body is the caller's to collect: [`drain_into`](Self::drain_into)
    /// hands over what is already buffered, the rest is still on the socket.
    pub(crate) fn next_head(&mut self) -> io::Result<Option<(Message, usize)>> {
        loop {
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
            let done = self.head.line(line)?;
            self.pos += i + 1;
            if done.is_some() {
                return Ok(done);
            }
        }
    }

    /// Moves buffered bytes into `dst` (as many as fit); returns how many.
    pub(crate) fn drain_into(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.buf.len() - self.pos);
        dst[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        n
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
            let mut bufs = [IoSlice::new(&[]); MAX_IOVEC];
            let mut n = 0;
            for (buf, seg) in bufs.iter_mut().zip(&self.segs) {
                *buf = IoSlice::new(seg.remaining());
                n += 1;
            }
            match w.write_vectored(&bufs[..n]) {
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

/// Always-on gauges for one server's event loops: registered connections,
/// epoll batch depth, loop busy-fraction, inline vs offloaded dispatches,
/// upstream exchanges in flight and requests parked in a wait, and the
/// upstream connections' counters.
/// ([`PoolTelemetry`] below describes the blocking executor beside them.)
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
    exchanges: AtomicU64,
    parked: AtomicU64,
    busy_micros: AtomicU64,
    upstream: UpstreamCounters,
    started: Instant,
}

impl Default for ReactorTelemetry {
    fn default() -> ReactorTelemetry {
        ReactorTelemetry {
            loops: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            registered_peak: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            ready_batch_peak: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            inline_served: AtomicU64::new(0),
            offloaded: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            upstream: UpstreamCounters::default(),
            started: Instant::now(),
        }
    }
}

impl ReactorTelemetry {
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

    /// A point-in-time copy of the upstream connections' counters.
    pub(crate) fn upstream(&self) -> UpstreamSnapshot {
        self.upstream.snapshot()
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
            exchanges_in_flight: self.exchanges.load(Ordering::Relaxed),
            parked_requests: self.parked.load(Ordering::Relaxed),
            busy_fraction: (busy_us as f64 / (elapsed_us as f64 * loops as f64)).min(1.0),
        }
    }
}

/// A point-in-time copy of a server's [`ReactorTelemetry`]; the proxy's is
/// surfaced via `ProxyServer::reactor_stats` and the `baps_reactor_*`
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
    /// Times a loop was woken through its eventfd (new connection,
    /// executor completion, follower wake-up).
    pub wakeups: u64,
    /// Requests answered by their first step (on the proxy: memory hits,
    /// admin verbs).
    pub inline_served: u64,
    /// Steps handed to the server's blocking executor (on the proxy: disk
    /// tier reads and writes).
    pub offloaded: u64,
    /// Upstream exchanges in flight right now (asked, not yet answered).
    pub exchanges_in_flight: u64,
    /// Requests parked in a wait right now (coalesced followers, retry
    /// back-offs).
    pub parked_requests: u64,
    /// Fraction of wall time the loops spent processing events rather than
    /// parked in `epoll_wait` (0.0–1.0, averaged across loops).
    pub busy_fraction: f64,
}

/// Runtime-saturation telemetry for a server's blocking executor — the
/// queue feeding its fixed set of worker threads: how deep the queue runs,
/// how long requests sit in it before a worker picks them up, and how many
/// workers are busy. One item per offloaded request.
///
/// All fields are plain atomics recorded unconditionally: saturation data
/// must exist even when the `recording` bench turns event recording off,
/// and a handful of relaxed atomic ops per queued item is far below the
/// always-on budget.
#[derive(Debug, Default)]
pub struct PoolTelemetry {
    workers: AtomicU64,
    queued: AtomicU64,
    queued_peak: AtomicU64,
    busy: AtomicU64,
    busy_peak: AtomicU64,
    rejected: AtomicU64,
    queue_wait: AtomicHistogram,
}

/// A point-in-time copy of a [`PoolTelemetry`].
#[derive(Debug, Clone)]
pub struct SaturationSnapshot {
    /// Configured worker threads.
    pub workers: u64,
    /// Items currently queued, waiting for a worker.
    pub queue_depth: u64,
    /// Deepest the queue has been since start.
    pub queue_depth_peak: u64,
    /// Workers currently running an item.
    pub busy_workers: u64,
    /// Most workers simultaneously busy since start.
    pub busy_workers_peak: u64,
    /// Items refused because the queue was full or closed.
    pub rejected: u64,
    /// Time items spent queued before a worker claimed them.
    pub queue_wait: LatencyHistogram,
}

impl PoolTelemetry {
    fn raise_peak(peak: &AtomicU64, value: u64) {
        // Same cheap discipline as `AtomicHistogram::record_ms`: skip the
        // CAS loop unless this is actually a new peak.
        if value > peak.load(Ordering::Relaxed) {
            peak.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    fn enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        Self::raise_peak(&self.queued_peak, depth);
    }

    fn enqueue_failed(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn dequeued(&self, wait: Duration) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record(wait);
    }

    fn task_started(&self) {
        let busy = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
        Self::raise_peak(&self.busy_peak, busy);
    }

    fn task_finished(&self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every gauge, peak, and the wait histogram.
    pub fn snapshot(&self) -> SaturationSnapshot {
        SaturationSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Relaxed),
            queue_depth_peak: self.queued_peak.load(Ordering::Relaxed),
            busy_workers: self.busy.load(Ordering::Relaxed),
            busy_workers_peak: self.busy_peak.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing
// ---------------------------------------------------------------------------

/// Work delivered *to* an event loop by other threads.
enum Inbound<C> {
    /// A freshly accepted connection (with its accept timestamp, so the
    /// handoff delay becomes the connection's queue-wait attribution).
    Conn(TcpStream, Instant),
    /// The step an executor job came back with, for the request on
    /// connection `token`.
    Step { token: u64, step: Step<C> },
    /// A [`Waker`] fired for wait number `seq` of connection `token`.
    Wake { token: u64, seq: u64 },
    /// Close the idle upstream connections to this address.
    ForgetUpstream(SocketAddr),
    /// Sever every client connection and every idle upstream connection
    /// this loop owns, then ack. The ack makes [`Server::drop_all`]
    /// synchronous from the caller's side (it returns only after every
    /// socket is closed) — the sequential chaos driver relies on that.
    DropAll(Sender<()>),
}

struct LoopShared<C> {
    inbox: Mutex<Vec<Inbound<C>>>,
    wake: WakeFd,
}

impl<C> LoopShared<C> {
    fn send(&self, item: Inbound<C>) {
        self.inbox.lock().push(item);
        self.wake.wake();
    }
}

/// One offloaded step: everything an executor thread needs to run
/// [`FrameService::resume`] and route the next step home.
struct Job<C> {
    loop_id: usize,
    token: u64,
    /// The [`Seat::seq`] the request had when it left the loop.
    seq: u64,
    cont: C,
    enqueued: Instant,
}

/// A loop timer's place in the queue: when it is due, and a tiebreaker.
/// Whoever arms a timer keeps its key and removes the entry when the timer
/// is no longer wanted, so the queue never holds a dead one.
type TimerKey = (Instant, u64);

/// What a loop timer does when it comes due.
enum Timer {
    /// Queue the second half of connection `token`'s stalled reply (the
    /// stall kinds: the loop arms a timer and keeps serving everyone else).
    StallRest { token: u64, rest: Vec<u8> },
    /// End connection `token`'s wait: its budget ran out.
    WaitOver { token: u64 },
    /// Fail the exchange on upstream connection `token`: its deadline
    /// passed.
    Deadline { token: u64 },
    /// Close the upstream connections idle past the limit.
    Reap,
}

// ---------------------------------------------------------------------------
// Per-connection state machines
// ---------------------------------------------------------------------------

/// A connection this server accepted.
struct Conn<C> {
    stream: TcpStream,
    /// Epoll/loop-local token.
    token: u64,
    peer_ip: IpAddr,
    /// See [`FrameCtx::queue_wait`].
    queue_wait: Option<Duration>,
    parser: FrameParser,
    wq: WriteQueue,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// A request is suspended (asking, offloaded, waiting) or a stall
    /// timer is pending: buffered frames wait, so replies leave in request
    /// order.
    busy: bool,
    /// The fault drawn for the request in flight, applied to its reply.
    fault: Option<FaultKind>,
    /// The request in flight, while it sits in a [`Step::Wait`].
    parked: Option<C>,
    /// The pending stall or wait timer (a connection has one at most).
    timer: Option<TimerKey>,
    /// Waits this connection's requests have entered; a [`Waker`] names
    /// the wait it was made for by this number.
    waits: u64,
    /// Nothing more is read; close once `busy` clears and the write queue
    /// drains. Set by the sender's EOF (frames buffered ahead of it are
    /// still answered) and by a truncation fault.
    closing: bool,
}

/// A connection this server opened to an upstream: idle (listed in the
/// loop's [`IdleSet`]) or carrying one exchange.
struct UpConn<C> {
    stream: TcpStream,
    addr: SocketAddr,
    upstream: Upstream,
    parser: FrameParser,
    wq: WriteQueue,
    interest: u32,
    /// The nonblocking connect has not completed yet.
    connecting: bool,
    /// The reply whose head is in and whose body is arriving.
    filling: Option<ReplyFill>,
    exchange: Option<Exchange<C>>,
}

/// The exchange an upstream connection is carrying.
struct Exchange<C> {
    /// The client connection whose request asked.
    client: u64,
    /// Kept whole: an origin exchange that fails on a reused connection
    /// is sent again on a fresh one.
    ask: Ask,
    cont: C,
    /// The connection came out of the idle set.
    reused: bool,
    deadline: TimerKey,
}

/// An upstream reply between its head and the last byte of its body. The
/// body is read straight into the `Content-Length`-sized allocation every
/// later holder shares — never grown through the parser buffer and copied
/// out.
struct ReplyFill {
    msg: Message,
    body: Body,
    filled: usize,
    /// Updated with every chunk as it lands, so an origin body's digest is
    /// ready with its last byte (`Md5::update` is exact at every split).
    md5: Option<Md5>,
}

impl<C> UpConn<C> {
    /// Reads what the socket holds of the reply: `Ok(Some)` once it is
    /// complete, `Ok(None)` if more is to come. The head comes through the
    /// frame parser; the body is read one chunk per call, so a large one
    /// yields to the loop's other connections between chunks
    /// (level-triggered readiness brings the loop back for the next).
    fn read_reply(&mut self, scratch: &mut [u8]) -> io::Result<Option<Answer>> {
        let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "upstream hung up");
        loop {
            let Some(fill) = &mut self.filling else {
                match self.stream.read(scratch) {
                    Ok(0) => return Err(eof()),
                    Ok(n) => {
                        self.parser.push(&scratch[..n]);
                        let Some((msg, len)) = self.parser.next_head()? else {
                            if n < scratch.len() {
                                return Ok(None);
                            }
                            continue;
                        };
                        // `len` is bounded by `MAX_BODY` (the head parser
                        // refuses more).
                        let mut body = zeroed_body(len);
                        let bytes =
                            Arc::get_mut(&mut body).expect("a freshly built Arc has one holder");
                        let filled = self.parser.drain_into(bytes);
                        let md5 = (self.upstream == Upstream::Origin).then(|| {
                            let mut md5 = Md5::new();
                            md5.update(&bytes[..filled]);
                            md5
                        });
                        self.filling = Some(ReplyFill {
                            msg,
                            body,
                            filled,
                            md5,
                        });
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            let bytes = Arc::get_mut(&mut fill.body).expect("shared only once complete");
            let end = bytes.len().min(fill.filled + READ_CHUNK);
            if fill.filled < end {
                match self.stream.read(&mut bytes[fill.filled..end]) {
                    Ok(0) => return Err(eof()),
                    Ok(n) => {
                        if let Some(md5) = &mut fill.md5 {
                            md5.update(&bytes[fill.filled..fill.filled + n]);
                        }
                        fill.filled += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            if fill.filled < bytes.len() {
                return Ok(None);
            }
            let done = self.filling.take().expect("checked above");
            let mut reply = done.msg;
            reply.body = done.body;
            return Ok(Some(Answer {
                reply,
                body_md5: done.md5.map(Md5::finalize),
            }));
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

struct EventLoop<S: FrameService> {
    /// Names the executor's threads.
    server: String,
    id: usize,
    epoll: Epoll,
    /// Every loop's inbox; this loop's is `loops[id]`.
    loops: Arc<Vec<Arc<LoopShared<S::Cont>>>>,
    conns: HashMap<u64, Conn<S::Cont>>,
    /// Upstream connections, idle and busy, by token ([`UPSTREAM_BIT`] set).
    ups: HashMap<u64, UpConn<S::Cont>>,
    /// Which of `ups` are idle.
    idle: IdleSet,
    /// A [`Timer::Reap`] is pending.
    reaping: bool,
    next_token: u64,
    timers: BTreeMap<TimerKey, Timer>,
    next_timer: u64,
    service: Arc<S>,
    jobs: Arc<JobQueue<S::Cont>>,
    executor_threads: usize,
    pool_telemetry: Arc<PoolTelemetry>,
    telemetry: Arc<ReactorTelemetry>,
    stop: Arc<AtomicBool>,
    scratch: Vec<u8>,
}

impl<S: FrameService> EventLoop<S> {
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
                    self.loops[self.id].wake.drain();
                    self.drain_inbox();
                } else if token & UPSTREAM_BIT != 0 {
                    self.on_upstream_ready(token, bits);
                } else {
                    self.on_ready(token, bits);
                }
            }
            self.fire_timers();
            self.telemetry.add_busy(t_busy.elapsed());
        }
    }

    // -- timers -------------------------------------------------------------

    fn next_timeout(&self) -> Option<Duration> {
        let ((at, _), _) = self.timers.first_key_value()?;
        Some(at.saturating_duration_since(Instant::now()))
    }

    fn arm(&mut self, after: Duration, timer: Timer) -> TimerKey {
        let key = (Instant::now() + after, self.next_timer);
        self.next_timer += 1;
        self.timers.insert(key, timer);
        key
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(first) = self.timers.first_entry() {
            if first.key().0 > now {
                break;
            }
            match first.remove() {
                // Deliver the second half of a stalled frame.
                Timer::StallRest { token, rest } => self.with_conn(token, |_, conn| {
                    conn.timer = None;
                    conn.wq.push_owned(rest);
                    conn.busy = false;
                    true
                }),
                Timer::WaitOver { token } => self.end_wait(token, None),
                Timer::Deadline { token } => {
                    // Armed with the exchange, removed with it: the
                    // connection is there and busy.
                    if let Some(up) = self.ups.remove(&token) {
                        let late = io::Error::new(
                            io::ErrorKind::TimedOut,
                            "upstream exchange passed its deadline",
                        );
                        self.fail_exchange(up, late);
                    }
                }
                Timer::Reap => {
                    self.reaping = false;
                    for token in self.idle.expired(now) {
                        self.close_idle(token);
                    }
                    self.arm_reaper();
                }
            }
        }
    }

    /// Keeps one [`Timer::Reap`] pending while anything is idle.
    fn arm_reaper(&mut self) {
        if !self.reaping && !self.idle.is_empty() {
            self.reaping = true;
            self.arm(REAP_TICK, Timer::Reap);
        }
    }

    // -- the inbox ----------------------------------------------------------

    fn drain_inbox(&mut self) {
        let inbound = std::mem::take(&mut *self.loops[self.id].inbox.lock());
        for item in inbound {
            match item {
                Inbound::Conn(stream, accepted) => self.add_conn(stream, accepted),
                Inbound::Step { token, step } => {
                    let conn = self.conns.remove(&token);
                    self.settle(token, conn, step);
                }
                Inbound::Wake { token, seq } => self.end_wait(token, Some(seq)),
                Inbound::ForgetUpstream(addr) => self.forget_upstream(addr),
                Inbound::DropAll(ack) => {
                    // Closing the stream is the severing: the loop is the
                    // fd's only owner — no duplicate handle exists anywhere,
                    // which is what keeps 10k idle connections at 10k
                    // server-side fds instead of 20k. Exchanges in flight
                    // run on (a coalescing leader still owes its followers
                    // an outcome); their replies find no connection.
                    for (_, conn) in std::mem::take(&mut self.conns) {
                        self.drop_conn(conn);
                    }
                    for token in self.idle.clear() {
                        self.close_idle(token);
                    }
                    let _ = ack.send(());
                }
            }
        }
    }

    // -- accepted connections -------------------------------------------------

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
                queue_wait: Some(accepted.elapsed()),
                parser: FrameParser::new(),
                wq: WriteQueue::new(),
                interest,
                busy: false,
                fault: None,
                parked: None,
                timer: None,
                waits: 0,
                closing: false,
            },
        );
    }

    fn drop_conn(&mut self, conn: Conn<S::Cont>) {
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.telemetry.conn_closed();
        if let Some(key) = conn.timer {
            self.timers.remove(&key);
        }
        if conn.parked.is_some() {
            self.telemetry.parked.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Runs `step` on connection `token` (which may have died in the
    /// meantime), then whatever I/O became possible; a `false` from either
    /// closes the connection.
    fn with_conn(&mut self, token: u64, step: impl FnOnce(&mut Self, &mut Conn<S::Cont>) -> bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if step(self, &mut conn) && self.after_io(&mut conn) {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    fn on_ready(&mut self, token: u64, bits: u32) {
        self.with_conn(token, |this, conn| {
            // A hang-up means both directions are gone: nothing buffered
            // could be answered any more.
            bits & (EV_ERROR | EV_HUP) == 0
                && (bits & (EV_READ | EV_RDHUP) == 0 || this.drive_readable(conn))
        });
    }

    /// Reads until the socket would block or ends, feeding the frame
    /// parser. `false` = hard error: close now.
    fn drive_readable(&mut self, conn: &mut Conn<S::Cont>) -> bool {
        loop {
            match conn.stream.read(&mut self.scratch) {
                // What is already buffered may hold whole frames (a sender
                // whose last write filled a chunk exactly and then closed):
                // `after_io` answers them before closing, as a blocking
                // `read_message` loop would.
                Ok(0) => {
                    conn.closing = true;
                    return true;
                }
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
    /// mid-request), flushes pending writes, and re-arms epoll interest.
    /// `false` = close the connection.
    fn after_io(&mut self, conn: &mut Conn<S::Cont>) -> bool {
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
                if conn.closing && !conn.busy {
                    return false;
                }
            }
            Ok(false) => {}
            Err(_) => return false,
        }
        self.update_interest(conn)
    }

    fn update_interest(&mut self, conn: &mut Conn<S::Cont>) -> bool {
        // A closing connection has read its last byte; level-triggered
        // read interest in its EOF would spin the loop.
        let mut want = if conn.closing { 0 } else { EV_READ | EV_RDHUP };
        if !conn.wq.is_empty() {
            want |= EV_WRITE;
        }
        self.rearm(&conn.stream, conn.token, &mut conn.interest, want)
            .is_ok()
    }

    /// Registers `want` as `stream`'s interest mask unless it is already.
    fn rearm(
        &self,
        stream: &TcpStream,
        token: u64,
        interest: &mut u32,
        want: u32,
    ) -> io::Result<()> {
        if want != *interest {
            self.epoll.modify(stream.as_raw_fd(), token, want)?;
            *interest = want;
        }
        Ok(())
    }

    // -- requests -------------------------------------------------------------

    fn seat(&self, token: u64, conn: Option<&Conn<S::Cont>>) -> Seat<'_> {
        Seat {
            loops: &*self.loops,
            loop_id: self.id,
            token,
            seq: conn.map_or(0, |conn| conn.waits + 1),
        }
    }

    /// One complete request frame: draw the service's fault decision (one
    /// RNG draw per covered frame, in arrival order), ask the service for
    /// the request's first step and take it. `false` = close.
    fn handle_frame(&mut self, conn: &mut Conn<S::Cont>, msg: Message) -> bool {
        let service = &self.service;
        let fault = service.faults().and_then(|plan| service.fault(plan, &msg));
        if fault.is_some_and(FaultKind::drops) {
            // Sever before handling: the sender sees EOF.
            return false;
        }
        conn.busy = true;
        conn.fault = fault;
        let mut ctx = FrameCtx {
            peer_ip: conn.peer_ip,
            queue_wait: conn.queue_wait,
            seat: self.seat(conn.token, Some(conn)),
        };
        let step = self.service.handle(&msg, fault, &mut ctx);
        conn.queue_wait = ctx.queue_wait;
        if matches!(step, Step::Reply(_)) {
            self.telemetry.inline();
        }
        self.take_step(conn.token, Some(conn), step)
    }

    /// Resumes the request of connection `token` — which may be gone, in
    /// which case the request still runs to its end (a coalescing leader
    /// owes its followers an outcome) and its reply is dropped. Only for
    /// callers holding no connection out of the table.
    fn resume(&mut self, token: u64, cont: S::Cont, event: Event) {
        let conn = self.conns.remove(&token);
        let step = self
            .service
            .resume(cont, event, &self.seat(token, conn.as_ref()));
        self.settle(token, conn, step);
    }

    /// Takes `step` for the request of connection `token`, whose
    /// connection — if it still exists — the caller took out of the table;
    /// then does the connection's pending I/O and puts it back, or closes
    /// it.
    fn settle(&mut self, token: u64, conn: Option<Conn<S::Cont>>, step: Step<S::Cont>) {
        let Some(mut conn) = conn else {
            self.take_step(token, None, step);
            return;
        };
        if self.take_step(token, Some(&mut conn), step) && self.after_io(&mut conn) {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    /// Does what `step` says for the request of connection `token`
    /// (`conn`: that connection, unless it is gone). `false` = close it.
    fn take_step(
        &mut self,
        token: u64,
        conn: Option<&mut Conn<S::Cont>>,
        mut step: Step<S::Cont>,
    ) -> bool {
        loop {
            match step {
                Step::Reply(reply) => {
                    let Some(conn) = conn else { return true };
                    conn.busy = false;
                    let fault = conn.fault.take();
                    return reply.is_none_or(|reply| self.enqueue_reply(conn, &reply, fault));
                }
                Step::Ask(ask, cont) => match self.start_exchange(token, ask, cont, false) {
                    Ok(()) => return true,
                    // Failed before anything was in flight: the service
                    // hears of it here and now.
                    Err((cont, e)) => {
                        let seat = self.seat(token, conn.as_deref());
                        step = self.service.resume(cont, Event::Answer(Err(e)), &seat);
                    }
                },
                Step::Offload(cont) => {
                    self.telemetry.offload();
                    self.pool_telemetry.enqueued();
                    let job = Job {
                        loop_id: self.id,
                        token,
                        seq: self.seat(token, conn.as_deref()).seq,
                        cont,
                        enqueued: Instant::now(),
                    };
                    if !self.jobs.push(job, || self.start_executor()) {
                        self.pool_telemetry.enqueue_failed();
                        return false; // shutting down, or nothing to run it on
                    }
                    return true;
                }
                Step::Wait(budget, cont) => {
                    // Nobody is left to answer: the request ends here.
                    let Some(conn) = conn else { return true };
                    conn.waits += 1;
                    conn.parked = Some(cont);
                    conn.timer = Some(self.arm(budget, Timer::WaitOver { token }));
                    self.telemetry.parked.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
    }

    /// Ends the wait connection `token`'s request is parked in — wait
    /// number `seq` if a [`Waker`] says so (one made for an earlier wait is
    /// late and ignored), whichever it is if its timer does.
    fn end_wait(&mut self, token: u64, seq: Option<u64>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if seq.is_some_and(|seq| seq != conn.waits) {
            return;
        }
        let Some(cont) = conn.parked.take() else {
            return;
        };
        if let Some(key) = conn.timer.take() {
            self.timers.remove(&key);
        }
        self.telemetry.parked.fetch_sub(1, Ordering::Relaxed);
        self.resume(token, cont, Event::Wake);
    }

    /// Spawns the executor's threads (`{server}-exec-N`); returns those that
    /// started.
    fn start_executor(&self) -> Vec<JoinHandle<()>> {
        (0..self.executor_threads)
            .filter_map(|i| {
                let (jobs, service, loops, pool_telemetry) = (
                    Arc::clone(&self.jobs),
                    Arc::clone(&self.service),
                    Arc::clone(&self.loops),
                    Arc::clone(&self.pool_telemetry),
                );
                std::thread::Builder::new()
                    .name(format!("{}-exec-{i}", self.server))
                    .spawn(move || executor_loop(&jobs, &*service, &loops, &pool_telemetry))
                    .ok()
            })
            .collect()
    }

    /// Queues a reply, applying the wire-level effect of `fault` — the one
    /// implementation of corrupt / truncate / stall for every server. A
    /// stall arms a loop timer; no thread sleeps. `false` = close.
    fn enqueue_reply(
        &mut self,
        conn: &mut Conn<S::Cont>,
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
                conn.closing = true;
                true
            }
            Some(WireFault::Stall) => {
                let Ok(frame) = encode_message(reply) else {
                    return false;
                };
                let half = frame.len() / 2;
                conn.wq.push_owned(frame[..half].to_vec());
                // No further requests on this connection until the frame
                // completes.
                conn.busy = true;
                let stall = self
                    .service
                    .faults()
                    .map_or(Duration::ZERO, FaultPlan::stall);
                let rest = Timer::StallRest {
                    token: conn.token,
                    rest: frame[half..].to_vec(),
                };
                conn.timer = Some(self.arm(stall, rest));
                true
            }
        }
    }

    // -- upstream connections (rules: `upstream.rs`) ---------------------------

    /// Starts the exchange `ask` describes for the request of connection
    /// `client`: on an idle connection to the address if this loop has one
    /// (unless `fresh`), on a new one otherwise. The answer resumes `cont`
    /// later; an `Err` is a failure before anything was in flight and
    /// hands `cont` back.
    fn start_exchange(
        &mut self,
        client: u64,
        ask: Ask,
        cont: S::Cont,
        fresh: bool,
    ) -> Result<(), (S::Cont, io::Error)> {
        let head = match encode_head(&ask.request) {
            Ok(head) => head.into_bytes(),
            Err(e) => return Err((cont, e)),
        };
        let kind = ask.upstream as usize;
        let idle = if fresh {
            None
        } else {
            self.idle.take(ask.addr)
        };
        let reused = idle.is_some();
        let (token, mut up) = match idle {
            Some(token) => {
                let up = self.ups.remove(&token).expect("idle tokens name live ones");
                let counters = &self.telemetry.upstream;
                counters.idle[kind].fetch_sub(1, Ordering::Relaxed);
                counters.reuses[kind].fetch_add(1, Ordering::Relaxed);
                (token, up)
            }
            None => match self.dial(&ask) {
                Ok(dialed) => dialed,
                Err(e) => {
                    // Nobody is listening there any more: whatever is
                    // parked for the address is dead weight.
                    self.forget_upstream(ask.addr);
                    return Err((cont, e));
                }
            },
        };
        up.wq.push_owned(head);
        up.wq.push_shared(Arc::clone(&ask.request.body));
        // A reused connection is writable now; a new one says so when its
        // connect completes.
        if reused {
            if let Err(e) = self.flush_upstream(token, &mut up) {
                self.close_upstream(up);
                return self.redial_or(client, ask, cont, e);
            }
        }
        let deadline = self.arm(ask.deadline, Timer::Deadline { token });
        up.exchange = Some(Exchange {
            client,
            ask,
            cont,
            reused,
            deadline,
        });
        self.telemetry.exchanges.fetch_add(1, Ordering::Relaxed);
        self.ups.insert(token, up);
        Ok(())
    }

    /// An exchange failed with `e` on a reused connection (now closed). An
    /// origin exchange is sent once more on a fresh one — the connection
    /// may have died under the request without the origin ever being heard
    /// to fail, so this does not count against `origin_retries`; a peer's
    /// failure stands (peers draw a fault per PEERGET, and `peer_retries`
    /// covers them).
    fn redial_or(
        &mut self,
        client: u64,
        ask: Ask,
        cont: S::Cont,
        e: io::Error,
    ) -> Result<(), (S::Cont, io::Error)> {
        if ask.upstream == Upstream::Origin {
            self.start_exchange(client, ask, cont, true)
        } else {
            Err((cont, e))
        }
    }

    /// Begins a nonblocking connect to `ask.addr`.
    fn dial(&mut self, ask: &Ask) -> io::Result<(u64, UpConn<S::Cont>)> {
        let stream = connect_nonblocking(ask.addr)?;
        let token = self.next_token | UPSTREAM_BIT;
        self.next_token += 1;
        let interest = EV_READ | EV_WRITE | EV_RDHUP;
        self.epoll.add(stream.as_raw_fd(), token, interest)?;
        Ok((
            token,
            UpConn {
                stream,
                addr: ask.addr,
                upstream: ask.upstream,
                parser: FrameParser::new(),
                wq: WriteQueue::new(),
                interest,
                connecting: true,
                filling: None,
                exchange: None,
            },
        ))
    }

    /// Writes what is queued and keeps write interest armed exactly while
    /// something still is.
    fn flush_upstream(&mut self, token: u64, up: &mut UpConn<S::Cont>) -> io::Result<()> {
        up.wq.flush(&mut up.stream)?;
        let mut want = EV_READ | EV_RDHUP;
        if !up.wq.is_empty() {
            want |= EV_WRITE;
        }
        self.rearm(&up.stream, token, &mut up.interest, want)
    }

    fn close_upstream(&mut self, up: UpConn<S::Cont>) {
        let _ = self.epoll.delete(up.stream.as_raw_fd());
    }

    /// Closes a connection the idle set just gave up.
    fn close_idle(&mut self, token: u64) {
        if let Some(up) = self.ups.remove(&token) {
            self.telemetry.upstream.idle[up.upstream as usize].fetch_sub(1, Ordering::Relaxed);
            self.close_upstream(up);
        }
    }

    fn forget_upstream(&mut self, addr: SocketAddr) {
        for token in self.idle.forget(addr) {
            self.close_idle(token);
        }
    }

    fn on_upstream_ready(&mut self, token: u64, bits: u32) {
        let Some(mut up) = self.ups.remove(&token) else {
            return;
        };
        if up.exchange.is_none() {
            // Nothing was asked of it: its far end closed it, or sent
            // bytes nobody is waiting for. Either way it is out of use
            // before it could cost a request.
            self.idle.remove(up.addr, token);
            let counters = &self.telemetry.upstream;
            counters.idle[up.upstream as usize].fetch_sub(1, Ordering::Relaxed);
            counters.stale.fetch_add(1, Ordering::Relaxed);
            self.close_upstream(up);
            return;
        }
        match self.drive_upstream(token, &mut up, bits) {
            Ok(None) => {
                self.ups.insert(token, up);
            }
            Ok(Some(answer)) => {
                let done = up.exchange.take().expect("checked above");
                self.timers.remove(&done.deadline);
                self.telemetry.exchanges.fetch_sub(1, Ordering::Relaxed);
                // Back to the idle set only in step with its requests:
                // nothing buffered behind the reply's frame.
                if up.parser.is_idle() && self.idle.park(up.addr, token, Instant::now()) {
                    let counters = &self.telemetry.upstream;
                    counters.idle[up.upstream as usize].fetch_add(1, Ordering::Relaxed);
                    self.ups.insert(token, up);
                    self.arm_reaper();
                } else {
                    self.close_upstream(up);
                }
                self.resume(done.client, done.cont, Event::Answer(Ok(answer)));
            }
            Err(e) => self.fail_exchange(up, e),
        }
    }

    /// Moves a busy upstream connection along: completes its connect,
    /// writes its request, reads its reply.
    fn drive_upstream(
        &mut self,
        token: u64,
        up: &mut UpConn<S::Cont>,
        bits: u32,
    ) -> io::Result<Option<Answer>> {
        if up.connecting {
            if bits & (EV_WRITE | EV_ERROR | EV_HUP) == 0 {
                return Ok(None);
            }
            if let Some(e) = up.stream.take_error()? {
                return Err(e);
            }
            up.connecting = false;
            let _ = up.stream.set_nodelay(true);
            self.telemetry.upstream.dials[up.upstream as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.flush_upstream(token, up)?;
        // An error or hang-up surfaces through the read as well.
        if bits & (EV_READ | EV_RDHUP | EV_ERROR | EV_HUP) != 0 {
            return up.read_reply(&mut self.scratch);
        }
        Ok(None)
    }

    /// Ends the exchange on `up` (already out of the table) without an
    /// answer and closes the connection: a desynchronised stream is never
    /// reused.
    fn fail_exchange(&mut self, mut up: UpConn<S::Cont>, e: io::Error) {
        let failed = up.exchange.take().expect("only busy connections fail");
        self.timers.remove(&failed.deadline);
        self.telemetry.exchanges.fetch_sub(1, Ordering::Relaxed);
        if up.connecting {
            self.forget_upstream(up.addr);
        }
        self.close_upstream(up);
        let (cont, e) = if failed.reused {
            match self.redial_or(failed.client, failed.ask, failed.cont, e) {
                Ok(()) => return,
                Err(stands) => stands,
            }
        } else {
            (failed.cont, e)
        };
        self.resume(failed.client, cont, Event::Answer(Err(e)));
    }
}

// ---------------------------------------------------------------------------
// The server shell: acceptor + loops + executor
// ---------------------------------------------------------------------------

/// The executor: a job queue — one mutex-guarded deque and one condvar, so
/// a push wakes exactly one parked worker — and the worker threads behind
/// it, which the first push starts: a server that never offloads (the
/// origin; a memory-only proxy; a browser's peer port) never runs them. (An `mpsc::Receiver` shared behind a mutex wakes two workers
/// per job — the one parked in `recv` and the next one parked on the mutex
/// — which cost `disk-storm` +36 % p99; see DESIGN.md §13.)
struct JobQueue<C> {
    state: Mutex<QueueState<C>>,
    ready: Condvar,
}

struct QueueState<C> {
    /// Pending jobs; `None` once [`JobQueue::close`] has been called.
    jobs: Option<VecDeque<Job<C>>>,
    /// The worker threads; `None` until the first push starts them.
    workers: Option<Vec<JoinHandle<()>>>,
}

impl<C> JobQueue<C> {
    /// Queues a job; the first call runs `start` for the worker threads.
    /// `false` once the queue is closed, or if there is no worker to run
    /// the job (none configured, or none could be spawned): the loop then
    /// closes the connection rather than leave it waiting.
    fn push(&self, job: Job<C>, start: impl FnOnce() -> Vec<JoinHandle<()>>) -> bool {
        let mut st = self.state.lock();
        let QueueState {
            jobs: Some(queue),
            workers,
        } = &mut *st
        else {
            return false;
        };
        if workers.get_or_insert_with(start).is_empty() {
            return false;
        }
        queue.push_back(job);
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Parks until a job arrives; `None` once the queue is closed.
    fn pop(&self) -> Option<Job<C>> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.as_mut()?.pop_front() {
                return Some(job);
            }
            self.ready.wait(&mut st);
        }
    }

    /// Refuses further pushes, abandons jobs still queued (their loops
    /// are already gone) and wakes every parked worker to exit. Returns
    /// the workers, to be joined.
    fn close(&self) -> Vec<JoinHandle<()>> {
        let mut st = self.state.lock();
        let abandoned = st.jobs.take();
        let workers = st.workers.take().unwrap_or_default();
        drop(st);
        self.ready.notify_all();
        // Dropped outside the lock: a continuation may do work as it goes
        // (a coalescing leader releases its followers).
        drop(abandoned);
        workers
    }
}

/// A running BAPS server — the proxy's client port, the origin, a
/// browser's peer port: a blocking acceptor thread feeding `loops` event
/// loops, plus `executor_threads` blocking threads — started by the first
/// [`Step::Offload`] — to run such steps. The loops are the sole owners of
/// their sockets — one fd per connection, accepted or upstream, which is
/// what lets a 10k-idle-connection ladder fit in an ordinary fd table. `C`
/// is the service's [`FrameService::Cont`].
pub(crate) struct Server<C> {
    addr: SocketAddr,
    /// The bound listening socket; the acceptor thread runs on a clone.
    listener: TcpListener,
    shared: Arc<Vec<Arc<LoopShared<C>>>>,
    jobs: Arc<JobQueue<C>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<ReactorTelemetry>,
    /// Acceptor (`{name}`) and loops (`{name}-loop-N`); the executor's
    /// threads are the job queue's.
    io_threads: Vec<JoinHandle<()>>,
}

impl<C: Send + 'static> Server<C> {
    /// Binds an ephemeral loopback port and starts serving on it.
    pub(crate) fn bind<S: FrameService<Cont = C>>(
        name: &str,
        service: Arc<S>,
        loops: usize,
        executor_threads: usize,
    ) -> io::Result<Server<C>> {
        Server::start_on(
            TcpListener::bind("127.0.0.1:0")?,
            name,
            service,
            loops,
            executor_threads,
            Arc::default(),
            Arc::default(),
        )
    }

    /// Starts serving on an already-bound listener. `telemetry` tracks the
    /// loops, `pool_telemetry` the executor's queue/busy gauges. A service
    /// that ever offloads needs `executor_threads ≥ 1` (without them such
    /// a step closes its connection).
    pub(crate) fn start_on<S: FrameService<Cont = C>>(
        listener: TcpListener,
        name: &str,
        service: Arc<S>,
        loops: usize,
        executor_threads: usize,
        telemetry: Arc<ReactorTelemetry>,
        pool_telemetry: Arc<PoolTelemetry>,
    ) -> io::Result<Server<C>> {
        let addr = listener.local_addr()?;
        telemetry.set_loops(loops as u64);
        pool_telemetry.set_workers(executor_threads as u64);
        let stop = Arc::new(AtomicBool::new(false));

        let mut epolls = Vec::with_capacity(loops);
        let mut shared = Vec::with_capacity(loops);
        for _ in 0..loops {
            let epoll = Epoll::new()?;
            let sh = Arc::new(LoopShared {
                inbox: Mutex::new(Vec::new()),
                wake: WakeFd::new()?,
            });
            epoll.add(sh.wake.raw(), WAKE_TOKEN, EV_READ)?;
            shared.push(sh);
            epolls.push(epoll);
        }
        let shared = Arc::new(shared);

        let jobs = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                jobs: Some(VecDeque::new()),
                workers: None,
            }),
            ready: Condvar::new(),
        });

        let mut io_threads = Vec::with_capacity(loops + 1);
        for (id, epoll) in epolls.into_iter().enumerate() {
            let ev_loop = EventLoop {
                server: name.to_owned(),
                id,
                epoll,
                loops: Arc::clone(&shared),
                conns: HashMap::new(),
                ups: HashMap::new(),
                idle: IdleSet::default(),
                reaping: false,
                next_token: 0,
                timers: BTreeMap::new(),
                next_timer: 0,
                service: Arc::clone(&service),
                jobs: Arc::clone(&jobs),
                executor_threads,
                pool_telemetry: Arc::clone(&pool_telemetry),
                telemetry: Arc::clone(&telemetry),
                stop: Arc::clone(&stop),
                scratch: vec![0u8; READ_CHUNK],
            };
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-loop-{id}"))
                    .spawn(move || ev_loop.run())?,
            );
        }

        // The acceptor never rejects: an idle connection costs a
        // registered fd, nothing more.
        let acceptor = listener.try_clone()?;
        let (stop_flag, loops_shared) = (Arc::clone(&stop), Arc::clone(&shared));
        io_threads.push(
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    for (i, conn) in acceptor.incoming().enumerate() {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        loops_shared[i % loops_shared.len()]
                            .send(Inbound::Conn(stream, Instant::now()));
                    }
                })?,
        );

        Ok(Server {
            addr,
            listener,
            shared,
            jobs,
            stop,
            telemetry,
            io_threads,
        })
    }
}

impl<C> Server<C> {
    /// The address to dial.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A second handle on the bound socket, so a restart can hand the same
    /// port to the next incarnation (no rebind, no address-in-use race —
    /// connections arriving during the gap queue in the kernel backlog).
    pub(crate) fn listener(&self) -> io::Result<TcpListener> {
        self.listener.try_clone()
    }

    /// Connections currently registered across the loops.
    pub(crate) fn open_connections(&self) -> usize {
        self.telemetry.snapshot().registered_fds as usize
    }

    /// Severs every open client connection and every idle upstream
    /// connection without stopping the server, returning once every loop
    /// has acked (callers may immediately assert on EOF).
    pub(crate) fn drop_all(&self) {
        let (tx, rx) = std::sync::mpsc::channel();
        for sh in self.shared.iter() {
            sh.send(Inbound::DropAll(tx.clone()));
        }
        drop(tx);
        for _ in 0..self.shared.len() {
            let _ = rx.recv();
        }
    }

    /// Stops accepting, closes every connection and joins every thread;
    /// idempotent. The loops never block in socket I/O, so the stop flag
    /// plus an eventfd wake ends them (each closes its own connections,
    /// accepted and upstream, on exit by dropping its tables, so keep-alive
    /// senders see EOF); the blocking acceptor is woken by a connect.
    pub(crate) fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        for sh in self.shared.iter() {
            sh.wake.wake();
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        // Parked workers wake and exit; a busy one exits after its job.
        for handle in self.jobs.close() {
            let _ = handle.join();
        }
        // Steps nobody will take any more; dropping them here also undoes
        // the one reference cycle there is (an inbox holding a leader's
        // continuation, whose followers' wakers hold the inbox).
        for sh in self.shared.iter() {
            let undelivered = std::mem::take(&mut *sh.inbox.lock());
            drop(undelivered);
        }
    }
}

impl<C> Drop for Server<C> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking executor for the steps a loop must not run inline (the
/// proxy's disk tier). Resumes the request with
/// [`Event::Run`], then routes its next step to the owning loop's inbox.
fn executor_loop<S: FrameService>(
    jobs: &JobQueue<S::Cont>,
    service: &S,
    shared: &Vec<Arc<LoopShared<S::Cont>>>,
    pool_telemetry: &PoolTelemetry,
) {
    while let Some(job) = jobs.pop() {
        pool_telemetry.dequeued(job.enqueued.elapsed());
        pool_telemetry.task_started();
        let seat = Seat {
            loops: shared,
            loop_id: job.loop_id,
            token: job.token,
            seq: job.seq,
        };
        let step = service.resume(job.cont, Event::Run, &seat);
        pool_telemetry.task_finished();
        shared[job.loop_id].send(Inbound::Step {
            token: job.token,
            step,
        });
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
        let msg = Message::new("METRICS BAPS/1.0");
        let mut parser = FrameParser::new();
        parser.push(&frame(&msg));
        let got = parser.next().unwrap().expect("frame");
        assert_eq!(got.start, "METRICS BAPS/1.0");
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

    /// Echoes each request's start line back as the reply body. A request
    /// whose verb is a fault kind's name "draws" that fault.
    struct Echo(FaultPlan);

    impl FrameService for Echo {
        type Cont = std::convert::Infallible;

        fn faults(&self) -> Option<&FaultPlan> {
            Some(&self.0)
        }

        fn fault(&self, _: &FaultPlan, msg: &Message) -> Option<FaultKind> {
            let verb = *msg.tokens().first()?;
            FaultKind::ALL.into_iter().find(|kind| kind.name() == verb)
        }

        fn handle(
            &self,
            msg: &Message,
            _: Option<FaultKind>,
            _: &mut FrameCtx<'_>,
        ) -> Step<Self::Cont> {
            Step::Reply(Some(
                response(status::OK, "OK").with_body(msg.start.clone().into_bytes()),
            ))
        }

        fn resume(&self, cont: Self::Cont, _: Event, _: &Seat<'_>) -> Step<Self::Cont> {
            match cont {}
        }
    }

    fn ask(conn: &mut BufReader<TcpStream>, start: &str) -> io::Result<Option<Message>> {
        conn.get_mut().write_all(&frame(&Message::new(start)))?;
        read_message(conn)
    }

    /// The loop's reply writer is the only implementation of the wire
    /// faults, for every server: check each effect as a reader sees it.
    /// (Stalls: `tests/live.rs`, on the real peer port and origin.)
    #[test]
    fn wire_faults_as_the_reader_sees_them() {
        let echo = Arc::new(Echo(FaultPlan::new(0, Default::default())));
        let server = Server::bind("echo", echo, 1, 0).unwrap();
        let dial = || BufReader::new(TcpStream::connect(server.addr()).unwrap());
        let mut conn = dial();

        // Corrupt: a well-formed frame of the right length, wrong bytes,
        // and the connection stays in sync.
        let bad = ask(&mut conn, "peer-corrupt /a").unwrap().unwrap();
        assert_eq!(bad.body[0], b'p' ^ 0xff);
        assert_eq!(&bad.body[1..], b"eer-corrupt /a");
        let good = ask(&mut conn, "GET /b").unwrap().unwrap();
        assert_eq!(&good.body[..], b"GET /b");

        // Drop: EOF instead of a reply.
        assert!(ask(&mut conn, "origin-drop /c").unwrap().is_none());

        // Truncate: half a frame, then EOF — unreadable.
        assert!(ask(&mut dial(), "peer-truncate /d").is_err());
    }
}
