//! The proxy's upstream connections (DESIGN.md §6a): what an event loop
//! is asked, what it answers, and the idle set it keeps between exchanges.
//!
//! Every exchange the proxy *initiates* — a `PEERGET` probe, an origin
//! `GET` / `If-Digest` — is one [`Ask`] a request's continuation hands its
//! event loop (`reactor.rs`): the loop takes a kept-alive connection to the
//! address out of its idle set (or starts a nonblocking connect), writes
//! the one request, reads the one reply and resumes the continuation with
//! it, framed. The connections are the loop's own — registered on its
//! epoll set beside the client connections, never shared between loops, so
//! nothing here locks. The rules that keep a reused byte stream trustworthy:
//!
//! * **Liveness by readiness.** An idle connection stays registered for
//!   `EPOLLIN | EPOLLRDHUP`. Its far end closing it, or sending bytes
//!   nobody asked for, is a readiness event on a connection with no
//!   exchange in flight: the loop drops it there and then (counted stale),
//!   before it can cost a request.
//! * **Park only in sync.** A connection returns to the idle set only
//!   after a fully framed reply (an error status is still a frame) with
//!   nothing buffered behind it. A transport error, an EOF, a truncated
//!   frame or an expired deadline closes it: a desynchronised stream is
//!   never reused.
//! * **Bounded idle sets.** [`IDLE_PER_ADDR`] per loop and address;
//!   connections idle longer than [`IDLE_LIMIT`] are closed by a loop
//!   timer — that is what gives both ends their descriptors back.
//!
//! Retry policy stays with the continuation (`peer_retries`,
//! `origin_retries`, backed off on loop timers), with one exception kept
//! from the blocking pool this replaces: an origin exchange that fails on
//! a *reused* connection redials once.

use crate::protocol::Message;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a connection may sit idle before its loop closes it.
pub(crate) const IDLE_LIMIT: Duration = Duration::from_secs(5);

/// Idle connections one event loop keeps per address. A loop has as many
/// exchanges with one address in flight as it has client connections
/// mid-miss on that address, and a connection beyond the idle set costs
/// one nonblocking connect, no thread — so the cap only bounds the
/// descriptors a burst leaves behind at the far end for [`IDLE_LIMIT`].
/// Eight is the width the blocking pool kept by default.
pub(crate) const IDLE_PER_ADDR: usize = 8;

/// Dials `addr` with `deadline` as the connect timeout and installs it as
/// the read/write timeout on the resulting stream, so no later blocking
/// operation on this socket can outlive it. What a browser dials its proxy
/// with; the proxy's own upstream connections are nonblocking and
/// loop-owned.
pub fn dial_with_deadline(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, deadline)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    Ok(stream)
}

/// Which kind of server an address belongs to: the label of the
/// per-upstream counters and the index into them. Only an origin exchange
/// redials after failing on a reused connection — peers draw a fault per
/// PEERGET, and `peer_retries` already covers them. Neither kind of reply
/// is hashed on arrival: an origin `200` declares its digest, minted where
/// the version was authored (DESIGN.md §5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Upstream {
    Peer = 0,
    Origin = 1,
}

/// `upstream` label values, indexed like [`UpstreamSnapshot::dials`].
pub(crate) const UPSTREAM_LABELS: [&str; 2] = ["peer", "origin"];

/// One upstream exchange, as a continuation asks its loop for it.
pub(crate) struct Ask {
    pub(crate) addr: SocketAddr,
    pub(crate) upstream: Upstream,
    /// Bounds the whole exchange — connect, request, reply.
    pub(crate) deadline: Duration,
    pub(crate) request: Message,
}

/// Always-on counters of every loop's upstream connections (`METRICS`
/// renders them).
#[derive(Debug, Default)]
pub(crate) struct UpstreamCounters {
    pub(crate) dials: [AtomicU64; 2],
    pub(crate) reuses: [AtomicU64; 2],
    pub(crate) stale: AtomicU64,
    pub(crate) idle: [AtomicU64; 2],
}

/// A point-in-time copy of the [`UpstreamCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpstreamSnapshot {
    /// Connections established, by [`UPSTREAM_LABELS`] index.
    pub(crate) dials: [u64; 2],
    /// Exchanges that rode a kept-alive connection, by the same index.
    pub(crate) reuses: [u64; 2],
    /// Idle connections a loop saw closed or written to by their far end.
    pub(crate) stale: u64,
    /// Connections idle right now, by the same index.
    pub(crate) idle: [u64; 2],
}

impl UpstreamCounters {
    pub(crate) fn snapshot(&self) -> UpstreamSnapshot {
        let load = |pair: &[AtomicU64; 2]| pair.each_ref().map(|n| n.load(Ordering::Relaxed));
        UpstreamSnapshot {
            dials: load(&self.dials),
            reuses: load(&self.reuses),
            stale: self.stale.load(Ordering::Relaxed),
            idle: load(&self.idle),
        }
    }
}

/// One loop's idle upstream connections, by address: the loop-local token
/// of each and when it was parked, oldest first. Pure bookkeeping — the
/// sockets live in the loop's connection table.
#[derive(Default)]
pub(crate) struct IdleSet {
    /// An address keeps its (possibly empty) list from one exchange to the
    /// next; [`expired`](Self::expired) sweeps the empty ones out.
    by_addr: HashMap<SocketAddr, Vec<(u64, Instant)>>,
    parked: usize,
}

impl IdleSet {
    /// Parks connection `token`; `false` (nothing recorded) when `addr`
    /// already holds [`IDLE_PER_ADDR`].
    pub(crate) fn park(&mut self, addr: SocketAddr, token: u64, now: Instant) -> bool {
        let parked = self.by_addr.entry(addr).or_default();
        if parked.len() >= IDLE_PER_ADDR {
            return false;
        }
        parked.push((token, now));
        self.parked += 1;
        true
    }

    /// Takes the most recently parked connection to `addr`.
    pub(crate) fn take(&mut self, addr: SocketAddr) -> Option<u64> {
        let (token, _) = self.by_addr.get_mut(&addr)?.pop()?;
        self.parked -= 1;
        Some(token)
    }

    /// Strikes connection `token` to `addr` off (it closed while idle).
    pub(crate) fn remove(&mut self, addr: SocketAddr, token: u64) {
        if let Some(parked) = self.by_addr.get_mut(&addr) {
            let before = parked.len();
            parked.retain(|&(t, _)| t != token);
            self.parked -= before - parked.len();
        }
    }

    /// Takes every connection parked for [`IDLE_LIMIT`] or longer as of
    /// `now`, and forgets addresses left with none.
    pub(crate) fn expired(&mut self, now: Instant) -> Vec<u64> {
        let mut expired = Vec::new();
        self.by_addr.retain(|_, parked| {
            let fresh = parked
                .partition_point(|&(_, since)| now.saturating_duration_since(since) >= IDLE_LIMIT);
            expired.extend(parked.drain(..fresh).map(|(token, _)| token));
            !parked.is_empty()
        });
        self.parked -= expired.len();
        expired
    }

    /// Takes every connection to `addr` (its REGISTER moved, or a dial to
    /// it failed).
    pub(crate) fn forget(&mut self, addr: SocketAddr) -> Vec<u64> {
        let parked = self.by_addr.remove(&addr).unwrap_or_default();
        self.parked -= parked.len();
        parked.into_iter().map(|(token, _)| token).collect()
    }

    /// Takes every connection.
    pub(crate) fn clear(&mut self) -> Vec<u64> {
        self.parked = 0;
        let all = std::mem::take(&mut self.by_addr);
        all.into_values()
            .flatten()
            .map(|(token, _)| token)
            .collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.parked == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::protocol::{
        encode_message, read_message, response, response_code, status, write_message,
    };
    use crate::reactor::{Event, FrameCtx, FrameService, ReactorTelemetry, Seat, Server, Step};
    use std::io::{BufReader, Write as _};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const DEADLINE: Duration = Duration::from_secs(5);

    // -- the idle set, with no socket in sight --------------------------------

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// One cap for every address; the most recently parked goes out first.
    #[test]
    fn idle_set_is_capped_per_address() {
        let mut idle = IdleSet::default();
        let now = Instant::now();
        for token in 0..IDLE_PER_ADDR as u64 + 2 {
            assert_eq!(
                idle.park(addr(1), token, now),
                token < IDLE_PER_ADDR as u64,
                "token {token}"
            );
        }
        assert!(idle.park(addr(2), 100, now), "the cap is per address");
        assert_eq!(idle.take(addr(1)), Some(IDLE_PER_ADDR as u64 - 1));
        assert_eq!(idle.forget(addr(1)).len(), IDLE_PER_ADDR - 1);
        assert_eq!(idle.take(addr(1)), None);
        assert_eq!(idle.clear(), [100]);
        assert!(idle.is_empty());
    }

    /// The reaper takes exactly the entries parked for `IDLE_LIMIT` or
    /// longer as of the instant it is given.
    #[test]
    fn reap_takes_exactly_the_expired() {
        let mut idle = IdleSet::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        idle.park(addr(1), 1, t0);
        idle.park(addr(1), 2, t0 + ms(20));
        idle.park(addr(2), 3, t0 + ms(10));
        assert!(idle.expired(t0 + IDLE_LIMIT - ms(1)).is_empty());
        assert_eq!(idle.expired(t0 + IDLE_LIMIT), [1]);
        let mut next = idle.expired(t0 + IDLE_LIMIT + ms(10));
        next.sort_unstable();
        assert_eq!(next, [3], "address 2 is left with none and forgotten");
        assert_eq!(idle.take(addr(2)), None);
        // A connection that closed while idle is simply struck off.
        idle.remove(addr(1), 2);
        assert!(idle.is_empty());
        assert!(idle.expired(t0 + IDLE_LIMIT * 2).is_empty());
    }

    // -- the loop-owned connections, against a scripted upstream ---------------

    /// What the scripted upstream does with the `n`-th request (counted
    /// across all its connections, from 0).
    #[derive(Clone, Copy)]
    enum Act {
        /// Reply `200` with the request's start line as the body.
        Echo,
        /// Reply `410 Gone` (a framed refusal).
        Gone,
        /// Reply honestly, then close the connection.
        EchoThenClose,
        /// Close the connection without replying.
        Drop,
        /// Write half a reply frame, then close.
        Truncate,
        /// Reply honestly, then push bytes nobody asked for.
        Babble,
        /// Reply honestly once this many requests have arrived in all.
        EchoAfter(u64),
    }

    /// A threaded keep-alive upstream: each connection loops over
    /// `read_message`; `script(n)` picks the reaction to request `n`.
    struct Scripted {
        addr: SocketAddr,
        accepted: Arc<AtomicU64>,
        requests: Arc<AtomicU64>,
        deaf: Arc<AtomicBool>,
    }

    fn scripted(script: impl Fn(u64) -> Act + Send + Sync + 'static) -> Scripted {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = Scripted {
            addr: listener.local_addr().unwrap(),
            accepted: Arc::default(),
            requests: Arc::default(),
            deaf: Arc::default(),
        };
        let (accepted, requests, deaf) = (
            Arc::clone(&upstream.accepted),
            Arc::clone(&upstream.requests),
            Arc::clone(&upstream.deaf),
        );
        let script = Arc::new(script);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if deaf.load(Ordering::SeqCst) {
                    return; // closes the listener; open connections live on
                }
                let Ok(stream) = stream else { break };
                accepted.fetch_add(1, Ordering::SeqCst);
                let requests = Arc::clone(&requests);
                let script = Arc::clone(&script);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    while let Ok(Some(msg)) = read_message(&mut reader) {
                        let n = requests.fetch_add(1, Ordering::SeqCst);
                        let echo =
                            response(status::OK, "OK").with_body(msg.start().as_bytes().to_vec());
                        let out = reader.get_mut();
                        match script(n) {
                            Act::Echo => write_message(out, &echo).unwrap(),
                            Act::Gone => {
                                write_message(out, &response(status::GONE, "Gone")).unwrap()
                            }
                            Act::EchoThenClose => {
                                write_message(out, &echo).unwrap();
                                return;
                            }
                            Act::Drop => return,
                            Act::Truncate => {
                                let frame = encode_message(&echo).unwrap();
                                out.write_all(&frame[..frame.len() / 2]).unwrap();
                                return;
                            }
                            Act::Babble => {
                                write_message(out, &echo).unwrap();
                                std::thread::sleep(Duration::from_millis(20));
                                out.write_all(b"BAPS/1.0 200 stray\r\n\r\n").unwrap();
                            }
                            Act::EchoAfter(all) => {
                                while requests.load(Ordering::SeqCst) < all {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                write_message(out, &echo).unwrap();
                            }
                        }
                    }
                });
            }
        });
        upstream
    }

    impl Scripted {
        fn accepted(&self) -> u64 {
            self.accepted.load(Ordering::SeqCst)
        }

        fn requests(&self) -> u64 {
            self.requests.load(Ordering::SeqCst)
        }

        /// Stops listening (connections already open stay served).
        fn stop_listening(&self) {
            self.deaf.store(true, Ordering::SeqCst);
            drop(TcpStream::connect(self.addr));
            while TcpStream::connect(self.addr).is_ok() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Relays every request to one upstream address as an [`Ask`] and
    /// answers with what comes back (`502` and the error kind if nothing
    /// does); `FORGET` has every loop forget that address.
    struct Relay {
        target: SocketAddr,
        upstream: Upstream,
    }

    impl FrameService for Relay {
        type Cont = ();

        fn faults(&self) -> Option<&FaultPlan> {
            None
        }

        fn fault(&self, _: &FaultPlan, _: &Message) -> Option<FaultKind> {
            None
        }

        fn handle(&self, msg: &Message, _: Option<FaultKind>, ctx: &mut FrameCtx<'_>) -> Step<()> {
            if msg.start().starts_with("FORGET") {
                ctx.seat.forget_upstream(self.target);
                return Step::Reply(Some(response(status::OK, "OK")));
            }
            let ask = Ask {
                addr: self.target,
                upstream: self.upstream,
                deadline: DEADLINE,
                request: msg.clone(),
            };
            Step::Ask(ask, ())
        }

        fn resume(&self, (): (), event: Event, _: &Seat<'_>) -> Step<()> {
            Step::Reply(Some(match event {
                Event::Answer(Ok(reply)) => reply,
                Event::Answer(Err(e)) => response(502, &e.kind().to_string()),
                _ => unreachable!("the relay only asks"),
            }))
        }
    }

    /// One event loop relaying to `target`, and a client connection to it.
    struct Rig {
        relay: Server<()>,
        telemetry: Arc<ReactorTelemetry>,
        client: BufReader<TcpStream>,
    }

    fn relay_to(target: SocketAddr, upstream: Upstream) -> Rig {
        let telemetry = Arc::<ReactorTelemetry>::default();
        let relay = Server::start_on(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            "relay",
            Arc::new(Relay { target, upstream }),
            1,
            Arc::clone(&telemetry),
        )
        .unwrap();
        let client = BufReader::new(TcpStream::connect(relay.addr()).unwrap());
        Rig {
            relay,
            telemetry,
            client,
        }
    }

    impl Rig {
        fn send(&mut self, what: &str) {
            let msg = Message::new(format!("PEERGET {what} BAPS/1.0"));
            write_message(self.client.get_mut(), &msg).unwrap();
        }

        fn recv(&mut self) -> io::Result<Message> {
            let reply = read_message(&mut self.client)?.expect("the relay answers");
            match response_code(&reply) {
                Some(502) => Err(io::Error::other(reply.start().to_owned())),
                _ => Ok(reply),
            }
        }

        fn ask(&mut self, what: &str) -> io::Result<Message> {
            self.send(what);
            self.recv()
        }

        fn counters(&self) -> UpstreamSnapshot {
            self.telemetry.upstream()
        }

        /// Waits until the loop has seen what the other side did to its
        /// idle connection (a FIN or stray bytes are in flight on
        /// loopback, not yet necessarily delivered), or has handled a
        /// message sent to it.
        fn until(&self, what: &str, seen: impl Fn(UpstreamSnapshot) -> bool) {
            let t0 = Instant::now();
            while !seen(self.counters()) {
                assert!(t0.elapsed() < DEADLINE, "{what}: {:?}", self.counters());
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn snapshot(dials: [u64; 2], reuses: [u64; 2], stale: u64, idle: [u64; 2]) -> UpstreamSnapshot {
        UpstreamSnapshot {
            dials,
            reuses,
            stale,
            idle,
        }
    }

    #[test]
    fn sequential_exchanges_share_one_connection() {
        let srv = scripted(|_| Act::Echo);
        let mut rig = relay_to(srv.addr, Upstream::Peer);
        for i in 0..50 {
            let reply = rig.ask(&format!("/doc/{i}")).unwrap();
            assert_eq!(
                &reply.body[..],
                format!("PEERGET /doc/{i} BAPS/1.0").as_bytes()
            );
        }
        assert_eq!(rig.counters(), snapshot([1, 0], [49, 0], 0, [1, 0]));
        assert_eq!(srv.accepted(), 1);
        let gauges = rig.telemetry.snapshot();
        assert_eq!((gauges.exchanges_in_flight, gauges.parked_requests), (0, 0));
    }

    /// A framed refusal leaves the stream in sync: the connection is
    /// reused for the next request.
    #[test]
    fn framed_error_reply_keeps_the_connection() {
        let srv = scripted(|n| if n == 0 { Act::Gone } else { Act::Echo });
        let mut rig = relay_to(srv.addr, Upstream::Peer);
        let gone = rig.ask("/a").unwrap();
        assert_eq!(response_code(&gone), Some(status::GONE));
        assert_eq!(response_code(&rig.ask("/b").unwrap()), Some(status::OK));
        assert_eq!(rig.counters().dials, [1, 0]);
    }

    /// A drop or a truncated frame on a reused connection: the error
    /// surfaces (peers get no silent redial), the connection is gone for
    /// good, and the next reply — on a fresh one — is intact.
    #[test]
    fn transport_failure_never_returns_the_connection() {
        for bad in [Act::Drop, Act::Truncate] {
            let srv = scripted(move |n| if n == 1 { bad } else { Act::Echo });
            let mut rig = relay_to(srv.addr, Upstream::Peer);
            rig.ask("/warm").unwrap();
            assert!(rig.ask("/faulted").is_err());
            assert_eq!(rig.counters().idle, [0, 0], "failed connection was parked");
            let reply = rig.ask("/after").unwrap();
            assert_eq!(&reply.body[..], b"PEERGET /after BAPS/1.0");
            assert_eq!(rig.counters(), snapshot([2, 0], [1, 0], 0, [1, 0]));
        }
    }

    /// The other side closed the idle connection: the loop sees the close
    /// as a readiness event and drops the connection, so the next request
    /// is sent once, on a fresh dial, and succeeds.
    #[test]
    fn closed_idle_connection_is_dropped_before_it_costs_a_request() {
        let srv = scripted(|n| {
            if n == 0 {
                Act::EchoThenClose
            } else {
                Act::Echo
            }
        });
        let mut rig = relay_to(srv.addr, Upstream::Peer);
        rig.ask("/warm").unwrap();
        rig.until("the close is seen", |c| c.stale == 1);
        assert_eq!(rig.counters().idle, [0, 0]);
        let reply = rig.ask("/next").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /next BAPS/1.0");
        assert_eq!(rig.counters(), snapshot([2, 0], [0, 0], 1, [1, 0]));
        assert_eq!(srv.requests(), 2, "each request was sent exactly once");
    }

    /// Unread bytes behind a reply mean the stream is out of step with
    /// its requests; such a connection is never handed out again.
    #[test]
    fn stray_bytes_disqualify_a_connection() {
        let srv = scripted(|n| if n == 0 { Act::Babble } else { Act::Echo });
        let mut rig = relay_to(srv.addr, Upstream::Peer);
        rig.ask("/warm").unwrap();
        // Behind the reply in one read (never parked) or after it (parked,
        // then seen as a readiness event nobody asked for).
        rig.until("the stray bytes are seen", |c| c.idle == [0, 0]);
        let reply = rig.ask("/next").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /next BAPS/1.0");
        assert_eq!(rig.counters().dials, [2, 0]);
        assert_eq!(rig.counters().reuses, [0, 0]);
    }

    /// More exchanges at once than the cap: every one gets a connection,
    /// the cap's worth stay afterwards — peer or origin alike.
    #[test]
    fn a_burst_leaves_the_cap_behind() {
        const BURST: usize = IDLE_PER_ADDR + 2;
        for upstream in [Upstream::Peer, Upstream::Origin] {
            let srv = scripted(|_| Act::EchoAfter(BURST as u64));
            let rig = relay_to(srv.addr, upstream);
            let mut clients: Vec<_> = (0..BURST)
                .map(|_| BufReader::new(TcpStream::connect(rig.relay.addr()).unwrap()))
                .collect();
            for client in &mut clients {
                write_message(client.get_mut(), &Message::new("PEERGET /x BAPS/1.0")).unwrap();
            }
            for client in &mut clients {
                let reply = read_message(client).unwrap().unwrap();
                assert_eq!(response_code(&reply), Some(status::OK));
            }
            let counters = rig.counters();
            assert_eq!(counters.dials[upstream as usize], BURST as u64);
            assert_eq!(counters.idle[upstream as usize], IDLE_PER_ADDR as u64);
            assert_eq!(srv.accepted(), BURST as u64);
        }
    }

    /// `forget` closes what is idle for the address; so does a dial to it
    /// that fails (here the redial of an origin exchange whose reused
    /// connection broke, the one dial made while others sit idle).
    #[test]
    fn failed_dial_and_forget_drop_the_idle_set() {
        let srv = scripted(|_| Act::Echo);
        let mut rig = relay_to(srv.addr, Upstream::Peer);
        rig.ask("/a").unwrap();
        assert_eq!(rig.counters().idle, [1, 0]);
        let forget = Message::new("FORGET BAPS/1.0");
        write_message(rig.client.get_mut(), &forget).unwrap();
        read_message(&mut rig.client).unwrap().unwrap();
        rig.until("the address is forgotten", |c| c.idle == [0, 0]);
        assert_eq!(rig.counters().stale, 0, "forgotten, not found broken");

        // Two idle connections to an origin that then stops listening and
        // drops the next request it is sent.
        let srv = scripted(|n| match n {
            0 | 1 => Act::EchoAfter(2),
            _ => Act::Drop,
        });
        let mut rig = relay_to(srv.addr, Upstream::Origin);
        let mut second = BufReader::new(TcpStream::connect(rig.relay.addr()).unwrap());
        rig.send("/0");
        write_message(second.get_mut(), &Message::new("PEERGET /1 BAPS/1.0")).unwrap();
        rig.recv().unwrap();
        read_message(&mut second).unwrap().unwrap();
        assert_eq!(rig.counters().idle, [0, 2]);
        srv.stop_listening();
        assert!(rig.ask("/2").is_err(), "reused, dropped, redial refused");
        assert_eq!(rig.counters(), snapshot([0, 2], [0, 1], 0, [0, 0]));
    }

    /// The origin keeps the rule of the blocking pool: a failure on a
    /// reused connection redials once, invisibly; on a fresh one it
    /// surfaces.
    #[test]
    fn origin_redials_once_only_when_reused() {
        let srv = scripted(|n| {
            if n == 1 || n == 3 {
                Act::Drop
            } else {
                Act::Echo
            }
        });
        let mut rig = relay_to(srv.addr, Upstream::Origin);
        rig.ask("/0").unwrap();
        // Request 1 dies on the reused connection; request 2 is its replay.
        let reply = rig.ask("/1").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /1 BAPS/1.0");
        let counters = rig.counters();
        assert_eq!((counters.dials, counters.reuses), ([0, 2], [0, 1]));
        // Request 3 dies on a fresh connection: no replay.
        rig.relay.drop_all();
        assert_eq!(rig.counters().idle, [0, 0]);
        rig.client = BufReader::new(TcpStream::connect(rig.relay.addr()).unwrap());
        assert!(rig.ask("/3").is_err());
        assert_eq!(rig.counters().dials, [0, 3]);
        assert_eq!(srv.requests(), 4);
    }
}
